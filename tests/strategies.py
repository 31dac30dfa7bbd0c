"""Seeded random tree stack automata for differential tests.

A machine has 2-4 states, 1-2 labels, the alphabet {a, b} and 2-9
transitions.  Each transition reads a, b or nothing, tests `true` or one
label (the root label `@` included), and runs any instruction kind, with
child indices 1-2.  Most such machines accept few words, and many grow
their tree without end on eps steps, so every search over them needs a
step and a vertex budget.
"""

from __future__ import annotations

import random

from tsalab.treestack import ROOT_LABEL, Instruction, Predicate
from tsalab.tsa import Transition, Tsa

KINDS = ("id", "push", "up", "down", "set")


def random_tsa(rng: random.Random) -> Tsa:
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    labels = ["A", "B"][: rng.randint(1, 2)]
    delta = []
    for i in range(rng.randint(2, 9)):
        kind = rng.choice(KINDS)
        instr = Instruction(kind,
                            rng.randint(1, 2) if kind in ("push", "up") else None,
                            rng.choice(labels) if kind in ("push", "set") else None)
        pred = (Predicate("true") if rng.random() < 0.3
                else Predicate("eq", rng.choice(labels + [ROOT_LABEL])))
        delta.append(Transition(rng.choice(states), rng.choice((None, "a", "b")), pred, instr,
                                rng.choice(states), name=f"t{i}"))
    finals = frozenset(rng.sample(states, rng.randint(1, 2)))
    return Tsa(tuple(states), tuple(labels), ("a", "b"), states[0], tuple(delta), finals)


def random_tsas(seed: int, count: int) -> list[Tsa]:
    rng = random.Random(seed)
    return [random_tsa(rng) for _ in range(count)]
