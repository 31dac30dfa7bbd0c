"""Seeded random machines for differential tests.

A TSA has 2-4 states, 1-2 labels, the alphabet {a, b} and 2-9
transitions.  Each transition reads a, b or nothing, tests `true` or one
label (the root label `@` included), and runs any instruction kind, with
child indices 1-2.  Most such machines accept few words, and many grow
their tree without end on eps steps, so every search over them needs a
step and a vertex budget.

A PDA has the same states, alphabet and transition counts, 1-2 stack
symbols, and pushes (of a symbol or of nothing) and pops.  With
`shaped`, some state names take the shapes of the names the
constructions add (`q0^(u)`, `q0_dn`) or of a product state (`q0&r0`),
so a construction that does not check its new names against the old
ones merges states.
"""

from __future__ import annotations

import random

from tsalab.convert import Pda
from tsalab.treestack import ROOT_LABEL, Instruction, Predicate, pred_eq
from tsalab.tsa import Transition, Tsa

KINDS = ("id", "push", "up", "down", "set")
SHAPES = ("^(u)", "^(d)", "^(A)", "_dn", "_ok", "&r0")


def state_names(rng: random.Random, shaped: bool) -> list[str]:
    """2-4 distinct names; with `shaped`, a name after the first is at
    random an earlier name with a construction's suffix."""
    names: list[str] = []
    count = rng.randint(2, 4)
    while len(names) < count:
        q = f"q{len(names)}"
        if shaped and names and rng.random() < 0.5:
            q = rng.choice(names) + rng.choice(SHAPES)
        if q not in names:
            names.append(q)
    return names


def random_tsa(rng: random.Random, shaped: bool = False) -> Tsa:
    states = state_names(rng, shaped)
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


def random_tsas(seed: int, count: int, shaped: bool = False) -> list[Tsa]:
    rng = random.Random(seed)
    return [random_tsa(rng, shaped) for _ in range(count)]


def random_pda(rng: random.Random) -> Pda:
    states = state_names(rng, shaped=True)
    stack = ["A", "u"][: rng.randint(1, 2)]  # `u` is also the push ladder's tag
    delta = []
    for i in range(rng.randint(2, 9)):
        # this draw order fixes the machines random_pdas(seed, n) gives,
        # which the seeds in the tests were chosen on
        if rng.random() < 0.35:
            top, instr = rng.choice(stack), Instruction("pop")
        else:
            top, pushed = rng.choice(stack + [ROOT_LABEL]), rng.choice(stack + [None])
            instr = Instruction("id") if pushed is None else Instruction("push", 1, pushed)
        delta.append(Transition(rng.choice(states), rng.choice((None, "a", "b")), pred_eq(top),
                                instr, rng.choice(states), name=f"t{i}"))
    finals = frozenset(rng.sample(states, rng.randint(1, 2)))
    return Pda(tuple(states), ("a", "b"), tuple(stack), states[0], tuple(delta), finals)


def random_pdas(seed: int, count: int) -> list[Pda]:
    rng = random.Random(seed)
    return [random_pda(rng) for _ in range(count)]

