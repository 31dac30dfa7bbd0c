"""Built-in machines used throughout the test suites and the CLI.

The abcd machine accepts { a^m b^m c^m d^m : m >= 0 } with 2-restricted
runs; the updown demo is the 14-transition single-run machine whose
vertex-11 analysis values are pinned in the acceptance suite; the a-star
machine is a 2-state acceptor of a* used by the pumpability checks.
"""

from __future__ import annotations

from .treestack import (
    PRED_TRUE,
    instr_down,
    instr_id,
    instr_push,
    instr_set,
    instr_up,
    pred_eq,
)
from .tsa import Transition, Tsa


def abcd_tsa() -> Tsa:
    """Four-block counter machine: push a branch of STARs while reading a's,
    then walk it down for b, up for c, down for d."""
    T = Transition
    delta = (
        T("q0", "a", PRED_TRUE, instr_push(1, "STAR"), "q0", name="s1"),
        T("q0", None, PRED_TRUE, instr_push(1, "HASH"), "q1", name="s2"),
        T("q1", None, pred_eq("HASH"), instr_down(), "q1", name="s3"),
        T("q1", "b", pred_eq("STAR"), instr_down(), "q1", name="s4"),
        T("q1", None, pred_eq("@"), instr_up(1), "q2", name="s5"),
        T("q2", "c", pred_eq("STAR"), instr_up(1), "q2", name="s6"),
        T("q2", None, pred_eq("HASH"), instr_down(), "q3", name="s7"),
        T("q3", "d", pred_eq("STAR"), instr_down(), "q3", name="s8"),
        T("q3", None, pred_eq("@"), instr_id(), "q4", name="s9"),
    )
    return Tsa(
        states=("q0", "q1", "q2", "q3", "q4"),
        labels=("STAR", "HASH"),
        alphabet=("a", "b", "c", "d"),
        initial="q0",
        delta=delta,
        finals=frozenset({"q4"}),
    )


ABCD_FILE = """\
tsa
states: q0 q1 q2 q3 q4
initial: q0
final: q4
labels: STAR HASH
alphabet: a b c d
trans: q0 a   true    push 1 STAR  q0   # s1
trans: q0 eps true    push 1 HASH  q1   # s2
trans: q1 eps eq HASH down         q1   # s3
trans: q1 b   eq STAR down         q1   # s4
trans: q1 eps eq @    up 1         q2   # s5
trans: q2 c   eq STAR up 1         q2   # s6
trans: q2 eps eq HASH down         q3   # s7
trans: q3 d   eq STAR down         q3   # s8
trans: q3 eps eq @    id           q4   # s9
"""


def updown_demo_tsa() -> Tsa:
    """A machine admitting the single 14-transition run on abcdefgh whose
    vertex-11 up-down vector is (2,5,9,12); used to pin the run-analysis
    operations bit for bit."""
    T = Transition
    delta = (
        T("q0", "a", PRED_TRUE, instr_push(1, "c1"), "q1", name="s1"),
        T("q1", "b", PRED_TRUE, instr_push(1, "c2"), "q2", name="s2"),
        T("q2", None, PRED_TRUE, instr_set("c3"), "q3", name="s3"),
        T("q3", "c", PRED_TRUE, instr_push(2, "c4"), "q4", name="s4"),
        T("q4", None, PRED_TRUE, instr_down(), "q5", name="s5"),
        T("q5", "d", PRED_TRUE, instr_down(), "q6", name="s6"),
        T("q6", "e", PRED_TRUE, instr_push(2, "c5"), "q7", name="s7"),
        T("q7", None, PRED_TRUE, instr_down(), "q4", name="s8"),
        T("q4", None, PRED_TRUE, instr_up(1), "q4", name="s9"),
        T("q4", None, PRED_TRUE, instr_set("c6"), "q3", name="s10"),
        T("q3", "f", PRED_TRUE, instr_push(1, "c7"), "q3", name="s11"),
        T("q3", None, PRED_TRUE, instr_down(), "q0", name="s12"),
        T("q0", "g", PRED_TRUE, instr_down(), "q7", name="s13"),
        T("q7", "h", PRED_TRUE, instr_down(), "q8", name="s14"),
    )
    return Tsa(
        states=tuple(f"q{i}" for i in range(9)),
        labels=tuple(f"c{i}" for i in range(1, 8)),
        alphabet=tuple("abcdefgh"),
        initial="q0",
        delta=delta,
        finals=frozenset({"q8"}),
    )


def updown_demo_run():
    """The demo run: all fourteen transitions in order, reading abcdefgh."""
    return list(range(14)), "abcdefgh"


def anbmcndm_tsa() -> Tsa:
    """Two-branch machine for a^n b^m c^n d^m: root child 1 counts a
    against c, root child 2 counts b against d.  Matches the two-pair
    grammar's language; also exercises multi-child root analyses."""
    T = Transition
    delta = (
        T("q0", "a", PRED_TRUE, instr_push(1, "A"), "q0"),
        T("q0", None, PRED_TRUE, instr_push(1, "MA"), "q1"),
        T("q1", None, pred_eq("MA"), instr_down(), "q1"),
        T("q1", None, pred_eq("A"), instr_down(), "q1"),
        T("q1", None, pred_eq("@"), instr_push(2, "BB"), "q2"),
        T("q2", "b", PRED_TRUE, instr_push(1, "B"), "q2"),
        T("q2", None, PRED_TRUE, instr_push(1, "MB"), "q3"),
        T("q3", None, pred_eq("MB"), instr_down(), "q3"),
        T("q3", None, pred_eq("B"), instr_down(), "q3"),
        T("q3", None, pred_eq("BB"), instr_down(), "q3"),
        T("q3", None, pred_eq("@"), instr_up(1), "q4"),
        T("q4", "c", pred_eq("A"), instr_up(1), "q4"),
        T("q4", None, pred_eq("MA"), instr_down(), "q5"),
        T("q5", None, pred_eq("A"), instr_down(), "q5"),
        T("q5", None, pred_eq("@"), instr_up(2), "q6"),
        T("q6", None, pred_eq("BB"), instr_up(1), "q6"),
        T("q6", "d", pred_eq("B"), instr_up(1), "q6"),
        T("q6", None, pred_eq("MB"), instr_down(), "q8"),
        T("q8", None, pred_eq("B"), instr_down(), "q8"),
        T("q8", None, pred_eq("BB"), instr_down(), "q8"),
        T("q8", None, pred_eq("@"), instr_id(), "q9"),
    )
    return Tsa(
        states=tuple(f"q{i}" for i in (0, 1, 2, 3, 4, 5, 6, 8, 9)),
        labels=("A", "MA", "BB", "B", "MB"),
        alphabet=("a", "b", "c", "d"),
        initial="q0",
        delta=delta,
        finals=frozenset({"q9"}),
    )


def astar_tsa() -> Tsa:
    """Two-state acceptor of a*: reads a's at the root, then stops."""
    T = Transition
    delta = (
        T("p0", "a", PRED_TRUE, instr_id(), "p0", name="loop"),
        T("p0", None, PRED_TRUE, instr_id(), "p1", name="stop"),
    )
    return Tsa(
        states=("p0", "p1"),
        labels=("X",),
        alphabet=("a",),
        initial="p0",
        delta=delta,
        finals=frozenset({"p1"}),
    )
