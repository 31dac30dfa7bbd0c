"""Built-in machines used throughout the test suites and the CLI.

Each machine is a text in the machine-file format, read by the parser
on every call, so the parser is the only definition of a machine.  This
module holds the four plain TSAs and the tables from fixture name to
text that the CLI reads, `TSA_FILES` and `PDA_FILES`.  The texts of the
WP(Z) PDA, its 1-TSA and the ks machine live in `convert`, beside the
PDA format.

The abcd machine accepts { a^m b^m c^m d^m : m >= 0 } with 2-restricted
runs; the updown demo is the 14-transition single-run machine whose
vertex-11 analysis values are pinned in the acceptance suite; the a-star
machine is a 2-state acceptor of a* used by the pumpability checks.
"""

from __future__ import annotations

from .convert import KS_FILE, WPZ_PDA_FILE, WPZ_TSA_FILE
from .tsa import Tsa, parse_tsa

# Four-block counter machine: push a branch of STARs while reading a's,
# then walk it down for b, up for c, down for d.
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

# Two-branch machine for a^n b^m c^n d^m: root child 1 counts a against
# c, root child 2 counts b against d.
ANBMCNDM_FILE = """\
tsa
states: q0 q1 q2 q3 q4 q5 q6 q8 q9
initial: q0
final: q9
labels: A MA BB B MB
alphabet: a b c d
trans: q0 a true push 1 A q0
trans: q0 eps true push 1 MA q1
trans: q1 eps eq MA down q1
trans: q1 eps eq A down q1
trans: q1 eps eq @ push 2 BB q2
trans: q2 b true push 1 B q2
trans: q2 eps true push 1 MB q3
trans: q3 eps eq MB down q3
trans: q3 eps eq B down q3
trans: q3 eps eq BB down q3
trans: q3 eps eq @ up 1 q4
trans: q4 c eq A up 1 q4
trans: q4 eps eq MA down q5
trans: q5 eps eq A down q5
trans: q5 eps eq @ up 2 q6
trans: q6 eps eq BB up 1 q6
trans: q6 d eq B up 1 q6
trans: q6 eps eq MB down q8
trans: q8 eps eq B down q8
trans: q8 eps eq BB down q8
trans: q8 eps eq @ id q9
"""

UPDOWN_FILE = """\
tsa
states: q0 q1 q2 q3 q4 q5 q6 q7 q8
initial: q0
final: q8
labels: c1 c2 c3 c4 c5 c6 c7
alphabet: a b c d e f g h
trans: q0 a true push 1 c1 q1  # s1
trans: q1 b true push 1 c2 q2  # s2
trans: q2 eps true set c3 q3  # s3
trans: q3 c true push 2 c4 q4  # s4
trans: q4 eps true down q5  # s5
trans: q5 d true down q6  # s6
trans: q6 e true push 2 c5 q7  # s7
trans: q7 eps true down q4  # s8
trans: q4 eps true up 1 q4  # s9
trans: q4 eps true set c6 q3  # s10
trans: q3 f true push 1 c7 q3  # s11
trans: q3 eps true down q0  # s12
trans: q0 g true down q7  # s13
trans: q7 h true down q8  # s14
"""

ASTAR_FILE = """\
tsa
states: p0 p1
initial: p0
final: p1
labels: X
alphabet: a
trans: p0 a true id p0  # loop
trans: p0 eps true id p1  # stop
"""

TSA_FILES = {
    "abcd": ABCD_FILE,
    "anbmcndm": ANBMCNDM_FILE,
    "updown": UPDOWN_FILE,
    "astar": ASTAR_FILE,
    "wpz": WPZ_TSA_FILE,
    "ks": KS_FILE,
}
PDA_FILES = {"wpz": WPZ_PDA_FILE}


def abcd_tsa() -> Tsa:
    """The 2-restricted acceptor of a^m b^m c^m d^m (ABCD_FILE)."""
    return parse_tsa(ABCD_FILE)


def updown_demo_tsa() -> Tsa:
    """A machine admitting the single 14-transition run on abcdefgh whose
    vertex-11 up-down vector is (2,5,9,12); used to pin the run-analysis
    operations bit for bit."""
    return parse_tsa(UPDOWN_FILE)


def updown_demo_run():
    """The demo run: all fourteen transitions in order, reading abcdefgh."""
    return list(range(14)), "abcdefgh"


def anbmcndm_tsa() -> Tsa:
    """The acceptor of a^n b^m c^n d^m; matches the two-pair grammar's
    language and exercises multi-child root analyses."""
    return parse_tsa(ANBMCNDM_FILE)


def astar_tsa() -> Tsa:
    """Two-state acceptor of a*: reads a's at the root, then stops."""
    return parse_tsa(ASTAR_FILE)
