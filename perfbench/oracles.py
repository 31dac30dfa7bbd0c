"""Reference answers written from the languages' definitions.

Nothing here imports tsalab: these are what the benchmark checks tsalab's
answers against.
"""

from __future__ import annotations

import itertools
import re

# Acceptance criterion 1: the witness for a^2 b^2 c^2 d^2 on the abcd machine.
ABCD_M2_NAMES = ["s1", "s1", "s2", "s3", "s4", "s4",
                 "s5", "s6", "s6", "s7", "s8", "s8", "s9"]

# Acceptance criterion 7: the translated 17-step run of the WP(Z) machine.
WPZ_TTTTTT_NAMES = ["s0", "s'1@", "s'2", "s'1t", "s'2", "s''5", "s''7", "s'3t",
                    "s'4t", "s'2", "s''5", "s''7", "s''5", "s''6", "s''7",
                    "s'f", "s''f"]

_ABCD = re.compile(r"(a*)(b*)(c*)(d*)")


def abcd(w: str) -> bool:
    """a^m b^m c^m d^m."""
    g = _ABCD.fullmatch(w)
    return bool(g) and len({len(x) for x in g.groups()}) == 1


def anbmcndm(w: str) -> bool:
    """a^n b^m c^n d^m."""
    g = _ABCD.fullmatch(w)
    return bool(g) and len(g[1]) == len(g[3]) and len(g[2]) == len(g[4])


def wp_z(w: str) -> bool:
    """The word problem of Z over {t, T}: as many t as T."""
    return set(w) <= {"t", "T"} and w.count("t") == w.count("T")


def language(member, alphabet: str, max_len: int) -> set[str]:
    """Every word over `alphabet` of length at most `max_len` in the language."""
    return {w for n in range(max_len + 1)
            for w in map("".join, itertools.product(alphabet, repeat=n))
            if member(w)}


def _free_reduce(letters: list[str]) -> list[str]:
    out: list[str] = []
    for x in letters:
        inv = x[0] if x.endswith("'") else x + "'"
        if out and out[-1] == inv:
            out.pop()
        else:
            out.append(x)
    return out


def wp_f2xf2(word: str) -> bool:
    """The identity of F(a,b) x F(c,d): both projections reduce to nothing."""
    toks = re.findall(r"[abcd]'?", word)
    return (not _free_reduce([x for x in toks if x[0] in "ab"])
            and not _free_reduce([x for x in toks if x[0] in "cd"]))


def f2f2_report(n_max: int, m_max: int) -> tuple[int, int, set[str]]:
    """Closed forms of f2f2_experiment(n_max, m_max): the number of test
    words (n + n + t+1 + t exponents each in 1..m_max), the members (one
    all-equal tuple for each n = t and each exponent) and the erased image
    of the members, (a^m b^m)^n."""
    total = sum(m_max ** (2 * n + 2 * t + 1)
                for n in range(1, n_max + 1) for t in range(1, n_max + 1))
    psi = {("a" * m + "b" * m) * n
           for m in range(1, m_max + 1) for n in range(1, n_max + 1)}
    return total, n_max * m_max, psi
