"""The acceptance checks, in one place.  `tsalab suite <name>` runs the
named bundle of check groups and prints one pass/fail line per check;
tests/test_acceptance.py runs the same groups and asserts every record.
A check group returns (label, ok, note) records.  The ks bundle reports
the stuck simulation branch faithfully and also states what exhaustive
search actually finds (see the README note on the published machine)."""

from __future__ import annotations

import itertools

from . import analysis, convert, fixtures, langlab
from .tsa import (
    SearchOptions,
    accepts,
    applicable_transitions,
    enumerate_words,
    is_accepting_run,
    replay,
)

Record = tuple[str, bool, str]

K2 = SearchOptions(k=2)
ANY = SearchOptions(accept_mode="any")

# the published transition tables of the two golden witnesses
ABCD_M2_NAMES = ["s1", "s1", "s2", "s3", "s4", "s4", "s5",
                 "s6", "s6", "s7", "s8", "s8", "s9"]
WPZ_TTTTTT_NAMES = ["s0", "s'1@", "s'2", "s'1t", "s'2", "s''5", "s''7", "s'3t",
                    "s'4t", "s'2", "s''5", "s''7", "s''5", "s''6", "s''7", "s'f", "s''f"]


def abcd_word(m: int) -> str:
    return "a" * m + "b" * m + "c" * m + "d" * m


def abcd_witnesses() -> list[Record]:
    """Criterion 1: 2-restricted root runs for m <= 6; the m = 2 table."""
    tsa = fixtures.abcd_tsa()
    runs = [accepts(tsa, abcd_word(m), K2) for m in range(7)]
    out = [(f"abcd accepts m={m} at the root, 2-restricted",
            bool(res) and is_accepting_run(res, K2), "")
           for m, res in enumerate(runs)]
    out.append(("m=2 run is " + " ".join(ABCD_M2_NAMES),
                bool(runs[2]) and runs[2].names() == ABCD_M2_NAMES, ""))
    return out


def abcd_enumeration() -> list[Record]:
    return [("enumeration to length 4 is {eps, abcd}",
             enumerate_words(fixtures.abcd_tsa(), 4, K2) == {"", "abcd"}, "")]


def wpz_golden() -> list[Record]:
    """Criterion 7: the translated machine's witness for ttTtTT."""
    res = accepts(convert.fixture_wpz_tsa(), "ttTtTT")
    return [("ttTtTT accepted by the printed 17-transition sequence",
             bool(res) and res.names() == WPZ_TTTTTT_NAMES, "")]


def wpz_counting() -> list[Record]:
    tsa = convert.fixture_wpz_tsa()
    pda = convert.fixture_wpz_pda()
    agree = True
    for n in range(7):
        for tup in itertools.product("tT", repeat=n):
            w = "".join(tup)
            want = tup.count("t") == tup.count("T")
            agree &= bool(convert.pda_accepts(pda, w)) == want
            agree &= bool(accepts(tsa, w)) == want
    return [("pda and converted tsa match the counting oracle to length 6", agree, "")]


def ks_stuck() -> list[Record]:
    """Criterion 8: the published prefix jams with nothing applicable."""
    tsa = convert.fixture_ks_tsa()
    final = replay(tsa, "ttTtTT", convert.ks_stuck_prefix(tsa)).final()
    jammed = (final.state, final.ts.pointer, final.ts.pointer_label, final.pos) \
        == ("S", (1, 2), "t", 3)
    return [("stack-simulation branch jams after ttT at (S, 1.2, t)",
             jammed and not applicable_transitions(tsa, "ttTtTT", final), "")]


def ks_whole_word() -> list[Record]:
    """Criterion 8 as stated; it does not hold (see the README)."""
    res = accepts(convert.fixture_ks_tsa(), "ttTtTT", ANY)
    return [("exhaustive search rejects ttTtTT", not res,
             "the published machine actually accepts via a non-simulation "
             "branch; the jam above is what the stuck-run table shows")]


def f2f2_checks(rep: langlab.F2F2Report) -> list[Record]:
    """Criterion 9, judged on a report of any size."""
    size = f"n <= {rep.n_max}, m <= {rep.m_max}"
    return [
        (f"membership == cancellation equations == equal exponents ({size})",
         not rep.mismatches, ""),
        (f"one member per exponent pair ({size})",
         rep.members == rep.n_max * rep.m_max, f"{rep.members} members"),
        (f"erased members are exactly the block words ({size})",
         rep.psi_image == rep.psi_expected, ""),
    ]


def f2f2_small() -> list[Record]:
    # the size of criterion 9 in the acceptance tests
    return f2f2_checks(langlab.f2f2_experiment(3, 3))


def gap_checks() -> list[Record]:
    """Criterion 10."""
    out = []
    for family, n, what in (("pow2", 20, "powers of two"), ("square", 50, "squares")):
        rep = langlab.gap_check(langlab.unary_lengths(family, n), 50)
        out.append((f"{what} diverge (m <= 50)",
                    rep.divergent and None not in rep.thresholds.values(), ""))
    rep = langlab.gap_check(list(range(3, 300, 3)), 50)
    out.append(("constant gaps stay inconclusive", rep.verdict == "inconclusive", ""))
    return out


def pump_pattern(name: str, m: int = 2):
    """(oracle, u, v, w, s) for `weak_pump_verify`: "sm" pumps all 2m+1
    letters of S_m in lockstep; otherwise "ambm" seeds at ab and pumps
    both block letters together."""
    if name == "sm":
        # v takes the odd-index letters, s the even ones, the last v unpaired
        orc = langlab.oracle("s_m", m=m)
        k = m + 1
        v = [orc.alphabet[2 * j] for j in range(k)]
        s = [orc.alphabet[2 * j + 1] if 2 * j + 1 < len(orc.alphabet) else "" for j in range(k)]
        return orc, [""] * (k + 1), v, [""] * k, s
    return langlab.oracle("ambm_n"), ["a", ""], ["a"], ["b"], ["b"]


def sm_pumps() -> list[Record]:
    rep = analysis.weak_pump_verify(*pump_pattern("sm", 2), 4)
    return [("S_2 weak pumping holds for i <= 4", rep.all_ok, "")]


def ambm_pumps() -> list[Record]:
    orc, *factors = pump_pattern("ambm")
    good = analysis.weak_pump_verify(orc, *factors, 4)
    bad = analysis.weak_pump_verify(orc, ["a", "b"], ["ab"], [""], [""], 2)
    return [("block language pumps a and b together for i <= 4", good.all_ok, ""),
            ("mixed-letter factor fails at i=2", bad.first_failure() == 2, "")]


def swap_splices() -> list[Record]:
    """Criterion 4: splices of equal-array vertices, m <= 4, at least 100."""
    tsa = fixtures.abcd_tsa()
    opts = SearchOptions(k=2, proper_only=True)
    runs = [accepts(tsa, abcd_word(m), opts) for m in range(5)]
    arrays = [(tr, v, analysis.history_array(tr, v))
              for tr in runs for v in sorted(tr.final().ts.dom) if v]
    ok, pairs = True, 0
    for (t1, v1, h1), (t2, v2, h2) in itertools.product(arrays, repeat=2):
        if h1 == h2:
            rep = analysis.single_swap(t1, v1, t2, v2)
            ok &= rep.accepted and rep.spliced_replay_ok
            pairs += 1
    return [(f"all {pairs} same-array splices across m <= 4 are accepted",
             ok and pairs >= 100, "")]


def pump_checks() -> list[Record]:
    """Criterion 12."""
    ast = fixtures.astar_tsa()
    res = analysis.find_pumpable(accepts(ast, "aaaaa", ANY), 1)
    bound = len(ast.labels) * len(ast.states)
    tsa = fixtures.abcd_tsa()
    quiet = all(analysis.find_pumpable(accepts(tsa, abcd_word(m), K2), 1) is None
                for m in range(4))
    return [("a* witness pumps with 1 <= |y| <= |C||Q| at i = 0, 2, 3",
             res is not None and 1 <= len(res.y) <= bound
             and res.verified == {0: True, 2: True, 3: True}, ""),
            ("abcd witnesses have no long stationary stretch (m <= 3)", quiet, "")]


def level1_checks() -> list[Record]:
    tr = accepts(fixtures.abcd_tsa(), "aabbccdd", K2)
    l1 = analysis.level1_arrays(tr)
    u1 = analysis.up_down_vector(tr, (1,))
    return [("level-1 rows for the m=2 run are l=(1,7) m=(5,11) n=(1,1)",
             l1.ls == (1, 7) and l1.ms == (5, 11) and l1.ns == (1, 1), ""),
            ("columns tagged with child 1 equal the vertex-1 up-down vector",
             l1.restricted_to_child(1) == u1.pairs, "")]


SUITES = {
    "abcd": (abcd_witnesses, abcd_enumeration),
    "wpz": (wpz_golden, wpz_counting),
    "ks": (ks_stuck, ks_whole_word),
    "f2f2": (f2f2_small,),
    "gaps": (gap_checks,),
    "sm": (sm_pumps,),
    "ambm": (ambm_pumps,),
    "swap": (swap_splices,),
    "pump": (pump_checks,),
    "level1": (level1_checks,),
}


def run_suite(name: str) -> bool:
    """Print the records of bundle `name` (or of every bundle, for "all");
    True when all of them pass."""
    if name == "all":
        return all([run_suite(n) for n in SUITES])
    print(f"== suite {name} ==")
    ok = True
    for group in SUITES[name]:
        for label, passed, note in group():
            print(f"{'PASS' if passed else 'FAIL'}  {label}" + (f"  ({note})" if note else ""))
            ok &= passed
    return ok
