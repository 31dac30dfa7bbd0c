"""Named check bundles behind `tsalab suite <name>`: each runs a slice of
the acceptance criteria at desk scale and prints one pass/fail line per
check.  The ks bundle reports the stuck simulation branch faithfully and
also states what exhaustive search actually finds (see the README note on
the published machine)."""

from __future__ import annotations

import itertools

from . import analysis, convert, fixtures, langlab
from .tsa import NotApplicable, SearchOptions, accepts, enumerate_words, replay, step


def _check(label: str, ok: bool, note: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({note})" if note else ""))
    return ok


def suite_abcd() -> bool:
    tsa = fixtures.abcd_tsa()
    opts = SearchOptions(k=2)
    ok = True
    for m in range(7):
        w = "a" * m + "b" * m + "c" * m + "d" * m
        res = accepts(tsa, w, opts)
        good = bool(res) and res.final().ts.pointer == ()
        ok &= _check(f"abcd accepts m={m} at the root, 2-restricted", good)
    res = accepts(tsa, "aabbccdd", opts)
    ok &= _check("m=2 run is s1 s1 s2 s3 s4 s4 s5 s6 s6 s7 s8 s8 s9",
                 res.names() == ["s1", "s1", "s2", "s3", "s4", "s4", "s5",
                                 "s6", "s6", "s7", "s8", "s8", "s9"])
    sample = enumerate_words(tsa, 4, opts)
    ok &= _check("enumeration to length 4 is {eps, abcd}", sample == {"", "abcd"})
    return ok


def suite_wpz() -> bool:
    tsa = convert.fixture_wpz_tsa()
    pda = convert.fixture_wpz_pda()
    golden = ["s0", "s'1@", "s'2", "s'1t", "s'2", "s''5", "s''7", "s'3t",
              "s'4t", "s'2", "s''5", "s''7", "s''5", "s''6", "s''7", "s'f", "s''f"]
    res = accepts(tsa, "ttTtTT")
    ok = _check("ttTtTT accepted by the printed 17-transition sequence",
                bool(res) and res.names() == golden)
    agree = True
    for n in range(7):
        for tup in itertools.product("tT", repeat=n):
            w = "".join(tup)
            want = tup.count("t") == tup.count("T")
            agree &= bool(convert.pda_accepts(pda, w)) == want
            agree &= bool(accepts(tsa, w)) == want
    ok &= _check("pda and converted tsa match the counting oracle to length 6", agree)
    return ok


def suite_ks() -> bool:
    tsa = convert.fixture_ks_tsa()
    prefix = convert.ks_stuck_prefix(tsa)
    tr = replay(tsa, "ttTtTT", prefix)
    final = tr.final()
    applicable = []
    for t in tsa.delta:
        try:
            step(tsa, "ttTtTT", final, t)
            applicable.append(t.name)
        except NotApplicable:
            pass
    ok = _check("stack-simulation branch jams after ttT at (S, 1.2, t)",
                final.state == "S" and final.ts.pointer == (1, 2)
                and final.ts.pointer_label == "t" and final.pos == 3
                and not applicable)
    res = accepts(tsa, "ttTtTT", SearchOptions(accept_mode="any"))
    ok &= _check("exhaustive search rejects ttTtTT", not res,
                 "the published machine actually accepts via a non-simulation "
                 "branch; the jam above is what the stuck-run table shows")
    return ok


def suite_f2f2() -> bool:
    rep = langlab.f2f2_experiment(2, 2)
    ok = _check("membership == cancellation equations == equal exponents (n,m <= 2)",
                not rep.mismatches)
    ok &= _check("erased members are exactly the block words (n,m <= 2)",
                 rep.psi_image == rep.psi_expected)
    return ok


def suite_gaps() -> bool:
    ok = _check("powers of two diverge (m <= 50)",
                langlab.gap_check(langlab.unary_lengths("pow2", 20), 50).divergent)
    ok &= _check("squares diverge (m <= 50)",
                 langlab.gap_check(langlab.unary_lengths("square", 50), 50).divergent)
    ok &= _check("constant gaps stay inconclusive",
                 not langlab.gap_check(list(range(3, 90, 3)), 50).divergent)
    return ok


def suite_sm() -> bool:
    # pump all five letters of S_2 in lockstep: a^i b^i c^i d^i e^i
    orc = langlab.oracle("s_m", m=2)
    rep = analysis.weak_pump_verify(
        orc, ["", "", "", ""], ["a", "c", "e"], ["", "", ""], ["b", "d", ""], 4)
    return _check("S_2 weak pumping holds for i <= 4", rep.all_ok)


def suite_ambm() -> bool:
    orc = langlab.oracle("ambm_n")
    good = analysis.weak_pump_verify(orc, ["a", ""], ["a"], ["b"], ["b"], 4)
    ok = _check("block language pumps a and b together for i <= 4", good.all_ok)
    bad = analysis.weak_pump_verify(orc, ["a", "b"], ["ab"], [""], [""], 2)
    ok &= _check("mixed-letter factor fails at i=2", bad.first_failure() == 2)
    return ok


def suite_swap() -> bool:
    tsa = fixtures.abcd_tsa()
    opts = SearchOptions(k=2, proper_only=True)
    traces = {m: accepts(tsa, "a" * m + "b" * m + "c" * m + "d" * m, opts)
              for m in range(1, 4)}
    ok = True
    pairs = 0
    for m1, t1 in traces.items():
        for m2, t2 in traces.items():
            for v1 in sorted(t1.final().ts.dom):
                for v2 in sorted(t2.final().ts.dom):
                    if not v1 or not v2:
                        continue
                    try:
                        h1 = analysis.history_array(t1, v1)
                        h2 = analysis.history_array(t2, v2)
                    except analysis.AnalysisError:
                        continue
                    if h1 != h2:
                        continue
                    rep = analysis.single_swap(t1, v1, t2, v2)
                    pairs += 1
                    ok &= rep.accepted and rep.spliced_replay_ok
    return _check(f"all {pairs} same-array splices across m <= 3 are accepted", ok)


def suite_pump() -> bool:
    ast = fixtures.astar_tsa()
    tr = accepts(ast, "aaaaa", SearchOptions(accept_mode="any"))
    res = analysis.find_pumpable(tr, 1, SearchOptions(accept_mode="any"))
    bound = len(ast.labels) * len(ast.states)
    ok = _check("a* witness pumps with 1 <= |y| <= |C||Q|",
                res is not None and 1 <= len(res.y) <= bound and all(res.verified.values()))
    tsa = fixtures.abcd_tsa()
    quiet = True
    for m in range(4):
        w = "a" * m + "b" * m + "c" * m + "d" * m
        tr = accepts(tsa, w, SearchOptions(k=2))
        quiet &= analysis.find_pumpable(tr, 1) is None
    ok &= _check("abcd witnesses have no long stationary stretch", quiet)
    return ok


def suite_level1() -> bool:
    tsa = fixtures.abcd_tsa()
    tr = accepts(tsa, "aabbccdd", SearchOptions(k=2))
    l1 = analysis.level1_arrays(tr)
    ok = _check("level-1 rows for the m=2 run are l=(1,7) m=(5,11) n=(1,1)",
                l1.ls == (1, 7) and l1.ms == (5, 11) and l1.ns == (1, 1))
    u1 = analysis.up_down_vector(tr, (1,))
    ok &= _check("columns tagged with child 1 equal the vertex-1 up-down vector",
                 l1.restricted_to_child(1) == u1.pairs)
    return ok


SUITES = {
    "abcd": suite_abcd,
    "wpz": suite_wpz,
    "ks": suite_ks,
    "f2f2": suite_f2f2,
    "gaps": suite_gaps,
    "sm": suite_sm,
    "ambm": suite_ambm,
    "swap": suite_swap,
    "pump": suite_pump,
    "level1": suite_level1,
}


def run_suite(name: str) -> bool:
    if name == "all":
        return all([run_suite(n) for n in SUITES])
    if name not in SUITES:
        raise SystemExit(f"error: unknown suite {name!r}; "
                         f"choose from {', '.join(sorted(SUITES))} or all")
    print(f"== suite {name} ==")
    return SUITES[name]()
