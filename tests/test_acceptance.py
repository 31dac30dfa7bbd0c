"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Expected values come from structural oracles or
were hand-verified against the source tables before being frozen here.
Criteria 1, 4, 7, 8, 9, 10 and 12 run the check groups of tsalab.suites,
the same code `tsalab suite` runs, and assert every record.

Criterion 8's whole-word rejection claim does not hold for the published
machine (it accepts ttTtTT on a branch its stuck-run table never takes);
that half is asserted as stated and marked xfail.  See the README note.
"""

import random

import pytest

from conftest import Stopwatch, abcd_oracle, abcd_word, anbmcndm_oracle, counting_wpz_oracle, words_upto

from tsalab import analysis, convert, langlab, mcfg, suites
from tsalab.fixtures import abcd_tsa, updown_demo_run, updown_demo_tsa
from tsalab.tsa import SearchOptions, accepts, replay, visited_from_below_counts

K2 = SearchOptions(k=2)


def assert_passes(records):
    failed = [(label, note) for label, ok, note in records if not ok]
    assert records and not failed, failed


def test_criterion_01_abcd_reproduction():
    with Stopwatch(1, 1.0):
        assert_passes(suites.abcd_witnesses())


def test_criterion_02_rejection_soundness():
    with Stopwatch(2, 120.0):
        tsa = abcd_tsa()
        checked = 0
        for w in words_upto("abcd", 8):
            res = accepts(tsa, w, K2)
            if res:
                assert abcd_oracle(w), w
            else:
                assert res.reason == "exhausted", w  # budgets sized to close
                assert not abcd_oracle(w), w
            checked += 1
        assert checked == sum(4 ** n for n in range(9))


def test_criterion_03_run_analysis_values():
    with Stopwatch(3, 1.0):
        idx, word = updown_demo_run()
        tr = replay(updown_demo_tsa(), word, idx)
        assert analysis.up_down_vector(tr, (1, 1)).flat() == (2, 5, 9, 12)
        f = analysis.nu_factorisation(tr, (1, 1))
        assert (f.w0, f.parts) == ("ab", (("c", "de"), ("f", "gh")))
        h = analysis.history_array(tr, (1, 1))
        assert h.labels == ("c2", "c3", "c3", "c6")
        assert h.states == ("q2", "q5", "q4", "q0")


def test_criterion_04_single_swap_soundness():
    with Stopwatch(4, 60.0):
        assert_passes(suites.swap_splices())


def test_criterion_05_mcfg_fixtures():
    with Stopwatch(5, 5.0):
        g1 = mcfg.parse_mcfg(mcfg.EXAMPLE_ABCD)
        assert mcfg.mcfg_enumerate(g1, 12) == {abcd_word(i) for i in range(4)}
        g2 = mcfg.parse_mcfg(mcfg.EXAMPLE_ANBMCNDM)
        got = mcfg.mcfg_enumerate(g2, 12)
        want = {"a" * n + "b" * m + "c" * n + "d" * m
                for n in range(7) for m in range(7) if 2 * n + 2 * m <= 12}
        assert got == want
        assert all(anbmcndm_oracle(w) for w in got)


def test_criterion_06_pda_round_trip():
    with Stopwatch(6, 120.0):
        pda = convert.fixture_wpz_pda()
        tsa = convert.pda_to_tsa1(pda)
        back = convert.tsa1_to_pda(tsa)
        opts = SearchOptions(accept_mode="any")
        words = 0
        for w in words_upto("tT", 8):
            want = counting_wpz_oracle(w)
            a = convert.pda_accepts(pda, w)
            b = accepts(tsa, w, opts)
            c = convert.pda_accepts(back, w)
            assert bool(a) == bool(b) == bool(c) == want, w
            if b:
                counts = visited_from_below_counts(b)
                assert all(v <= 1 for v in counts.values()), w
            if w:
                words += 1
        assert words == 510


def test_criterion_07_translated_trace_golden():
    with Stopwatch(7, 1.0):
        assert_passes(suites.wpz_golden())


def test_criterion_08_ks_stuck_configuration():
    with Stopwatch("8 (stuck branch)", 1.0):
        assert_passes(suites.ks_stuck())


@pytest.mark.xfail(strict=True,
                   reason="does not hold as stated: the published machine "
                          "accepts ttTtTT via a branch its stuck-run table "
                          "never takes (see the README note)")
def test_criterion_08_ks_whole_word_rejection():
    with Stopwatch("8 (whole-word rejection)", 1.0):
        assert_passes(suites.ks_whole_word())  # the criterion as stated


def test_criterion_09_f2f2_experiment():
    with Stopwatch(9, 60.0):
        rep = langlab.f2f2_experiment(3, 3)
        assert_passes(suites.f2f2_checks(rep))
        assert rep.psi_expected == {("a" * m + "b" * m) * n
                                    for m in (1, 2, 3) for n in (1, 2, 3)}


def test_criterion_10_gap_families():
    with Stopwatch(10, 1.0):
        assert_passes(suites.gap_checks())


def test_criterion_11_bound_formulas():
    with Stopwatch(11, 1.0):
        assert analysis.substitution_bound(1, 1, 2, 2, 5, 1, 0) == (42, 42)
        rng = random.Random(2024)
        for _ in range(1000):
            args = [rng.randint(0, 40) for _ in range(7)]
            n_lam, n_mu = analysis.substitution_bound(*args)
            if args[1] == args[0]:
                assert n_lam == n_mu
            coord = rng.randrange(7)
            bigger = list(args)
            bigger[coord] += rng.randint(0, 10)
            b_lam, b_mu = analysis.substitution_bound(*bigger)
            assert b_lam >= n_lam and b_mu >= n_mu


def test_criterion_12_pumpability():
    with Stopwatch(12, 5.0):
        assert_passes(suites.pump_checks())
