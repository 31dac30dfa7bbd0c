import random
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from conftest import (
    abcd_oracle,
    abcd_word,
    anbmcndm_oracle,
    counting_wpz_oracle,
    crossing_recorder,
    words_upto,
)

import tsalab.analysis as analysis_mod
from tsalab.analysis import (
    ArityMismatch,
    EmpiricalUpSet,
    EmptyLevel1,
    HistoryMismatch,
    StrongConditionViolated,
    TraceNotAtRoot,
    TraceNotProper,
    VertexNotInFinalTree,
    ZeroPumpVolume,
    check_U_switchable,
    check_atv_bounds,
    collect_upsets,
    find_pumpable,
    history_array,
    level1_arrays,
    nu_factorisation,
    single_swap,
    substitution_bound,
    up_down_vector,
    weak_pump_verify,
)
from tsalab.convert import fixture_wpz_tsa
from tsalab.fixtures import abcd_tsa, anbmcndm_tsa, astar_tsa, updown_demo_run, updown_demo_tsa
from tsalab.langlab import oracle
from tsalab.treestack import InputError
from tsalab.tsa import ReplayMismatch, SearchOptions, accepts, replay

K2 = SearchOptions(k=2)


@pytest.fixture(scope="module")
def demo_trace():
    tsa = updown_demo_tsa()
    idx, word = updown_demo_run()
    return replay(tsa, word, idx)


@pytest.fixture(scope="module")
def abcd_traces():
    tsa = abcd_tsa()
    return {m: accepts(tsa, abcd_word(m), K2) for m in range(5)}


# -- up-down vectors ---------------------------------------------------------

def test_demo_updown_vector(demo_trace):
    assert up_down_vector(demo_trace, (1, 1)).flat() == (2, 5, 9, 12)


def test_table_updown_vertex1(abcd_traces):
    # independently recomputed from the pointer path of the table run
    tr = abcd_traces[2]
    moves = [c.ts.pointer for c in tr.configurations()]
    assert crossing_recorder(moves, (1,)) == (1, 5, 7, 11)
    assert up_down_vector(tr, (1,)).flat() == (1, 5, 7, 11)


def test_immediate_down_gives_equal_pair(abcd_traces):
    tr = abcd_traces[2]
    udv = up_down_vector(tr, (1, 1, 1))
    (l1, m1), (l2, m2) = udv.pairs
    assert l1 == m1 and l2 == m2
    f = nu_factorisation(tr, (1, 1, 1))
    assert f.u_tuple() == ("", "")


def test_single_visit_vertex():
    # a vertex pushed and immediately left: s = 1, l1 = m1, u1 empty
    from tsalab.treestack import PRED_TRUE, instr_down, instr_id, instr_push, pred_eq
    from tsalab.tsa import Transition, Tsa

    T = Transition
    tsa = Tsa(("q0", "q1", "q2", "q3"), ("x",), ("a",), "q0",
              (T("q0", "a", PRED_TRUE, instr_push(1, "x"), "q1"),
               T("q1", None, PRED_TRUE, instr_down(), "q2"),
               T("q2", None, pred_eq("@"), instr_id(), "q3")),
              frozenset({"q3"}))
    tr = accepts(tsa, "a", SearchOptions())
    udv = up_down_vector(tr, (1,))
    assert udv.pairs == ((1, 1),)
    assert nu_factorisation(tr, (1,)).u_tuple() == ("",)


def test_updown_missing_vertex(abcd_traces):
    with pytest.raises(VertexNotInFinalTree):
        up_down_vector(abcd_traces[1], (9,))
    with pytest.raises(VertexNotInFinalTree):
        up_down_vector(abcd_traces[1], ())


def test_updown_requires_proper(demo_trace):
    from tsalab.treestack import PRED_TRUE, instr_id
    from tsalab.tsa import Transition, Tsa

    T = Transition
    imp = Tsa(("q0", "q1", "q2"), ("c",), ("a",), "q0",
              (T("q0", "a", PRED_TRUE, instr_id(), "q0"),
               T("q0", None, PRED_TRUE, instr_id(), "q1"),
               T("q1", None, PRED_TRUE, instr_id(), "q2")),
              frozenset({"q2"}))
    tr = replay(imp, "a", [0, 1, 2])
    with pytest.raises(TraceNotProper):
        up_down_vector(tr, (1,))


def test_updown_requires_the_run_to_end_at_the_root():
    from tsalab.treestack import PRED_TRUE, instr_push
    from tsalab.tsa import Transition, Tsa

    tsa = Tsa(("q0", "q1"), ("x",), ("a",), "q0",
              (Transition("q0", "a", PRED_TRUE, instr_push(1, "x"), "q1"),),
              frozenset({"q1"}))
    tr = accepts(tsa, "a", SearchOptions(accept_mode="any"))
    assert tr and tr.final().ts.pointer == (1,)
    with pytest.raises(TraceNotAtRoot):
        up_down_vector(tr, (1,))


def test_updown_vertex_count_equals_vfb(abcd_traces):
    from tsalab.tsa import visited_from_below_counts

    for m in range(1, 5):
        tr = abcd_traces[m]
        counts = visited_from_below_counts(tr)
        for nu, c in counts.items():
            assert up_down_vector(tr, nu).s == c


# -- factorisations ----------------------------------------------------------

def test_demo_factorisation(demo_trace):
    f = nu_factorisation(demo_trace, (1, 1))
    assert f.w0 == "ab"
    assert f.parts == (("c", "de"), ("f", "gh"))
    assert f.word() == "abcdefgh"


def test_factorisation_identity_random(abcd_traces):
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(0, 4)
        tr = abcd_traces[m]
        tree = tr.final().ts
        nu = rng.choice([a for a in sorted(tree.dom) if a != ()])
        f = nu_factorisation(tr, nu)
        assert f.word() == abcd_word(m)
        assert f.s == up_down_vector(tr, nu).s


# -- history arrays ----------------------------------------------------------

def test_demo_history_array(demo_trace):
    h = history_array(demo_trace, (1, 1))
    assert h.labels == ("c2", "c3", "c3", "c6")
    assert h.states == ("q2", "q5", "q4", "q0")


def test_leaf_history_array(abcd_traces):
    h = history_array(abcd_traces[2], (1, 1, 1))
    assert h.labels == ("HASH", "HASH", "HASH", "HASH")
    assert h.states == ("q1", "q1", "q2", "q2")


def test_no_set_means_labels_stable(abcd_traces):
    # this machine never relabels, so every column pair repeats its label
    for m in range(1, 4):
        tr = abcd_traces[m]
        for nu in sorted(tr.final().ts.dom):
            if nu == ():
                continue
            h = history_array(tr, nu)
            assert h.labels[0] == h.labels[1]


# -- single swap -------------------------------------------------------------

def test_swap_self_identity(abcd_traces):
    tr = abcd_traces[2]
    rep = single_swap(tr, (1, 1), tr, (1, 1))
    assert rep.word == abcd_word(2)
    assert rep.accepted and rep.spliced_replay_ok


def test_swap_abcd_with_m2(abcd_traces):
    rep = single_swap(abcd_traces[1], (1,), abcd_traces[2], (1,))
    assert rep.accepted and rep.spliced_replay_ok
    assert abcd_oracle(rep.word)


def test_swap_mismatch_raises(abcd_traces):
    with pytest.raises(HistoryMismatch):
        # interior STAR vertex vs HASH leaf carry different arrays
        single_swap(abcd_traces[2], (1,), abcd_traces[2], (1, 1, 1))


def test_swap_replay_mismatch_clears_replay_ok(abcd_traces, monkeypatch):
    def jammed(tsa, word, idxs):
        raise ReplayMismatch(1, "PredicateFails")

    monkeypatch.setattr(analysis_mod, "replay", jammed)
    rep = single_swap(abcd_traces[1], (1,), abcd_traces[2], (1,))
    assert rep.accepted and not rep.spliced_replay_ok


def test_swap_replay_bug_propagates(abcd_traces, monkeypatch):
    # only a replay mismatch means "the splice does not replay"; anything
    # else is a bug and must not be reported as a failed splice
    def broken(tsa, word, idxs):
        raise RuntimeError("bug in replay")

    monkeypatch.setattr(analysis_mod, "replay", broken)
    with pytest.raises(RuntimeError, match="bug in replay"):
        single_swap(abcd_traces[1], (1,), abcd_traces[2], (1,))


def test_swap_exhaustive_m_le_4(abcd_traces):
    checked = 0
    for m1 in range(5):
        for m2 in range(5):
            t1, t2 = abcd_traces[m1], abcd_traces[m2]
            for v1 in sorted(t1.final().ts.dom):
                for v2 in sorted(t2.final().ts.dom):
                    if v1 == () or v2 == ():
                        continue
                    if history_array(t1, v1) != history_array(t2, v2):
                        continue
                    rep = single_swap(t1, v1, t2, v2)
                    assert rep.accepted and rep.spliced_replay_ok, (m1, v1, m2, v2)
                    checked += 1
    assert checked > 50


# -- empirical up-sets -------------------------------------------------------

def test_collect_upsets_abcd():
    tsa = abcd_tsa()
    ups = collect_upsets(tsa, [abcd_word(m) for m in range(6)], K2)
    assert not ups.budget_failures
    leaf_key = [h for h in ups.entries if set(h.labels) == {"HASH"}]
    assert len(leaf_key) == 1
    assert ups.entries[leaf_key[0]] == {("", "")}
    star_key = [h for h in ups.entries if set(h.labels) == {"STAR"}]
    assert len(star_key) == 1
    tuples = ups.entries[star_key[0]]
    assert len(tuples) > 3  # grows with m: the up-set looks infinite
    maxlens = ups.max_total_lengths()
    assert maxlens[star_key[0]] > maxlens[leaf_key[0]]


def test_collect_upsets_empty():
    ups = collect_upsets(abcd_tsa(), [], K2)
    assert ups.entries == {}


def test_collect_upsets_keeps_rejected_words_apart_from_budget_cuts():
    ups = collect_upsets(abcd_tsa(), ["ab", abcd_word(1)], K2)
    assert ups.rejected == ["ab"] and not ups.budget_failures
    assert set(ups.traces) == {abcd_word(1)}
    cut = collect_upsets(abcd_tsa(), [abcd_word(2)], SearchOptions(k=2, max_steps=3))
    assert cut.budget_failures == [abcd_word(2)] and not cut.rejected


def test_collect_upsets_files_each_distinct_word_once():
    twice = collect_upsets(fixture_wpz_tsa(), ["tT", "tT", "tt", "tt"])
    once = collect_upsets(fixture_wpz_tsa(), ["tT", "tt"])
    assert twice.rejected == ["tt"]
    for f in fields(EmpiricalUpSet):
        assert getattr(twice, f.name) == getattr(once, f.name), f.name


def test_upsets_share_key_and_provenance_replays():
    from tsalab.tsa import replay_trace

    tsa = abcd_tsa()
    ups = collect_upsets(tsa, [abcd_word(3), abcd_word(4)], K2)
    star_key = next(h for h in ups.entries if set(h.labels) == {"STAR"})
    assert len(ups.entries[star_key]) >= 2  # tuples from both words share the key
    for (h, us), prov in ups.provenance.items():
        for word, nu in prov:
            stored = ups.traces[word]
            replay_trace(stored)
            assert history_array(stored, nu) == h
            assert nu_factorisation(stored, nu).u_tuple() == us
            # and the deterministic search reproduces the same witness
            again = accepts(tsa, word, SearchOptions(k=2, proper_only=True))
            assert again.transition_indices() == stored.transition_indices()


# -- pumpability -------------------------------------------------------------

def test_pumpable_on_astar():
    tsa = astar_tsa()
    tr = accepts(tsa, "a" * 5, SearchOptions(accept_mode="any"))
    res = find_pumpable(tr, 1)
    assert res is not None
    bound = len(tsa.labels) * len(tsa.states)
    assert 1 <= len(res.y) <= bound
    assert res.x + res.y + res.z == "a" * 5
    assert all(res.verified.values())
    # independent check against the counting oracle: a* accepts everything
    for n in (0, 2, 3):
        assert set(res.word(n)) <= {"a"}


def test_pumpable_none_on_abcd(abcd_traces):
    for m in range(1, 4):
        assert find_pumpable(abcd_traces[m], 1) is None


def test_pumpable_threshold_exceeds_trace(abcd_traces):
    tr = abcd_traces[1]
    assert find_pumpable(tr, len(tr.steps) + 1) is None


# -- letter-count bounds -----------------------------------------------------

def test_atv_bounds_abcd(abcd_traces):
    rep = check_atv_bounds(abcd_traces[2], 1)
    assert rep.k == 2 and rep.all_ok
    root_row = next(r for r in rep.vertices if r.vertex == ())
    assert root_row.bound == 1 * 2 * 1 * 5  # mu k D |Q|
    assert root_row.letters == 0


def test_atv_bounds_empty_trace():
    tr = accepts(abcd_tsa(), "", K2)
    rep = check_atv_bounds(tr, 1)
    assert rep.all_ok


def test_atv_bounds_wpz_word():
    tsa = fixture_wpz_tsa()
    tr = accepts(tsa, "ttTtTT")
    rep = check_atv_bounds(tr, 1)
    assert rep.all_ok
    assert rep.k == 1  # no up instructions in the converted machine


def test_atv_strong_condition_violation():
    # a* reads five letters in one stationary stretch at the root, but the
    # bound checker needs positive degree, so build a pushing variant
    from tsalab.treestack import PRED_TRUE, instr_down, instr_id, instr_push
    from tsalab.tsa import Transition, Tsa

    T = Transition
    tsa = Tsa(("q0", "q1", "q2"), ("x",), ("a",), "q0",
              (T("q0", None, PRED_TRUE, instr_push(1, "x"), "q1"),
               T("q1", "a", PRED_TRUE, instr_id(), "q1"),
               T("q1", None, PRED_TRUE, instr_down(), "q2")),
              frozenset({"q2"}))
    tr = accepts(tsa, "a" * 10, SearchOptions(accept_mode="root"))
    with pytest.raises(StrongConditionViolated):
        check_atv_bounds(tr, 1)  # mu |C| |Q| = 3 < 10


def test_atv_degree_zero_rejected():
    tr = accepts(astar_tsa(), "a", SearchOptions(accept_mode="any"))
    with pytest.raises(ValueError):
        check_atv_bounds(tr, 1)


def test_lambda_singular_reporting(abcd_traces):
    tr = abcd_traces[2]
    rep = check_atv_bounds(tr, 1, marks=set(range(len(abcd_word(2)))), lam=1)
    # the root reads nothing outside its own subtree, so it is singular
    assert () in rep.lambda_singular
    # the deepest vertex sees almost all letters read outside its subtree
    assert (1, 1, 1) not in rep.lambda_singular


def test_marks_outside_the_word_are_refused(abcd_traces):
    tr = abcd_traces[2]  # 8 letters
    for marks in ({100}, {-1}, {0, 8}):
        with pytest.raises(InputError, match="marks must index into the word"):
            check_atv_bounds(tr, 1, marks=marks, lam=1)


# -- bound formulas ----------------------------------------------------------

def test_bound_formula_pinned_value():
    assert substitution_bound(1, 1, 2, 2, 5, 1, 0) == (42, 42)


def test_bound_formula_refuses_a_negative_argument():
    with pytest.raises(InputError):
        substitution_bound(1, 1, 2, 2, 5, -1, 0)


def test_bound_formula_degree_zero_collapse():
    n_lambda, _ = substitution_bound(2, 3, 4, 5, 6, 0, 99)
    assert n_lambda == 2 * 4 * 5 * 6 + 3


def test_bound_formula_lambda_eq_mu():
    n_lambda, n_mu = substitution_bound(3, 3, 2, 2, 2, 2, 1)
    assert n_lambda == n_mu


@given(st.lists(st.integers(0, 50), min_size=7, max_size=7),
       st.integers(0, 6), st.integers(0, 5))
def test_bound_formula_monotone(args, coord, bump):
    base = substitution_bound(*args)
    bigger = list(args)
    bigger[coord] += bump
    assert substitution_bound(*bigger)[0] >= base[0]
    assert substitution_bound(*bigger)[1] >= base[1]


# -- switchability and weak pumping ------------------------------------------

def test_switchable_with_collected_upsets():
    tsa = abcd_tsa()
    ups = collect_upsets(tsa, [abcd_word(m) for m in range(1, 5)], K2)
    star_key = next(h for h in ups.entries if set(h.labels) == {"STAR"})
    tr = accepts(tsa, abcd_word(2), SearchOptions(k=2, proper_only=True))
    fact = nu_factorisation(tr, (1,))
    rep = check_U_switchable(abcd_oracle, fact, sorted(ups.entries[star_key]))
    assert rep.all_ok


def test_switchable_identity():
    tr = accepts(abcd_tsa(), abcd_word(2), SearchOptions(k=2, proper_only=True))
    fact = nu_factorisation(tr, (1,))
    rep = check_U_switchable(abcd_oracle, fact, [fact.u_tuple()])
    assert rep.all_ok


def test_switchable_corrupted_tuple_recorded():
    tr = accepts(abcd_tsa(), abcd_word(2), SearchOptions(k=2, proper_only=True))
    fact = nu_factorisation(tr, (1,))
    rep = check_U_switchable(abcd_oracle, fact, [("zz", "zz")])
    assert not rep.all_ok and len(rep.failures) == 1


def test_switchable_arity_mismatch():
    tr = accepts(abcd_tsa(), abcd_word(2), SearchOptions(k=2, proper_only=True))
    fact = nu_factorisation(tr, (1,))
    with pytest.raises(ArityMismatch):
        check_U_switchable(abcd_oracle, fact, [("a",)])


def test_weak_pump_abcd():
    rep = weak_pump_verify(abcd_oracle, ["", "", ""], ["a", "c"], ["", ""], ["b", "d"], 5)
    assert rep.all_ok


def test_weak_pump_identity_decomposition():
    w = abcd_word(2)
    rep = weak_pump_verify(abcd_oracle, ["", ""], [w], [""], [""], 1)
    assert rep.results[1][2]  # i=1 reproduces w itself


def test_weak_pump_mixed_factor_fails_at_2():
    rep = weak_pump_verify(oracle("ambm_n"), ["a", "b"], ["ab"], [""], [""], 2)
    assert rep.first_failure() == 2


def test_weak_pump_zero_volume():
    with pytest.raises(ZeroPumpVolume):
        weak_pump_verify(abcd_oracle, ["", ""], [""], [""], [""], 1)


# -- level-1 arrays ----------------------------------------------------------

def test_level1_abcd(abcd_traces):
    l1 = level1_arrays(abcd_traces[2])
    assert l1.ls == (1, 7)
    assert l1.ms == (5, 11)
    assert l1.ns == (1, 1)
    assert l1.s <= 2 * 1  # k * D
    assert l1.factorisation.word() == abcd_word(2)


def test_level1_demo(demo_trace):
    l1 = level1_arrays(demo_trace)
    # one excursion: pushed at step 1, returns with the final step
    assert l1.ns == (1,)
    assert l1.ls == (1,)
    assert l1.factorisation.w0 == "a"


def test_level1_consistency(abcd_traces):
    for m in range(1, 5):
        tr = abcd_traces[m]
        l1 = level1_arrays(tr)
        for n in set(l1.ns):
            assert l1.restricted_to_child(n) == up_down_vector(tr, (n,)).pairs


def test_level1_history_children(abcd_traces):
    l1 = level1_arrays(abcd_traces[2])
    assert l1.history_children == (1, 1, 1, 1)
    h = history_array(abcd_traces[2], (1,))
    assert l1.history_labels == h.labels
    assert l1.history_states == h.states


def test_level1_empty():
    tr = accepts(astar_tsa(), "a", SearchOptions(accept_mode="any"))
    with pytest.raises(EmptyLevel1):
        level1_arrays(tr)


def test_level1_two_root_children():
    from tsalab.fixtures import anbmcndm_tsa

    tsa = anbmcndm_tsa()
    tr = accepts(tsa, "aabccd", SearchOptions(k=2, proper_only=True))
    l1 = level1_arrays(tr)
    # excursions alternate between the two branches: a's, b's, c's, d's
    assert l1.ns == (1, 2, 1, 2)
    assert l1.factorisation.word() == "aabccd"
    for n in (1, 2):
        assert l1.restricted_to_child(n) == up_down_vector(tr, (n,)).pairs
    # column pairs carry their branch in the third row
    assert l1.history_children == (1, 1, 2, 2, 1, 1, 2, 2)


# -- every vertex of every witness, against references that scan the run ------
#
# The analyses read all up-down vectors off one crossing pass.  Here each
# result is rebuilt from the pointer path by the independent recorder, and
# the bounds report by the whole-run scans it replaced.

PROPER_K2 = SearchOptions(k=2, proper_only=True)
WITNESS_FIXTURES = {
    "abcd": (abcd_tsa, abcd_oracle, PROPER_K2),
    "anbmcndm": (anbmcndm_tsa, anbmcndm_oracle, PROPER_K2),
    "wpz": (fixture_wpz_tsa, counting_wpz_oracle, SearchOptions(proper_only=True)),
}


@pytest.fixture(scope="module")
def witnesses():
    """name -> {word: proper witness} for every member up to length 6."""
    out = {}
    for name, (make, member, opts) in WITNESS_FIXTURES.items():
        tsa = make()
        out[name] = {}
        for w in words_upto("".join(tsa.alphabet), 6):
            if member(w):
                tr = accepts(tsa, w, opts)
                assert tr, (name, w)
                out[name][w] = tr
    return out


def two_visit_reader_trace():
    """A run that reads letters with the pointer resting at (1,) on both of
    its visits from below: the fixtures above read only while moving."""
    from tsalab.treestack import PRED_TRUE, instr_down, instr_id, instr_push, instr_up
    from tsalab.tsa import Transition, Tsa

    T = Transition
    tsa = Tsa(("q0", "q1", "q2", "q3", "q4"), ("x",), ("a", "b"), "q0",
              (T("q0", None, PRED_TRUE, instr_push(1, "x"), "q1"),
               T("q1", "a", PRED_TRUE, instr_id(), "q1"),
               T("q1", None, PRED_TRUE, instr_down(), "q2"),
               T("q2", None, PRED_TRUE, instr_up(1), "q3"),
               T("q3", "b", PRED_TRUE, instr_id(), "q3"),
               T("q3", None, PRED_TRUE, instr_down(), "q4")),
              frozenset({"q4"}))
    return accepts(tsa, "aabbb", SearchOptions(proper_only=True))


@pytest.fixture(scope="module")
def all_traces(witnesses, demo_trace):
    return ([tr for runs in witnesses.values() for tr in runs.values()]
            + [demo_trace, two_visit_reader_trace()])


def test_two_visit_reader_counts_both_visits():
    tr = two_visit_reader_trace()
    assert up_down_vector(tr, (1,)).pairs == ((1, 3), (5, 8))
    assert nu_factorisation(tr, (1,)).u_tuple() == ("aa", "bbb")
    assert ref_letters_at_vertices(tr) == {(1,): 5}


def ref_pairs(trace, nu):
    flat = crossing_recorder([c.ts.pointer for c in trace.configurations()], nu)
    return tuple(zip(flat[::2], flat[1::2]))


def ref_u_tuple(trace, nu):
    pos = [c.pos for c in trace.configurations()]
    return tuple(trace.word[pos[l]: pos[m]] for l, m in ref_pairs(trace, nu))


def ref_columns(trace, nu, pairs):
    configs = trace.configurations()
    return [(configs[i].ts.label_at(nu), configs[i].state) for pair in pairs for i in pair]


def ref_letters_at_vertices(trace):
    """Letters read by stationary transitions, attributed to the vertex
    the pointer rested at, one step at a time."""
    counts = {}
    rho = [c.ts.pointer for c in trace.configurations()]
    for j, (tidx, _) in enumerate(trace.steps, start=1):
        t = trace.tsa.delta[tidx]
        if t.inp is not None and t.instr.kind in ("id", "set"):
            counts[rho[j - 1]] = counts.get(rho[j - 1], 0) + 1
    return counts


def ref_lambda_singular(trace, marks, lam):
    """Vertices outside whose subtree fewer than lam marked letters are
    read, by testing both pointer ends of every reading step."""
    rho = [c.ts.pointer for c in trace.configurations()]
    pos = [c.pos for c in trace.configurations()]
    singular = []
    for nu in sorted(trace.final().ts.dom):
        outside = 0
        if nu != ():
            depth = len(nu)
            for j, (tidx, _) in enumerate(trace.steps, start=1):
                if trace.tsa.delta[tidx].inp is None or pos[j] - 1 not in marks:
                    continue
                if not (rho[j - 1][:depth] == nu and rho[j][:depth] == nu):
                    outside += 1
        if outside < lam:
            singular.append(nu)
    return singular


def test_every_vertex_matches_recorder(all_traces):
    checked = 0
    for tr in all_traces:
        pos = [c.pos for c in tr.configurations()]
        for nu in sorted(tr.final().ts.dom):
            if nu == ():
                with pytest.raises(VertexNotInFinalTree):
                    up_down_vector(tr, nu)
                continue
            pairs = ref_pairs(tr, nu)
            assert up_down_vector(tr, nu).pairs == pairs, (tr.word, nu)
            f = nu_factorisation(tr, nu)
            assert f.u_tuple() == ref_u_tuple(tr, nu)
            assert f.w0 == tr.word[: pos[pairs[0][0]]]
            assert f.word() == tr.word
            h = history_array(tr, nu)
            assert h.columns() == ref_columns(tr, nu, pairs)
            checked += 1
    assert checked > 200


def test_level1_every_witness_matches_recorder(all_traces):
    for tr in all_traces:
        children = sorted({nu for nu in tr.final().ts.dom if len(nu) == 1})
        cols = sorted((l, m, nu) for nu in children for l, m in ref_pairs(tr, nu))
        if not cols:
            with pytest.raises(EmptyLevel1):
                level1_arrays(tr)
            continue
        l1 = level1_arrays(tr)
        assert list(zip(l1.ls, l1.ms, l1.ns)) == [(l, m, nu[0]) for l, m, nu in cols]
        want = [col for l, m, nu in cols for col in ref_columns(tr, nu, [(l, m)])]
        assert list(zip(l1.history_labels, l1.history_states)) == want
        assert l1.history_children == tuple(nu[0] for _, _, nu in cols for _ in "lm")
        assert l1.factorisation.word() == tr.word


def test_bounds_report_every_witness_matches_scans(all_traces):
    rng = random.Random(11)
    for tr in all_traces:
        mu = max(1, len(tr.word))  # no stationary factor can be too long
        letters = ref_letters_at_vertices(tr)
        rep = check_atv_bounds(tr, mu)
        assert {r.vertex: r.letters for r in rep.vertices} == {
            nu: letters.get(nu, 0) for nu in tr.final().ts.dom}
        marksets = [set(range(len(tr.word))),
                    {i for i in range(len(tr.word)) if rng.random() < 0.5}]
        for marks in marksets:
            for lam in range(4):
                rep = check_atv_bounds(tr, mu, marks, lam)
                assert rep.lambda_singular == ref_lambda_singular(tr, marks, lam), \
                    (tr.word, sorted(marks), lam)


def test_collect_upsets_matches_per_vertex_reference(witnesses):
    for name, runs in witnesses.items():
        make, _, opts = WITNESS_FIXTURES[name]
        ups = collect_upsets(make(), sorted(runs), opts)
        assert not ups.budget_failures and set(ups.traces) == set(runs)
        entries, provenance = {}, {}
        for w, tr in sorted(ups.traces.items()):
            for nu in sorted(tr.final().ts.dom)[1:]:
                h = history_array(tr, nu)
                us = ref_u_tuple(tr, nu)
                assert h.columns() == ref_columns(tr, nu, ref_pairs(tr, nu))
                entries.setdefault(h, set()).add(us)
                provenance.setdefault((h, us), []).append((w, nu))
        assert ups.entries == entries
        assert ups.provenance == provenance
