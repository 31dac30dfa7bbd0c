"""Differential tests: the hash-consed search core, behind `accepts`,
`pda_accepts` and `enumerate_words`, against the plain reference searches
in reference_search.py.

Both must return the same result for every query: the same witness,
configuration by configuration, or the same NotFound reason; for an
enumeration, the same words and the same budget words in the same order.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import Stopwatch, abcd_word, counting_wpz_oracle, words_upto

import tsalab.langlab as langlab_mod
import tsalab.tsa as tsa_mod
from tsalab.convert import (
    fixture_ks_tsa,
    fixture_wpz_pda,
    fixture_wpz_tsa,
    parse_pda,
    pda_accepts,
    pda_to_tsa1,
    tsa1_to_pda,
)
from tsalab.fixtures import abcd_tsa, anbmcndm_tsa, astar_tsa, updown_demo_tsa
from tsalab.langlab import WPZ_ALPHABET, eps_free, parse_fsa, rational_membership, regex_to_fsa
from tsalab.analysis import collect_upsets, history_array, single_swap
from tsalab.tsa import (
    BudgetExceeded,
    ReplayMismatch,
    SearchOptions,
    Tsa,
    accepts,
    accepts_each,
    default_max_vertices,
    enumerate_words,
    parse_tsa,
    render_tsa,
    replay,
)

from reference_search import (
    ref_accepts,
    ref_collect_upsets,
    ref_enumerate_words,
    ref_pda_accepts,
)
from strategies import random_pdas, random_tsas


MACHINES = {
    "abcd": abcd_tsa,
    "anbmcndm": anbmcndm_tsa,
    "updown": updown_demo_tsa,
    "wpz": fixture_wpz_tsa,
    "a-star": astar_tsa,
    "ks": fixture_ks_tsa,
}

OPTIONS = {
    "default": SearchOptions(),
    "k1": SearchOptions(k=1),
    "k2": SearchOptions(k=2),
    "proper": SearchOptions(proper_only=True),
    "k2-proper": SearchOptions(k=2, proper_only=True),
    "any": SearchOptions(accept_mode="any"),
    "k2-steps": SearchOptions(k=2, max_steps=6),
    "vertices": SearchOptions(max_vertices=3),
}

# a^n b^n with stack symbols guessed on the way up: several stack symbols,
# eps pushes of a symbol and of nothing, and eps pops
AMBIGUOUS_PDA = """pda
states: q r f
initial: q
final: f
stack: A B C
alphabet: a b
trans: q a push @ A q
trans: q a push A A q
trans: q a push A B q
trans: q a push B B q
trans: q eps push B C q
trans: q b push C - r
trans: q eps push A - r
trans: q eps push B - r
trans: r eps pop C r
trans: r b pop A r
trans: r b pop B r
trans: r eps pop B r
trans: r eps push @ - f
trans: q eps push @ - f
"""

PDAS = {
    "wpz": fixture_wpz_pda,
    "wpz-round-trip": lambda: tsa1_to_pda(pda_to_tsa1(fixture_wpz_pda())),
    "ambiguous": lambda: parse_pda(AMBIGUOUS_PDA),
}

PDA_BUDGETS = {"default": {}, "steps": {"max_steps": 5}, "stack": {"max_stack": 3}}

# all words up to this length; the updown machine has eight letters, so
# beyond length 4 it only gets the words built from its demo word
MAX_LEN = {"updown": 4}
DEMO = "abcdefgh"


def outcome(res):
    """Everything a search result promises, in a comparable form."""
    if not res:
        return ("NotFound", res.reason)
    return ("RunTrace", res.word, res.initial, res.steps)


def words_for(name, tsa):
    yield from words_upto("".join(tsa.alphabet), MAX_LEN.get(name, 6))
    if name == "updown":
        for i, j in itertools.combinations(range(len(DEMO) + 1), 2):
            yield DEMO[:i] + DEMO[j:]  # the demo word with one gap cut out
            yield DEMO[i:j]


def diff_accepts(tsa, words, opts):
    reasons = set()
    for w in words:
        got, want = accepts(tsa, w, opts), ref_accepts(tsa, w, opts)
        assert outcome(got) == outcome(want), (w, opts)
        reasons.add(outcome(got)[0] if got else got.reason)
    return reasons


@pytest.mark.parametrize("opt_name", list(OPTIONS))
@pytest.mark.parametrize("name", list(MACHINES))
def test_accepts_matches_reference(name, opt_name):
    tsa = MACHINES[name]()
    reasons = diff_accepts(tsa, words_for(name, tsa), OPTIONS[opt_name])
    if opt_name in ("k2-steps", "vertices") and name in ("abcd", "anbmcndm", "wpz"):
        assert "budget" in reasons  # the tight budgets really cut searches off


def diff_pda_accepts(pda, words, budgets):
    reasons = set()
    for w in words:
        got, want = pda_accepts(pda, w, **budgets), ref_pda_accepts(pda, w, **budgets)
        assert outcome(got) == outcome(want), (w, budgets)
        reasons.add(outcome(got)[0] if got else got.reason)
    return reasons


@pytest.mark.parametrize("name", list(PDAS))
def test_pda_accepts_matches_reference(name):
    pda = PDAS[name]()
    reasons = set()
    for budgets in PDA_BUDGETS.values():
        reasons |= diff_pda_accepts(pda, words_upto("".join(pda.alphabet), 8), budgets)
    assert reasons == {"RunTrace", "exhausted", "budget"}


def test_pda_accepts_long_words_match_reference():
    rng = random.Random(5)
    words = []
    for n in [200] * 8 + [400] * 8:
        letters = ["t", "T"] * (n // 2)
        rng.shuffle(letters)
        words.append("".join(letters))
    words[1::2] = [w[:-1] + {"t": "T", "T": "t"}[w[-1]] for w in words[1::2]]  # unbalanced
    assert diff_pda_accepts(fixture_wpz_pda(), words, {}) == {"RunTrace", "exhausted"}


@pytest.mark.parametrize("k", [None, 2])
def test_deep_members_match_reference(k):
    opts = SearchOptions(k=k)
    words = []
    for m in range(41):
        w = abcd_word(m)
        words += [w, w[1:], w + "d"]
    assert diff_accepts(abcd_tsa(), words, opts) >= {"RunTrace", "exhausted"}
    words = []
    for n, m in [(n, n) for n in range(0, 41, 4)] + [(40, 1), (1, 40), (13, 29)]:
        w = "a" * n + "b" * m + "c" * n + "d" * m
        words += [w, w[:-1]]
    assert diff_accepts(anbmcndm_tsa(), words, opts) >= {"RunTrace", "exhausted"}


UNIVERSAL_FSA = ("fsa\nstates: u\ninitial: u\nfinal: u\nalphabet: a b c d\n"
                 "trans: u a u\ntrans: u b u\ntrans: u c u\ntrans: u d u\n")


def product(tsa, fsa):
    """The TSA whose runs are the runs of `tsa` with the eps-free `fsa`
    tracking the letters they read: state (q, f) is named `q&f`, and
    each transition keeps its name, so that a witness reads as the
    machine's."""
    pair = {(q, f): f"{q}&{f}" for q in tsa.states for f in fsa.states}
    delta = []
    for t in tsa.delta:
        moves = ([(f, f) for f in fsa.states] if t.inp is None
                 else [(src, dst) for src, x, dst in fsa.delta if x == t.inp])
        delta += [replace(t, src=pair[t.src, src], dst=pair[t.dst, dst]) for src, dst in moves]
    finals = frozenset(pair[q, f] for q in tsa.finals for f in fsa.finals)
    return Tsa(tuple(pair.values()), tsa.labels, tsa.alphabet, pair[tsa.initial, fsa.initial],
               tuple(delta), finals)


# abcd intersected with regular languages: the walk over machines whose
# reading rows fan out over several FSA states
PRODUCTS = {
    "abcd-blocks": lambda: product(abcd_tsa(), eps_free(regex_to_fsa("a*b*c*d*", "abcd"))),
    "abcd-a-plus": lambda: product(abcd_tsa(), eps_free(regex_to_fsa("a+", "abcd"))),
    "abcd-universal": lambda: product(abcd_tsa(), parse_fsa(UNIVERSAL_FSA)),
}

# budgets small enough to cut some of the searches off
ENUMERATE_OPTIONS = {
    **OPTIONS,
    "steps5": SearchOptions(max_steps=5),
    "steps12": SearchOptions(max_steps=12),
    "vertices2": SearchOptions(max_vertices=2),
    "vertices3": SearchOptions(max_vertices=3),
}

# the longest words enumerated, by alphabet size, so that the per-word
# reference stays cheap
ENUMERATE_MAX_LEN = {1: 7, 2: 7, 4: 5, 8: 3}


def enumeration(enumerate_fn, tsa, max_len, opts):
    """The words found and, in order, the words cut off by a budget."""
    try:
        return enumerate_fn(tsa, max_len, opts), None
    except BudgetExceeded as e:
        return e.words, e.budget_words


@pytest.mark.parametrize("name", list(MACHINES) + list(PRODUCTS))
def test_enumerate_words_matches_reference(name):
    tsa = {**MACHINES, **PRODUCTS}[name]()
    max_len = ENUMERATE_MAX_LEN[len(tsa.alphabet)]
    cut = False
    for opt_name, opts in ENUMERATE_OPTIONS.items():
        got = enumeration(enumerate_words, tsa, max_len, opts)
        assert got == enumeration(ref_enumerate_words, tsa, max_len, opts), opt_name
        cut |= got[1] is not None
    assert cut  # some budget words were listed and compared


def upsets(collect, tsa, words, opts):
    """Everything an up-set collection promises, in a comparable form."""
    ups = collect(tsa, words, opts)
    return ({w: outcome(tr) for w, tr in ups.traces.items()}, ups.entries, ups.provenance,
            ups.budget_failures, ups.rejected)


# the option sets of collect_upsets, which forces proper root runs
UPSET_OPTIONS = ("default", "k1", "k2", "k2-steps", "vertices")


@pytest.mark.parametrize("name", list(MACHINES))
def test_collect_upsets_matches_reference(name):
    tsa = MACHINES[name]()
    words = list(words_for(name, tsa))
    words += words[::7]  # a word listed twice is filed once
    for opt_name in UPSET_OPTIONS:
        opts = OPTIONS[opt_name]
        got = upsets(collect_upsets, tsa, words, opts)
        assert got == upsets(ref_collect_upsets, tsa, words, opts), opt_name


@pytest.mark.parametrize("name", list(MACHINES))
def test_collect_upsets_fills_in_the_order_of_insert(name):
    # the reference files every vertex through `EmpiricalUpSet.insert`;
    # the dicts must come out in the same order, and each set of u-tuples
    # must have been built by the same insertions
    tsa = MACHINES[name]()
    words = list(words_for(name, tsa))
    got = collect_upsets(tsa, words, OPTIONS["k2"])
    want = ref_collect_upsets(tsa, words, OPTIONS["k2"])
    assert list(got.traces) == list(want.traces)
    assert list(got.entries) == list(want.entries)
    assert [list(us) for us in got.entries.values()] == [list(us) for us in want.entries.values()]
    assert list(got.provenance.items()) == list(want.provenance.items())


# Random machines (tests/strategies.py).  Every option set bounds both
# budgets: an unbounded random machine can grow its tree on eps steps until
# memory runs out.
RANDOM_OPTIONS = {
    "plain": SearchOptions(max_steps=10, max_vertices=4),
    "k1": SearchOptions(k=1, max_steps=10, max_vertices=4),
    "proper-any": SearchOptions(proper_only=True, accept_mode="any", max_steps=8, max_vertices=3),
    "k2-tight": SearchOptions(k=2, max_steps=4, max_vertices=2),
}


def test_enumerate_words_matches_reference_on_random_machines():
    kinds = set()
    for tsa in random_tsas(13, 1200):
        for opt_name, opts in RANDOM_OPTIONS.items():
            got = enumeration(enumerate_words, tsa, 4, opts)
            assert got == enumeration(ref_enumerate_words, tsa, 4, opts), (opt_name, render_tsa(tsa))
            kinds.add((bool(got[0]), got[1] is not None))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_collect_upsets_matches_reference_on_random_machines():
    words = list(words_upto("ab", 4))
    words = words[::-1] + words[::5]  # any order, some words twice
    kinds = set()
    for tsa in random_tsas(14, 800):
        for opt_name, opts in RANDOM_OPTIONS.items():
            got = upsets(collect_upsets, tsa, words, opts)
            assert got == upsets(ref_collect_upsets, tsa, words, opts), (opt_name, render_tsa(tsa))
            kinds.add((bool(got[0]), bool(got[3])))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_single_swap_splices_replay_on_random_machines():
    # the Substitution Lemma on random machines: two vertices of proper root
    # runs with equal history arrays swap their u-factors, and the spliced
    # run must replay as an accepting run of the spliced word, which
    # `accepts` then accepts unless a budget cuts its search
    opts = SearchOptions(proper_only=True, max_steps=12, max_vertices=5)
    words = list(words_upto("ab", 4))
    pairs = moved = 0
    for tsa in random_tsas(7, 1500):
        by_array = {}
        for w in words:
            res = accepts(tsa, w, opts)
            for nu in sorted(res.final().ts.dom) if res else ():
                if nu:
                    by_array.setdefault(history_array(res, nu), []).append((res, nu))
        for runs in list(by_array.values())[:12]:
            for (r1, v1), (r2, v2) in itertools.product(runs, runs):
                rep = single_swap(r1, v1, r2, v2)
                assert rep.spliced_replay_ok, (r1.word, v1, r2.word, v2, render_tsa(tsa))
                assert rep.accepted or rep.search_reason == "budget", (rep.word, render_tsa(tsa))
                pairs += 1
                moved += rep.word != r1.word
    assert pairs > 1500 and moved > 1000


PUSHES = 33


def padded_tsa():
    """Every accepting run pushes 33 vertices on eps steps, reads its
    word in place and drains back to the root.  Its tree of 34 vertices is
    over `default_max_vertices(n)` for n <= 1 and inside it for n >= 2."""
    lines = ["tsa", "states: " + " ".join(f"q{i}" for i in range(PUSHES + 1)) + " d f",
             "initial: q0", "final: f", "labels: A", "alphabet: a b"]
    lines += [f"trans: q{i} eps true push 1 A q{i + 1}" for i in range(PUSHES)]
    lines += [f"trans: q{PUSHES} a true id q{PUSHES}", f"trans: q{PUSHES} b true id q{PUSHES}",
              f"trans: q{PUSHES} eps eq A down d", "trans: d eps eq A down d",
              "trans: d eps eq @ id f"]
    return parse_tsa("\n".join(lines) + "\n")


def test_budgets_depend_on_the_word_length():
    assert default_max_vertices(1) < PUSHES + 1 <= default_max_vertices(2)
    tsa = padded_tsa()
    short = ["", "a", "b"]
    longer = ["".join(t) for n in (2, 3) for t in itertools.product("ab", repeat=n)]
    got = enumeration(enumerate_words, tsa, 3, SearchOptions())
    assert got == (set(longer), short)
    assert got == enumeration(ref_enumerate_words, tsa, 3, SearchOptions())
    words = short + longer
    got = upsets(collect_upsets, tsa, words, None)
    assert got[3] == short and not got[4] and set(got[0]) == set(longer)
    assert got == upsets(ref_collect_upsets, tsa, words, None)


# Pairs of configurations that differ only below the pointer.  In each
# machine the search meets the one that cannot go on first, at the same
# state and position as the one that can, so a memo key that merged the
# two would drop the accepting branch and answer `exhausted`.
MEMO_TSAS = {
    # {1: A, 1.1: C} against {1: B, 1.1: C}, the pointer at 1.1
    "label-below-the-pointer": (None, """
trans: q0 eps true push 1 A q1
trans: q0 eps true push 1 B q1
trans: q1 eps true push 1 C q2
trans: q2 eps true down q3
trans: q3 eps eq B down f
"""),
    # {1: A}, the pointer at the root, with vertex 1 entered from below
    # twice (at depth 4) against once (at depth 5); one more up needs once
    "vfb-count": (2, """
trans: q0 eps true push 1 A q1
trans: q1 eps true down d1
trans: d1 eps true up 1 u1
trans: u1 eps true down q2
trans: q1 eps true id i1
trans: i1 eps true id i2
trans: i2 eps true id i3
trans: i3 eps true down q2
trans: q2 eps true up 1 q3
trans: q3 eps true down f
"""),
    # {1: A} against {2: A}, the pointer at the root
    "child-slot": (None, """
trans: q0 eps true push 1 A q1
trans: q0 eps true push 2 A q1
trans: q1 eps true down q2
trans: q2 eps true up 2 q3
trans: q3 eps true down f
"""),
}


def memo_tsa(rows):
    """The TSA of these trans lines over the states they name, q0 initial
    and f final."""
    states = dict.fromkeys(["q0"] + [tok for line in rows.split("\n") if line
                                     for tok in (line.split()[1], line.split()[-1])])
    head = ["tsa", "states: " + " ".join(states), "initial: q0", "final: f",
            "labels: A B C", "alphabet: a"]
    return parse_tsa("\n".join(head) + rows)


@pytest.mark.parametrize("name", list(MEMO_TSAS))
def test_memo_keeps_configurations_apart_that_differ_below_the_pointer(name):
    k, rows = MEMO_TSAS[name]
    tsa = memo_tsa(rows)
    opts = SearchOptions(k=k)
    want = ref_accepts(tsa, "", opts)
    assert want
    assert outcome(accepts(tsa, "", opts)) == outcome(want)
    assert outcome(accepts_each(tsa, [""], opts)[""]) == outcome(want)
    assert enumerate_words(tsa, 0, opts) == {""}


# q1's only reading transition tests eq B under a pointer labelled A, so
# it never fires: q1 is dead at the end of the word, and its look-ahead
# bound rides on q0's eps push.
DEAD_READER_TSA = """tsa
states: q0 q1 qf
initial: q0
final: qf
labels: A B
alphabet: a
trans: q0 eps true push 1 A q1
trans: q1 a eq B id qf
"""


def test_a_reading_row_whose_predicate_fails_exhausts():
    tsa = parse_tsa(DEAD_READER_TSA)
    table = tsa_mod.search_rows(tsa)
    assert table.ahead("q1", table.END) == (1, 0)  # dead at the end: its one row reads
    assert [row[-1] for row in table["q0", "@", table.END]] == [(1, 0)]
    for opts in (SearchOptions(), SearchOptions(accept_mode="any"), SearchOptions(k=1)):
        assert outcome(accepts(tsa, "", opts)) == ("NotFound", "exhausted")
        assert outcome(ref_accepts(tsa, "", opts)) == ("NotFound", "exhausted")


# State q interleaves eq and true predicates with reading and eps
# transitions.  Each of q's transitions from 1 to 3 starts one accepting run
# of length 2 on "a" (0 never applies at the root), so the witness is the
# run that starts with whichever of them comes first in delta order.
DELTA_ORDER_Q = [
    "q a eq A id f  # 0",
    "q eps eq @ push 1 A p  # 1",
    "q a true id r  # 2",
    "q eps true push 2 B p  # 3",
]
DELTA_ORDER_REST = [
    "p a eq A id f  # 1",
    "p a eq B id f  # 3",
    "r eps true id f  # 2",
]


def delta_order_tsa(q_rows):
    lines = ["tsa", "states: q p r f", "initial: q", "final: f", "labels: A B", "alphabet: a"]
    return parse_tsa("\n".join(lines + ["trans: " + row for row in (*q_rows, *DELTA_ORDER_REST)])
                     + "\n")


def test_witness_follows_delta_order_among_equal_runs():
    opts = SearchOptions(accept_mode="any")
    for q_rows in itertools.permutations(DELTA_ORDER_Q):
        tsa = delta_order_tsa(q_rows)
        first = next(row[-1] for row in q_rows if not row.endswith("0"))
        on_a = ref_accepts(tsa, "a", opts)
        for got in (accepts(tsa, "a", opts), accepts_each(tsa, ["a"], opts)["a"]):
            assert outcome(got) == outcome(on_a)
            assert [name[-1] for name in got.names()] == [first, first]


# Random machines against the references, query by query.  Both sides have
# the same budgets, so every answer is compared, budget cuts included.

def test_accepts_matches_reference_on_random_machines():
    words = list(words_upto("ab", 3))
    kinds = set()
    for tsa in random_tsas(15, 1000):
        for opt_name, opts in RANDOM_OPTIONS.items():
            for w in words:
                got = accepts(tsa, w, opts)
                assert outcome(got) == outcome(ref_accepts(tsa, w, opts)), (w, opt_name, render_tsa(tsa))
                kinds.add(outcome(got)[0] if got else got.reason)
    assert kinds == {"RunTrace", "exhausted", "budget"}


def test_pda_accepts_matches_reference_on_random_machines():
    words = list(words_upto("ab", 4))
    reasons = set()
    for pda in random_pdas(16, 1000):
        for budgets in ({"max_steps": 10, "max_stack": 4}, {"max_steps": 6, "max_stack": 3}):
            reasons |= diff_pda_accepts(pda, words, budgets)
    assert reasons == {"RunTrace", "exhausted", "budget"}


# Entry/exit summaries.  On a TSA with no `up` row, `accepts` without
# proper_only answers from `tsa._summaries` where no budget can cut the BFS,
# and calls the BFS (`tsa._search`) where one might.

def counted_searches(monkeypatch):
    """Patch `tsa._search` to count its calls; returns the one-item count."""
    calls = [0]
    search = tsa_mod._search

    def counting(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(tsa_mod, "_search", counting)
    return calls


SUMMARY_OPTIONS = [SearchOptions(k=k, accept_mode=mode, **budgets)
                   for mode in ("root", "any") for k in (None, 0, 1, 2)
                   for budgets in ({}, {"max_steps": 6, "max_vertices": 3})]


def test_summaries_match_reference_on_random_up_free_machines(monkeypatch):
    # Under the default budgets a random machine that pushes on eps steps
    # makes trees without end, which the BFS and the reference explore up
    # to 80 vertices for seconds or minutes a word (see RANDOM_OPTIONS); the
    # 63 up-free machines of seed 2 have none that takes half a second.
    calls = counted_searches(monkeypatch)
    machines = [tsa for tsa in random_tsas(2, 200) if tsa_mod.search_rows(tsa).up_free]
    words = list(words_upto("ab", 4))
    answers = Counter()  # (answered by the summaries, outcome kind) -> cases
    for tsa in machines:
        for opts in SUMMARY_OPTIONS:
            for w in words:
                before = calls[0]
                got = accepts(tsa, w, opts)
                assert outcome(got) == outcome(ref_accepts(tsa, w, opts)), (w, opts, render_tsa(tsa))
                answers[calls[0] == before, outcome(got)[0] if got else got.reason] += 1
    by_summaries = sum(n for (summaries, _), n in answers.items() if summaries)
    assert by_summaries > 0.9 * sum(answers.values()), answers
    assert answers[True, "RunTrace"] and answers[True, "exhausted"] and answers[False, "budget"]
    assert not answers[True, "budget"]  # no case here saturates with a cycle of openings


def test_summaries_answer_every_short_wpz_word(monkeypatch):
    calls = counted_searches(monkeypatch)
    wpz = fixture_wpz_tsa()
    got = {w: accepts(wpz, w) for w in words_upto("tT", 10)}
    assert len(got) == 2047 and calls[0] == 0
    assert {w for w, res in got.items() if res} == {w for w in got if counting_wpz_oracle(w)}
    for w in words_upto("tT", 8):  # the BFS's own witnesses and reasons
        assert outcome(got[w]) == outcome(tsa_mod._tsa_search(wpz, w, SearchOptions())), w


ID_LOOP_TSA = """tsa
states: q f
initial: q
final: f
labels: A
alphabet: a
trans: q eps true id q
trans: q a true id q
"""

ENDLESS_PUSH_TSA = """tsa
states: q f
initial: q
final: f
labels: A
alphabet: a
trans: q eps true push 1 A q
"""


@pytest.mark.parametrize("text, word, opts, summary, searches", [
    (ID_LOOP_TSA, "aa", SearchOptions(max_steps=1), None, 1),
    (ENDLESS_PUSH_TSA, "a", SearchOptions(), "budget", 0),
], ids=["eps-id-loop", "endless-eps-push"])
def test_a_cycle_of_facts_leaves_the_answer_to_the_bfs(monkeypatch, text, word, opts, summary,
                                                       searches):
    tsa = parse_tsa(text)
    rows = tsa_mod.search_rows(tsa)
    # a cycle counts as unbounded, whatever the budgets.  An id loop repeats
    # its configurations, so the BFS may exhaust and gives the answer; a push
    # loop grows the tree without end, so the summaries answer `budget`
    for budgets in (opts, SearchOptions()):
        got = tsa_mod._word_summaries(tsa, rows, word, budgets)
        assert (got if got is None else got.reason) == summary
    calls = counted_searches(monkeypatch)
    assert outcome(accepts(tsa, word, opts)) == outcome(ref_accepts(tsa, word, opts)) \
        == ("NotFound", "budget")
    assert calls[0] == searches


# up-free machine 24 of random_tsas(1, 60): t1 pushes on eps without end, so
# the BFS could only stop at a budget, which took it seconds on "aaab"
PUSH_CYCLE_TSA = """tsa
states: q0 q1
initial: q0
final: q1
labels: A
alphabet: a b
trans: q1 eps eq @ set A q1
trans: q0 eps true push 2 A q0
trans: q0 a eq A push 1 A q0
trans: q0 a eq A set A q0
trans: q0 eps true set A q1
trans: q1 a eq A down q1
"""


def test_a_cycle_of_openings_answers_budget_without_the_bfs(monkeypatch):
    tsa = parse_tsa(PUSH_CYCLE_TSA)
    calls = counted_searches(monkeypatch)
    with Stopwatch("budget on a cycle of openings", 1.0):
        for mode in ("root", "any"):
            got = accepts(tsa, "aaab", SearchOptions(accept_mode=mode))
            assert outcome(got) == ("NotFound", "budget"), mode
    assert calls[0] == 0
    monkeypatch.undo()
    for mode in ("root", "any"):  # budgets tight enough for the BFS and the reference
        opts = SearchOptions(accept_mode=mode, max_steps=6, max_vertices=3)
        assert outcome(accepts(tsa, "aaab", opts)) == outcome(ref_accepts(tsa, "aaab", opts)) \
            == outcome(tsa_mod._tsa_search(tsa, "aaab", opts)) == ("NotFound", "budget")


# Two pushes enter (e, B, 0), where a run accepts in any mode: delta index 4,
# from the entry y, found first, and delta index 3, from the root, found after
# e's accepting exit was popped.  The least run, [1, 3], goes through the later
# push, so that push must join with the accepting exit already found.
TWO_PUSH_TSA = """tsa
states: r0 r1 r2 y e
initial: r0
final: e
labels: A B
alphabet: a
trans: r0 eps true id r1
trans: r0 eps true id r2
trans: r1 eps true push 1 A y
trans: r2 eps true push 1 B e
trans: y eps true push 1 B e
"""


@pytest.mark.parametrize("mode, witness", [("any", [1, 3]), ("root", None)])
def test_a_push_found_late_joins_an_accepting_exit(monkeypatch, mode, witness):
    tsa, opts = parse_tsa(TWO_PUSH_TSA), SearchOptions(accept_mode=mode)
    calls = counted_searches(monkeypatch)
    got = accepts(tsa, "", opts)
    assert calls[0] == 0
    assert (got.transition_indices() if got else None) == witness
    assert outcome(got) == outcome(tsa_mod._tsa_search(tsa, "", opts)) \
        == outcome(ref_accepts(tsa, "", opts))


# Two runs of length 2 accept "a" in any mode: [2, 1] (push A, then down
# into the root) and [4, 0] (id into q1, then push A), and [4, 0] is
# offered to the goal first.  The witness is the lexicographically least
# run, so the queue must order runs of one length by their delta indices,
# not by when they were offered.
TIE_TSA = """tsa
states: q0 q1
initial: q0
final: q1
labels: A
alphabet: a b
trans: q1 a eq @ push 1 A q1  # t0
trans: q0 eps eq A down q1  # t1
trans: q0 a true push 1 A q0  # t2
trans: q1 b eq @ down q1  # t3
trans: q0 eps eq @ id q1  # t4
trans: q1 b eq @ push 1 A q0  # t5
trans: q1 b eq A set A q1  # t6
"""


def test_runs_of_one_length_tie_by_their_delta_indices(monkeypatch):
    tsa, opts = parse_tsa(TIE_TSA), SearchOptions(accept_mode="any")
    calls = counted_searches(monkeypatch)
    got = accepts(tsa, "a", opts)
    assert calls[0] == 0
    assert got.names() == ["t2", "t1"]
    assert outcome(got) == outcome(tsa_mod._tsa_search(tsa, "a", opts))


# Summaries over the prefix trie.  On a TSA with no `up` row,
# `enumerate_words` without proper_only answers from `tsa._trie_words`
# where no budget can cut the walk, and runs the walk where one might.

TRIE_OPTIONS = [SearchOptions(k=k, accept_mode=mode, **budgets)
                for mode in ("root", "any") for k in (None, 0, 1)
                for budgets in ({}, {"max_steps": 6, "max_vertices": 3})]


def test_trie_enumeration_matches_the_walk_and_reference_on_random_up_free_machines(monkeypatch):
    # the machines of `test_summaries_match_reference_on_random_up_free_machines`:
    # under the default budgets the walk on a machine that pushes on eps
    # steps without end explores trees of up to 80 vertices for seconds a
    # call, and none of these 63 does
    machines = [tsa for tsa in random_tsas(2, 200) if tsa_mod.search_rows(tsa).up_free]
    trie_words = tsa_mod._trie_words
    answered = []

    def recording(*args):
        runs = trie_words(*args)
        answered.append(runs is not None)
        return runs

    cases = Counter()  # (answered from the trie, words found, budget words listed) -> cases
    for tsa in machines:
        for opts in TRIE_OPTIONS:
            answered.clear()
            monkeypatch.setattr(tsa_mod, "_trie_words", recording)
            got = enumeration(enumerate_words, tsa, 4, opts)
            monkeypatch.setattr(tsa_mod, "_trie_words", lambda *args: None)  # the walk alone
            walk = enumeration(enumerate_words, tsa, 4, opts)
            monkeypatch.undo()
            assert got == walk == enumeration(ref_enumerate_words, tsa, 4, opts), \
                (opts, render_tsa(tsa))
            assert len(answered) == 1
            cases[answered[0], bool(got[0]), got[1] is not None] += 1
    from_trie = sum(n for (trie, _, _), n in cases.items() if trie)
    assert from_trie > 0.9 * sum(cases.values()), cases
    assert cases[True, True, False] and cases[True, False, False] and cases[False, True, True]
    assert not any(budget for (trie, _, budget) in cases if trie)  # the trie never lists one


# Up-free machines 24, 25, 42, 55, 57 and 83 of random_tsas(1, 300) and
# PUSH_CYCLE_TSA have a cycle of openings in their trie facts.  Under the
# default budgets the walk grows trees of up to 80 vertices on them, for
# seconds a call (13-15 s on PUSH_CYCLE_TSA at max_len 4), where `accepts`
# answers each word from its summaries in a few ms; so must the trie.
def test_trie_answers_a_cycle_of_openings_without_the_walk(monkeypatch):
    up_free = [tsa for tsa in random_tsas(1, 300) if tsa_mod.search_rows(tsa).up_free]
    assert len(up_free) == 104
    machines = [up_free[i] for i in (24, 25, 42, 55, 57, 83)] + [parse_tsa(PUSH_CYCLE_TSA)]
    listed = 0
    for tsa in machines:
        for mode in ("root", "any"):
            opts = SearchOptions(accept_mode=mode)
            trie = tsa_mod._Trie(tsa.alphabet, 4)
            derived = tsa_mod._summaries(tsa, tsa_mod.search_rows(tsa), trie, opts, {})[1]
            assert tsa_mod._reopens(derived), (mode, render_tsa(tsa))
            calls = counted_searches(monkeypatch)
            with Stopwatch("enumerate_words on a cycle of openings", 1.0):
                got = enumeration(enumerate_words, tsa, 4, opts)
            monkeypatch.undo()
            assert calls[0] == 0, (mode, render_tsa(tsa))
            assert got == enumeration(ref_enumerate_words, tsa, 4, opts), (mode, render_tsa(tsa))
            listed += len(got[1] or ())
    assert listed > 200


# "" is accepted at once and "a" is not.  The search of "a" also meets the
# eps pushes at "", whose tree of 4 vertices is over a budget of 3, so "a"
# is a budget word, although no run prefix at node "a" pushes.
SHORT_NODE_TSA = """tsa
states: q p1 p2 p3 s
initial: q
final: q
labels: A
alphabet: a
trans: q eps true push 1 A p1
trans: p1 eps true push 1 A p2
trans: p2 eps true push 1 A p3
trans: q a true id s
"""


def test_trie_bound_of_a_length_counts_the_shorter_nodes():
    tsa, opts = parse_tsa(SHORT_NODE_TSA), SearchOptions(max_vertices=3)
    got = enumeration(enumerate_words, tsa, 1, opts)
    assert got == ({""}, ["a"]) == enumeration(ref_enumerate_words, tsa, 1, opts)


# `_execute` re-executes each shared run prefix once and shares its
# configurations among the witnesses that begin with it; each witness must
# still be the run that `replay` makes of its word and transition indices.

def walk_witnesses(monkeypatch, call):
    """The witnesses a walk re-executes while `call()` runs."""
    made = {}
    witnesses = tsa_mod._Walk.witnesses

    def recording(walk, tsa):
        out = witnesses(walk, tsa)
        made.update(out)
        return out

    monkeypatch.setattr(tsa_mod._Walk, "witnesses", recording)
    call()
    monkeypatch.undo()
    return made


def walk_enumeration(tsa, max_len, opts=SearchOptions()):
    """`_search` in walk mode over every word up to max_len, as
    `enumerate_words` runs it where the trie of summaries cannot answer,
    and the witnesses it re-executes."""
    walk = tsa_mod._Walk(tsa, opts, max_len)
    tsa_mod._search(tsa, tsa_mod.search_rows(tsa), None, opts, walk)
    return walk.witnesses(tsa)


def assert_replays(tsa, traces):
    for w, trace in traces.items():
        assert outcome(trace) == outcome(replay(tsa, w, trace.transition_indices())), w


def test_shared_witnesses_equal_replay_on_wpz(monkeypatch):
    tsa = fixture_wpz_tsa()
    made = walk_witnesses(monkeypatch, lambda: walk_enumeration(tsa, 8))
    assert len(made) == 99
    assert_replays(tsa, made)
    steps = [cfg for trace in made.values() for _, cfg in trace.steps]
    assert len({id(cfg) for cfg in steps}) < len(steps)  # shared prefixes ran once
    each = accepts_each(tsa, sorted(made)[::-1])
    assert_replays(tsa, each)
    assert {w: outcome(t) for w, t in each.items()} == {w: outcome(t) for w, t in made.items()}


def test_shared_witnesses_equal_replay_on_random_machines(monkeypatch):
    words = list(words_upto("ab", 4))
    accepted = 0
    for tsa in random_tsas(17, 300):
        for opts in RANDOM_OPTIONS.values():
            made = walk_witnesses(monkeypatch, lambda: walk_enumeration(tsa, 4, opts))
            assert_replays(tsa, made)
            each = {w: t for w, t in accepts_each(tsa, words[::-1], opts).items() if t}
            assert_replays(tsa, each)
            assert set(each) == set(made)
            accepted += len(made)
    assert accepted > 0


def run_steps(monkeypatch, call):
    """What `call()` returns and the number of `_run` steps it takes."""
    steps = [0]
    run = tsa_mod._run

    def counting(w, cfg, moves, out):
        before = len(out)
        try:
            run(w, cfg, moves, out)
        finally:
            steps[0] += len(out) - before

    monkeypatch.setattr(tsa_mod, "_run", counting)
    got = call()
    monkeypatch.undo()
    return got, steps[0]


def test_witnesses_run_each_shared_prefix_once(monkeypatch):
    # wpz's 99 members up to length 8 have witnesses of 2,039 steps in all,
    # and 926 distinct run prefixes: the trie's runs and the walk's each
    # take 926 steps
    tsa = fixture_wpz_tsa()
    assert tsa_mod.search_rows(tsa).up_free  # enumerate_words answers from the trie
    members, steps = run_steps(monkeypatch, lambda: enumerate_words(tsa, 8))
    assert len(members) == 99 and steps == 926
    for opts in (SearchOptions(), SearchOptions(proper_only=True),
                 SearchOptions(proper_only=True, accept_mode="any")):
        each, steps = run_steps(monkeypatch, lambda: accepts_each(tsa, sorted(members), opts))
        assert all(each.values()) and sum(len(t.steps) for t in each.values()) == 2039
        prefixes = {tuple(t.transition_indices()[:j])
                    for t in each.values() for j in range(1, len(t.steps) + 1)}
        assert steps == len(prefixes) == 926, opts


def test_tampered_shared_step_raises_where_replay_does():
    tsa = fixture_wpz_tsa()
    opts = SearchOptions()
    walk = tsa_mod._Walk(tsa, opts, 6)
    tsa_mod._search(tsa, tsa_mod.search_rows(tsa), None, opts, walk)
    runs = {walk.words[p]: run for p, run in walk.accepted.items()}  # word -> its delta indices
    on = {}  # run prefix -> the words whose witness begins with it
    for w, run in runs.items():
        for j in range(1, len(run) + 1):
            on.setdefault(tuple(run[:j]), []).append(w)
    # the longest run prefix on more than one witness, past the first step
    shared = max((u for u, words in on.items() if len(words) > 1 and len(u) > 1), key=len)
    j = len(shared)
    # a transition from another state cannot apply at the tampered step
    src = tsa.delta[shared[-2]].dst
    bad = next(i for i, t in enumerate(tsa.delta) if t.src != src)
    for w in on[shared]:
        runs[w][j - 1] = bad
    with pytest.raises(ReplayMismatch) as shared_error:
        walk.witnesses(tsa)
    assert shared_error.value.step_index == j
    for w in on[shared]:
        with pytest.raises(ReplayMismatch) as replay_error:
            replay(tsa, w, runs[w])
        assert replay_error.value.step_index == j
        assert str(replay_error.value) == str(shared_error.value)


def test_searches_with_any_options_share_one_dispatch_table():
    tsa = abcd_tsa()
    enumerate_words(tsa, 4, SearchOptions(k=2))
    table = tsa_mod.search_rows(tsa)
    entries = dict(table)
    collect_upsets(tsa, [abcd_word(1), abcd_word(2)], SearchOptions(k=2))  # proper runs
    assert tsa_mod.search_rows(tsa) is table
    assert entries and all(table[key] is rows for key, rows in entries.items())
    # every eps row that keeps the pointer carries its flag, whatever the options
    rows = [row for q in tsa.states for row in table.by_state[q]]
    assert [row[7] for row in rows] == [tsa.delta[row[0]].is_stationary_eps() for row in rows]
    assert any(row[7] for row in rows)


# The dead-region look-ahead.  A state is dead for a letter key when no eps
# path reaches a row reading that letter (or, at the end of the word, a
# final state).  `accepts` and `pda_accepts` drop a configuration entering
# a dead state's bounded region only when no budget can cut below it:
# `size + p <= max_vertices` and `depth + r * (size + p + 1) < max_steps`.
# `accepts` answers most of these up-free machines from its summaries, so
# the tests ask the BFS behind it too.

def bfs_accepts(tsa, w, opts):
    return tsa_mod._tsa_search(tsa, w, opts)


def dead_region_tsa(region):
    """q reads `a` only under eq A, which never holds at the root; its eps
    push enters d, which is dead for `a`.  `region` lists d's eps rows, on
    the states d, e and any others they name."""
    states = dict.fromkeys(["q", "d", "e", "f"] + [row.split()[-1] for row in region])
    lines = ["tsa", "states: " + " ".join(states), "initial: q", "final: f", "labels: A B",
             "alphabet: a", "trans: q a eq A id f", "trans: q eps true push 1 A d"]
    return parse_tsa("\n".join(lines + ["trans: " + row for row in region]) + "\n")


# d pushes once more on its way to e: r = 2, p = 1, and d is entered at
# depth 1 with a tree of 2 vertices
PUSHING_REGION = ["d eps true push 1 B e"]

PUSHING_PDA = """pda
states: q d e f
initial: q
final: f
stack: A B
alphabet: a
trans: q a pop A f
trans: q eps push @ A d
trans: d eps push A B e
"""


def test_dead_region_that_pushes_is_kept_under_a_tight_vertex_budget():
    tsa = dead_region_tsa(PUSHING_REGION)
    table = tsa_mod.search_rows(tsa)
    assert table.ahead("d", "a") == (2, 1) and table.ahead("q", "a") is None
    for vertices in (2, 3, 4):  # the tree of 2 vertices, 2 + p, and more
        opts = SearchOptions(max_vertices=vertices)
        want = "budget" if vertices < 3 else "exhausted"
        assert outcome(accepts(tsa, "a", opts)) == outcome(bfs_accepts(tsa, "a", opts)) \
            == outcome(ref_accepts(tsa, "a", opts)) == ("NotFound", want)
    pda = parse_pda(PUSHING_PDA)
    for stack in (2, 3, 4):
        want = "budget" if stack < 3 else "exhausted"
        assert outcome(pda_accepts(pda, "a", max_stack=stack)) == ("NotFound", want)
        assert outcome(ref_pda_accepts(pda, "a", max_stack=stack)) == ("NotFound", want)


def test_dead_region_is_kept_under_a_tight_step_budget():
    tsa = dead_region_tsa(PUSHING_REGION)
    pda = parse_pda(PUSHING_PDA)
    for steps in range(1, 12):
        opts = SearchOptions(max_steps=steps)
        want = "budget" if steps < 3 else "exhausted"  # e is reached at depth 2
        assert outcome(accepts(tsa, "a", opts)) == outcome(bfs_accepts(tsa, "a", opts)) \
            == outcome(ref_accepts(tsa, "a", opts)) == ("NotFound", want)
        assert outcome(pda_accepts(pda, "a", max_steps=steps)) == ("NotFound", want)
        assert outcome(ref_pda_accepts(pda, "a", max_steps=steps)) == ("NotFound", want)


# d's eps rows and its region's (r, p), or None where the region may run
# without end, so that it is never pruned
REGIONS = {
    "push loop": (["d eps true push 1 B d"], None),
    "id loop": (["d eps true id d"], None),
    "set loop": (["d eps eq A set B d", "d eps eq B set A d"], None),
    "down and up loops": (["d eps true down d", "d eps true up 1 d"], None),
    "two-state cycle": (["d eps true down e", "e eps true up 1 d"], None),
    "cycle further on": (["d eps true down e", "e eps true id e'", "e' eps true up 1 e"], None),
    "down loop": (["d eps true down d", "d eps eq @ push 2 B e"], (2, 1)),
    "up loop": (["d eps true up 1 d", "d eps true down e", "e eps true push 1 B e'"], (3, 1)),
    "diamond": (["d eps true push 1 B e", "d eps true down e'", "e eps true down e'",
                 "e' eps true push 2 A e''"], (4, 2)),
}


@pytest.mark.parametrize("name", list(REGIONS))
def test_only_bounded_dead_regions_are_pruned(name):
    rows, bound = REGIONS[name]
    tsa = dead_region_tsa(rows)
    table = tsa_mod.search_rows(tsa)
    assert table.ahead("d", "a") == bound
    entry = table["q", "@", "a"]
    assert [row[-1] for row in entry] == [bound]  # the eps push into d carries it
    for steps in range(1, 16):
        for vertices in range(1, 6):
            opts = SearchOptions(max_steps=steps, max_vertices=vertices)
            want = outcome(ref_accepts(tsa, "a", opts))
            assert outcome(accepts(tsa, "a", opts)) == outcome(bfs_accepts(tsa, "a", opts)) == want, \
                (steps, vertices)


def test_look_ahead_table_on_the_fixtures():
    table = tsa_mod.search_rows(anbmcndm_tsa())
    assert table.ahead("q1", "a") == (8, 2)  # every state after q0, pushing BB and MB
    table = tsa_mod.search_rows(abcd_tsa())
    assert table.ahead("q1", "a") == (4, 0)
    wpz = fixture_wpz_tsa()
    table = tsa_mod.search_rows(wpz)
    for letter in ("t", "T"):
        assert set(wpz.states) - table.live(letter) == {"qf"}
        assert table.ahead("qf", letter) == (1, 0)
    assert table.live(table.END) == set(wpz.states)
    # the walk's rows carry no bound
    assert all(row[-1] is None for q in wpz.states for lab in ("@", "t")
               for row in table[q, lab, table.ANY_LETTER])


def late_dead_tsa(detour):
    """Two ways into one dead configuration (y1, the tree {@, 1: A}, the
    pointer at the root): the eps push into x1, which is dead, and a
    detour of `detour` live eps steps and then a push and a down.  The
    reference meets y1 first through x1, at depth 2."""
    live = [f"l{i}" for i in range(detour + 1)] + ["lp"]
    lines = ["tsa", "states: " + " ".join(live) + " x1 y1 y2 f", "initial: l0", "final: f",
             "labels: A B", "alphabet: a"]
    lines += [f"trans: {q} a eq B id f" for q in live]  # reading rows that never fire
    lines += ["trans: l0 eps true push 1 A x1", "trans: x1 eps true down y1",
              "trans: y1 eps true id y2"]
    lines += [f"trans: l{i} eps true id l{i + 1}" for i in range(detour)]
    lines += [f"trans: l{detour} eps true push 1 A lp", "trans: lp eps true down y1"]
    return parse_tsa("\n".join(lines) + "\n")


def test_dead_configuration_met_late_keeps_the_reference_answer():
    # x1 (r = 3, p = 0, a tree of 2) is pruned at depth 1 when 1 + 3 * 3 <
    # max_steps.  The detour of 8 meets y1 again at depth 10, too deep to
    # prune, and y2 lies at depth 11.  The reference drops that y1 as seen,
    # so at 11 steps it answers `exhausted`; a search that only prunes would
    # expand it and stop at the step budget.
    tsa = late_dead_tsa(8)
    for steps in range(8, 16):
        opts = SearchOptions(max_steps=steps)
        want = "budget" if steps < 10 else "exhausted"
        assert outcome(accepts(tsa, "a", opts)) == outcome(bfs_accepts(tsa, "a", opts)) \
            == outcome(ref_accepts(tsa, "a", opts)) == ("NotFound", want)


class CountingRows:
    """A dispatch table that counts its lookups: one per node the BFS
    expands, one per local fact the summaries pop."""

    def __init__(self, table):
        self.table, self.lookups = table, 0
        self.END, self.ANY_LETTER = table.END, table.ANY_LETTER
        self.degree, self.up_free = table.degree, table.up_free

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]


def expanded(tsa, w, look_ahead):
    rows = CountingRows(tsa_mod.search_rows(tsa))
    found = tsa_mod._search(tsa, rows, w, SearchOptions(), look_ahead=look_ahead)
    assert not isinstance(found, tsa_mod.NotFound)
    return rows.lookups


def test_look_ahead_makes_the_anbmcndm_search_linear():
    # at each a and b an eps push starts a branch that walks down the whole
    # branch before it dies: quadratic without the look-ahead
    tsa = anbmcndm_tsa()
    counts = {}
    for n in (25, 50):
        w = "a" * n + "b" * n + "c" * n + "d" * n
        counts[n] = expanded(tsa, w, True), expanded(tsa, w, False)
    assert counts == {25: (213, 1094), 50: (413, 3419)}  # 4n + 13 nodes against about 1.4n^2


def test_summary_facts_grow_linearly_on_wpz():
    # one dispatch lookup per local fact: 7n + 7 on t^n T^n (357 and 707),
    # where the BFS makes about twice the configurations per step of n
    wpz = fixture_wpz_tsa()
    facts = {}
    for n in (50, 100):
        rows = CountingRows(tsa_mod.search_rows(wpz))
        assert tsa_mod._word_summaries(wpz, rows, "t" * n + "T" * n, SearchOptions())
        facts[n] = rows.lookups
    assert facts[100] < 2.2 * facts[50], facts


def test_trie_enumeration_grows_with_the_trie_on_wpz(monkeypatch):
    # one dispatch lookup per local fact: 2,047 and 8,205 at max_len 8 and
    # 10, 4.0x for the 4x words, where the walk's nodes grow 7.1x from
    # max_len 6 to 8.  A fallback to the walk fails the ratio too
    wpz = fixture_wpz_tsa()
    lookups = {}
    for n in (8, 10):
        rows = CountingRows(tsa_mod.search_rows(wpz))
        monkeypatch.setattr(tsa_mod, "search_rows", lambda machine: rows)
        assert len(enumerate_words(wpz, n)) == sum(counting_wpz_oracle(w) for w in words_upto("tT", n))
        lookups[n] = rows.lookups
    assert lookups[10] <= 4.4 * lookups[8], lookups


def test_summaries_look_up_each_local_fact_once_on_an_fsa(monkeypatch):
    # B . w^-1 for (tt|TT)* and w = t has positions that read both t and T;
    # they take every row in one ANY_LETTER lookup, so the eps rows run
    # once per local fact and not once per letter.  The answer is no, so
    # the facts saturate and every local fact offered is popped once.
    wpz = fixture_wpz_tsa()
    rows = CountingRows(tsa_mod.search_rows(wpz))
    seen = {}

    def recording(tsa, table, at, opts):
        seen["at"], seen["out"] = at, tsa_mod._summaries(tsa, table, at, opts)
        return seen["out"]

    monkeypatch.setattr(langlab_mod, "search_rows", lambda machine: rows)
    monkeypatch.setattr(langlab_mod, "_summaries", recording)
    ans = rational_membership(wpz, regex_to_fsa("(tt|TT)*", "tT"), "t", WPZ_ALPHABET)
    assert ans.verdict == "no"
    assert any(moves.keys() == {None, "t", "T"} for _, moves, _ in seen["at"])
    _, derived, entries = seen["out"]
    facts = {concl for concl, *_ in derived if type(concl) is tuple and len(concl) == 5}
    facts |= {(e, q, lab, 0, j) for (q, lab, j), e in entries.items()}
    assert rows.lookups == len(facts)


# Memory gates.  A search holds each configuration as a focus and a context
# id into tables shared by the whole search, so its memory grows with the
# number of configurations, not with that number times the tree size.

def traced_peak(search):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_abcd_search_memory_grows_linearly():
    tsa, opts = abcd_tsa(), SearchOptions(k=2)
    rows = tsa_mod.search_rows(tsa)
    accepts(tsa, abcd_word(2), opts)  # fills the dispatch table outside the traced calls
    peak = {}
    for m in (200, 400):
        w = abcd_word(m)
        peak[m] = traced_peak(lambda: tsa_mod._search(tsa, rows, w, opts))
    assert peak[400] < 3 * peak[200], peak


ROUND_TRIP_UNDER_LIMIT = """
import resource, sys
limit = 200 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from tsalab.convert import fixture_wpz_pda, pda_accepts, pda_to_tsa1, tsa1_to_pda
pda = tsa1_to_pda(pda_to_tsa1(fixture_wpz_pda()))
print(bool(pda_accepts(pda, "t" * 14 + "T" * 14)))
"""


def run_under_limit(code: str) -> str:
    """The standard output of `code`, run in a fresh process on the
    tsalab these tests import; it must exit 0."""
    src = str(Path(tsa_mod.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_round_trip_pda_search_fits_in_200_mb():
    assert run_under_limit(ROUND_TRIP_UNDER_LIMIT) == "True\n"


SUMMARIES_UNDER_LIMIT = """
import resource
limit = 200 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from tsalab.convert import fixture_wpz_tsa
from tsalab.tsa import accepts
print(len(accepts(fixture_wpz_tsa(), "t" * 100 + "T" * 100)))
"""


def test_deep_wpz_member_fits_in_200_mb():
    # the BFS needs 565 MB for t^16 T^16; the summaries answer t^100 T^100
    assert run_under_limit(SUMMARIES_UNDER_LIMIT) == "403\n"


DEEP_PDA_UNDER_LIMIT = """
import resource
limit = 200 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from tsalab.convert import fixture_wpz_pda, pda_accepts
print(len(pda_accepts(fixture_wpz_pda(), "t" * 10000 + "T" * 10000)))
"""


def test_deep_pda_witness_fits_in_200_mb():
    # the witness holds 20,001 configurations whose stacks share their
    # paths; a stack copied per step would need 783 MB here
    assert run_under_limit(DEEP_PDA_UNDER_LIMIT) == "20001\n"
