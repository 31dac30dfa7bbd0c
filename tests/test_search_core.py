"""Differential tests: the interned-address search core, behind `accepts`,
`shortest_accepted`, `pda_accepts` and `enumerate_words`, against the
plain reference searches in reference_search.py.

Both must return the same result for every query: the same witness,
configuration by configuration, or the same NotFound reason; for an
enumeration, the same words and the same budget words in the same order.
"""

import itertools
import random

import pytest

from conftest import abcd_word, words_upto

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
from tsalab.langlab import eps_free, parse_fsa, regex_to_fsa, tsa_fsa_product
from tsalab.analysis import collect_upsets
from tsalab.tsa import (
    BudgetExceeded,
    SearchOptions,
    accepts,
    default_max_vertices,
    enumerate_words,
    parse_tsa,
    render_tsa,
    shortest_accepted,
)

from reference_search import (
    ref_accepts,
    ref_collect_upsets,
    ref_enumerate_words,
    ref_pda_accepts,
    ref_shortest_accepted,
)
from strategies import random_tsas


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


@pytest.mark.parametrize("opt_name", list(OPTIONS))
def test_shortest_accepted_matches_reference(opt_name):
    opts = OPTIONS[opt_name]
    for make in MACHINES.values():
        tsa = make()
        for max_len in range(7):
            got = shortest_accepted(tsa, max_len, opts)
            want = ref_shortest_accepted(tsa, max_len, opts)
            assert outcome(got) == outcome(want), (tsa.initial, max_len)


UNIVERSAL_FSA = ("fsa\nstates: u\ninitial: u\nfinal: u\nalphabet: a b c d\n"
                 "trans: u a u\ntrans: u b u\ntrans: u c u\ntrans: u d u\n")

# abcd intersected with regular languages, as in test_langlab.py
PRODUCTS = {
    "abcd-blocks": lambda: tsa_fsa_product(abcd_tsa(), eps_free(regex_to_fsa("a*b*c*d*", "abcd"))),
    "abcd-a-plus": lambda: tsa_fsa_product(abcd_tsa(), eps_free(regex_to_fsa("a+", "abcd"))),
    "abcd-universal": lambda: tsa_fsa_product(abcd_tsa(), parse_fsa(UNIVERSAL_FSA)),
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
    words += words[::7]  # a word listed twice is filed twice
    for opt_name in UPSET_OPTIONS:
        opts = OPTIONS[opt_name]
        got = upsets(collect_upsets, tsa, words, opts)
        assert got == upsets(ref_collect_upsets, tsa, words, opts), opt_name


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


def test_hash_collisions_fall_back_to_exact_equality(monkeypatch):
    queries = [(name, w, opts)
               for name in ("abcd", "anbmcndm", "wpz")
               for w in words_upto("".join(MACHINES[name]().alphabet), 4)
               for opts in (OPTIONS["default"], OPTIONS["k2"], OPTIONS["proper"])]
    queries += [("abcd", abcd_word(m), OPTIONS["k2"]) for m in range(1, 9)]
    queries += [("wpz", "t" * n + "T" * n, OPTIONS["default"]) for n in range(1, 6)]
    machines = {name: make() for name, make in MACHINES.items()}
    expected = [outcome(accepts(machines[n], w, o)) for n, w, o in queries]
    expected_short = [outcome(shortest_accepted(m, 5, OPTIONS["k2"])) for m in machines.values()]
    expected_words = [enumerate_words(m, 4, OPTIONS["k2"]) for m in machines.values()]
    pdas = {name: make() for name, make in PDAS.items()}
    pda_queries = [(name, w, budgets)
                   for name, pda in pdas.items()
                   for w in words_upto("".join(pda.alphabet), 5)
                   for budgets in PDA_BUDGETS.values()]
    expected_pda = [outcome(ref_pda_accepts(pdas[n], w, **b)) for n, w, b in pda_queries]

    distinct = 0
    seen_exactly = tsa_mod._seen_exactly

    def counting(*args):
        nonlocal distinct
        same = seen_exactly(*args)
        distinct += not same
        return same

    # every entry hashes to 0, so configurations that differ only in their
    # tree or vfb counts share one memo key
    monkeypatch.setattr(tsa_mod, "_entry_hash", lambda a, b: 0)
    monkeypatch.setattr(tsa_mod, "_seen_exactly", counting)
    assert [outcome(accepts(machines[n], w, o)) for n, w, o in queries] == expected
    assert [outcome(shortest_accepted(m, 5, OPTIONS["k2"])) for m in machines.values()] == expected_short
    assert [enumerate_words(m, 4, OPTIONS["k2"]) for m in machines.values()] == expected_words
    assert distinct > 0  # configurations told apart only by the exact check
    tsa_distinct = distinct
    assert [outcome(pda_accepts(pdas[n], w, **b)) for n, w, b in pda_queries] == expected_pda
    assert distinct > tsa_distinct  # stacks of one height told apart the same way
