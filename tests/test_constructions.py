"""Random differentials of the constructions: each one's language against
the language it should have, on every word over {a, b} up to length 4.
An answer counts only when no search was cut by its budget.  For the
constructions that add states, the machines come from tests/strategies.py
with state names in the constructions' own shapes, so a new name that is
not checked against the old ones merges two states and shows up as a
mismatch.  `normalize_child_indices` and `standardise` change only
transitions.

`tsa1_to_pda` is left out: it treats a TSA's `down` as a pop, which
changes the language of machines that push into a slot again."""

import random
from dataclasses import replace

from conftest import words_upto
from strategies import random_fsa, random_pdas, random_tsas

from tsalab.convert import pda_accepts, pda_to_tsa1
from tsalab.langlab import fsa_accepts, tsa_fsa_product
from tsalab.tsa import (
    SearchOptions,
    accepts_each,
    make_root_accepting,
    normalize_child_indices,
    standardise,
)

WORDS = list(words_upto("ab", 4))


def verdicts(tsa, opts) -> dict[str, bool | None]:
    """accept/reject per word of WORDS, None where a budget cut the search."""
    return {w: None if not r and r.reason == "budget" else bool(r)
            for w, r in accepts_each(tsa, WORDS, opts).items()}


def compare(got, want) -> int:
    """Assert that got and want agree wherever both are known; the number
    of words accepted on both sides."""
    both = 0
    for w in WORDS:
        if got[w] is not None and want[w] is not None:
            assert got[w] == want[w], w
            both += got[w]
    return both


def test_pda_to_tsa1_keeps_the_language_of_random_pdas():
    accepted = primed = 0
    for pda in random_pdas(1, 1200):
        tsa = pda_to_tsa1(pda)
        primed += any(q.endswith("'") for q in tsa.states)
        want = {}
        for w in WORDS:
            r = pda_accepts(pda, w, max_steps=10, max_stack=5)
            want[w] = None if not r and r.reason == "budget" else bool(r)
        got = verdicts(tsa, SearchOptions(accept_mode="any", max_steps=30, max_vertices=14))
        accepted += compare(got, want)
    assert accepted > 1500 and primed > 300


def test_make_root_accepting_keeps_the_language_of_random_tsas():
    accepted = primed = 0
    for tsa in random_tsas(2, 2000, shaped=True):
        root = make_root_accepting(tsa)
        primed += any(q.endswith("'") for q in root.states)
        want = verdicts(tsa, SearchOptions(accept_mode="any", max_steps=10, max_vertices=4))
        # the drain adds one step, a walk down to the root and one more
        got = verdicts(root, SearchOptions(max_steps=22, max_vertices=4))
        accepted += compare(got, want)
    assert accepted > 2000 and primed > 200


def test_tsa_fsa_product_is_the_intersection_on_random_machines():
    rng = random.Random(3)
    opts = SearchOptions(accept_mode="any", max_steps=10, max_vertices=4)
    accepted = primed = 0
    for tsa in random_tsas(3, 2000, shaped=True):
        fsa = random_fsa(rng)
        prod = tsa_fsa_product(tsa, fsa)
        primed += any(q.endswith("'") for q in prod.states)
        want = {w: (known and fsa_accepts(fsa, w)) if known is not None else None
                for w, known in verdicts(tsa, opts).items()}
        accepted += compare(verdicts(prod, opts), want)
    assert accepted > 1000 and primed > 50


def test_normalize_child_indices_keeps_the_language_of_random_tsas():
    opts = SearchOptions(max_steps=10, max_vertices=4)
    accepted = renumbered = 0
    for tsa in random_tsas(4, 1000):
        norm = normalize_child_indices(tsa)
        renumbered += norm != tsa
        accepted += compare(verdicts(norm, opts), verdicts(tsa, opts))
    assert accepted > 800 and renumbered > 400


def test_standardise_keeps_the_language_and_needs_only_proper_runs_on_random_tsas():
    opts = SearchOptions(max_steps=10, max_vertices=4)
    proper_opts = replace(opts, proper_only=True)
    accepted = proper = changed = 0
    for tsa in random_tsas(5, 1000):
        std = standardise(tsa)
        changed += std != tsa
        want = verdicts(tsa, opts)
        accepted += compare(verdicts(std, opts), want)
        # closed under composing stationary eps pairs, it accepts its
        # language with runs that never take two such steps in a row
        proper += compare(verdicts(std, proper_opts), want)
    assert accepted > 800 and proper > 800 and changed > 25
