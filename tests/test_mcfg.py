import random
import time

import pytest

from conftest import abcd_oracle, anbmcndm_oracle, counting_wpz_oracle, words_upto
from reference_mcfg import ref_derivable_tuples

from tsalab.mcfg import (
    EXAMPLE_ABCD,
    EXAMPLE_ANBMCNDM,
    EXAMPLE_WPZ,
    Mcfg,
    McfgError,
    McfgRule,
    RankMismatch,
    VariableReused,
    derivable_tuples,
    is_empty,
    mcfg_enumerate,
    mcfg_member,
    non_deleting,
    parse_mcfg,
    productive_nonterminals,
)
from tsalab import mcfg as mcfg_mod
from tsalab.treestack import InputError
from tsalab.tsa import ParseError

DELETING = "mcfg\nstart: S\nrule: T(a, b) <-\nrule: S(x1) <- T(x1, x2)\n"


def reference_member(g, w):
    """Membership by enumerating every word up to |w| and looking w up:
    the path that the chart recogniser replaced, whose cost grows with the
    number of words up to |w| (exponential in |w| on WP(Z))."""
    return w in mcfg_enumerate(g, len(w))


def test_parse_example_abcd():
    g = parse_mcfg(EXAMPLE_ABCD)
    assert dict(g.ranks) == {"T": 2, "S": 1}
    assert len(g.rules) == 3


def test_parse_example_anbmcndm():
    g = parse_mcfg(EXAMPLE_ANBMCNDM)
    assert dict(g.ranks) == {"P": 2, "Q": 2, "S": 1}


def test_rank_of_plain_cfg():
    g = parse_mcfg("mcfg\nstart: S\nrule: S(a x1) <- S(x1)\nrule: S(b) <-\n")
    assert dict(g.ranks) == {"S": 1}


def test_rank_of_trivial_grammar():
    g = parse_mcfg("mcfg\nstart: S\nrule: S() <-\n")
    assert dict(g.ranks) == {"S": 1}
    assert mcfg_enumerate(g, 0) == {""}


def test_variable_reuse_rejected():
    with pytest.raises(VariableReused):
        parse_mcfg("mcfg\nstart: S\nrule: S(x1 x1) <- T(x1)\nrule: T(a) <-\n")


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatch):
        parse_mcfg("mcfg\nstart: S\nrule: T(a, b) <-\nrule: S(x1) <- T(x1)\n")


def test_start_rank_must_be_one():
    with pytest.raises(RankMismatch):
        parse_mcfg("mcfg\nstart: S\nrule: S(a, b) <-\n")


def test_undeclared_variable_rejected():
    with pytest.raises(McfgError):
        parse_mcfg("mcfg\nstart: S\nrule: S(x2) <- T(x1)\nrule: T(a) <-\n")


@pytest.mark.parametrize("text, error, line", [
    ("mcfg\nstart: S\nrule: S(x1 x1) <- T(x1)\nrule: T(a) <-\n", VariableReused, 3),
    ("mcfg\nstart: S\nrule: T(a, b) <-\nrule: S(x1) <- T(x1)\n", RankMismatch, 4),
    ("mcfg\n\nstart: S\nrule: S(a, b) <-\n", RankMismatch, 3),
    ("mcfg\nstart: S\nrule: S(x2) <- T(x1)\nrule: T(a) <-\n", McfgError, 3),
    ("mcfg\nstart: S\nrule: S(a) <-\nstart: T\nrule: T(b) <-\n", ParseError, 4),  # start twice
])
def test_grammar_errors_are_parse_errors_with_lines(text, error, line):
    with pytest.raises(error) as exc:
        parse_mcfg(text)
    assert isinstance(exc.value, ParseError) and exc.value.line == line


def test_enumerate_example_abcd():
    g = parse_mcfg(EXAMPLE_ABCD)
    assert mcfg_enumerate(g, 8) == {"", "abcd", "aabbccdd"}
    for m in range(4):
        w = "a" * m + "b" * m + "c" * m + "d" * m
        assert w in mcfg_enumerate(g, 4 * m)
    words12 = mcfg_enumerate(g, 12)
    assert all(abcd_oracle(w) for w in words12)


def test_enumerate_example_anbmcndm():
    g = parse_mcfg(EXAMPLE_ANBMCNDM)
    got = mcfg_enumerate(g, 6)
    want = {"a" * n + "b" * m + "c" * n + "d" * m
            for n in range(4) for m in range(4) if 2 * n + 2 * m <= 6}
    assert got == want
    assert all(anbmcndm_oracle(w) for w in got)


def test_enumerate_bound_zero():
    g = parse_mcfg(EXAMPLE_ABCD)
    assert mcfg_enumerate(g, 0) == {""}
    g2 = parse_mcfg("mcfg\nstart: S\nrule: S(a) <-\n")
    assert mcfg_enumerate(g2, 0) == set()


def test_enumeration_monotone():
    g = parse_mcfg(EXAMPLE_ANBMCNDM)
    prev = set()
    for bound in range(0, 9, 2):
        cur = mcfg_enumerate(g, bound)
        assert prev <= cur
        prev = cur


def test_member():
    g = parse_mcfg(EXAMPLE_ABCD)
    assert mcfg_member(g, "abcd")
    assert mcfg_member(g, "")
    assert not mcfg_member(g, "abdc")
    assert not mcfg_member(g, "aabbccd")


@pytest.mark.parametrize("text", [EXAMPLE_WPZ, DELETING], ids=["wpz", "deleting"])
def test_member_compiles_each_grammar_once(monkeypatch, text):
    # the compiled grammar is cached on the Mcfg, so a second query on the
    # same grammar compiles nothing and answers as a fresh grammar does
    words = list(words_upto("tTa", 5))
    fresh = {w: mcfg_member(parse_mcfg(text), w) for w in words}
    g = parse_mcfg(text)
    compiled = []
    chart_rule = mcfg_mod._chart_rule
    monkeypatch.setattr(mcfg_mod, "_chart_rule", lambda rule: compiled.append(rule) or chart_rule(rule))
    first = {w: mcfg_member(g, w) for w in words}
    rules = len(compiled)
    assert rules == len(non_deleting(g).rules)
    second = {w: mcfg_member(g, w) for w in words}
    assert len(compiled) == rules and first == second == fresh
    assert g == parse_mcfg(text)  # the cache is no part of the grammar's value


def test_deleting_rules_allowed():
    # "at most once" permits dropping a body variable entirely
    g = parse_mcfg("mcfg\nstart: S\nrule: T(a, b) <-\nrule: S(x1) <- T(x1, x2)\n")
    assert mcfg_enumerate(g, 3) == {"a"}


def test_deleting_rules_bound_counts_only_kept_components():
    # the dropped "b" must not count against the bound
    g = parse_mcfg(DELETING)
    assert mcfg_enumerate(g, 1) == {"a"}
    assert mcfg_member(g, "a")


def test_productive():
    g = parse_mcfg(EXAMPLE_ABCD)
    assert productive_nonterminals(g) == {"T", "S"}
    g2 = parse_mcfg(EXAMPLE_ANBMCNDM)
    assert productive_nonterminals(g2) == {"P", "Q", "S"}


def test_unproductive_grammar_is_empty():
    g = parse_mcfg("mcfg\nstart: S\nrule: S(x1) <- A(x1)\nrule: A(x1) <- S(x1)\n")
    assert productive_nonterminals(g) == set()
    assert is_empty(g)
    assert not is_empty(parse_mcfg(EXAMPLE_ABCD))


def test_productive_iff_small_enumeration_nonempty():
    # the fixpoint agrees with a short enumeration on all fixtures
    for text in (EXAMPLE_ABCD, EXAMPLE_ANBMCNDM):
        g = parse_mcfg(text)
        shortest = sum(min((sum(len(f) for f in _rule_terminal_fields(r))
                            for r in g.rules if r.head == nt and not r.body), default=0)
                       for nt, _ in g.ranks)
        assert (not is_empty(g)) == bool(mcfg_enumerate(g, shortest))


def _rule_terminal_fields(rule):
    return ["".join(tok for kind, tok in arg if kind == "t") for arg in rule.head_args]


def test_missing_header():
    with pytest.raises(ParseError):
        parse_mcfg("start: S\n")


def test_non_deleting_keeps_non_deleting_grammars():
    for text in (EXAMPLE_ABCD, EXAMPLE_ANBMCNDM, EXAMPLE_WPZ):
        g = parse_mcfg(text)
        assert non_deleting(g) is g


def test_non_deleting_normal_form():
    g = non_deleting(parse_mcfg(DELETING))
    assert dict(g.ranks) == {"S": 1, "T[1]": 1}
    for rule in g.rules:
        used = {tok for argument in rule.head_args for kind, tok in argument if kind == "v"}
        assert used == set(rule.variables())


def test_non_deleting_recursive_projection():
    # S keeps the first component of T's a^n/b^n pair; the old fixpoint
    # counted the dropped b^n against the bound and stopped at a^2
    g = parse_mcfg("mcfg\nstart: S\nrule: T(,) <-\nrule: T(a x1, b x2) <- T(x1, x2)\n"
                   "rule: S(x1) <- T(x1, x2)\n")
    assert mcfg_enumerate(g, 4) == {"a" * n for n in range(5)}
    assert mcfg_member(g, "aaaa") and not mcfg_member(g, "aab")


def test_non_deleting_dropped_occurrence_must_be_productive():
    g = parse_mcfg("mcfg\nstart: S\nrule: A(a) <-\nrule: U(x1) <- U(x1)\n"
                   "rule: S(x1) <- A(x1), U(y1)\nrule: S(b x1) <- A(x1), A(y1)\n")
    assert mcfg_enumerate(g, 3) == {"ba"}
    assert not mcfg_member(g, "a") and mcfg_member(g, "ba")


def test_non_deleting_fresh_names_avoid_clashes():
    g = parse_mcfg("mcfg\nstart: S\nrule: T[1](c) <-\nrule: T(a, b) <-\n"
                   "rule: S(x1 y1) <- T(x1, x2), T[1](y1)\n")
    assert {name for name, _ in non_deleting(g).ranks} == {"S", "T[1]'", "T[1]"}
    assert mcfg_enumerate(g, 2) == {"ac"}
    assert mcfg_member(g, "ac")


@pytest.mark.parametrize("text, alphabet, bound, oracle", [
    (EXAMPLE_ABCD, "abcd", 6, abcd_oracle),
    (EXAMPLE_ANBMCNDM, "abcd", 5, anbmcndm_oracle),
    (EXAMPLE_WPZ, "tT", 10, counting_wpz_oracle),
], ids=["abcd", "anbmcndm", "wpz"])
def test_chart_matches_enumeration(text, alphabet, bound, oracle):
    g = parse_mcfg(text)
    # one enumeration to the bound holds reference_member's answer for
    # every word up to the bound
    language = mcfg_enumerate(g, bound)
    for w in words_upto(alphabet, bound):
        assert mcfg_member(g, w) == (w in language) == oracle(w), w


def test_chart_multi_character_terminals():
    g = parse_mcfg("mcfg\nstart: S\nrule: S() <-\nrule: S(ab x1) <- S(x1)\n")
    for w in ("abab", "aabb", "aba", "ab", "", "b"):
        assert mcfg_member(g, w) == reference_member(g, w)
    assert mcfg_member(g, "abab") and not mcfg_member(g, "aabb")


def test_chart_joins_non_adjacent_occurrences():
    # A(x1) and A(y1) share no head argument, so the join scans all A
    # items; on the empty word it must pair the item A(0,0) with itself
    g = parse_mcfg("mcfg\nstart: S\nrule: A() <-\nrule: A(a x1) <- A(x1)\n"
                   "rule: B(x1, y1) <- A(x1), A(y1)\nrule: S(x1 y1) <- B(x1, y1)\n")
    for w in words_upto("ab", 4):
        assert mcfg_member(g, w) == reference_member(g, w), w
    assert mcfg_member(g, "") and mcfg_member(g, "aaa")


def test_chart_matches_enumeration_on_deleting_grammar():
    g = parse_mcfg(DELETING)
    for w in words_upto("ab", 3):
        assert mcfg_member(g, w) == reference_member(g, w) == (w == "a"), w


def _random_grammar(rng: random.Random) -> Mcfg:
    """A random grammar of rank <= 2 over a, b and the two-letter token ab.
    Its rules join up to two body occurrences, sometimes delete a
    variable, and may have constant head arguments next to a body."""
    ranks = {"S": 1, "A": rng.choice((1, 2)), "B": 2}
    rules = []
    for i in range(rng.randint(5, 8)):
        head = ("A", "B")[i] if i < 2 else rng.choice(list(ranks))
        body = [] if i < 2 else [rng.choice(list(ranks)) for _ in range(rng.randint(1, 2))]
        names = iter(f"x{j}" for j in range(1, 9))
        body = [(nt, tuple(next(names) for _ in range(ranks[nt]))) for nt in body]
        kept = [v for _, vs in body for v in vs]
        rng.shuffle(kept)
        if kept and rng.random() < 0.3:
            kept.pop()
        args = [[] for _ in range(ranks[head])]
        for v in kept:
            args[rng.randrange(len(args))].append(("v", v))
        for argument in args:
            if rng.random() < 0.5:
                argument.insert(rng.randint(0, len(argument)), ("t", rng.choice(("a", "b", "ab"))))
        rules.append(McfgRule(head, tuple(map(tuple, args)), tuple(body)))
    return Mcfg(tuple(ranks.items()), ("a", "b", "ab"), tuple(rules), "S")


@pytest.mark.parametrize("seed", range(40))
def test_chart_matches_enumeration_on_random_grammars(seed):
    g = _random_grammar(random.Random(seed))
    language = mcfg_enumerate(g, 5)
    for w in words_upto("ab", 5):
        assert mcfg_member(g, w) == (w in language), (w, [str(r) for r in g.rules])


def test_chart_decides_long_wpz_words():
    g = parse_mcfg(EXAMPLE_WPZ)
    w = "tT" * 32
    start = time.perf_counter()
    assert mcfg_member(g, w)
    assert not mcfg_member(g, w[:31] + w[32:])
    assert time.perf_counter() - start < 1.0


# grammar text or _random_grammar seed -> largest bound
FIXPOINT_CASES = {"abcd": (EXAMPLE_ABCD, 10), "anbmcndm": (EXAMPLE_ANBMCNDM, 10),
                  "deleting": (DELETING, 10), "wpz": (EXAMPLE_WPZ, 8)}
FIXPOINT_CASES.update({f"random{seed}": (seed, 6) for seed in range(40)})


@pytest.mark.parametrize("case", FIXPOINT_CASES)
def test_derivable_tuples_matches_reference(case):
    source, top = FIXPOINT_CASES[case]
    raw = parse_mcfg(source) if isinstance(source, str) else _random_grammar(random.Random(source))
    g = non_deleting(raw)
    for bound in range(top + 1):
        assert derivable_tuples(g, bound) == ref_derivable_tuples(g, bound), \
            (bound, [str(r) for r in g.rules])


def test_derivable_tuples_refuses_a_deleting_grammar():
    # the bound would also cut the "b" that S drops
    with pytest.raises(InputError, match="non_deleting"):
        derivable_tuples(parse_mcfg(DELETING), 2)


def test_enumerate_wpz_to_length_12():
    # about 20 s with the naive fixpoint of tests/reference_mcfg.py
    g = parse_mcfg(EXAMPLE_WPZ)
    start = time.perf_counter()
    got = mcfg_enumerate(g, 12)
    assert time.perf_counter() - start < 2.0
    want = {w for w in words_upto("tT", 12) if counting_wpz_oracle(w)}
    assert len(want) == 1275 and got == want
