import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Stopwatch, counting_wpz_oracle, words_upto
from reference_f2f2 import all_tuples, ref_f2f2_experiment, ref_tokenize, ref_wp_f2xf2, t_word_tokens

from tsalab.convert import fixture_wpz_tsa
from tsalab.langlab import (
    AlphabetMismatch,
    F2F2_ALPHABET,
    F2F2_PSI,
    GroupAlphabet,
    UnknownLetter,
    WPZ_ALPHABET,
    build_Bw,
    eps_free,
    erasing_hom,
    f2f2_T,
    f2f2_experiment,
    fsa_accepts,
    gap_check,
    oracle,
    parse_fsa,
    rational_membership,
    regex_to_fsa,
    tokenize,
    unary_lengths,
    wp_f2xf2,
)
from tsalab.treestack import InputError
from tsalab.tsa import (
    ParseError,
    UnknownState,
    accepts,
    parse_tsa,
)


# -- gap checks ---------------------------------------------------------------

def test_gap_powers_of_two():
    rep = gap_check([2 ** n for n in range(1, 21)], 100)
    assert rep.divergent


def test_gap_squares():
    rep = gap_check([n * n for n in range(1, 51)], 20)
    assert rep.divergent
    # gaps are 2n+1: divergence for m is visible once 2n+1 > m
    assert rep.thresholds[5] == 9


def test_gap_constant_inconclusive():
    rep = gap_check(list(range(3, 90, 3)), 50)
    assert not rep.divergent
    assert rep.thresholds[2] == 3  # all gaps exceed 2 right away
    assert rep.thresholds[3] is None


def test_gap_requires_increasing():
    with pytest.raises(ValueError):
        gap_check([1, 1, 2], 3)


def test_gap_rejects_empty_sample_and_no_thresholds():
    # an empty sample has no first length; with m_max < 1 every threshold
    # holds vacuously and the verdict would claim divergence from nothing
    with pytest.raises(ValueError):
        gap_check([], 3)
    with pytest.raises(ValueError):
        gap_check([2, 4, 8], 0)


def test_unary_lengths_families():
    assert unary_lengths("pow2", 5) == [2, 4, 8, 16, 32]
    assert unary_lengths("square", 4) == [1, 4, 9, 16]
    assert unary_lengths("alpha", 10, alpha=1.5)[:3] == [1, 2, 5]
    assert all(b > a for a, b in itertools.pairwise(unary_lengths("nlogn", 30)))


# -- oracles -------------------------------------------------------------------

def test_sm_oracle():
    o = oracle("s_m", m=2)
    assert o("abcde")          # n = 1
    assert o("aabbccddee")     # n = 2
    assert o("")               # n = 0
    assert not o("aab")
    assert not o("abcdee")


def test_ambm_oracle():
    o = oracle("ambm_n")
    assert o("ab") and o("abab") and o("aabb") and o("aabbaabb")
    assert not o("") and not o("aabbab") and not o("ba")


def test_abm_oracle():
    o = oracle("ab_m_n")
    assert o("ab") and o("abb") and o("abbabb")
    assert not o("aabb") and not o("abbab")


def test_lk_oracle():
    o = oracle("l_k_nonincreasing", k=3)
    assert o("") and o("abc") and o("aabc") and o("aab") and o("a")
    assert not o("abbc") and not o("aacb") and not o("ba")


def test_unary_oracles():
    assert oracle("unary", family="pow2")("a" * 8)
    assert not oracle("unary", family="pow2")("a" * 6)
    assert oracle("unary", family="square")("a" * 9)
    assert not oracle("unary", family="square")("a" * 8)


@pytest.mark.parametrize("family,alpha", [("alpha", 1.01), ("alpha", 1.5), ("alpha", 2.5),
                                          ("nlogn", None), ("pow2", None), ("square", None)])
def test_unary_oracle_matches_length_sample(family, alpha):
    # membership is a binary search over k, not a rebuilt sample per call;
    # the first 3000 lengths of each sample cover every n <= 3000
    o = oracle("unary", family=family, **({"alpha": alpha} if alpha else {}))
    sample = set(unary_lengths(family, 3000, alpha=alpha))
    assert [n for n in range(3001) if o("a" * n)] == sorted(n for n in sample if n <= 3000)
    assert not o("b") and not o("ab")


@pytest.mark.parametrize("name,params", [
    ("nope", {}),
    ("unary", {"family": "cube"}),
    ("unary", {"family": "alpha"}),
    ("unary", {"family": "alpha", "alpha": 1}),
    ("unary", {}),
    ("s_m", {}),
    ("l_k_nonincreasing", {}),
    ("s_m", {"m": 2, "k": 3}),
    ("s_m", {"m": -1}),  # an empty alphabet
    ("s_m", {"m": 2.5}),
    ("s_m", {"m": True}),
    ("l_k_nonincreasing", {"k": 0}),  # an empty alphabet
])
def test_oracle_refuses_bad_arguments_when_built(name, params):
    with pytest.raises(InputError):
        oracle(name, **params)


# each oracle, with its parameters and a member
ORACLE_MEMBERS = [
    ("s_m", {"m": 1}, "abc"),
    ("ambm_n", {}, "ab"),
    ("ab_m_n", {}, "abb"),
    ("l_k_nonincreasing", {"k": 2}, "aab"),
    ("unary", {"family": "pow2"}, "aa"),
    ("wp_z", {}, "tT"),
    ("wp_f2xf2", {}, "aa'"),
]


@pytest.mark.parametrize("name, params, member", ORACLE_MEMBERS, ids=[n for n, _, _ in ORACLE_MEMBERS])
def test_oracles_answer_false_on_a_foreign_letter(name, params, member):
    o = oracle(name, **params)
    assert o(member)
    assert not o("xyz") and not o(member + "x")


def test_wpz_oracle():
    o = oracle("wp_z")
    for w in words_upto("tT", 6):
        assert o(w) == counting_wpz_oracle(w)


def test_wp_f2xf2_examples():
    assert wp_f2xf2("")                    # identity
    assert wp_f2xf2("cadbb'd'a'c'")        # the m = n = 1 test word
    assert not wp_f2xf2("ab")
    assert not wp_f2xf2("ca")
    assert wp_f2xf2("aa'")
    assert wp_f2xf2("ac a' c'".replace(" ", ""))  # commuting parts cancel per projection


def test_wp_f2xf2_projections_disagree():
    # balanced counts but no free cancellation in the {a,b} part
    assert not wp_f2xf2("aba'b'")


def _naive_identity(tokens):
    """Deliberately naive cross-check: scan for adjacent inverse pairs in
    each projection until nothing cancels."""
    inv = {"a": "a'", "a'": "a", "b": "b'", "b'": "b",
           "c": "c'", "c'": "c", "d": "d'", "d'": "d"}
    for keep in ("ab", "cd"):
        part = [t for t in tokens if t[0] in keep]
        changed = True
        while changed:
            changed = False
            for i in range(len(part) - 1):
                if inv[part[i]] == part[i + 1]:
                    del part[i: i + 2]
                    changed = True
                    break
        if part:
            return False
    return True


@given(st.lists(st.sampled_from(["a", "a'", "b", "b'", "c", "c'", "d", "d'"]),
                max_size=12))
def test_wp_f2xf2_matches_naive_reducer(tokens):
    assert wp_f2xf2(tuple(tokens)) == _naive_identity(tokens)


F2F2_LETTERS = st.sampled_from(F2F2_ALPHABET.letters)
# "A" is not a letter (only the kernel writes a' so), and "", "ab", "'"
# and "a''" are not tokens
NOT_LETTERS = st.sampled_from(["A", "", "ab", "'", "a''"])


def _verdict(wp, word):
    try:
        return wp(word)
    except UnknownLetter as exc:
        return "UnknownLetter", str(exc)


@settings(max_examples=500)
@given(st.one_of(
    st.text(alphabet="abcd'ABx\n", max_size=16),
    st.lists(F2F2_LETTERS, max_size=16).map("".join),
    st.lists(st.one_of(F2F2_LETTERS, NOT_LETTERS), max_size=10).map(tuple),
    st.lists(F2F2_LETTERS, max_size=16).map(tuple),
))
def test_wp_f2xf2_matches_token_loop(word):
    """The string kernel gives the token loop's answer, or raises its
    UnknownLetter with the same message."""
    assert _verdict(wp_f2xf2, word) == _verdict(ref_wp_f2xf2, word)


@pytest.mark.parametrize("label,word", [
    ("a^n c^n a'^n c'^n", "a" * 50_000 + "c" * 50_000 + "a'" * 50_000 + "c'" * 50_000),
    ("(ab)^n (b'a')^n", "ab" * 50_000 + "b'a'" * 50_000),
])
def test_wp_f2xf2_is_linear(label, word):
    """Two 300,000-character members with n = 50,000 pairs to cancel each
    way: a reduction that cancels one pair per pass over the word is
    quadratic on the first."""
    with Stopwatch(f"wp_f2xf2 on {label}", 2.0):
        assert wp_f2xf2(word)


# -- group alphabets -----------------------------------------------------------

def test_group_alphabet_inverse_word():
    assert WPZ_ALPHABET.inverse_word("tt") == ("T", "T")
    assert WPZ_ALPHABET.inverse_word("tT") == ("t", "T")
    assert F2F2_ALPHABET.inverse_word("ca") == ("a'", "c'")


def test_group_alphabet_validation():
    with pytest.raises(ValueError):
        GroupAlphabet(("a",), (("a", "a"),))


def test_tokenize():
    assert tokenize("a'bc'") == ("a'", "b", "c'")
    with pytest.raises(UnknownLetter):
        tokenize("xy", alphabet=("a", "b"))


@given(st.text(alphabet="abcd'x\n", max_size=20))
def test_tokenize_matches_index_loop(word):
    assert tokenize(word) == ref_tokenize(word)
    if set(ref_tokenize(word)) <= set(F2F2_ALPHABET.letters):
        assert tokenize(word, F2F2_ALPHABET.letters) == ref_tokenize(word)
    else:
        with pytest.raises(UnknownLetter):
            tokenize(word, F2F2_ALPHABET.letters)


# -- FSA and regex --------------------------------------------------------------

def test_regex_basic():
    f = regex_to_fsa("a*b")
    assert fsa_accepts(f, "ab") and fsa_accepts(f, "b") and fsa_accepts(f, "aaab")
    assert not fsa_accepts(f, "ba") and not fsa_accepts(f, "")


def test_regex_union_plus():
    f = regex_to_fsa("(ab|c)+")
    assert fsa_accepts(f, "ab") and fsa_accepts(f, "cc") and fsa_accepts(f, "abc")
    assert not fsa_accepts(f, "") and not fsa_accepts(f, "a")


def test_regex_primed_letters():
    f = regex_to_fsa("(a')+b")
    assert fsa_accepts(f, "a'b") and fsa_accepts(f, "a'a'b")
    assert not fsa_accepts(f, "ab")


def test_fsa_file_format():
    text = "fsa\nstates: s0 s1\ninitial: s0\nfinal: s1\nalphabet: t T\ntrans: s0 t s1\ntrans: s1 t s1\n"
    f = parse_fsa(text)
    assert fsa_accepts(f, "t") and fsa_accepts(f, "ttt")
    assert not fsa_accepts(f, "") and not fsa_accepts(f, "T")


@pytest.mark.parametrize("text, error, line", [
    ("fsa\ninitial:\n", ParseError, 2),  # no initial state given
    ("fsa\nstates: s0\ninitial: s0\nfinal: s1\n", UnknownState, 4),
    ("fsa\nstates: s0\ninitial: s0\nalphabet: t\ntrans: s0 t s9\n", UnknownState, 5),
    ("fsa\nstates: s0\ninitial: s0\nalphabet: t\ntrans: s0 T s0\n", ParseError, 5),
])
def test_fsa_parse_errors_carry_line_numbers(text, error, line):
    with pytest.raises(error) as exc:
        parse_fsa(text)
    assert exc.value.line == line


def test_eps_free_preserves_language():
    f = regex_to_fsa("(ab)*c|d+")
    g = eps_free(f)
    assert all(sym is not None for _, sym, _ in g.delta)
    for n in range(5):
        for tup in itertools.product("abcd", repeat=n):
            assert fsa_accepts(f, tup) == fsa_accepts(g, tup)


def test_f2f2_T_membership():
    T = f2f2_T()
    assert fsa_accepts(T, tokenize("cadbb'd'a'c'"))
    assert not fsa_accepts(T, ())
    # m = n = 2 uniform word is in T
    w = ("ca" * 2 + "db" * 2) * 2 + "b'" * 2 + ("d'a'" * 2 + "c'b'" * 2) * 1 + "d'a'" * 2 + "c'" * 2
    assert fsa_accepts(T, tokenize(w))


# -- B_w ---------------------------------------------------------------------------

def test_build_Bw_tplus():
    B = regex_to_fsa("t+", ("t", "T"))
    Bw = build_Bw(B, "tt", WPZ_ALPHABET)
    for n in range(1, 4):
        assert fsa_accepts(Bw, "t" * n + "TT")
    assert not fsa_accepts(Bw, "tT")
    assert not fsa_accepts(Bw, "ttT")
    # every member up to length 8 has the v . w^{-1} shape
    free = eps_free(Bw)
    for w in words_upto("tT", 8):
        if fsa_accepts(free, w):
            assert w.endswith("TT") and set(w[:-2]) <= {"t"} and len(w) > 2


def test_build_Bw_empty_w():
    B = regex_to_fsa("t+", ("t", "T"))
    Bw = build_Bw(B, "", WPZ_ALPHABET)
    for w in words_upto("tT", 5):
        assert fsa_accepts(Bw, w) == fsa_accepts(B, w)


def test_build_Bw_inversion_shape():
    B = regex_to_fsa("tT", ("t", "T"))
    Bw = build_Bw(B, "tT", WPZ_ALPHABET)
    assert fsa_accepts(Bw, "tTtT")
    assert not fsa_accepts(Bw, "tT")


def test_build_Bw_concatenation_property():
    B = regex_to_fsa("t(tT)*", ("t", "T"))
    members = ["t", "ttT", "ttTtT"]
    for w in ["t", "tt", "tT", "TTtt"]:
        Bw = build_Bw(B, w, WPZ_ALPHABET)
        inv = "".join(WPZ_ALPHABET.inverse_word(w))
        for v in members:
            assert fsa_accepts(Bw, v + inv), (v, w)


# -- rational membership -------------------------------------------------------------

@pytest.fixture(scope="module")
def wpz_tsa():
    return fixture_wpz_tsa()


def test_rational_yes_tt(wpz_tsa):
    B = regex_to_fsa("t+", ("t", "T"))
    ans = rational_membership(wpz_tsa, B, "tt", WPZ_ALPHABET)
    assert ans.verdict == "yes"
    assert ans.witness == "ttTT"
    # the witness is the machine's own run, re-executed by replay
    assert ans.trace is not None and ans.trace.word == "ttTT" and ans.trace.tsa is wpz_tsa


def test_rational_no_T(wpz_tsa):
    B = regex_to_fsa("t+", ("t", "T"))
    ans = rational_membership(wpz_tsa, B, "T", WPZ_ALPHABET)
    assert (ans.verdict, ans.witness, ans.trace) == ("no", None, None)


def test_rational_no_when_the_search_is_exhausted(wpz_tsa):
    # tT is the identity and t is not, so the machine accepts no word of
    # B . t^-1, and the summaries saturate without a goal
    B = regex_to_fsa("tT", ("t", "T"))
    ans = rational_membership(wpz_tsa, B, "t", WPZ_ALPHABET)
    assert (ans.verdict, ans.witness, ans.trace) == ("no", None, None)


def test_rational_universal(wpz_tsa):
    B = regex_to_fsa("(t|T)*", ("t", "T"))
    for w in ["tt", "tT", "T"]:
        ans = rational_membership(wpz_tsa, B, w, WPZ_ALPHABET)
        assert ans.verdict == "yes"
        # the defining witness w . w^{-1} is a word of B . w^-1 that the machine accepts
        ww = w + "".join(WPZ_ALPHABET.inverse_word(w))
        assert fsa_accepts(build_Bw(B, w, WPZ_ALPHABET), ww) and accepts(wpz_tsa, ww)


def test_rational_membership_of_a_two_final_fsa(wpz_tsa):
    # build_Bw joins the two finals by eps edges into one new final state
    two = parse_fsa("fsa\nstates: s0 s1 s2\ninitial: s0\nfinal: s1 s2\nalphabet: t T\n"
                    "trans: s0 t s1\ntrans: s1 t s2\n")
    one = parse_fsa("fsa\nstates: s0 s1 f\ninitial: s0\nfinal: f\nalphabet: t T\n"
                    "trans: s0 t f\ntrans: s0 t s1\ntrans: s1 t f\n")
    verdicts = {}
    for w in ["", "t", "tt", "ttt", "T", "tT"]:
        a, b = (rational_membership(wpz_tsa, B, w, WPZ_ALPHABET) for B in (two, one))
        assert (a.verdict, a.witness) == (b.verdict, b.witness), w
        verdicts[w] = a.verdict
    assert verdicts == {"": "no", "t": "yes", "tt": "yes", "ttt": "no", "T": "no", "tT": "no"}


def test_rational_membership_refuses_an_fsa_over_another_alphabet(wpz_tsa):
    with pytest.raises(AlphabetMismatch):
        rational_membership(wpz_tsa, regex_to_fsa("t+", ("t", "T", "a")), "t", WPZ_ALPHABET)


# a machine over t and T with an up row: its runs are not context-free
UP_TSA = ("tsa\nstates: q\ninitial: q\nfinal: q\nlabels: X\nalphabet: t T\n"
          "trans: q t true push 1 X q\ntrans: q T eq @ up 1 q\n")


def test_rational_membership_refuses_a_machine_with_up():
    with pytest.raises(InputError, match="no up row"):
        rational_membership(parse_tsa(UP_TSA), regex_to_fsa("t+", ("t", "T")), "t",
                            WPZ_ALPHABET)


# -- erasing homomorphism and the experiment -------------------------------------------

def test_erasing_hom():
    assert erasing_hom("cadb", F2F2_PSI) == "ab"
    assert erasing_hom("", F2F2_PSI) == ""
    with pytest.raises(UnknownLetter):
        erasing_hom("xyz", F2F2_PSI)


def test_f2f2_experiment_small():
    rep = f2f2_experiment(2, 2)
    assert rep.total == 800
    assert rep.members == 4
    assert not rep.mismatches
    assert rep.psi_image == rep.psi_expected == {("a" * m + "b" * m) * n
                                                 for m in (1, 2) for n in (1, 2)}


def test_f2f2_member_word_structure():
    # uniform exponents are members; a single bumped exponent is not
    from tsalab.langlab import _eqs_hold

    member = t_word_tokens((2, 2), (2, 2), (2, 2, 2), (2, 2))
    assert wp_f2xf2(member) and _eqs_hold((2, 2), (2, 2), (2, 2, 2), (2, 2))
    bumped = t_word_tokens((2, 2), (2, 2), (2, 2, 2), (1, 2))
    assert not wp_f2xf2(bumped) and not _eqs_hold((2, 2), (2, 2), (2, 2, 2), (1, 2))


# the degenerate sizes have no test words: a closed form for the count
# must not turn a negative m_max into (-1)**k
@pytest.mark.parametrize("n_max,m_max", [(2, 2), (3, 2), (2, 3), (1, 1),
                                         (0, 3), (3, 0), (2, -1), (-1, 2)])
def test_f2f2_experiment_matches_token_reference(n_max, m_max):
    assert vars(f2f2_experiment(n_max, m_max)) == vars(ref_f2f2_experiment(n_max, m_max))


def test_f2f2_balance_lemma():
    """A test word whose letter exponent sums differ satisfies none of the
    three predicates; the experiment only counts such words.  Balance of
    the letters is balance of the five exponent sums it groups by."""
    from tsalab.langlab import _eqs_hold

    unbalanced = 0
    for n, t, xs, ys, ps, qs in all_tuples(2, 2):
        toks = t_word_tokens(xs, ys, ps, qs)
        wp = wp_f2xf2(toks)
        balanced = all(toks.count(x) == toks.count(x + "'") for x in "abcd")
        assert balanced == (sum(xs) == sum(ys) == sum(qs) == sum(ps[:-1]) == sum(ps[1:]))
        if not balanced:
            unbalanced += 1
            assert not wp
            assert not _eqs_hold(xs, ys, ps, qs)
            assert not (len({*xs, *ys, *ps, *qs}) == 1 and n == t)
    assert 0 < unbalanced < 800


def test_f2f2_test_word_matches_token_reference():
    """The experiment's word builder spells the reference's tokens, and
    every test word lies in the regular language T."""
    from tsalab.langlab import _test_word

    T = f2f2_T()
    for _, _, xs, ys, ps, qs in all_tuples(2, 2):
        word = _test_word(xs, ys, ps, qs)
        assert word == "".join(t_word_tokens(xs, ys, ps, qs))
        assert fsa_accepts(T, word)


def test_f2f2_experiment_judges_each_balanced_word_once(monkeypatch):
    from tsalab import langlab

    balanced = sum(sum(xs) == sum(ys) == sum(qs) == sum(ps[:-1]) == sum(ps[1:])
                   for _, _, xs, ys, ps, qs in all_tuples(2, 2))
    calls = {"wp_f2xf2": 0, "erasing_hom": 0}
    for name in calls:
        def counted(*args, name=name, f=getattr(langlab, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(langlab, name, counted)
    rep = f2f2_experiment(2, 2)
    assert calls == {"wp_f2xf2": balanced, "erasing_hom": rep.members}
    assert 0 < balanced < rep.total


def test_f2f2_experiment_records_a_disagreement(monkeypatch):
    """A predicate that is wrong on one balanced tuple lands in the report's
    mismatches, and criterion 9's checks fail."""
    from tsalab import langlab, suites

    eqs_hold = langlab._eqs_hold
    wrong = ((1, 2), (2, 1), (1, 2, 1), (2, 1))  # balanced, not a member
    monkeypatch.setattr(langlab, "_eqs_hold",
                        lambda *t: (t == wrong) != eqs_hold(*t))
    rep = f2f2_experiment(2, 2)
    assert rep.mismatches == [((2, 2, *wrong), False, True, False)]
    assert not rep.ok
    assert not suites.f2f2_checks(rep)[0][1]
