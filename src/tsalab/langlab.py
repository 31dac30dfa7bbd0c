"""Language laboratory: the gap test for semi-linear Parikh images,
structural sample-language oracles, finite automata with a small regex
front end, the TSA x FSA product, inverse-path automata, the bounded
rational-subset membership pipeline, erasing homomorphisms and the
direct-product free-group experiment.

Group alphabets write inverses with a trailing apostrophe (a' for the
inverse of a); tokenize splits a word over one into letters.  wp_f2xf2
validates a string once, with one regular expression that refuses
exactly what tokenize refuses (and then raises tokenize's UnknownLetter),
rewrites each x' as the capital X and reduces one-character strings.
"""

from __future__ import annotations

import bisect
import inspect
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .treestack import InputError
from .tsa import (
    Names,
    ParseError,
    RunTrace,
    SearchOptions,
    Transition,
    Tsa,
    check_machine,
    read_machine,
    shortest_accepted,
)


class UnknownLetter(InputError):
    pass


class AlphabetMismatch(InputError):
    pass


# ---------------------------------------------------------------------------
# tokens

_TOKEN = re.compile(r".'?", re.S)


def tokenize(word: str | Sequence[str], alphabet: Sequence[str] | None = None) -> tuple[str, ...]:
    """Split a word into letters; a letter is a character plus an optional
    trailing apostrophe.  Sequences are passed through unchanged."""
    toks = tuple(_TOKEN.findall(word)) if isinstance(word, str) else tuple(word)
    if alphabet is not None:
        bad = [t for t in toks if t not in alphabet]
        if bad:
            raise UnknownLetter(f"letters {bad} not in alphabet {list(alphabet)}")
    return toks


# ---------------------------------------------------------------------------
# the gap test

@dataclass
class GapReport:
    """The verdict of `gap_check` and its threshold for each m."""

    verdict: str  # "gap-divergent (sample)" | "inconclusive"
    thresholds: dict[int, int | None]  # m -> least sample value past which gaps exceed m

    @property
    def divergent(self) -> bool:
        return self.verdict.startswith("gap-divergent")


def gap_check(lengths: Sequence[int], m_max: int) -> GapReport:
    """Sample-relative instance of the gap criterion: if for every m the
    consecutive gaps eventually exceed m, the Parikh image of the sampled
    language cannot be semi-linear.  The verdict never claims more than
    the sample shows."""
    ls = list(lengths)
    if not ls or m_max < 1:
        raise InputError("need at least one length and m_max >= 1")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise InputError("lengths must be strictly increasing")
    gaps = [b - a for a, b in zip(ls, ls[1:])]
    thresholds: dict[int, int | None] = {}
    for m in range(1, m_max + 1):
        small = [i for i, g in enumerate(gaps) if g <= m]
        if not small:
            thresholds[m] = ls[0]
        elif small[-1] == len(gaps) - 1:
            thresholds[m] = None  # gaps <= m persist to the end of the sample
        else:
            thresholds[m] = ls[small[-1] + 1]
    ok = all(v is not None for v in thresholds.values()) and len(gaps) > 0
    return GapReport("gap-divergent (sample)" if ok else "inconclusive", thresholds)


# the unary gap families: (first index, (k, alpha) -> the k-th length).  Each
# length is non-decreasing in k and at least k once k >= 3; only alpha's
# float power can overflow.
_UNARY_FAMILIES: dict[str, tuple[int, Callable[[int, float], int]]] = {
    "pow2": (1, lambda k, alpha: 2 ** k),
    "square": (1, lambda k, alpha: k * k),
    "alpha": (1, lambda k, alpha: int(k ** alpha)),
    "nlogn": (2, lambda k, alpha: int(k * math.log(k))),
}


def _unary_family(family: str, alpha: float | None) -> tuple[int, Callable[[int], int]]:
    """(first index, k -> length) of a unary family, the length inf where
    it overflows; InputError for an unknown family or a bad alpha."""
    if not isinstance(family, str) or family not in _UNARY_FAMILIES:
        raise InputError(f"bad family {family!r}: unknown family {family!r}")
    if family == "alpha" and not (isinstance(alpha, (int, float)) and alpha > 1):  # also refuses nan
        raise InputError("alpha family needs alpha > 1")
    first, length = _UNARY_FAMILIES[family]

    def size(k: int) -> float:
        try:
            return length(k, alpha)
        except OverflowError:
            return math.inf

    return first, size


def unary_lengths(family: str, n_max: int, alpha: float | None = None) -> list[int]:
    """Length samples for the unary gap families: the family's lengths at
    its first n_max indices, sorted, each once."""
    first, size = _unary_family(family, alpha)
    lengths = sorted({size(k) for k in range(first, first + n_max)})
    if math.inf in lengths:
        raise InputError(f"n ** alpha overflows for alpha={alpha}, n <= {n_max}")
    return lengths


# ---------------------------------------------------------------------------
# group alphabets and free reduction

@dataclass(frozen=True)
class GroupAlphabet:
    """Group letters paired with their inverses by an involution."""

    letters: tuple[str, ...]
    pairing: tuple[tuple[str, str], ...]  # letter -> inverse letter
    _inverse: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pair = dict(self.pairing)
        object.__setattr__(self, "_inverse", pair)
        for x in self.letters:
            if x not in pair or pair[x] not in self.letters:
                raise ValueError(f"pairing not total at {x!r}")
            if pair[x] == x:
                raise ValueError(f"pairing must be fixpoint-free, {x!r} is self-inverse")
            if pair[pair[x]] != x:
                raise ValueError("pairing must be an involution")

    def inverse(self, letter: str) -> str:
        return self._inverse[letter]

    def inverse_word(self, word: str | Sequence[str]) -> tuple[str, ...]:
        toks = tokenize(word, self.letters)
        return tuple(self.inverse(t) for t in reversed(toks))


def group_alphabet(*pairs: tuple[str, str]) -> GroupAlphabet:
    letters = tuple(x for pair in pairs for x in pair)
    pairing = tuple(pairs) + tuple((b, a) for a, b in pairs)
    return GroupAlphabet(letters, pairing)


WPZ_ALPHABET = group_alphabet(("t", "T"))
F2F2_ALPHABET = group_alphabet(("a", "a'"), ("b", "b'"), ("c", "c'"), ("d", "d'"))


# ---------------------------------------------------------------------------
# sample-language oracles

@dataclass(frozen=True)
class WordOracle:
    """A named membership test over an alphabet."""

    name: str
    alphabet: tuple[str, ...]
    membership: Callable[[str], bool]

    def __call__(self, word: str) -> bool:
        """Membership; a word with a letter outside `alphabet` is no member."""
        try:
            tokenize(word, self.alphabet)
        except UnknownLetter:
            return False
        return bool(self.membership(word))


def _runs(word: str) -> list[tuple[str, int]]:
    return [(ch, sum(1 for _ in grp)) for ch, grp in itertools.groupby(word)]


def _count(name: str, value: int, least: int) -> int:
    """A count parameter, refused unless an int >= least (bool is no int)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def _letters(k: int) -> tuple[str, ...]:
    if k > 26:
        raise InputError("at most 26 indexed letters supported")
    return tuple(chr(ord("a") + i) for i in range(k))


def _s_m(m: int):
    letters = _letters(2 * _count("m", m, 0) + 1)

    def member(w: str) -> bool:
        runs = _runs(w)
        return not w or (tuple(ch for ch, _ in runs) == letters
                         and len({n for _, n in runs}) == 1)

    return letters, member


def _ab_blocks(w: str) -> list[int]:
    """The run lengths of a word in (a+ b+)+, or [] for any other word."""
    runs = _runs(w)
    if len(runs) % 2 or any(ch != "ab"[i % 2] for i, (ch, _) in enumerate(runs)):
        return []
    return [n for _, n in runs]


def _ambm_n():
    return ("a", "b"), lambda w: len(set(_ab_blocks(w))) == 1


def _ab_m_n():
    def member(w: str) -> bool:
        blocks = _ab_blocks(w)
        return set(blocks[::2]) == {1} and len(set(blocks[1::2])) == 1

    return ("a", "b"), member


def _l_k_nonincreasing(k: int):
    letters = _letters(_count("k", k, 1))

    def member(w: str) -> bool:
        # non-increasing exponents mean the word is a block prefix
        # a^n1 b^n2 ... with n1 >= n2 >= ... >= 1 (zeros only at the end)
        runs = _runs(w)
        counts = [n for _, n in runs]
        return (tuple(ch for ch, _ in runs) == letters[: len(runs)]
                and all(a >= b for a, b in zip(counts, counts[1:])))

    return letters, member


def _unary(family: str, alpha: float | None = None):
    first, size = _unary_family(family, alpha)

    def member(w: str) -> bool:
        # a binary search for the least k with size(k) >= n, among
        # first..max(first, n, 3), where size reaches n
        n = len(w)
        ks = range(first, max(first, n, 3) + 1)
        return size(ks[bisect.bisect_left(ks, n, key=size)]) == n

    return ("a",), member


def _wp_z():
    return ("t", "T"), lambda w: w.count("t") == w.count("T")


# each oracle's builder: its parameters are the oracle's, and it returns
# (alphabet, membership)
_ORACLES: dict[str, Callable[..., tuple[tuple[str, ...], Callable[[str], bool]]]] = {
    "s_m": _s_m,
    "ambm_n": _ambm_n,
    "ab_m_n": _ab_m_n,
    "l_k_nonincreasing": _l_k_nonincreasing,
    "unary": _unary,
    "wp_z": _wp_z,
    "wp_f2xf2": lambda: (F2F2_ALPHABET.letters, wp_f2xf2),
}


def oracle(name: str, **params) -> WordOracle:
    """Structural pattern oracles for the sample languages.

    The parameters of an oracle are those of its builder in `_ORACLES`.
    Indexed letters a_1, a_2, ... are written a, b, c, ...  An unknown
    name or a missing, unknown or bad parameter is refused here, by
    InputError, not at the first call.
    """
    if name not in _ORACLES:
        raise InputError(f"unknown oracle {name!r}: expected one of {sorted(_ORACLES)}")
    build = _ORACLES[name]
    signature = inspect.signature(build).parameters.values()
    required = [p.name for p in signature if p.default is p.empty]
    optional = [p.name for p in signature if p.default is not p.empty]
    missing = [p for p in required if p not in params]
    unknown = sorted(set(params) - {*required, *optional})
    if missing or unknown:
        raise InputError(f"oracle {name!r} takes {required}, optionally {optional}: "
                         f"missing {missing}, unknown {unknown}")
    alphabet, member = build(**params)
    return WordOracle(name, alphabet, member)


# wp_f2xf2 writes each inverse x' as the capital X, so that a word over
# F2F2_ALPHABET is a string with one character per letter.  _F2F2_WORD
# matches exactly the strings that tokenize splits into letters of
# F2F2_ALPHABET.  A factor is the table that deletes the other factor's
# letters, and the factor's adjacent inverse pairs.
_F2F2_WORD = re.compile(r"(?:[abcd]'?)*")
_F2F2_AB = (str.maketrans("", "", "cdCD"), ("aA", "Aa", "bB", "Bb"))
_F2F2_CD = (str.maketrans("", "", "abAB"), ("cC", "Cc", "dD", "Dd"))
_SWAPCASE = {ch: ch.swapcase() for ch in "abcdABCD"}


def _factor_trivial(word: str, drop: dict[int, None], pairs: tuple[str, ...]) -> bool:
    """Does the projection of a word (inverses written as capitals) onto a
    factor freely reduce to the identity?  Deleting the factor's adjacent
    inverse pairs first is a C-level pass that leaves the stack little to
    do."""
    word = word.translate(drop)
    for pair in pairs:
        word = word.replace(pair, "")
    stack: list[str] = []
    for ch in word:
        if stack and stack[-1] == _SWAPCASE[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return not stack


def wp_f2xf2(word: str | Sequence[str]) -> bool:
    """Identity test in the direct product of two rank-2 free groups:
    freely reduce the {a,b} and {c,d} projections, each on its own stack.
    A word is refused, by tokenize's UnknownLetter, before any rewriting,
    so a capital in the input is never read as an inverse."""
    if isinstance(word, str):
        if not _F2F2_WORD.fullmatch(word):
            tokenize(word, F2F2_ALPHABET.letters)  # raises UnknownLetter
    else:
        word = "".join(tokenize(word, F2F2_ALPHABET.letters))
    word = word.replace("a'", "A").replace("b'", "B").replace("c'", "C").replace("d'", "D")
    return _factor_trivial(word, *_F2F2_AB) and _factor_trivial(word, *_F2F2_CD)


# ---------------------------------------------------------------------------
# finite automata

@dataclass(frozen=True)
class Fsa:
    """A finite automaton; an edge is (source, letter or None, target)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: tuple[tuple[str, str | None, str], ...]  # (src, letter or None, dst)
    initial: str
    finals: frozenset[str]

    def __post_init__(self):
        check_machine(self.states, self.alphabet, self.initial, self.finals, self.delta)

    def has_eps(self) -> bool:
        return any(sym is None for _, sym, _ in self.delta)


def _eps_closure(fsa: Fsa, states: set[str]) -> set[str]:
    out = set(states)
    frontier = list(states)
    while frontier:
        q = frontier.pop()
        for src, sym, dst in fsa.delta:
            if src == q and sym is None and dst not in out:
                out.add(dst)
                frontier.append(dst)
    return out


def fsa_accepts(fsa: Fsa, word: str | Sequence[str]) -> bool:
    toks = tokenize(word)
    current = _eps_closure(fsa, {fsa.initial})
    for tok in toks:
        nxt = {dst for src, sym, dst in fsa.delta if src in current and sym == tok}
        current = _eps_closure(fsa, nxt)
        if not current:
            return False
    return bool(current & fsa.finals)


def eps_free(fsa: Fsa) -> Fsa:
    """Equivalent automaton without eps transitions (standard closure)."""
    closures = {q: _eps_closure(fsa, {q}) for q in fsa.states}
    delta = []
    seen = set()
    for q in fsa.states:
        for mid in sorted(closures[q]):
            for src, sym, dst in fsa.delta:
                if src == mid and sym is not None:
                    edge = (q, sym, dst)
                    if edge not in seen:
                        seen.add(edge)
                        delta.append(edge)
    finals = frozenset(q for q in fsa.states if closures[q] & fsa.finals)
    return Fsa(fsa.states, fsa.alphabet, tuple(delta), fsa.initial, finals)


# regex front end: concatenation, |, *, +, grouping; letters may carry '

class _RegexParser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.counter = itertools.count()
        self.states: list[str] = []
        self.delta: list[tuple[str, str | None, str]] = []
        self.letters: list[str] = []

    def fresh(self) -> str:
        q = f"r{next(self.counter)}"
        self.states.append(q)
        return q

    def edge(self, a, sym, b):
        self.delta.append((a, sym, b))

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else None

    def parse(self) -> tuple[str, str]:
        start, end = self.alt()
        if self.i != len(self.text):
            raise ParseError(f"unexpected {self.text[self.i]!r} at {self.i}")
        return start, end

    def alt(self):
        starts_ends = [self.concat()]
        while self.peek() == "|":
            self.i += 1
            starts_ends.append(self.concat())
        if len(starts_ends) == 1:
            return starts_ends[0]
        s, e = self.fresh(), self.fresh()
        for a, b in starts_ends:
            self.edge(s, None, a)
            self.edge(b, None, e)
        return s, e

    def concat(self):
        parts = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.repeat())
        if not parts:
            q = self.fresh()
            return q, q
        start, end = parts[0]
        for a, b in parts[1:]:
            self.edge(end, None, a)
            end = b
        return start, end

    def repeat(self):
        start, end = self.atom()
        while self.peek() in ("*", "+"):
            op = self.text[self.i]
            self.i += 1
            s, e = self.fresh(), self.fresh()
            self.edge(s, None, start)
            self.edge(end, None, e)
            self.edge(end, None, start)
            if op == "*":
                self.edge(s, None, e)
            start, end = s, e
        return start, end

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            inner = self.alt()
            if self.peek() != ")":
                raise ParseError("missing ')'")
            self.i += 1
            return inner
        if ch is None or ch in "|*+)":
            raise ParseError(f"unexpected {ch!r} at {self.i}")
        self.i += 1
        tok = ch
        if self.peek() == "'":
            tok += "'"
            self.i += 1
        if tok not in self.letters:
            self.letters.append(tok)
        s, e = self.fresh(), self.fresh()
        self.edge(s, tok, e)
        return s, e


def regex_to_fsa(pattern: str, alphabet: Sequence[str] | None = None) -> Fsa:
    """Thompson construction over apostrophe-aware single-symbol tokens."""
    parser = _RegexParser(pattern.replace(" ", ""))
    start, end = parser.parse()
    alpha = tuple(alphabet) if alphabet is not None else tuple(parser.letters)
    missing = set(parser.letters) - set(alpha)
    if missing:
        raise AlphabetMismatch(f"pattern uses letters {sorted(missing)} outside the alphabet")
    return Fsa(tuple(parser.states), alpha, tuple(parser.delta), start, frozenset({end}))


F2F2_T_PATTERN = "((ca)+(db)+)+(b')+((d'a')+(c'b')+)*(d'a')+(c')+"


def f2f2_T() -> Fsa:
    """The test language over the eight group letters used by the direct
    product experiment."""
    return regex_to_fsa(F2F2_T_PATTERN, F2F2_ALPHABET.letters)


# FSA file format: mirrors the TSA format minus predicates/instructions

def parse_fsa(text: str) -> Fsa:
    lists, initial, raw_trans = read_machine(text, "fsa", letters=False)
    delta: list[tuple[str, str | None, str]] = []
    for lineno, src, sym, mid, dst, _ in raw_trans:
        if mid:
            raise ParseError("transition needs: src letter dst", lineno)
        delta.append((src, sym, dst))
    return Fsa(tuple(lists["states"]), tuple(lists["alphabet"]), tuple(delta), initial,
               frozenset(lists["final"]))


# ---------------------------------------------------------------------------
# TSA x FSA product and the rational-subset pipeline

def tsa_fsa_product(tsa: Tsa, fsa: Fsa) -> Tsa:
    """Intersection automaton: FSA tracks the letters the TSA reads.

    The FSA must be eps-free; the tree stack component is untouched, so
    k-restricted witnesses stay k-restricted.  The state of the pair (q, f)
    is `q&f`, primed by `Names` if another pair already has that name."""
    if fsa.has_eps():
        raise InputError("run eps_free() on the FSA first")
    if set(fsa.alphabet) != set(tsa.alphabet):
        raise AlphabetMismatch(f"tsa alphabet {tsa.alphabet} != fsa alphabet {fsa.alphabet}")

    names = Names()
    pair = {(q, f): names.new(f"{q}&{f}") for q in tsa.states for f in fsa.states}
    delta = []
    for t in tsa.delta:
        if t.inp is None:
            for f in fsa.states:
                delta.append(Transition(pair[t.src, f], None, t.pred, t.instr,
                                        pair[t.dst, f], name=t.name))
        else:
            for src, sym, dst in fsa.delta:
                if sym == t.inp:
                    delta.append(Transition(pair[t.src, src], t.inp, t.pred, t.instr,
                                            pair[t.dst, dst], name=t.name))
    finals = frozenset(pair[q, f] for q in tsa.finals for f in fsa.finals)
    return Tsa(tuple(names.added), tsa.labels, tsa.alphabet, pair[tsa.initial, fsa.initial],
               tuple(delta), finals)


def build_Bw(fsa: Fsa, w: str | Sequence[str], pairing: GroupAlphabet) -> Fsa:
    """Attach a path reading the inverse word of w after the accept state:
    L(B_w) = L(B) . w^{-1}.  The automaton is first normalised to a single
    final state via eps edges."""
    names = Names(fsa.states)
    delta = list(fsa.delta)
    if len(fsa.finals) == 1:
        final = next(iter(fsa.finals))
    else:
        final = names.new("F")
        for f in sorted(fsa.finals):
            delta.append((f, None, final))

    cur = final
    for tok in pairing.inverse_word(w):
        nxt = names.new("w")
        delta.append((cur, tok, nxt))
        cur = nxt
    return Fsa((*fsa.states, *names.added), fsa.alphabet, tuple(delta), fsa.initial,
               frozenset({cur}))


@dataclass
class RationalAnswer:
    """The answer of `rational_membership`, with the witness word and its
    run on the product for yes, and the search's NotFound reason otherwise."""

    verdict: str  # "yes" | "no" | "unknown"
    witness: str | None = None
    trace: RunTrace | None = None
    reason: str | None = None  # for no and unknown: "exhausted" | "budget"


def rational_membership(wp_tsa: Tsa, fsa: Fsa, w: str, pairing: GroupAlphabet,
                        max_len: int = 12) -> RationalAnswer:
    """Does the group element of w lie in the rational subset the FSA
    describes?  Searches WP x (B . w^{-1}) for any accepted word up to
    max_len.  A witness proves yes.  An exhausted search proves no: no step,
    vertex or length-bound cut happened, and the length bound cuts at every
    reading state it reaches, so the product's language is empty.  A budget
    cut leaves the answer unknown."""
    bw = eps_free(build_Bw(fsa, w, pairing))
    product = tsa_fsa_product(wp_tsa, bw)
    res = shortest_accepted(product, max_len, SearchOptions())
    if res:
        return RationalAnswer("yes", witness=res.word, trace=res)
    return RationalAnswer("no" if res.reason == "exhausted" else "unknown", reason=res.reason)


# ---------------------------------------------------------------------------
# erasing homomorphisms and the F2 x F2 experiment

def erasing_hom(word: str | Sequence[str], letter_map: dict[str, str]) -> str:
    toks = tokenize(word)
    missing = [t for t in toks if t not in letter_map]
    if missing:
        raise UnknownLetter(f"letters {missing} missing from the map")
    return "".join(letter_map[t] for t in toks)


F2F2_PSI = {"a": "a", "b": "b",
            "a'": "", "b'": "", "c": "", "c'": "", "d": "", "d'": ""}


@dataclass
class F2F2Report:
    """The counts, disagreements and psi image of `f2f2_experiment`."""

    n_max: int
    m_max: int
    total: int
    members: int
    mismatches: list[tuple]  # (params, wp, eqs, all_equal) for any disagreement
    psi_image: set[str]
    psi_expected: set[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.psi_image == self.psi_expected


def _test_word(xs, ys, ps, qs) -> str:
    """The test word with block exponents xs, ys (positive part) and ps, qs
    (inverse part, ps one entry longer): (ca)^x1 (db)^y1 ... (b')^p0
    (d'a')^q1 (c'b')^p1 ... (d'a')^qt (c')^pt."""
    inv = "".join("c'b'" * p + "d'a'" * q for p, q in zip(ps[1:], qs[1:]))
    return ("".join("ca" * x + "db" * y for x, y in zip(xs, ys))
            + "b'" * ps[0] + "d'a'" * qs[0] + inv + "c'" * ps[-1])


def _eqs_hold(xs, ys, ps, qs) -> bool:
    """The two free-group cancellation chains: the first forces the
    inverse exponents to mirror ys, xs in reverse, the second shifts the
    mirror by one; together they force all exponents equal."""
    n, t = len(xs), len(qs)
    if n != t:
        return False
    eq1 = all(ps[i] == ys[n - 1 - i] and qs[i] == xs[n - 1 - i] for i in range(n))
    eq2 = (all(qs[i] == ys[n - 1 - i] for i in range(n))
           and all(ps[i + 1] == xs[n - 1 - i] for i in range(n)))
    return eq1 and eq2


def _grouped(tuples: Iterable[tuple], key: Callable[[tuple], int]) -> dict[int, list[tuple]]:
    """The tuples grouped by key, each group in the order given."""
    out: dict[int, list[tuple]] = {}
    for tup in tuples:
        out.setdefault(key(tup), []).append(tup)
    return out


def f2f2_experiment(n_max: int = 3, m_max: int = 3) -> F2F2Report:
    """Enumerate the test words with up to n_max blocks per segment and
    exponents up to m_max; check that word-problem membership coincides
    with the cancellation equations and with all exponents being equal,
    and that erasing everything but a, b maps the members onto the
    two-parameter block language.

    The letter exponent sums of a test word are sum(xs) for a and c,
    sum(ys) for b and d, sum(qs) for a' and d', sum(ps[:-1]) for b' and
    sum(ps[1:]) for c'.  Unless all five are equal the word is not the
    identity, and neither other predicate holds (each forces them equal),
    so such tuples agree and are only counted.  The balanced ones are
    visited in the order of the full enumeration."""
    exps = range(1, m_max + 1)
    sizes = range(1, n_max + 1)
    total = sum(len(exps) ** (2 * n + 2 * t + 1) for n in sizes for t in sizes)
    by_sum = {n: _grouped(itertools.product(exps, repeat=n), sum) for n in sizes}
    ps_by_sum = {t: _grouped((ps for ps in itertools.product(exps, repeat=t + 1)
                              if sum(ps[:-1]) == sum(ps[1:])), lambda ps: sum(ps[1:]))
                 for t in sizes}
    members = 0
    mismatches = []
    psi_image: set[str] = set()
    for n in sizes:
        for t in sizes:
            for xs in itertools.product(exps, repeat=n):
                s = sum(xs)
                for ys in by_sum[n].get(s, ()):
                    for ps in ps_by_sum[t].get(s, ()):
                        for qs in by_sum[t].get(s, ()):
                            word = _test_word(xs, ys, ps, qs)
                            wp = wp_f2xf2(word)
                            eqs = _eqs_hold(xs, ys, ps, qs)
                            all_equal = len({*xs, *ys, *ps, *qs}) == 1 and n == t
                            if not (wp == eqs == all_equal):
                                mismatches.append(((n, t, xs, ys, ps, qs), wp, eqs, all_equal))
                            if wp:
                                members += 1
                                psi_image.add(erasing_hom(word, F2F2_PSI))
    expected = {("a" * m + "b" * m) * n for m in range(1, m_max + 1) for n in range(1, n_max + 1)}
    return F2F2Report(n_max, m_max, total, members, mismatches, psi_image, expected)
