"""Reference F2 x F2 experiment: every test word is built as a token list,
checked with the token-level `ref_wp_f2xf2` and erased with `erasing_hom`,
one word at a time, with the contract of `f2f2_experiment`.  It is slow but
plain; test_langlab.py checks the block-exponent experiment against it
report field by report field.  `ref_tokenize` is the index loop that
`tokenize` replaced, and `ref_wp_f2xf2` the token loop that the string
kernel `wp_f2xf2` replaced.
"""

from __future__ import annotations

import itertools

from collections.abc import Sequence

from tsalab.langlab import F2F2_ALPHABET, F2F2_PSI, F2F2Report, _eqs_hold, erasing_hom, tokenize


def ref_tokenize(word: str) -> tuple[str, ...]:
    """A letter is a character plus an optional trailing apostrophe."""
    toks = []
    i = 0
    while i < len(word):
        ch = word[i]
        if i + 1 < len(word) and word[i + 1] == "'":
            toks.append(ch + "'")
            i += 2
        else:
            toks.append(ch)
            i += 1
    return tuple(toks)


def ref_wp_f2xf2(word: str | Sequence[str]) -> bool:
    """Freely reduce the {a,b} and {c,d} projections token by token, each
    on its own stack; refuse a word exactly as `tokenize` does."""
    ab: list[str] = []
    cd: list[str] = []
    for tok in tokenize(word, F2F2_ALPHABET.letters):
        stack = ab if tok[0] in "ab" else cd
        if stack and stack[-1] == F2F2_ALPHABET.inverse(tok):
            stack.pop()
        else:
            stack.append(tok)
    return not ab and not cd


def t_word_tokens(xs, ys, ps, qs) -> list[str]:
    """The test word with block exponents xs, ys (positive part) and
    ps, qs (inverse part); ps has one more entry than qs."""
    toks: list[str] = []
    for x, y in zip(xs, ys):
        toks.extend(["c", "a"] * x)
        toks.extend(["d", "b"] * y)
    toks.extend(["b'"] * ps[0])
    for j, q in enumerate(qs):
        toks.extend(["d'", "a'"] * q)
        if j + 1 < len(qs):
            toks.extend(["c'", "b'"] * ps[j + 1])
    toks.extend(["c'"] * ps[-1])
    return toks


def all_tuples(n_max: int, m_max: int):
    """Every (n, t, xs, ys, ps, qs) of the experiment, in its order."""
    exps = range(1, m_max + 1)
    for n in range(1, n_max + 1):
        for t in range(1, n_max + 1):
            for xs in itertools.product(exps, repeat=n):
                for ys in itertools.product(exps, repeat=n):
                    for ps in itertools.product(exps, repeat=t + 1):
                        for qs in itertools.product(exps, repeat=t):
                            yield n, t, xs, ys, ps, qs


def ref_f2f2_experiment(n_max: int = 3, m_max: int = 3) -> F2F2Report:
    total = 0
    members = 0
    mismatches = []
    psi_image: set[str] = set()
    for n, t, xs, ys, ps, qs in all_tuples(n_max, m_max):
        total += 1
        toks = t_word_tokens(xs, ys, ps, qs)
        wp = ref_wp_f2xf2(toks)
        eqs = _eqs_hold(xs, ys, ps, qs)
        all_equal = len({*xs, *ys, *ps, *qs}) == 1 and n == t
        if not (wp == eqs == all_equal):
            mismatches.append(((n, t, xs, ys, ps, qs), wp, eqs, all_equal))
        if wp:
            members += 1
            psi_image.add(erasing_hom(toks, F2F2_PSI))
    expected = {("a" * m + "b" * m) * n for m in range(1, m_max + 1) for n in range(1, n_max + 1)}
    return F2F2Report(n_max, m_max, total, members, mismatches, psi_image, expected)
