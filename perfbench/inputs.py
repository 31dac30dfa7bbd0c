"""Seeded, stratified inputs for the benchmark rounds.

A round is a list of queries.  Every stratum and size bucket contributes a
fixed number of queries, so two seeds give different words but the same
amount of work.  Nothing here imports tsalab: the program under test only
ever sees the words these functions return.
"""

from __future__ import annotations

import random

import oracles

# Search strata: (stratum, size bucket, members, non-members).  The bucket
# is m for abcd, n and m for anbmcndm, (length, lowest, highest excursion)
# for the wpz machine, and the word length for pda and mcfg.  The cost of a
# wpz search grows steeply with the excursion, so the buckets fix it;
# t^16 T^16 (out of memory after minutes) is deliberately not reachable.
# The largest abcd and anbmcndm sizes are fixed, so the peak memory and the
# slowest queries do not depend on the seed.
SEARCH_PLAN = [
    ("abcd", (8, 40), 4, 4),
    ("abcd", (40, 80), 3, 3),
    ("abcd", (80, 120), 2, 2),
    ("abcd", (160, 160), 1, 1),
    ("anbmcndm", (4, 20), 4, 4),
    ("anbmcndm", (20, 35), 3, 3),
    ("anbmcndm", (50, 50), 1, 1),
    ("wpz", (10, 2, 3), 4, 4),
    ("wpz", (12, 4, 5), 3, 3),
    ("wpz", (14, 6, 6), 2, 2),
    ("wpz", (16, 7, 7), 1, 1),
    ("pda", (200, 200), 5, 5),
    ("pda", (400, 400), 3, 3),
    ("mcfg", (4, 4), 2, 2),
    ("mcfg", (6, 6), 2, 2),
    ("mcfg", (8, 8), 2, 2),
]

# Sweep bounds: every word up to this length, over each machine and the
# grammar of the same language.  No call runs much over 0.3 s, because the
# calibration (calibration.py) can only bracket whole calls.
SWEEP_BOUNDS = {"abcd": 6, "anbmcndm": 5, "wpz": 6}

# F2 x F2: the size of f2f2_experiment (about 0.3 s, for the same reason)
# and the direct wp_f2xf2 queries, as (kind, length in letters, count).
F2F2_SIZE = (2, 3)
F2F2_PLAN = [
    ("member", 16, 1000),
    ("member", 48, 1000),
    ("balanced", 16, 1000),
    ("balanced", 48, 1000),
    ("unbalanced", 16, 1000),
    ("unbalanced", 48, 1000),
]


# The R3 low-discrepancy sequence: successive terms k * alpha mod 1 fill the
# unit cube evenly, so the rounds of one run cover each size bucket evenly
# whatever the seed.  Random sizes instead made the run's cost follow the
# few largest queries.
_PLASTIC = 1.2207440846057596
_ALPHAS = (1 / _PLASTIC, 1 / _PLASTIC ** 2, 1 / _PLASTIC ** 3)


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{index}")


def _points(seed: int, key: str, index: int, count: int) -> list[tuple[float, ...]]:
    """The `count` points in [0, 1)^3 that round `index` of one bucket uses:
    the next terms of the R3 sequence from a seeded start."""
    starts = [random.Random(f"{seed}/{key}/{d}").random() for d in range(3)]
    return [tuple((s + k * a) % 1 for s, a in zip(starts, _ALPHAS))
            for k in range(index * count, (index + 1) * count)]


def _scale(u: float, lo: int, hi: int) -> int:
    return lo + int(u * (hi - lo + 1))


def _delete_at(w: str, u: float) -> str:
    i = int(u * len(w))
    return w[:i] + w[i + 1:]


def _excursion(w: str) -> int:
    h = top = 0
    for ch in w:
        h += 1 if ch == "t" else -1
        top = max(top, abs(h))
    return top


def _tT_word(rng: random.Random, length: int, balanced: bool,
             lo: int = 0, hi: int | None = None) -> str:
    """A random word over {t, T} of the given length, balanced or off by
    two, whose largest |#t - #T| over its prefixes lies in [lo, hi]."""
    ups = length // 2 + (0 if balanced else rng.choice((-1, 1)))
    letters = ["t"] * ups + ["T"] * (length - ups)
    while True:
        rng.shuffle(letters)
        w = "".join(letters)
        if lo <= _excursion(w) <= (length if hi is None else hi):
            return w


def _search_query(rng: random.Random, point: tuple[float, ...], stratum: str,
                  bucket: tuple, member: bool) -> str:
    if stratum == "abcd":
        m = _scale(point[0], *bucket)
        w = "a" * m + "b" * m + "c" * m + "d" * m
        return w if member else _delete_at(w, point[2])
    if stratum == "anbmcndm":
        n, m = _scale(point[0], *bucket), _scale(point[1], *bucket)
        w = "a" * n + "b" * m + "c" * n + "d" * m
        return w if member else _delete_at(w, point[2])
    if stratum == "wpz":
        length, lo, hi = bucket
        return _tT_word(rng, length, member, lo, hi)
    return _tT_word(rng, bucket[0], member)


SEARCH_ORACLE = {"abcd": oracles.abcd, "anbmcndm": oracles.anbmcndm,
                 "wpz": oracles.wp_z, "pda": oracles.wp_z, "mcfg": oracles.wp_z}


def search_round(seed: int, index: int) -> list[tuple[str, str, bool]]:
    """(stratum, word, expected verdict) for one round, in plan order: a
    seeded order made the peak memory depend on which queries ran before the
    largest ones."""
    rng = round_rng(seed, "search", index)
    queries = []
    for row, (stratum, bucket, members, non_members) in enumerate(SEARCH_PLAN):
        for member, count in ((True, members), (False, non_members)):
            for point in _points(seed, f"search/{row}/{member}", index, count):
                queries.append((stratum, _search_query(rng, point, stratum, bucket, member),
                                member))
    for stratum, w, member in queries:
        if SEARCH_ORACLE[stratum](w) != member:
            raise AssertionError(f"generator made a wrong {stratum} word {w!r}")
    return queries


def sweep_letters(seed: int, index: int) -> dict[str, str]:
    """A seeded renaming of the letters a, b, c, d, t, T to distinct ones, so
    that each round asks about other words for the same work."""
    rng = round_rng(seed, "sweep", index)
    fresh = rng.sample("efghijklmnopqrsuvwxyzABCDEFGHIJKLMNOPQRSUVWXYZ", 6)
    return dict(zip("abcdtT", fresh))


_F2_LETTERS = ("a", "b", "c", "d")


def _inv(x: str) -> str:
    return x[0] if x.endswith("'") else x + "'"


def _f2_word(rng: random.Random, kind: str, length: int) -> str:
    """A word of `length` (even) letters.  A member inserts pairs x x' at
    random places, each one possibly inside an earlier pair.  A `balanced` word
    splices a commutator x y x' y' of one factor into a member, so every
    letter count balances but the word is not the identity.  An
    `unbalanced` word inserts two more copies of one letter."""
    extra = {"member": 0, "balanced": 4, "unbalanced": 2}[kind]
    toks: list[str] = []
    for _ in range((length - extra) // 2):
        x = rng.choice(_F2_LETTERS)
        x = x if rng.random() < 0.5 else _inv(x)
        i = rng.randint(0, len(toks))
        toks[i:i] = [x, _inv(x)]
    if kind == "balanced":
        x, y = rng.choice((("a", "b"), ("c", "d")))
        i = rng.randint(0, len(toks))
        toks[i:i] = [x, y, _inv(x), _inv(y)]
    elif kind == "unbalanced":
        x = rng.choice(_F2_LETTERS)
        for _ in range(2):
            toks.insert(rng.randint(0, len(toks)), x)
    return "".join(toks)


def f2f2_round(seed: int, index: int) -> list[tuple[str, bool]]:
    """(word, expected verdict) direct wp_f2xf2 queries for one round."""
    rng = round_rng(seed, "f2f2", index)
    queries = []
    for kind, length, count in F2F2_PLAN:
        for _ in range(count):
            w = _f2_word(rng, kind, length)
            if oracles.wp_f2xf2(w) != (kind == "member"):
                raise AssertionError(f"generator made a wrong {kind} word {w!r}")
            queries.append((w, kind == "member"))
    rng.shuffle(queries)
    return queries
