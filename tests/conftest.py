"""Shared structural oracles, and the acceptance Stopwatch.  The oracles
are written directly from the language definitions and never call the
machinery they are used to check.
"""

import itertools
import time


class Stopwatch:
    def __init__(self, criterion, limit_s):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({dt:.2f}s, limit {self.limit}s)")
        self.fast_enough = dt < self.limit
        if exc_type is None:
            assert self.fast_enough, f"criterion {self.criterion} exceeded {self.limit}s"
        return False


def abcd_word(m: int) -> str:
    return "a" * m + "b" * m + "c" * m + "d" * m


def abcd_oracle(w: str) -> bool:
    m = len(w) // 4
    return len(w) % 4 == 0 and w == abcd_word(m)


def anbmcndm_oracle(w: str) -> bool:
    for n in range(len(w) + 1):
        for m in range(len(w) + 1):
            if "a" * n + "b" * m + "c" * n + "d" * m == w:
                return True
    return False


def counting_wpz_oracle(w: str) -> bool:
    return w.count("t") == w.count("T")


def words_upto(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def crossing_recorder(moves, nu):
    """Independent up-down recorder: `moves` is the pointer address after
    each step (a list of tuples, step 0 = initial); returns the flat
    up-down vector for the edge (parent(nu), nu) by scanning crossings."""
    parent = nu[:-1]
    ups = [j for j in range(1, len(moves)) if moves[j - 1] == parent and moves[j] == nu]
    downs = [j - 1 for j in range(1, len(moves)) if moves[j - 1] == nu and moves[j] == parent]
    out = []
    for l, m in zip(ups, downs):
        out.extend((l, m))
    return tuple(out)
