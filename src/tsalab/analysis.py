"""Run analysis for tree stack automata: up-down vectors, vertex
factorisations, history arrays, empirical up-sets, the single-swap
splice, pumpability extraction, per-vertex letter-count bounds, the
substitution-bound formulas, switchability checking, weak-pumping
verification and the root-edge (level-1) variants.

All operations work on proper accepting runs whose pointer ends at the
root; that is the setting in which the definitions make sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .treestack import ROOT, Address, InputError, format_address
from .tsa import (
    Configuration,
    ReplayMismatch,
    RunTrace,
    SearchOptions,
    accepts,
    accepts_each,
    degree,
    is_accepting_run,
    is_proper,
    replay,
    visited_from_below_counts,
)


class TraceNotProper(InputError):
    pass


class TraceNotAtRoot(InputError):
    pass


class VertexNotInFinalTree(InputError):
    pass


class HistoryMismatch(InputError):
    pass


class EmptyLevel1(InputError):
    pass


class ArityMismatch(InputError):
    pass


class ZeroPumpVolume(InputError):
    pass


class StrongConditionViolated(InputError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"stationary factor too long at {format_address(vertex)}")


def _check_trace(trace: RunTrace):
    if not is_proper(trace):
        raise TraceNotProper("analysis needs a proper run")
    if trace.final().ts.pointer != ROOT:
        raise TraceNotAtRoot("analysis needs the run to finish at the root")


def _positions(trace: RunTrace) -> list[int]:
    """Input positions after 0 .. r steps."""
    return [c.pos for c in trace.configurations()]


@dataclass(frozen=True)
class UpDownVector:
    """Alternating 1-based indices (l_1, m_1, ..., l_s, m_s): step l_j moves
    the pointer up across the parent edge, step m_j + 1 moves it back down."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def s(self) -> int:
        return len(self.pairs)

    def flat(self) -> tuple[int, ...]:
        return tuple(x for pair in self.pairs for x in pair)


def _crossings(configs: Sequence[Configuration]) -> dict[Address, list[tuple[int, int]]]:
    """Every up-down vector of the run through configs (its
    `configurations()`) from one walk over the pointer path.

    A step that lengthens the pointer address opens a pair (l, _) at the
    vertex it enters; one that shortens it closes the open pair at the
    vertex it leaves with m = step - 1.  The open pairs are the edges from
    the root to the pointer, so they form a stack.  Keys are the vertices
    entered from below: the non-root vertices of the final tree.  The
    trace must have passed `_check_trace`, so every pair is closed."""
    out: dict[Address, list[tuple[int, int]]] = {}
    rho = [c.ts.pointer for c in configs]
    opened = []
    for j in range(1, len(rho)):
        if len(rho[j]) > len(rho[j - 1]):
            opened.append(j)
        elif len(rho[j]) < len(rho[j - 1]):
            out.setdefault(rho[j - 1], []).append((opened.pop(), j - 1))
    return out


def up_down_vector(trace: RunTrace, nu: Address) -> UpDownVector:
    """Indices of the transitions crossing the edge (parent(nu), nu)."""
    _check_trace(trace)
    pairs = _crossings(trace.configurations()).get(nu)
    if pairs is None:
        raise VertexNotInFinalTree(f"{format_address(nu)} is not a non-root vertex of the run's final tree")
    return UpDownVector(tuple(pairs))


@dataclass(frozen=True)
class NuFactorisation:
    """w = w0 u1 w1 ... us ws; the u parts are read with the pointer at or
    above the vertex, the w parts at or below its parent."""

    w0: str
    parts: tuple[tuple[str, str], ...]  # (u_j, w_j) for j = 1..s

    @property
    def s(self) -> int:
        return len(self.parts)

    def word(self) -> str:
        return self.w0 + "".join(u + w for u, w in self.parts)

    def u_tuple(self) -> tuple[str, ...]:
        return tuple(u for u, _ in self.parts)

    def substitute(self, us: Sequence[str]) -> str:
        if len(us) != self.s:
            raise ArityMismatch(f"expected {self.s} factors, got {len(us)}")
        return self.w0 + "".join(u + w for u, (_, w) in zip(us, self.parts))


def _factorise(w: str, pos: Sequence[int], pairs: Sequence[tuple[int, int]]) -> NuFactorisation:
    s = len(pairs)
    w0 = w[: pos[pairs[0][0]]]
    parts = []
    for j, (l, m) in enumerate(pairs):
        u = w[pos[l]: pos[m]]
        nxt = pos[pairs[j + 1][0]] if j + 1 < s else len(w)
        wj = w[pos[m]: nxt]
        parts.append((u, wj))
    return NuFactorisation(w0, tuple(parts))


def nu_factorisation(trace: RunTrace, nu: Address) -> NuFactorisation:
    udv = up_down_vector(trace, nu)
    return _factorise(trace.word, _positions(trace), udv.pairs)


@dataclass(frozen=True)
class HistoryArray:
    """2 x 2s array: labels and states of the vertex at each arrival from
    below and just before each return below."""

    labels: tuple[str, ...]
    states: tuple[str, ...]

    @property
    def s(self) -> int:
        return len(self.labels) // 2

    def columns(self):
        return list(zip(self.labels, self.states))

    def __str__(self):
        return "(" + " ".join(self.labels) + " | " + " ".join(self.states) + ")"


def _history_from_pairs(configs: Sequence[Configuration], pairs: Sequence[tuple[int, int]]
                        ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The (labels, states) of a vertex's history array from its up-down
    pairs: (c1u, c1d, ..., csu, csd) and the states beside them.  The
    pointer sits at the vertex at both indices of each pair, so every label
    is the focus label."""
    labels = []
    states = []
    for l, m in pairs:
        up, down = configs[l], configs[m]
        labels += (up.ts.pointer_label, down.ts.pointer_label)
        states += (up.state, down.state)
    return tuple(labels), tuple(states)


def history_array(trace: RunTrace, nu: Address) -> HistoryArray:
    udv = up_down_vector(trace, nu)
    return HistoryArray(*_history_from_pairs(trace.configurations(), udv.pairs))


@dataclass
class SwapReport:
    """The spliced word of `single_swap`, its search outcome and its replay."""

    word: str
    accepted: bool
    search_reason: str | None  # None if accepted, else "budget"/"exhausted"
    spliced_replay_ok: bool


def single_swap(trace_w: RunTrace, nu: Address,
                trace_w2: RunTrace, nu2: Address) -> SwapReport:
    """Swap the u-factors of trace_w at nu for those of trace_w2 at nu2.

    Requires equal history arrays; returns the spliced word together with
    an acceptance check and an explicit spliced-run replay, both of which
    must succeed when the arrays match.
    """
    if trace_w.tsa is not trace_w2.tsa and trace_w.tsa != trace_w2.tsa:
        raise InputError("runs must come from the same automaton")
    v1 = up_down_vector(trace_w, nu).pairs
    v2 = up_down_vector(trace_w2, nu2).pairs
    h1 = HistoryArray(*_history_from_pairs(trace_w.configurations(), v1))
    h2 = HistoryArray(*_history_from_pairs(trace_w2.configurations(), v2))
    if h1 != h2:
        raise HistoryMismatch(f"history arrays differ: {h1} != {h2}")
    f1 = _factorise(trace_w.word, _positions(trace_w), v1)
    f2 = _factorise(trace_w2.word, _positions(trace_w2), v2)
    word = f1.substitute(f2.u_tuple())

    # explicit splice: follow R up to each arrival, then R' strictly above
    idx1 = trace_w.transition_indices()
    idx2 = trace_w2.transition_indices()
    spliced: list[int] = []
    prev = 0
    for (l, m), (l2, m2) in zip(v1, v2):
        spliced.extend(idx1[prev:l])        # ... up to and including the arrival
        spliced.extend(idx2[l2:m2])         # the other run's stretch above
        prev = m
    spliced.extend(idx1[prev:])
    try:
        replay_ok = is_accepting_run(replay(trace_w.tsa, word, spliced))
    except ReplayMismatch:
        replay_ok = False

    res = accepts(trace_w.tsa, word, SearchOptions())
    return SwapReport(word, bool(res), None if res else res.reason, replay_ok)


@dataclass
class EmpiricalUpSet:
    """Observed map history array -> set of u-tuples, with provenance.

    The true up-sets quantify over the whole language; this records only
    what the supplied sample exhibited, so per-array maxima are estimates
    a caller may feed into substitution_bound as M_est, never exact."""

    entries: dict[HistoryArray, set[tuple[str, ...]]] = field(default_factory=dict)
    provenance: dict[tuple[HistoryArray, tuple[str, ...]], list[tuple[str, Address]]] = field(default_factory=dict)
    traces: dict[str, RunTrace] = field(default_factory=dict)
    budget_failures: list[str] = field(default_factory=list)  # search cut by a budget
    rejected: list[str] = field(default_factory=list)  # no proper root run exists

    def insert(self, h: HistoryArray, us: tuple[str, ...], word: str, nu: Address):
        self.entries.setdefault(h, set()).add(us)
        self.provenance.setdefault((h, us), []).append((word, nu))

    def max_total_lengths(self) -> dict[HistoryArray, int]:
        return {
            h: max(sum(len(u) for u in t) for t in ts)
            for h, ts in self.entries.items()
        }


def collect_upsets(tsa, words: Iterable[str], opts: SearchOptions | None = None) -> EmpiricalUpSet:
    """Run each distinct word once, in first-seen order, then file each
    non-root vertex's u-tuple under its history array, all read off one
    crossing pass per witness.  Witness
    runs are proper (the definitions require it); a word without one goes
    to `budget_failures` or `rejected` by the reason its search stopped.
    The runs come from one walk over the prefixes of the words
    (`accepts_each`), each word under the budgets of its own length, and
    are the runs `accepts` gives.  A vertex is filed under its plain
    (labels, states) pair, with its u-tuple sliced from the positions of
    its up-down pairs; one `HistoryArray` per distinct pair is made when
    `entries` and `provenance` are filled, in the order `insert` would
    have filled them."""
    opts = replace(opts or SearchOptions(), accept_mode="root", proper_only=True)
    out = EmpiricalUpSet()
    words = list(dict.fromkeys(words))
    runs = accepts_each(tsa, words, opts)
    filed: dict[tuple, list[tuple[str, Address]]] = {}  # ((labels, states), u-tuple) -> provenance
    for w in words:
        res = runs[w]
        if not res:
            (out.budget_failures if res.reason == "budget" else out.rejected).append(w)
            continue
        out.traces[w] = res
        assert is_proper(res) and res.final().ts.pointer == ROOT  # else a search bug
        configs = res.configurations()
        for nu, pairs in sorted(_crossings(configs).items()):
            us = tuple([w[configs[l].pos:configs[m].pos] for l, m in pairs])
            filed.setdefault((_history_from_pairs(configs, pairs), us), []).append((w, nu))
    arrays: dict[tuple, HistoryArray] = {}
    for (key, us), where in filed.items():
        h = arrays.get(key)
        if h is None:
            h = arrays[key] = HistoryArray(*key)
            out.entries[h] = set()
        out.entries[h].add(us)
        out.provenance[h, us] = where
    return out


@dataclass
class PumpResult:
    """A pump x y z of `find_pumpable` at a vertex, checked for a few n."""

    x: str
    y: str
    z: str
    vertex: Address
    verified: dict[int, bool]  # exponent -> accepted within budgets

    def word(self, n: int) -> str:
        return self.x + self.y * n + self.z


def _stationary_segments(trace: RunTrace):
    """Maximal runs of consecutive steps whose instruction keeps the
    pointer in place, as (first step, last step, vertex)."""
    segs = []
    start = None
    rho = [c.ts.pointer for c in trace.configurations()]
    for j, (tidx, _) in enumerate(trace.steps, start=1):
        stat = trace.tsa.delta[tidx].instr.kind in ("id", "set")
        if stat and start is None:
            start = j
        elif not stat and start is not None:
            segs.append((start, j - 1, rho[start - 1]))
            start = None
    if start is not None:
        segs.append((start, len(trace.steps), rho[start - 1]))
    return segs


def find_pumpable(trace: RunTrace, m: int) -> PumpResult | None:
    """Extract a pumpable factor from a long stationary stretch.

    If the pointer rests at one vertex for more than m*|C|*|Q| consecutive
    transitions, a (label, state) pair repeats m+1 times inside the first
    m*|C|*|Q|+1 of them; the input read between the first and last repeat
    is the pump, checked by `accepts` in any mode under default budgets.
    Returns None when no stretch is long enough.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    _check_trace(trace)
    tsa = trace.tsa
    threshold = m * len(tsa.labels) * len(tsa.states)
    configs = trace.configurations()
    pos = _positions(trace)
    for a, b, nu in _stationary_segments(trace):
        if b - a + 1 <= threshold:
            continue
        window = range(a, a + threshold + 1)
        seen: dict[tuple[str, str], list[int]] = {}
        hit = None
        for j in window:
            pair = (configs[j].ts.label_at(nu), configs[j].state)
            seen.setdefault(pair, []).append(j)
            if len(seen[pair]) == m + 1:
                hit = seen[pair]
                break
        if hit is None:
            continue  # non-root vertices cannot reach here by pigeonhole
        j1, jm = hit[0], hit[-1]
        x = trace.word[: pos[j1]]
        y = trace.word[pos[j1]: pos[jm]]
        z = trace.word[pos[jm]:]
        any_mode = SearchOptions(accept_mode="any")
        verified = {n: bool(accepts(tsa, x + y * n + z, any_mode)) for n in (0, 2, 3)}
        return PumpResult(x, y, z, nu, verified)
    return None


@dataclass
class VertexBound:
    """One vertex's letter count against its `check_atv_bounds` bound."""

    vertex: Address
    kind: str  # "root" | "leaf" | "interior"
    letters: int
    bound: int
    ok: bool


@dataclass
class AtvBoundsReport:
    """Every vertex's letter count against its bound, by `check_atv_bounds`."""

    k: int
    mu: int
    vertices: list[VertexBound]
    all_ok: bool
    lambda_singular: list[Address] | None = None


def check_atv_bounds(trace: RunTrace, mu: int,
                     marks: set[int] | None = None,
                     lam: int | None = None) -> AtvBoundsReport:
    """Per-vertex letter-count bounds for runs satisfying the strong
    condition (no stationary factor reads more than mu*|C|*|Q| letters).

    Interior vertices are bounded by mu*k*|C|*|Q|*(D+1), the root by
    mu*k*D*|Q|, leaves by mu*k*|C|*|Q|, where k is the maximum
    visit-from-below count of this run.  With `marks` and `lam` given, the
    report also lists the lambda-singular vertices (those outside whose
    subtree fewer than lam marked letters are read); `marks` are 0-based
    positions of the word.
    """
    _check_trace(trace)
    if marks is not None and not all(0 <= i < len(trace.word) for i in marks):
        raise InputError("marks must index into the word")
    tsa = trace.tsa
    D = degree(tsa).value
    if D == 0:
        raise InputError("bounds assume positive degree (at least one push)")
    C, Q = len(tsa.labels), len(tsa.states)
    pos = _positions(trace)

    # strong condition first; the stationary factors also give the letters
    # read at each vertex
    seg_threshold = mu * C * Q
    letters_at: dict[Address, int] = {}
    for a, b, nu in _stationary_segments(trace):
        letters = pos[b] - pos[a - 1]
        if letters > seg_threshold:
            raise StrongConditionViolated(nu)
        letters_at[nu] = letters_at.get(nu, 0) + letters

    counts = visited_from_below_counts(trace)
    k = max(counts.values(), default=0)
    dom = trace.final().ts.dom
    children: dict[Address, int] = {a: 0 for a in dom}
    for a in dom:
        if a != ROOT:
            children[a[:-1]] += 1

    rows = []
    for nu in sorted(dom):
        if nu == ROOT:
            kind, bound = "root", mu * k * D * Q
        elif children[nu] == 0:
            kind, bound = "leaf", mu * k * C * Q
        else:
            kind, bound = "interior", mu * k * C * Q * (D + 1)
        n = letters_at.get(nu, 0)
        rows.append(VertexBound(nu, kind, n, bound, n <= bound))

    singular = None
    if marks is not None and lam is not None:
        # marked letters read inside T_nu are those of its u factors,
        # w[pos[l]:pos[m]]; `before[i]` counts the marked letters before i
        before = list(accumulate((i in marks for i in range(pos[-1])), initial=0))
        cross = _crossings(trace.configurations())
        cross[ROOT] = [(0, len(trace.steps))]  # every letter is read inside T_root
        singular = [nu for nu in sorted(dom)
                    if before[-1] - sum(before[pos[m]] - before[pos[l]]
                                        for l, m in cross[nu]) < lam]

    return AtvBoundsReport(k, mu, rows, all(r.ok for r in rows), singular)


def substitution_bound(mu: int, lam: int, k: int, C_size: int, Q_size: int,
                       D: int, M_est: int) -> tuple[int, int]:
    """(N_lambda, N_mu) = ((D+1)(mu k |C| |Q| + lam) + D M, same with lam=mu).

    M_est is the caller's estimate of the largest finite up-set weight;
    it is never computed here (finiteness is not observable from samples).
    """
    if min(mu, lam, k, C_size, Q_size, D, M_est) < 0:
        raise InputError("arguments must be non-negative")
    n_lambda = (D + 1) * (mu * k * C_size * Q_size + lam) + D * M_est
    n_mu = (D + 1) * (mu * k * C_size * Q_size + mu) + D * M_est
    return n_lambda, n_mu


@dataclass
class SwitchReport:
    """Each tuple of `check_U_switchable` with its word and verdict."""

    results: list[tuple[tuple[str, ...], str, bool]]  # (tuple, word, in language)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok in self.results)

    @property
    def failures(self):
        return [(t, w) for t, w, ok in self.results if not ok]


def check_U_switchable(oracle: Callable[[str], bool],
                       factorisation: NuFactorisation,
                       U_sample: Iterable[tuple[str, ...]]) -> SwitchReport:
    """Substitute every tuple of U_sample into the factorisation's u-slots
    and test the results against the oracle; failures are recorded, not
    raised."""
    results = []
    for tup in U_sample:
        if len(tup) != factorisation.s:
            raise ArityMismatch(f"tuple arity {len(tup)} != {factorisation.s}")
        w = factorisation.substitute(tup)
        results.append((tuple(tup), w, bool(oracle(w))))
    return SwitchReport(results)


@dataclass
class WeakPumpReport:
    """Each exponent of `weak_pump_verify` with its word and verdict."""

    results: list[tuple[int, str, bool]]  # (i, word, in language)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok in self.results)

    def first_failure(self) -> int | None:
        for i, _, ok in self.results:
            if not ok:
                return i
        return None


def weak_pump_verify(oracle: Callable[[str], bool],
                     u: Sequence[str], v: Sequence[str], w: Sequence[str],
                     s: Sequence[str], i_max: int) -> WeakPumpReport:
    """Check u1 v1^i w1 s1^i u2 ... uk vk^i wk sk^i u_{k+1} against the
    oracle for i in [0, i_max]; the pumped volume must be positive."""
    k = len(v)
    if not (len(w) == len(s) == k and len(u) == k + 1):
        raise ArityMismatch("need k+1 u parts and k each of v, w, s")
    if sum(len(v[j]) + len(s[j]) for j in range(k)) == 0:
        raise ZeroPumpVolume("nothing to pump")
    results = []
    for i in range(i_max + 1):
        word = "".join(u[j] + v[j] * i + w[j] + s[j] * i for j in range(k)) + u[k]
        results.append((i, word, bool(oracle(word))))
    return WeakPumpReport(results)


@dataclass(frozen=True)
class Level1Arrays:
    """Root-edge variant of the vertex analysis: the 3 x s up-down array
    (rows l, m and root child), the induced factorisation, and the 3 x 2s
    history array carrying the child index under each column pair."""

    ls: tuple[int, ...]
    ms: tuple[int, ...]
    ns: tuple[int, ...]
    factorisation: NuFactorisation
    history_labels: tuple[str, ...]
    history_states: tuple[str, ...]
    history_children: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.ls)

    def restricted_to_child(self, n: int) -> tuple[tuple[int, int], ...]:
        """Columns whose third row is n, as (l, m) pairs; equals the
        up-down vector of the run at the root child n."""
        return tuple((l, m) for l, m, c in zip(self.ls, self.ms, self.ns) if c == n)


def level1_arrays(trace: RunTrace) -> Level1Arrays:
    _check_trace(trace)
    configs = trace.configurations()
    cols = sorted((l, m, nu[0]) for nu, pairs in _crossings(configs).items() if len(nu) == 1
                  for l, m in pairs)
    if not cols:
        raise EmptyLevel1("the run never leaves the root")
    ls, ms, ns = zip(*cols)
    pairs = list(zip(ls, ms))
    labels, states = _history_from_pairs(configs, pairs)
    return Level1Arrays(ls, ms, ns, _factorise(trace.word, _positions(trace), pairs),
                        labels, states, tuple(n for n in ns for _ in (0, 1)))
