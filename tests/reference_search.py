"""Reference searches: a plain tuple-keyed breadth-first search with the
contract of `accepts`, a plain PDA search with the
contract of `pda_accepts`, and `enumerate_words` as one `accepts` search
per word.

Every TSA step rebuilds the tree stack through `ts_apply`, keeps the
visit-from-below counts as a sorted tuple in each arena node, beside its
`Configuration`, and memoises on the canonical `TreeStack.key()`, so a
step costs time in the size of the tree.  The PDA search keeps the stack
as a tuple and memoises on (state, stack, position); only the returned
witness holds it as the path `TreeStack` that `pda_accepts` gives.  Both
are slow but plain; test_search_core.py checks the hash-consed search
core against them configuration by configuration.  The enumeration and the
up-set collection run `accepts` once per word, the plain form of the
core's walk over read prefixes; test_search_core.py diffs the two word
list by word list.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from tsalab.analysis import EmpiricalUpSet, _crossings, _factorise, _history_from_pairs
from tsalab.convert import Pda
from tsalab.treestack import ROOT, ROOT_LABEL, TreeStack, TreeStackError, pred_eval, ts_apply
from tsalab.tsa import (
    BudgetExceeded,
    Configuration,
    NotFound,
    RunTrace,
    SearchOptions,
    Transition,
    Tsa,
    accepts,
    default_max_steps,
    default_max_vertices,
    initial_configuration,
    is_proper,
)


def _bump_vfb(vfb: tuple, addr) -> tuple:
    d = dict(vfb)
    d[addr] = d.get(addr, 0) + 1
    return tuple(sorted(d.items()))


def _applied(ts, instr):
    """ts_apply, or None where the instruction does not apply."""
    try:
        return ts_apply(ts, instr)
    except TreeStackError:
        return None


def _outgoing(tsa: Tsa) -> dict[str, list[tuple[int, Transition]]]:
    """Delta indexed by source state, preserving file order."""
    return {q: [(tidx, t) for tidx, t in enumerate(tsa.delta) if t.src == q] for q in tsa.states}


def _accepting(tsa: Tsa, cfg: Configuration, w_len: int, opts: SearchOptions) -> bool:
    if cfg.pos != w_len or cfg.state not in tsa.finals:
        return False
    return opts.accept_mode == "any" or cfg.ts.pointer == ROOT


def ref_accepts(tsa: Tsa, w: str, opts: SearchOptions = SearchOptions()) -> RunTrace | NotFound:
    """Search for an accepting run of `tsa` on `w`.

    Breadth-first over configurations, children in delta order, with
    memoisation on (state, position, tree stack[, vfb][, properness bit]);
    the witness is therefore the lexicographically least shortest run.
    NotFound("budget") means the search was cut off, NotFound("exhausted")
    that the bounded space was fully explored.
    """
    max_steps = opts.max_steps if opts.max_steps is not None else default_max_steps(tsa, len(w))
    max_vertices = opts.max_vertices if opts.max_vertices is not None else default_max_vertices(len(w))

    init = initial_configuration(tsa)
    if _accepting(tsa, init, len(w), opts):
        return RunTrace(tsa, w, [], init)

    def key(cfg: Configuration, vfb: tuple, was_stat: bool):
        parts = [cfg.state, cfg.pos, cfg.ts.key()]
        if opts.k is not None:
            parts.append(vfb)
        if opts.proper_only:
            parts.append(was_stat)
        return tuple(parts)

    # arena of (configuration, vfb, parent node index, delta index, stationary flag)
    nodes: list[tuple[Configuration, tuple, int, int, bool]] = [(init, (), -1, -1, False)]
    visited = {key(init, (), False)}
    frontier = [0]
    depth = 0
    cut = False
    by_src = _outgoing(tsa)

    while frontier:
        if depth >= max_steps:
            cut = True
            break
        depth += 1
        next_frontier: list[int] = []
        for node_idx in frontier:
            cfg, cfg_vfb, _, _, was_stat = nodes[node_idx]
            for tidx, t in by_src[cfg.state]:
                if t.inp is not None and (cfg.pos >= len(w) or w[cfg.pos] != t.inp):
                    continue
                if not pred_eval(cfg.ts, t.pred):
                    continue
                ts = _applied(cfg.ts, t.instr)
                if ts is None:
                    continue
                stat = t.is_stationary_eps()
                if opts.proper_only and was_stat and stat:
                    continue
                vfb = cfg_vfb
                if t.instr.kind in ("push", "up"):
                    vfb = _bump_vfb(vfb, ts.pointer)
                    if opts.k is not None and dict(vfb)[ts.pointer] > opts.k:
                        continue
                if len(ts) > max_vertices:
                    cut = True
                    continue
                nxt = Configuration(t.dst, ts, cfg.pos + (0 if t.inp is None else 1))
                kk = key(nxt, vfb, stat)
                if kk in visited:
                    continue
                visited.add(kk)
                nodes.append((nxt, vfb, node_idx, tidx, stat))
                me = len(nodes) - 1
                if _accepting(tsa, nxt, len(w), opts):
                    return _trace_from_arena(tsa, w, nodes, me)
                next_frontier.append(me)
        frontier = next_frontier

    return NotFound("budget" if cut else "exhausted")


def _trace_from_arena(tsa, w, nodes, idx) -> RunTrace:
    steps = []
    while idx > 0:
        cfg, _, parent, tidx, _ = nodes[idx]
        steps.append((tidx, cfg))
        idx = parent
    steps.reverse()
    return RunTrace(tsa, w, steps, nodes[0][0])


def pda_step(pda: Pda, w: str, cfg: tuple, t: Transition) -> tuple | None:
    """Apply one transition to cfg = (state, stack as a tuple, bottom
    first, position), or None if it is not applicable."""
    state, stack, pos = cfg
    if state != t.src:
        return None
    if t.inp is not None and (pos >= len(w) or w[pos] != t.inp):
        return None
    if t.pred.label != stack[-1]:
        return None
    if t.instr.kind == "pop":
        stack = stack[:-1]
    elif t.instr.kind == "push":
        stack += (t.instr.label,)
    return (t.dst, stack, pos + (0 if t.inp is None else 1))


def path_configuration(cfg: tuple) -> Configuration:
    """The configuration with its stack as a one-path tree, top at the pointer."""
    state, stack, pos = cfg
    dom = {(1,) * i: symbol for i, symbol in enumerate(stack)}
    return Configuration(state, TreeStack(dom, (1,) * (len(stack) - 1)), pos)


def ref_pda_accepts(pda: Pda, w: str, max_steps: int | None = None,
                    max_stack: int | None = None) -> RunTrace | NotFound:
    """BFS acceptance search mirroring the TSA engine's contract:
    deterministic given delta order, shortest witness, NotFound carries
    "budget" or "exhausted"."""
    if max_steps is None:
        max_steps = default_max_steps(pda, len(w))
    if max_stack is None:
        max_stack = default_max_vertices(len(w))
    init = (pda.initial, (ROOT_LABEL,), 0)

    def accepting(cfg):
        return cfg[2] == len(w) and cfg[0] in pda.finals

    if accepting(init):
        return RunTrace(pda, w, [], path_configuration(init))
    nodes = [(init, -1, -1)]
    visited = {init}
    frontier = [0]
    depth = 0
    cut = False
    while frontier:
        if depth >= max_steps:
            cut = True
            break
        depth += 1
        nxt_frontier = []
        for ni in frontier:
            cfg = nodes[ni][0]
            for tidx, t in enumerate(pda.delta):
                nxt = pda_step(pda, w, cfg, t)
                if nxt is None or nxt in visited:
                    continue
                if len(nxt[1]) > max_stack:
                    cut = True
                    continue
                visited.add(nxt)
                nodes.append((nxt, ni, tidx))
                me = len(nodes) - 1
                if accepting(nxt):
                    steps = []
                    idx = me
                    while idx > 0:
                        c, parent, ti = nodes[idx]
                        steps.append((ti, path_configuration(c)))
                        idx = parent
                    steps.reverse()
                    return RunTrace(pda, w, steps, path_configuration(init))
                nxt_frontier.append(me)
        frontier = nxt_frontier
    return NotFound("budget" if cut else "exhausted")


def ref_enumerate_words(tsa: Tsa, max_len: int, opts: SearchOptions = SearchOptions()) -> set[str]:
    """All words of length <= max_len accepted within the budgets, by
    per-word search.  Raises BudgetExceeded (carrying the partial result)
    if any per-word search was cut off rather than exhausted.
    """
    found = set()
    budget_words = []
    for n in range(max_len + 1):
        for tup in itertools.product(tsa.alphabet, repeat=n):
            w = "".join(tup)
            res = accepts(tsa, w, opts)
            if res:
                found.add(w)
            elif res.reason == "budget":
                budget_words.append(w)
    if budget_words:
        raise BudgetExceeded(found, budget_words)
    return found


def ref_collect_upsets(tsa, words, opts: SearchOptions | None = None) -> EmpiricalUpSet:
    """`collect_upsets` with one `accepts` search per distinct word."""
    opts = replace(opts or SearchOptions(), accept_mode="root", proper_only=True)
    out = EmpiricalUpSet()
    for w in dict.fromkeys(words):
        res = accepts(tsa, w, opts)
        if not res:
            (out.budget_failures if res.reason == "budget" else out.rejected).append(w)
            continue
        out.traces[w] = res
        assert is_proper(res) and res.final().ts.pointer == ROOT  # else a search bug
        configs = res.configurations()
        pos = [c.pos for c in configs]
        for nu, pairs in sorted(_crossings(res).items()):
            h = _history_from_pairs(configs, nu, pairs)
            out.insert(h, _factorise(w, pos, pairs).u_tuple(), w, nu)
    return out
