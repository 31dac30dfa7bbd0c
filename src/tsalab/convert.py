"""Pushdown automata and the two translations between PDAs and 1-TSAs
(tree stack automata with no up instruction), plus the integer word
problem fixtures and the stuck-run regression machine.

Box labels: the tree vertex recording that the simulated stack top is
``g`` is labelled ``[g]``; plain stack symbols keep their own names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .treestack import (
    PRED_TRUE,
    ROOT_LABEL,
    InputError,
    instr_down,
    instr_id,
    instr_push,
    pred_eq,
)
from .tsa import (
    NotFound,
    ParseError,
    SearchOptions,
    Transition,
    Tsa,
    _search,
    read_machine,
    render_machine,
    search_rows,
)


class NotOneTsa(InputError):
    """The source automaton has an up transition, so it is not a 1-TSA."""


@dataclass(frozen=True)
class PdaAction:
    """push(z, s): applicable when the top is z, pushes s (None = nothing).
    pop(t): applicable when the top is t, removes it.  t and s never equal
    the bottom symbol."""

    kind: str  # "push" | "pop"
    top: str
    pushed: str | None = None  # only for push; None means s = eps

    def __post_init__(self):
        if self.kind not in ("push", "pop"):
            raise ValueError(f"bad action kind {self.kind!r}")
        if self.kind == "pop" and self.top == ROOT_LABEL:
            raise ValueError("pop never targets the bottom symbol")
        if self.kind == "push" and self.pushed == ROOT_LABEL:
            raise ValueError("push never adds the bottom symbol")

    def __str__(self):
        if self.kind == "pop":
            return f"pop {self.top}"
        s = self.pushed if self.pushed is not None else "-"
        return f"push {self.top} {s}"


@dataclass(frozen=True)
class PdaTransition:
    src: str
    inp: str | None
    action: PdaAction
    dst: str
    name: str | None = None

    def core(self):
        return (self.src, self.inp, self.action, self.dst)


@dataclass(frozen=True)
class Pda:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    stack: tuple[str, ...]  # Gamma without the implicit bottom symbol
    initial: str
    delta: tuple[PdaTransition, ...]
    finals: frozenset[str]

    def __post_init__(self):
        states = set(self.states)
        gamma = set(self.stack) | {ROOT_LABEL}
        if self.initial not in states or not self.finals <= states:
            raise ValueError("undeclared initial or final state")
        for t in self.delta:
            if t.src not in states or t.dst not in states:
                raise ValueError(f"undeclared endpoint in {t}")
            if t.inp is not None and t.inp not in self.alphabet:
                raise ValueError(f"input {t.inp!r} not in alphabet")
            if t.action.top not in gamma:
                raise ValueError(f"stack symbol {t.action.top!r} not declared")
            if t.action.pushed is not None and t.action.pushed not in gamma:
                raise ValueError(f"stack symbol {t.action.pushed!r} not declared")


@dataclass(frozen=True)
class PdaConfig:
    state: str
    stack: tuple[str, ...]  # bottom first; stack[0] == @ always
    pos: int


@dataclass
class PdaTrace:
    pda: Pda
    word: str
    steps: list[tuple[int, PdaConfig]]
    initial: PdaConfig

    def transition_indices(self):
        return [i for i, _ in self.steps]

    def final(self) -> PdaConfig:
        return self.steps[-1][1] if self.steps else self.initial


def _move(act: PdaAction) -> tuple:
    """An action as a move on the stack's path: (predicate label,
    instruction kind, child index, new label)."""
    if act.kind == "pop":
        return act.top, "pop", None, None
    if act.pushed is None:
        return act.top, "id", None, None
    return act.top, "push", 1, act.pushed


def pda_accepts(pda: Pda, w: str, max_steps: int | None = None,
                max_stack: int | None = None) -> PdaTrace | NotFound:
    """Search for an accepting run of `pda` on `w`, with the TSA search core
    (`tsa._search`) on a tree that is one path: the stack, bottom at the
    root.  `push z s` pushes s to child 1 under eq z, `push z -` is id under
    eq z, and `pop t` moves down under eq t, deleting the vertex it leaves.
    So the contract is the TSA one: deterministic given delta order, the
    lexicographically least shortest witness, NotFound carrying "budget" or
    "exhausted".  max_steps bounds the run length and max_stack the stack
    height, bottom included; they default to the TSA search's step and
    vertex budgets."""
    moves = (_move(t.action) for t in pda.delta)
    found = _search(pda, search_rows(pda, moves), w, len(w),
                    SearchOptions(accept_mode="any", max_steps=max_steps, max_vertices=max_stack))
    if isinstance(found, NotFound):
        return found
    # the path's vertices are inserted bottom first and only the top is
    # ever deleted, so a tree's labels in insertion order are its stack
    steps = [(tidx, PdaConfig(state, tuple(dom.values()), pos))
             for state, pos, dom, *_, tidx in found[1:]]
    return PdaTrace(pda, w, steps, PdaConfig(pda.initial, (ROOT_LABEL,), 0))


def box(symbol: str) -> str:
    """Tree label recording that the simulated stack top is `symbol`."""
    return f"[{symbol}]"


def tsa1_to_pda(tsa: Tsa) -> Pda:
    """Translate a 1-TSA into a PDA over Gamma = C + bottom.

    eq/true x push/down/set/id each expand per the eight scheme rules; a
    set becomes a pop into a tagged intermediate state followed by
    eps-pushes.  Transitions whose predicate pins the root label but whose
    instruction needs a non-root pointer can never fire and are dropped.
    """
    if any(t.instr.kind == "up" for t in tsa.delta):
        raise NotOneTsa("source automaton contains an up transition")
    gamma = tuple(tsa.labels) + (ROOT_LABEL,)
    nonbottom = tuple(tsa.labels)

    out: list[PdaTransition] = []
    seen = set()
    extra_states: list[str] = []

    def tag(q, z):
        name = f"{q}^({z})"
        if name not in extra_states:
            extra_states.append(name)
        return name

    def emit(t):
        if t.core() not in seen:
            seen.add(t.core())
            out.append(t)

    for t in tsa.delta:
        kind = t.instr.kind
        if t.pred.kind == "eq":
            zs = (t.pred.label,)
        elif kind in ("down", "set"):
            zs = nonbottom
        else:
            zs = gamma
        for z in zs:
            if kind == "push":
                emit(PdaTransition(t.src, t.inp, PdaAction("push", z, t.instr.label), t.dst))
            elif kind == "down":
                if z == ROOT_LABEL:
                    continue  # down with the pointer at the root never fires
                emit(PdaTransition(t.src, t.inp, PdaAction("pop", z), t.dst))
            elif kind == "set":
                if z == ROOT_LABEL:
                    continue  # set at the root never fires
                mid = tag(t.dst, z)
                emit(PdaTransition(t.src, t.inp, PdaAction("pop", z), mid))
                for y in gamma:
                    emit(PdaTransition(mid, None, PdaAction("push", y, t.instr.label), t.dst))
            else:  # id
                emit(PdaTransition(t.src, t.inp, PdaAction("push", z, None), t.dst))

    return Pda(
        states=tuple(tsa.states) + tuple(extra_states),
        alphabet=tuple(tsa.alphabet),
        stack=nonbottom,
        initial=tsa.initial,
        delta=tuple(out),
        finals=tsa.finals,
    )


def pda_to_tsa1(pda: Pda) -> Tsa:
    """Translate a PDA into a 1-TSA simulating it on a branching tree.

    The output never contains an up instruction; its any-mode language
    is the root-mode language of `make_root_accepting` of it.  The
    intermediate states of a push or pop are named by its target, so moves
    from one state to different targets do not share them.
    """
    gamma = tuple(pda.stack) + (ROOT_LABEL,)
    labels = tuple(pda.stack) + tuple(box(g) for g in gamma)
    collisions = set(pda.stack) & {box(g) for g in gamma}
    if collisions:
        raise InputError(f"stack symbols collide with box labels: {collisions}")

    extra_states: list[str] = []

    def tag(q, suffix):
        name = f"{q}^({suffix})"
        if name not in extra_states:
            extra_states.append(name)
        return name

    out: list[Transition] = []
    seen = set()

    def emit(t):
        if t.core() not in seen:
            seen.add(t.core())
            out.append(t)

    emit(Transition(pda.initial, None, pred_eq(ROOT_LABEL),
                    instr_push(1, box(ROOT_LABEL)), pda.initial, name="s0"))

    for pidx, t in enumerate(pda.delta, start=1):
        act = t.action
        if act.kind == "push" and act.pushed is not None:
            z, s = act.top, act.pushed
            up_ = tag(t.dst, "u")
            st_ = tag(t.dst, s)
            emit(Transition(t.src, t.inp, pred_eq(box(z)), instr_push(1, s), up_,
                            name=f"p{pidx}.1"))
            emit(Transition(up_, None, pred_eq(s), instr_push(1, box(s)), t.dst,
                            name=f"p{pidx}.2"))
            emit(Transition(t.src, t.inp, pred_eq(box(z)), instr_push(2, box(z)), st_,
                            name=f"p{pidx}.3"))
            emit(Transition(st_, None, pred_eq(box(z)), instr_push(1, s), up_,
                            name=f"p{pidx}.4"))
        elif act.kind == "pop":
            y = act.top
            dn = tag(t.dst, "d")
            emit(Transition(t.src, t.inp, pred_eq(box(y)), instr_down(), dn,
                            name=f"p{pidx}.5"))
            emit(Transition(dn, None, pred_eq(box(y)), instr_down(), dn,
                            name=f"p{pidx}.6"))
            emit(Transition(dn, None, pred_eq(y), instr_down(), t.dst,
                            name=f"p{pidx}.7"))
        else:  # push(z, eps)
            emit(Transition(t.src, t.inp, pred_eq(box(act.top)), instr_id(), t.dst,
                            name=f"p{pidx}.*"))

    return Tsa(
        states=tuple(pda.states) + tuple(extra_states),
        labels=labels,
        alphabet=tuple(pda.alphabet),
        initial=pda.initial,
        delta=tuple(out),
        finals=pda.finals,
    )


def simulation_run(pda: Pda, tsa: Tsa, ptrace: PdaTrace) -> tuple[list[int], list[tuple[str, str]]]:
    """Build the step-for-step simulation of a PDA trace on the translated
    machine, per the construction: a push goes via the two-transition
    ladder when the child slot is free and via the sidestep triple when an
    earlier pop left it occupied; a pop descends through box vertices.

    Returns the delta indices and, per simulated PDA step, the pair
    (pointer label afterwards, box of the simulated stack top), which the
    locality invariant requires to be equal."""
    from .tsa import initial_configuration, step as tsa_step

    by_core = {t.core(): i for i, t in enumerate(tsa.delta)}

    def tag(q, suffix):
        return f"{q}^({suffix})"

    def apply(cfg, src, inp, pred, instr, dst):
        idx = by_core[(src, inp, pred, instr, dst)]
        return tsa_step(tsa, ptrace.word, cfg, tsa.delta[idx]), idx

    cfg = initial_configuration(tsa)
    out: list[int] = []
    cfg, idx = apply(cfg, pda.initial, None, pred_eq(ROOT_LABEL),
                     instr_push(1, box(ROOT_LABEL)), pda.initial)
    out.append(idx)
    checkpoints: list[tuple[str, str]] = []
    for (tidx, pcfg) in ptrace.steps:
        t = pda.delta[tidx]
        act = t.action
        if act.kind == "push" and act.pushed is not None:
            z, s = act.top, act.pushed
            up_, st_ = tag(t.dst, "u"), tag(t.dst, s)
            if cfg.ts.pointer + (1,) not in cfg.ts.dom:
                steps = [(t.src, t.inp, pred_eq(box(z)), instr_push(1, s), up_)]
            else:
                # an earlier pop stranded a vertex in the child-1 slot;
                # sidestep through child 2 before climbing
                steps = [(t.src, t.inp, pred_eq(box(z)), instr_push(2, box(z)), st_),
                         (st_, None, pred_eq(box(z)), instr_push(1, s), up_)]
            steps.append((up_, None, pred_eq(s), instr_push(1, box(s)), t.dst))
            for args in steps:
                cfg, idx = apply(cfg, *args)
                out.append(idx)
        elif act.kind == "pop":
            y = act.top
            dn = tag(t.dst, "d")
            cfg, idx = apply(cfg, t.src, t.inp, pred_eq(box(y)), instr_down(), dn)
            out.append(idx)
            while cfg.ts.pointer_label == box(y):
                cfg, idx = apply(cfg, dn, None, pred_eq(box(y)), instr_down(), dn)
                out.append(idx)
            cfg, idx = apply(cfg, dn, None, pred_eq(y), instr_down(), t.dst)
            out.append(idx)
        else:  # push(z, eps)
            cfg, idx = apply(cfg, t.src, t.inp, pred_eq(box(act.top)), instr_id(), t.dst)
            out.append(idx)
        checkpoints.append((cfg.ts.pointer_label, box(pcfg.stack[-1])))
    return out, checkpoints


# ---------------------------------------------------------------------------
# fixtures


def fixture_wpz_pda() -> Pda:
    """PDA for the word problem of the integers over {t, T}."""
    A = PdaAction
    delta = (
        PdaTransition("q", "t", A("push", "@", "t"), "q", name="t@"),
        PdaTransition("q", "t", A("push", "t", "t"), "q", name="tt"),
        PdaTransition("q", "T", A("push", "@", "T"), "q", name="T@"),
        PdaTransition("q", "T", A("push", "T", "T"), "q", name="TT"),
        PdaTransition("q", "t", A("pop", "T"), "q", name="popT"),
        PdaTransition("q", "T", A("pop", "t"), "q", name="popt"),
        PdaTransition("q", None, A("push", "@", None), "qf", name="fin"),
    )
    return Pda(("q", "qf"), ("t", "T"), ("t", "T"), "q", delta, frozenset({"qf"}))


WPZ_NAMES = [
    "s0",
    "s'1@", "s'2", "s'3@", "s'4@",
    "s'1t", "s'3t", "s'4t",
    "s''1@", "s''2", "s''3@", "s''4@",
    "s''1T", "s''3T", "s''4T",
    "s'5", "s'6", "s'7",
    "s''5", "s''6", "s''7",
    "s'f", "s''f",
]


def fixture_wpz_tsa() -> Tsa:
    """The 1-TSA for WP(Z) from the translation, with the final eps-push
    replaced by the root-returning pair so that acceptance happens at the
    root pointing at @."""
    pda = fixture_wpz_pda()
    trimmed = replace(pda, delta=pda.delta[:-1])  # drop the final eps-push
    base = pda_to_tsa1(trimmed)
    delta = list(base.delta)
    delta.append(Transition("q", None, pred_eq(box(ROOT_LABEL)), instr_down(), "q"))
    delta.append(Transition("q", None, pred_eq(ROOT_LABEL), instr_id(), "qf"))
    states = tuple(base.states) + ("qf",)
    tsa = Tsa(states, base.labels, base.alphabet, base.initial,
              tuple(delta), frozenset({"qf"}))
    named = tuple(replace(t, name=WPZ_NAMES[i]) for i, t in enumerate(tsa.delta))
    return replace(tsa, delta=named)


def fixture_ks_tsa() -> Tsa:
    """The earlier literature's 1-TSA for WP(Z), with noteq expanded into
    its three eq variants.  Its natural stack simulation jams on ttTtTT
    (see ks_stuck_prefix)."""
    T = Transition
    BOX = "&"
    delta = (
        T("S", "t", pred_eq("t"), instr_push(1, BOX), "qt", name="s1.t"),
        T("S", "t", pred_eq("@"), instr_push(1, BOX), "qt", name="s1.@"),
        T("S", "t", pred_eq(BOX), instr_push(1, BOX), "qt", name="s1.&"),
        T("qt", None, PRED_TRUE, instr_push(2, "t"), "S", name="s2"),
        T("S", "T", pred_eq("T"), instr_push(1, BOX), "qT", name="s3.T"),
        T("S", "T", pred_eq("@"), instr_push(1, BOX), "qT", name="s3.@"),
        T("S", "T", pred_eq(BOX), instr_push(1, BOX), "qT", name="s3.&"),
        T("qT", None, PRED_TRUE, instr_push(2, "T"), "S", name="s4"),
        T("S", None, pred_eq(BOX), instr_down(), "S", name="s5"),
        T("S", "t", pred_eq("T"), instr_down(), "S", name="s6"),
        T("S", "T", pred_eq("t"), instr_down(), "S", name="s7"),
        T("S", None, pred_eq("@"), instr_id(), "qf", name="s8"),
    )
    return Tsa(
        states=("S", "qt", "qT", "qf"),
        labels=("t", "T", BOX),
        alphabet=("t", "T"),
        initial="S",
        delta=delta,
        finals=frozenset({"qf"}),
    )


KS_STUCK_PREFIX = ["s1.@", "s2", "s1.t", "s2", "s7", "s5"]


def ks_stuck_prefix(tsa: Tsa | None = None) -> list[int]:
    """Delta indices of the six-transition prefix that jams the stack
    simulation on ttTtTT (the published stuck-run table)."""
    tsa = tsa or fixture_ks_tsa()
    by_name = {t.name: i for i, t in enumerate(tsa.delta)}
    return [by_name[n] for n in KS_STUCK_PREFIX]


# ---------------------------------------------------------------------------
# PDA file format


def parse_pda(text: str) -> Pda:
    """Parse the line-based PDA file format; '-' in a push means s = eps."""
    lists, initial, raw_trans = read_machine(text, "pda", extra=("stack",))
    states, stack, alphabet, finals = (lists[k] for k in ("states", "stack", "alphabet", "final"))
    gamma = set(stack)  # pushed and popped symbols; the bottom is only ever a top
    delta = []
    for lineno, src, inp, act_toks, dst, name in raw_trans:
        if len(act_toks) == 3 and act_toks[0] == "push":
            z, s = act_toks[1], act_toks[2]
            if z not in gamma and z != ROOT_LABEL:
                raise ParseError(f"unknown stack symbol {z!r}", lineno)
            pushed = None if s == "-" else s
            if pushed is not None and pushed not in gamma:
                raise ParseError(f"unknown stack symbol {s!r}", lineno)
            action = PdaAction("push", z, pushed)
        elif len(act_toks) == 2 and act_toks[0] == "pop":
            tsym = act_toks[1]
            if tsym not in gamma:
                raise ParseError(f"unknown stack symbol {tsym!r}", lineno)
            action = PdaAction("pop", tsym)
        else:
            raise ParseError(f"bad action {' '.join(act_toks)!r}", lineno)
        delta.append(PdaTransition(src, inp, action, dst, name=name))
    return Pda(tuple(states), tuple(alphabet), tuple(stack), initial,
               tuple(delta), frozenset(finals))


def render_pda(pda: Pda) -> str:
    """Serialise a Pda in the file format; parse_pda(render_pda(p)) == p,
    and a Pda the format cannot carry raises InputError."""
    return render_machine(pda, "pda", ("stack", pda.stack), lambda t: str(t.action), parse_pda)
