"""Pushdown automata, the PDA file format and the two translations
between PDAs and 1-TSAs (tree stack automata with no up instruction).

It also holds, as machine-file texts, the built-in machines tied to the
PDA translation: the PDA for the integer word problem WP(Z), its 1-TSA
and the earlier literature's ks machine with its stuck-run prefix.
`fixtures` holds the other built-in machines and the name table.

Box labels: the tree vertex recording that the simulated stack top is
``g`` is labelled ``[g]``; plain stack symbols keep their own names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .treestack import (
    ROOT_LABEL,
    InputError,
    Instruction,
    instr_down,
    instr_id,
    instr_push,
    pred_eq,
)
from .tsa import (
    Names,
    NotFound,
    ParseError,
    RunTrace,
    SearchOptions,
    Transition,
    Tsa,
    _tsa_search,
    check_machine,
    parse_tsa,
    read_machine,
    render_machine,
)


class NotOneTsa(InputError):
    """The source automaton has an up transition, so it is not a 1-TSA."""


_POP = Instruction("pop")


@dataclass(frozen=True)
class Pda:
    """A pushdown automaton; the bottom symbol @ is implicit in `stack`.

    Its transitions are TSA transitions on a tree that is one path, the
    stack, bottom at the root, each under `eq z` for the stack top z:
    `push z s` is `push 1 s`, `push z -` is `id`, and `pop z` is the
    tree-stack `pop`, which never pops the bottom."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    stack: tuple[str, ...]  # Gamma without the implicit bottom symbol
    initial: str
    delta: tuple[Transition, ...]
    finals: frozenset[str]

    def __post_init__(self):
        check_machine(self.states, self.alphabet, self.initial, self.finals,
                      ((t.src, t.inp, t.dst) for t in self.delta), self.stack)
        gamma = set(self.stack) | {ROOT_LABEL}
        for t in self.delta:
            kind, z = t.instr.kind, t.pred.label
            if t.pred.kind != "eq" or kind not in ("push", "id", "pop") or t.instr.n not in (None, 1):
                raise ValueError(f"{t.pred} {t.instr} is not a PDA move")
            for symbol in (z, t.instr.label):
                if symbol is not None and symbol not in gamma:
                    raise ValueError(f"stack symbol {symbol!r} not declared")
            if kind == "pop" and z == ROOT_LABEL:
                raise ValueError("pop never targets the bottom symbol")

    transition_display = Tsa.transition_display


def pda_accepts(pda: Pda, w: str, max_steps: int | None = None,
                max_stack: int | None = None) -> RunTrace | NotFound:
    """Search for an accepting run of `pda` on `w`, with the TSA search core
    (`tsa._search`) on its one-path tree.  So the contract is the TSA one:
    deterministic given delta order, the lexicographically least shortest
    witness, NotFound carrying "budget" or "exhausted".  max_steps bounds
    the run length and max_stack the stack height, bottom included; they
    default to the TSA search's step and vertex budgets.  As in `accepts`,
    a configuration whose state can neither read the next letter nor
    accept through eps moves is dropped when no budget can cut off
    anything below it, which changes no answer.  The witness is the path's
    delta indices re-executed by `replay`, so a search-core bug raises
    ReplayMismatch; its configurations hold the stack as a path
    `TreeStack`."""
    return _tsa_search(pda, w, len(w),
                       SearchOptions(accept_mode="any", max_steps=max_steps, max_vertices=max_stack))


def box(symbol: str) -> str:
    """Tree label recording that the simulated stack top is `symbol`."""
    return f"[{symbol}]"


def _first_per_core(transitions) -> tuple:
    """The transitions without repeats: the first of each core(), in order."""
    out = {}
    for t in transitions:
        out.setdefault(t.core(), t)
    return tuple(out.values())


def tsa1_to_pda(tsa: Tsa) -> Pda:
    """Translate a 1-TSA into a PDA over Gamma = C + bottom.

    eq/true x push/down/set/id each expand per the eight scheme rules; a
    set becomes a pop into an intermediate state `q^(z)` (from `Names`,
    primed if the TSA already has that name) followed by eps-pushes.
    Transitions whose predicate pins the root label but whose instruction
    needs a non-root pointer can never fire and are dropped.
    """
    if any(t.instr.kind == "up" for t in tsa.delta):
        raise NotOneTsa("source automaton contains an up transition")
    gamma = tuple(tsa.labels) + (ROOT_LABEL,)
    nonbottom = tuple(tsa.labels)

    names = Names(tsa.states)
    out: list[Transition] = []
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
                out.append(Transition(t.src, t.inp, pred_eq(z), instr_push(1, t.instr.label), t.dst))
            elif kind == "id":
                out.append(Transition(t.src, t.inp, pred_eq(z), t.instr, t.dst))
            elif z == ROOT_LABEL:
                continue  # down and set never fire with the pointer at the root
            elif kind == "down":
                out.append(Transition(t.src, t.inp, pred_eq(z), _POP, t.dst))
            else:  # set
                mid = names.tag((t.dst, z), f"{t.dst}^({z})")
                out.append(Transition(t.src, t.inp, pred_eq(z), _POP, mid))
                for y in gamma:
                    out.append(Transition(mid, None, pred_eq(y), instr_push(1, t.instr.label), t.dst))

    return Pda(
        states=(*tsa.states, *names.added),
        alphabet=tuple(tsa.alphabet),
        stack=nonbottom,
        initial=tsa.initial,
        delta=_first_per_core(out),
        finals=tsa.finals,
    )


def pda_to_tsa1(pda: Pda) -> Tsa:
    """Translate a PDA into a 1-TSA simulating it on a branching tree.

    The output never contains an up instruction; its any-mode language
    is the root-mode language of `make_root_accepting` of it.  The
    intermediate states of a push or pop are named by its target, so moves
    from one state to different targets do not share them, and come from
    `Names`, so a name the PDA already uses gets a prime.
    """
    gamma = tuple(pda.stack) + (ROOT_LABEL,)
    labels = tuple(pda.stack) + tuple(box(g) for g in gamma)
    collisions = set(pda.stack) & {box(g) for g in gamma}
    if collisions:
        raise InputError(f"stack symbols collide with box labels: {collisions}")

    names = Names(pda.states)
    out = [Transition(pda.initial, None, pred_eq(ROOT_LABEL),
                      instr_push(1, box(ROOT_LABEL)), pda.initial, name="s0")]

    for pidx, t in enumerate(pda.delta, start=1):
        kind, z = t.instr.kind, t.pred.label
        if kind == "push":
            s = t.instr.label
            up_ = names.tag((t.dst, "u"), f"{t.dst}^(u)")
            st_ = names.tag((t.dst, "push", s), f"{t.dst}^({s})")
            out.append(Transition(t.src, t.inp, pred_eq(box(z)), instr_push(1, s), up_,
                                  name=f"p{pidx}.1"))
            out.append(Transition(up_, None, pred_eq(s), instr_push(1, box(s)), t.dst,
                                  name=f"p{pidx}.2"))
            out.append(Transition(t.src, t.inp, pred_eq(box(z)), instr_push(2, box(z)), st_,
                                  name=f"p{pidx}.3"))
            out.append(Transition(st_, None, pred_eq(box(z)), instr_push(1, s), up_,
                                  name=f"p{pidx}.4"))
        elif kind == "pop":
            dn = names.tag((t.dst, "d"), f"{t.dst}^(d)")
            out.append(Transition(t.src, t.inp, pred_eq(box(z)), instr_down(), dn,
                                  name=f"p{pidx}.5"))
            out.append(Transition(dn, None, pred_eq(box(z)), instr_down(), dn,
                                  name=f"p{pidx}.6"))
            out.append(Transition(dn, None, pred_eq(z), instr_down(), t.dst,
                                  name=f"p{pidx}.7"))
        else:  # push(z, eps)
            out.append(Transition(t.src, t.inp, pred_eq(box(z)), instr_id(), t.dst,
                                  name=f"p{pidx}.*"))

    return Tsa(
        states=(*pda.states, *names.added),
        labels=labels,
        alphabet=tuple(pda.alphabet),
        initial=pda.initial,
        delta=_first_per_core(out),
        finals=pda.finals,
    )


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
            if s != "-" and s not in gamma:
                raise ParseError(f"unknown stack symbol {s!r}", lineno)
            instr = instr_id() if s == "-" else instr_push(1, s)
        elif len(act_toks) == 2 and act_toks[0] == "pop":
            z = act_toks[1]
            if z not in gamma:
                raise ParseError(f"unknown stack symbol {z!r}", lineno)
            instr = _POP
        else:
            raise ParseError(f"bad action {' '.join(act_toks)!r}", lineno)
        delta.append(Transition(src, inp, pred_eq(z), instr, dst, name=name))
    return Pda(tuple(states), tuple(alphabet), tuple(stack), initial,
               tuple(delta), frozenset(finals))


def render_pda(pda: Pda) -> str:
    """Serialise a Pda in the file format; parse_pda(render_pda(p)) == p,
    and a Pda the format cannot carry raises InputError."""
    return render_machine(pda, "pda", ("stack", pda.stack), _action, parse_pda)


def _action(t: Transition) -> str:
    """A PDA transition's action as the file writes it."""
    z, instr = t.pred.label, t.instr
    if instr.kind == "pop":
        return f"pop {z}"
    return f"push {z} {instr.label if instr.kind == 'push' else '-'}"


# ---------------------------------------------------------------------------
# fixtures: the WP(Z) PDA, its 1-TSA and the ks machine as machine files


WPZ_PDA_FILE = """\
pda
states: q qf
initial: q
final: qf
stack: t T
alphabet: t T
trans: q t push @ t q  # t@
trans: q t push t t q  # tt
trans: q T push @ T q  # T@
trans: q T push T T q  # TT
trans: q t pop T q  # popT
trans: q T pop t q  # popt
trans: q eps push @ - qf  # fin
"""

# The 1-TSA for WP(Z): pda_to_tsa1 of WPZ_PDA_FILE without its final
# eps-push (fin), then the root-returning pair s'f, s''f in its place, so
# that acceptance happens at the root pointing at @.
WPZ_TSA_FILE = """\
tsa
states: q qf q^(u) q^(t) q^(T) q^(d)
initial: q
final: qf
labels: t T [t] [T] [@]
alphabet: t T
trans: q eps eq @ push 1 [@] q  # s0
trans: q t eq [@] push 1 t q^(u)  # s'1@
trans: q^(u) eps eq t push 1 [t] q  # s'2
trans: q t eq [@] push 2 [@] q^(t)  # s'3@
trans: q^(t) eps eq [@] push 1 t q^(u)  # s'4@
trans: q t eq [t] push 1 t q^(u)  # s'1t
trans: q t eq [t] push 2 [t] q^(t)  # s'3t
trans: q^(t) eps eq [t] push 1 t q^(u)  # s'4t
trans: q T eq [@] push 1 T q^(u)  # s''1@
trans: q^(u) eps eq T push 1 [T] q  # s''2
trans: q T eq [@] push 2 [@] q^(T)  # s''3@
trans: q^(T) eps eq [@] push 1 T q^(u)  # s''4@
trans: q T eq [T] push 1 T q^(u)  # s''1T
trans: q T eq [T] push 2 [T] q^(T)  # s''3T
trans: q^(T) eps eq [T] push 1 T q^(u)  # s''4T
trans: q t eq [T] down q^(d)  # s'5
trans: q^(d) eps eq [T] down q^(d)  # s'6
trans: q^(d) eps eq T down q  # s'7
trans: q T eq [t] down q^(d)  # s''5
trans: q^(d) eps eq [t] down q^(d)  # s''6
trans: q^(d) eps eq t down q  # s''7
trans: q eps eq [@] down q  # s'f
trans: q eps eq @ id qf  # s''f
"""

# The earlier literature's 1-TSA for WP(Z), with noteq expanded into its
# three eq variants.  Its natural stack simulation jams on ttTtTT (see
# ks_stuck_prefix).
KS_FILE = """\
tsa
states: S qt qT qf
initial: S
final: qf
labels: t T &
alphabet: t T
trans: S t eq t push 1 & qt  # s1.t
trans: S t eq @ push 1 & qt  # s1.@
trans: S t eq & push 1 & qt  # s1.&
trans: qt eps true push 2 t S  # s2
trans: S T eq T push 1 & qT  # s3.T
trans: S T eq @ push 1 & qT  # s3.@
trans: S T eq & push 1 & qT  # s3.&
trans: qT eps true push 2 T S  # s4
trans: S eps eq & down S  # s5
trans: S t eq T down S  # s6
trans: S T eq t down S  # s7
trans: S eps eq @ id qf  # s8
"""


def fixture_wpz_pda() -> Pda:
    """PDA for the word problem of the integers over {t, T}."""
    return parse_pda(WPZ_PDA_FILE)


def fixture_wpz_tsa() -> Tsa:
    """The 1-TSA for WP(Z), accepting at the root (WPZ_TSA_FILE)."""
    return parse_tsa(WPZ_TSA_FILE)


def fixture_ks_tsa() -> Tsa:
    """The earlier literature's 1-TSA for WP(Z) (KS_FILE)."""
    return parse_tsa(KS_FILE)


KS_STUCK_PREFIX = ["s1.@", "s2", "s1.t", "s2", "s7", "s5"]


def ks_stuck_prefix(tsa: Tsa | None = None) -> list[int]:
    """Delta indices of the six-transition prefix that jams the stack
    simulation on ttTtTT (the published stuck-run table)."""
    tsa = tsa or fixture_ks_tsa()
    by_name = {t.name: i for i, t in enumerate(tsa.delta)}
    return [by_name[n] for n in KS_STUCK_PREFIX]
