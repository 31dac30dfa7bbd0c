"""Tree stack automata: model, step semantics, nondeterministic
acceptance search with k-restriction accounting, standardisation
closure, degree normalisation and root-return normalisation.

The search is breadth-first over configurations with memoisation, so a
given automaton, word and budget always yield the same witness run;
golden-trace tests depend on that.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .treestack import (
    ROOT,
    ROOT_LABEL,
    Address,
    InputError,
    Instruction,
    Predicate,
    PRED_TRUE,
    TreeStack,
    TreeStackError,
    instr_down,
    instr_id,
    instr_push,
    instr_set,
    instr_up,
    pred_eq,
    ts_apply,  # unused here: `_run` calls `_apply`; perfbench's tracer wraps `tsa.ts_apply`
    ts_init,
)
from .treestack import _apply, _holds, _zipper


class ParseError(InputError):
    """Raised on malformed machine files; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownState(ParseError):
    pass


class UnknownLabel(ParseError):
    pass


class BadIndex(ParseError):
    pass


class NotApplicable(Exception):
    """A transition does not apply to a configuration; .reason says why."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class ReplayMismatch(Exception):
    def __init__(self, step_index, reason):
        self.step_index = step_index
        super().__init__(f"step {step_index}: {reason}")


class BudgetExceeded(Exception):
    """Enumeration hit the search budget on at least one word."""

    def __init__(self, words, budget_words):
        self.words = words
        self.budget_words = budget_words
        super().__init__(f"budget hit on {len(budget_words)} word(s)")


@dataclass(frozen=True)
class Transition:
    """(source, input letter or None for eps, predicate, instruction, target)."""

    src: str
    inp: str | None
    pred: Predicate
    instr: Instruction
    dst: str
    name: str | None = None

    def core(self):
        """Identity used for deduplication; ignores the display name."""
        return (self.src, self.inp, self.pred, self.instr, self.dst)

    def is_stationary_eps(self) -> bool:
        """Reads eps and keeps the pointer where it is (id or set)."""
        return self.inp is None and self.instr.kind in ("id", "set")

    def __str__(self):
        inp = self.inp if self.inp is not None else "eps"
        return f"{self.src} {inp} {self.pred} {self.instr} {self.dst}"


def check_machine(states: Sequence[str], alphabet: Sequence[str], initial: str,
                  finals: frozenset[str], edges: Iterable[tuple[str, str | None, str]],
                  symbols: Sequence[str] = ()) -> None:
    """The well-formedness that Tsa, Pda and Fsa share, as ValueError: no
    state, letter or stack symbol (a TSA's labels, a PDA's stack alphabet)
    declared twice, declared initial and final states, and every edge
    (source, letter or None for eps, target) joining declared states and
    reading a letter of the alphabet."""
    for kind, names in (("state", states), ("letter", alphabet), ("stack symbol", symbols)):
        if len(set(names)) < len(names):
            twice = next(x for i, x in enumerate(names) if x in names[:i])
            raise ValueError(f"{kind} {twice!r} is declared twice")
    declared = set(states)
    if initial not in declared:
        raise ValueError(f"initial state {initial!r} not declared")
    if not finals <= declared:
        raise ValueError(f"final states {sorted(finals - declared)} not declared")
    for src, inp, dst in edges:
        if src not in declared or dst not in declared:
            raise ValueError(f"transition endpoint not declared: {src} -> {dst}")
        if inp is not None and inp not in alphabet:
            raise ValueError(f"input letter {inp!r} not in alphabet")


class Names:
    """The one naming rule of the constructions that add states or
    nonterminals to a machine or grammar.  `taken` holds every name in use.
    `new(base)` adds primes to base until the name is free; `tag(key, base)`
    does the same once per key, so a key asked again gets the same name.
    `added` lists the names made, in the order they were made."""

    def __init__(self, taken: Iterable[str] = ()):
        self.taken = set(taken)
        self.added: list[str] = []
        self.tags: dict = {}

    def new(self, base: str) -> str:
        name = base
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        self.added.append(name)
        return name

    def tag(self, key, base: str) -> str:
        if key not in self.tags:
            self.tags[key] = self.new(base)
        return self.tags[key]


@dataclass(frozen=True)
class Tsa:
    """A tree stack automaton: states, labels, letters, initial, delta, finals."""

    states: tuple[str, ...]
    labels: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    delta: tuple[Transition, ...]
    finals: frozenset[str]

    def __post_init__(self):
        check_machine(self.states, self.alphabet, self.initial, self.finals,
                      ((t.src, t.inp, t.dst) for t in self.delta), self.labels)
        labels = set(self.labels)
        if ROOT_LABEL in labels:
            raise ValueError("@ is reserved for the root and cannot be in C")
        for t in self.delta:
            if t.instr.kind == "pop":
                raise ValueError("pop is a PDA's: a TSA tree never shrinks")
            if t.pred.kind == "eq" and t.pred.label != ROOT_LABEL and t.pred.label not in labels:
                raise ValueError(f"predicate label {t.pred.label!r} not declared")
            if t.instr.label is not None and t.instr.label not in labels:
                raise ValueError(f"instruction label {t.instr.label!r} not declared")

    def transition_display(self, idx: int) -> str:
        t = self.delta[idx]
        return t.name if t.name else f"#{idx + 1}"


@dataclass(frozen=True, slots=True)
class Configuration:
    """A point of a run: control state, tree stack and input position.  The
    visits from below are read off a whole run by `visited_from_below_counts`."""

    state: str
    ts: TreeStack
    pos: int


# `_configurations` fills each new Configuration through its slot
# descriptors, which is about three times cheaper than the frozen
# __init__'s object.__setattr__ calls
_new_configuration = object.__new__
_set_state, _set_ts, _set_pos = (Configuration.__dict__[f].__set__ for f in ("state", "ts", "pos"))


def initial_configuration(tsa: Tsa) -> Configuration:
    return Configuration(tsa.initial, ts_init(), 0)


def _record(cfg: Configuration) -> tuple:
    """cfg as a step record with no tag: (None, state, focus label, focus
    children, context, vertex count, position)."""
    ts = cfg.ts
    return None, cfg.state, ts._label, ts._kids, ts._ctx, ts._size, cfg.pos


def _configurations(records: Iterable[tuple]) -> list[tuple[object, Configuration]]:
    """(tag, Configuration) for each step record (tag, state, label, kids,
    ctx, size, pos), the tree stack rebuilt from the record's zipper fields."""
    out = []
    for tag, state, label, kids, ctx, size, pos in records:
        cfg = _new_configuration(Configuration)
        _set_state(cfg, state)
        _set_ts(cfg, _zipper(label, kids, ctx, size))
        _set_pos(cfg, pos)
        out.append((tag, cfg))
    return out


def _run(w: str, at: tuple, moves: Iterable[tuple[object, Transition]], out: list) -> None:
    """The one definition of a step, a TSA's or a PDA's (a `convert.Pda`
    runs on a one-path tree), over a sequence of them: from the step
    record `at` (see `_configurations`), apply each move (tag, transition)
    in turn and append the record (tag, state, label, kids, ctx, size, pos)
    of the configuration it produced to `out`.  The tree stack stays in
    the zipper's four fields, run through `treestack._holds` and
    `treestack._apply`, so a step builds no object but its record and the
    context a push or up opens.  Raises NotApplicable at the first move
    that does not apply, with the failing check: "state mismatch", "input
    mismatch", "PredicateFails", or "InstructionFails" where `_apply`
    refuses the instruction.  The moves before it are then the last ones
    `out` received."""
    _, state, label, kids, ctx, size, pos = at
    n = len(w)
    for tag, t in moves:
        if state != t.src:
            raise NotApplicable("state mismatch")
        if t.inp is not None:
            if pos >= n or w[pos] != t.inp:
                raise NotApplicable("input mismatch")
            pos += 1
        if not _holds(label, t.pred):
            raise NotApplicable("PredicateFails")
        try:
            label, kids, ctx, size = _apply(label, kids, ctx, size, t.instr)
        except TreeStackError:
            raise NotApplicable("InstructionFails") from None
        state = t.dst
        out.append((tag, state, label, kids, ctx, size, pos))


def step(tsa: Tsa, w: str, cfg: Configuration, t: Transition) -> Configuration:
    """Apply one transition: `_run` on the one move, its record built into
    a Configuration.  Raises NotApplicable with the failing check, as
    `_run` does."""
    out: list = []
    _run(w, _record(cfg), ((None, t),), out)
    return _configurations(out)[0][1]


def applicable_transitions(tsa: Tsa, w: str, cfg: Configuration) -> list[Transition]:
    """The transitions of delta that `step` can apply at cfg, in delta
    order.  Only NotApplicable means "does not apply": any other exception
    from step is a bug and propagates."""
    out = []
    for t in tsa.delta:
        try:
            step(tsa, w, cfg, t)
        except NotApplicable:
            continue
        out.append(t)
    return out


class RunTrace:
    """A recorded run: the word, the initial configuration and, per step,
    the delta index applied and the configuration it produced.  `tsa` is
    the machine that ran: a Tsa, or the Pda for `convert.pda_accepts`,
    whose stack is the tree's one path.

    A trace that `_run` checked keeps its step records, and `steps` builds
    the (delta index, Configuration) list from them on first read, then
    keeps only that list; the length, the delta indices and `final()` read
    the records.  A trace made from a list of steps keeps that list as its
    records, since both start each row with the delta index.  `==`
    compares tsa, word, steps and initial."""

    def __init__(self, tsa: Tsa, word: str, steps: list[tuple[int, Configuration]],
                 initial: Configuration):
        self.tsa, self.word, self.initial = tsa, word, initial
        self._records = self._steps = steps
        self._base = None

    @classmethod
    def _checked(cls, tsa, word: str, records: list[tuple], initial: Configuration,
                 base: tuple[RunTrace, int] | None = None) -> RunTrace:
        """The trace of `_run`'s records.  With base (trace, j), the first j
        records are that trace's, and its first j steps will be too."""
        trace = cls.__new__(cls)
        trace.tsa, trace.word, trace.initial = tsa, word, initial
        trace._records, trace._steps, trace._base = records, None, base
        return trace

    @property
    def steps(self) -> list[tuple[int, Configuration]]:
        if self._steps is None:
            todo = [self]  # this trace and the unbuilt bases it takes steps from
            while todo[-1]._base is not None and todo[-1]._base[0]._steps is None:
                todo.append(todo[-1]._base[0])
            for trace in reversed(todo):
                base, shared = trace._base or (None, 0)
                steps = base._steps[:shared] if base else []
                steps += _configurations(trace._records[shared:])
                trace._records = trace._steps = steps
                trace._base = None
        return self._steps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.tsa, self.word, self.steps, self.initial)
                == (other.tsa, other.word, other.steps, other.initial))

    __hash__ = None  # compared by value and mutable, so unhashable

    def __repr__(self):
        return (f"RunTrace(tsa={self.tsa!r}, word={self.word!r}, steps={self.steps!r}, "
                f"initial={self.initial!r})")

    def __len__(self):
        return len(self._records)

    def __bool__(self):
        return True  # an empty accepting run is still a result

    def transition_indices(self) -> list[int]:
        return [r[0] for r in self._records]

    def names(self) -> list[str]:
        return [self.tsa.transition_display(r[0]) for r in self._records]

    def final(self) -> Configuration:
        if not self._records:
            return self.initial
        if self._steps is None:  # build the last configuration only
            return _configurations(self._records[-1:])[0][1]
        return self._steps[-1][1]

    def configurations(self) -> list[Configuration]:
        """Configurations c_0 .. c_r (initial first)."""
        return [self.initial] + [c for _, c in self.steps]


class NotFound:
    """Failed search; reason is "exhausted" (space closed) or "budget"."""

    def __init__(self, reason: str):
        assert reason in ("exhausted", "budget")
        self.reason = reason

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NotFound({self.reason})"


@dataclass(frozen=True)
class SearchOptions:
    """A search's k, accept mode, step and vertex budgets, and proper_only."""

    k: int | None = None
    accept_mode: str = "root"  # "root" | "any"
    max_steps: int | None = None
    max_vertices: int | None = None
    proper_only: bool = False

    def __post_init__(self):
        if self.accept_mode not in ("root", "any"):
            raise ValueError("accept_mode must be 'root' or 'any'")
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be None or >= 0, got {self.k}")


def default_max_steps(machine, word_len: int) -> int:
    """Step budget of a TSA or PDA search."""
    return 64 * (word_len + 1) * max(1, len(machine.states))


def default_max_vertices(word_len: int) -> int:
    """Tree-size budget of a TSA search; stack-height budget of a PDA's."""
    return 16 * (word_len + 1)


def search_budgets(machine, opts: SearchOptions, word_len: int) -> tuple[int, int]:
    """(steps, vertices): the budgets of a search on a word of this length,
    the options' own or else the defaults."""
    return (opts.max_steps if opts.max_steps is not None else default_max_steps(machine, word_len),
            opts.max_vertices if opts.max_vertices is not None else default_max_vertices(word_len))


# instruction kinds as small ints for the search's inner loop; "pop" is a
# PDA's (see `Instruction`)
_ID, _PUSH, _UP, _DOWN, _SET, _POP = range(6)
_KIND_CODE = {"id": _ID, "push": _PUSH, "up": _UP, "down": _DOWN, "set": _SET, "pop": _POP}


class Dispatch(dict):
    """A machine's delta as the rows `_search` reads, keyed by (control
    state, pointer label, letter key).  A row is (delta index, letter or
    None for eps, predicate label or None, kind code, child index, new
    label, target, stationary-eps flag); the flag is set on every eps row
    with id or set, whatever the search's options.  `by_state` lists every
    row of each state in delta order.  The letter key is the next letter of
    a fixed word, which keeps the eps rows and the rows that read that letter;
    END, which keeps the eps rows, at the end of a fixed word or of the
    room to read; or ANY_LETTER, which keeps every row, where more than one
    letter may be read.  Each entry holds exactly the rows of its state
    whose letter and predicate can match, in delta order, and is built the
    first time it is asked for.  `degree` is the largest child index of a
    push or up row (0 if there is none), and `up_free` tells whether there
    is no up row.

    For a fixed letter key, a letter or END, the table also looks ahead.  A
    state is dead for the key when no eps path of the control graph,
    predicates ignored, reaches a row reading that letter or, at END, a
    final state; `live(letter)` holds the states that are not.  No run from
    a dead state reads on or accepts.  A dead state's region, the states
    its eps rows reach, is bounded when those rows form a DAG apart from
    self-loops that at each state all move down (or pop) or all move up;
    `ahead(state, letter)` is then (r, p), the region's state count and the
    most pushes on one of its paths, and otherwise None.  In an entry for a
    fixed letter key each row carries, as a last field, its target's
    `ahead` if it reads eps and None if it reads; in an ANY_LETTER entry
    every row carries None."""

    END = None
    ANY_LETTER = ""  # no letter is the empty string

    def __init__(self, by_state: dict[str, list[tuple]], finals: frozenset[str]):
        super().__init__()
        self.by_state = by_state
        self.finals = finals
        self.degree = max((row[4] for rows in by_state.values() for row in rows
                           if row[3] in (_PUSH, _UP)), default=0)
        self.up_free = all(row[3] != _UP for rows in by_state.values() for row in rows)
        self.eps_moves = {q: [(row[3], row[6]) for row in rows if row[1] is None]
                          for q, rows in by_state.items()}  # state -> (kind code, target)
        self.lives: dict[str | None, frozenset[str]] = {}  # letter key -> live(letter)
        self.bounds: dict[str, tuple[int, int] | None] = {}  # dead state -> its region's (r, p)

    def __missing__(self, key):
        state, lab, letter = key
        free = letter == self.ANY_LETTER
        rows = self[key] = []
        for row in self.by_state[state]:
            inp, plab = row[1], row[2]
            if (plab is None or plab == lab) and (inp is None or free or inp == letter):
                rows.append((*row, None if free or inp is not None else self.ahead(row[6], letter)))
        return rows

    def live(self, letter: str | None) -> frozenset[str]:
        """The states from which an eps path reaches a row reading `letter`
        or, for END, a final state."""
        live = self.lives.get(letter)
        if live is None:
            goal = self.finals if letter == self.END else {
                q for q, rows in self.by_state.items() if any(row[1] == letter for row in rows)}
            into: dict[str, list[str]] = {}  # eps predecessors
            for q, moves in self.eps_moves.items():
                for _, dst in moves:
                    into.setdefault(dst, []).append(q)
            found, todo = set(goal), list(goal)
            while todo:
                for q in into.get(todo.pop(), ()):
                    if q not in found:
                        found.add(q)
                        todo.append(q)
            live = self.lives[letter] = frozenset(found)
        return live

    def ahead(self, state: str, letter: str | None) -> tuple[int, int] | None:
        """(r, p) if `state` is dead for this letter key and its region is
        bounded, else None."""
        if state in self.live(letter):
            return None
        if state not in self.bounds:
            self.bounds[state] = self._region_bound(state)
        return self.bounds[state]

    def _region_bound(self, start: str) -> tuple[int, int] | None:
        """(state count, most pushes on one path) of the eps rows reachable
        from start, or None if they are not a DAG with harmless self-loops."""
        from graphlib import CycleError, TopologicalSorter  # here, as heapq in `_summaries`

        moves = self.eps_moves
        region, todo = {start}, [start]
        while todo:
            for _, dst in moves[todo.pop()]:
                if dst not in region:
                    region.add(dst)
                    todo.append(dst)
        after = {}  # state -> the other states its eps rows move to
        for q in region:
            loops = {kind for kind, dst in moves[q] if dst == q}
            if not (loops <= {_DOWN, _POP} or loops <= {_UP}):
                return None  # push, id or set, or down and up, may loop without end
            after[q] = {dst for _, dst in moves[q] if dst != q}
        pushes: dict[str, int] = {}
        try:
            for q in TopologicalSorter(after).static_order():  # each state after those it moves to
                pushes[q] = max(((kind == _PUSH) + pushes[dst] for kind, dst in moves[q] if dst != q),
                                default=0)
        except CycleError:
            return None  # an eps cycle through two or more states
        return len(region), pushes[start]


def search_rows(machine) -> Dispatch:
    """machine.delta, a Tsa's or a Pda's, as the `Dispatch` table `_search`
    reads.  Cached on the machine, one table for every search on it, since
    machines are immutable and `_search` ignores the stationary-eps flags
    unless proper_only is set."""
    table = machine.__dict__.get("_search_rows")
    if table is None:
        rows = {q: [] for q in machine.states}
        for tidx, t in enumerate(machine.delta):
            instr = t.instr
            rows[t.src].append((tidx, t.inp, t.pred.label, _KIND_CODE[instr.kind], instr.n,
                                instr.label, t.dst, t.is_stationary_eps()))
        table = machine.__dict__["_search_rows"] = Dispatch(rows, machine.finals)
    return table


def _tsa_search(tsa: Tsa, w: str, opts: SearchOptions) -> RunTrace | NotFound:
    """`_search` on a TSA or a PDA (`convert.Pda`).  The witness is the
    path's delta indices re-executed by `replay`, so a search-core bug
    raises ReplayMismatch rather than returning a run the step semantics
    do not allow."""
    tidxs = _search(tsa, search_rows(tsa), w, opts)
    return tidxs if isinstance(tidxs, NotFound) else replay(tsa, w, tidxs)


def accepts(tsa: Tsa, w: str, opts: SearchOptions = SearchOptions()) -> RunTrace | NotFound:
    """Search for an accepting run of `tsa` on `w`.

    The answer is that of a breadth-first search over configurations,
    children in delta order, with memoisation on (state, position, tree
    stack[, vfb][, properness bit]): the witness is the lexicographically
    least shortest run, and NotFound("budget") means the search was cut
    off, NotFound("exhausted") that the bounded space was fully explored.

    On a machine with no `up` row, without proper_only, the answer comes
    first from entry/exit summaries (`_summaries`): a vertex is then
    entered once and left at most once, so runs are context-free, and
    Knuth's lightest derivation gives the least run of each fact in
    polynomial time.  A witness stands when it fits both budgets; a "no"
    stands as `exhausted` when no run prefix can reach either budget.
    Otherwise, or on any other machine or options, the search itself runs
    (`_search`).  A configuration's children come from the machine's
    `Dispatch` table: the transitions of its state whose letter and
    predicate match the next letter and the pointer's label, in delta
    order.  Inside the search a tree stack and its vfb counts are a zipper
    focused at the pointer whose vertices and contexts are interned as int
    ids, so each step costs the same whatever the size of the tree and
    equal ids mean equal configurations: the memoisation is exact.  A
    child that enters a dead region, a part of the control graph from
    which no eps path reads the next letter (or, at the end of the word,
    reaches a final state), is dropped when no budget can cut off anything
    below it, so every witness and every NotFound reason is the one the
    plain search gives.  Either way the witness is a list of delta indices
    re-executed by `replay`.
    """
    rows = search_rows(tsa)
    if rows.up_free and not opts.proper_only:
        found = _word_summaries(tsa, rows, w, opts)
        if found is not None:
            return found if isinstance(found, NotFound) else replay(tsa, w, found)
    return _tsa_search(tsa, w, opts)


class _Walk:
    """The targets of one `_search` walk and their read prefixes, as a
    trie: a prefix id is interned by (parent id, letter), "" is id 0, and
    only prefixes of targets are interned.  The targets are every word of
    length <= max_len over the machine's alphabet, or, given `words`, those
    words.  Each length n keeps the budgets of `accepts` on a word of
    length n: `steps[n]` and `vertices[n]`.

    `pending[p]` counts the targets through prefix p (p included) that
    have no witness yet; `_search` drops a prefix once it reaches 0.
    `reach[p]` is the length of the longest target through p; a node at p
    whose tree or depth is over that length's budgets is in no target's
    search, and `_search` drops it.  `_search` fills `accepted` (target
    prefix id -> its witness's delta indices) and `cut` (prefix id -> the
    lengths n whose search a budget cut at that prefix)."""

    def __init__(self, machine, opts: SearchOptions, max_len: int,
                 words: Iterable[str] | None = None):
        self.max_len = max_len
        budgets = [search_budgets(machine, opts, n) for n in range(max_len + 1)]
        self.steps = [s for s, _ in budgets]
        self.vertices = [v for _, v in budgets]
        self.step_ends: dict[int, list[int]] = {}  # depth -> lengths whose step budget ends there
        for n, s in enumerate(self.steps):
            self.step_ends.setdefault(s, []).append(n)
        self.every = words is None
        if self.every:  # the targets through a prefix of length m
            a = len(machine.alphabet)
            self.through = [sum(a ** j for j in range(max_len - m + 1)) for m in range(max_len + 1)]
        self.words = [""]  # prefix per id
        self.up = [-1]  # parent id per id
        self.target = [self.every]
        self.pending = [self.through[0] if self.every else 0]
        self.reach = [max_len if self.every else 0]
        self.vcap = [self.vertices[0]]  # vertex budget of the prefix's own length
        self.kids: dict[tuple[int, str], int] = {}
        self.accepted: dict[int, list[int]] = {}
        self.cut: dict[int, set[int]] = {}
        for w in dict.fromkeys(words or ()):
            p = 0
            self.pending[0] += 1
            self.reach[0] = max(self.reach[0], len(w))
            for x in w:
                p = self.kids.get((p, x)) or self._intern(p, x)
                self.pending[p] += 1
                self.reach[p] = max(self.reach[p], len(w))
            self.target[p] = True

    def _intern(self, p: int, letter: str) -> int:
        c = self.kids[(p, letter)] = len(self.words)
        u = self.words[p] + letter
        self.words.append(u)
        self.up.append(p)
        self.target.append(self.every)
        self.pending.append(self.through[len(u)] if self.every else 0)
        self.reach.append(self.max_len if self.every else 0)
        self.vcap.append(self.vertices[len(u)])
        return c

    def child(self, p: int, letter: str) -> int | None:
        """The id of prefix p + letter, or None if no target without a
        witness goes through it."""
        c = self.kids.get((p, letter))
        if c is None:
            if not self.every or len(self.words[p]) >= self.max_len:
                return None
            c = self._intern(p, letter)
        return c if self.pending[c] else None

    def takes(self, p: int, depth: int, size: int) -> bool:
        """Whether an accepting node at prefix p, at this depth and with a
        tree of this size, is the witness of target p: p has none yet and
        the node is inside the budgets of p's length."""
        if not self.target[p] or p in self.accepted:
            return False
        n = len(self.words[p])
        return depth <= self.steps[n] and size <= self.vertices[n]

    def accept(self, p: int, run: list[int]) -> None:
        self.accepted[p] = run
        while p >= 0:
            self.pending[p] -= 1
            p = self.up[p]

    def vertex_cut(self, p: int, size: int) -> bool:
        """Record a step to a tree of `size` vertices at prefix p as a cut
        for every length through p whose vertex budget that exceeds.  True
        if it exceeds them all, so no search keeps the node.  A step that
        n's search never takes, its parent being over n's budgets, repeats
        a cut for n already recorded on a prefix of p, so it changes no
        word's answer."""
        for n in range(len(self.words[p]), self.reach[p] + 1):
            if self.vertices[n] < size:
                self.cut.setdefault(p, set()).add(n)
        return size > self.vertices[self.reach[p]]

    def step_cut(self, nodes, frontier: list[int], depth: int) -> list[int]:
        """Record the step-budget cut of every length whose budget ends at
        this depth on the prefixes of the frontier nodes, and return the
        frontier without the nodes that no longer count for any length.
        A cut for n at a node over n's vertex budget repeats the vertex cut
        on its path, and no length-n word goes through a prefix longer than
        n, so neither changes a word's answer."""
        for n in self.step_ends[depth]:
            for i in frontier:
                self.cut.setdefault(nodes[i][1], set()).add(n)
        return [i for i in frontier if self.steps[self.reach[nodes[i][1]]] > depth]

    def was_cut(self, w: str) -> bool:
        """Whether the search of target w was cut at w or a prefix of it."""
        ids = [0]
        for x in w:
            ids.append(self.kids[(ids[-1], x)])
        return any(len(w) in self.cut.get(p, ()) for p in ids)

    def budget_words(self, alphabet: Sequence[str], found: set[str]) -> list[str]:
        """The words outside `found` whose search was cut at them or a
        prefix, by length, each length in itertools.product order.  For a
        walk over every word up to max_len."""
        out = []
        for n in range(self.max_len + 1):
            stack = [0] if self.cut else []
            while stack:
                p = stack.pop()
                u = self.words[p]
                if n in self.cut.get(p, ()):
                    out += [v for v in (u + "".join(tup) for tup in
                                        itertools.product(alphabet, repeat=n - len(u)))
                            if v not in found]
                elif len(u) < n:
                    stack += [c for c in (self.kids.get((p, x)) for x in reversed(alphabet))
                              if c is not None]
        return out

    def witnesses(self, tsa: Tsa) -> dict[str, RunTrace]:
        """Every accepted target's witness, re-executed by `_execute`."""
        return _execute(tsa, {self.words[p]: run for p, run in self.accepted.items()})


def _arena_run(nodes, me: int) -> list[int]:
    """The delta indices of the steps from the initial node to node me."""
    run = []
    while me:  # node 0, the initial node, is the only one without a step
        run.append(nodes[me][-1])
        me = nodes[me][-2]
    return run[::-1]


def _search(machine, rows, w: str | None, opts: SearchOptions, walk: _Walk | None = None,
            look_ahead: bool = True):
    """The BFS core behind `accepts` and `convert.pda_accepts` (the word w
    given), and `enumerate_words` and `accepts_each` (w None and a `walk`:
    read toward its targets).  `machine` has initial, finals and states;
    `rows` is its `Dispatch` table from `search_rows`, so a node scans only
    the rows whose letter and predicate match, keyed by its state, its
    pointer's label and its letter key: the next letter of w, END, or
    ANY_LETTER while the walk has room to read.  Returns NotFound, or the
    delta indices of the steps from the initial configuration to the first
    accepting one ([] when the initial configuration accepts).

    A tree stack is held as a zipper focused at the pointer (Huet 1997),
    hash-consed for the one search.  A vertex is (label, vfb count, child
    ids...), one child slot per index up to `rows.degree` and 0 for an
    empty slot; a context is (parent context, id of the parent vertex with
    the hole slot emptied, hole index), and 0 is the root's.  Each is
    interned as an int id when first made, so two tree stacks are equal
    exactly when their focus and context ids are, and the memo key is
    (state, position, focus id, context id, stationary bit).  Push, up,
    down, set and pop each build and look up at most three small tuples,
    whatever the size of the tree.  The vfb counts are 0 unless k is set.

    In walk mode a node's position is a prefix id of `walk`, so the BFS is
    over (configuration, read prefix) pairs, and a reading step extends a
    prefix only toward a target without a witness.  Every target with
    prefix u meets the same configurations at positions <= |u|, at the
    same depths, in its own search, so one walk answers all targets.  It
    runs under the budgets of the longest target, and a node counts for
    length n only while its depth and tree fit n's budgets.  A TSA tree
    never shrinks, so such a node lies on a path that fits them too and
    is in the search of every length-n word through its prefix.  So a
    target's witness is its first accepting node that fits its length,
    stored in `walk.accepted` as the delta indices a fixed word returns,
    and each budget cut is recorded on a (prefix, length) pair where that
    length's search would make it.  The walk returns None.

    With a fixed word (`accepts`, `pda_accepts`) and `look_ahead`, a child
    that an eps row takes into a dead state (see `Dispatch`) whose region
    is bounded by (r, p) is dropped when its tree of s vertices has
    s + p <= max_vertices and its depth d has d + r(s + p + 1) < max_steps.
    No run from it reads on or accepts, and its descendants keep its
    position, hold at most s + p vertices and lie fewer than r(s + p) steps
    deeper (each of the r states is left after at most s + p - 1
    self-loops), so none of them meets a budget.  Deadness depends only on
    state and position, so dead and live configurations never share a memo
    key, and the live ones, every witness among them, are those of the
    search without dropping.  Only a step cut can differ: a dead
    configuration first met below a dropped one may be met again later
    along another path, too deep to drop, and reach the step budget from
    there.  So a search that has dropped a child and reaches max_steps is
    run again without the look-ahead.  The walk never drops a child: its
    per-length budgets are cuts of their own."""
    max_len = len(w) if walk is None else walk.max_len
    if walk is not None:
        words, pending, vcap = walk.words, walk.pending, walk.vcap
    max_steps, max_vertices = search_budgets(machine, opts, max_len)
    pruned = False
    k = opts.k
    proper = opts.proper_only
    root_only = opts.accept_mode == "root"
    finals = machine.finals
    END, ANY_LETTER = rows.END, rows.ANY_LETTER

    # the hash-consing tables of this search: id -> vertex or context, and
    # back; id 0 is an empty child slot and the root's context
    empty = (0,) * rows.degree  # the child slots of a leaf
    verts: list[tuple] = [(), (ROOT_LABEL, 0) + empty]
    vid: dict[tuple, int] = {verts[1]: 1}
    ctxs: list[tuple] = [()]
    cid: dict[tuple, int] = {}
    leaves: dict[str, int] = {}  # label -> id of the leaf a push makes
    fresh = 0 if k is None else 1  # the vfb count of a pushed vertex
    # arena of (state, pos or prefix id, focus id, context id, stationary
    # flag if proper, tree size, parent node, delta index)
    nodes = [(machine.initial, 0, 1, 0, False, 1, -1, -1)]
    if machine.initial in finals:
        if walk is None:
            if max_len == 0:
                return []
        elif walk.target[0]:  # no budget applies to the initial configuration
            walk.accept(0, [])
    seen = {nodes[0][:5]}  # memo keys
    frontier = [0]
    depth = 0
    cut = False

    while frontier:
        if walk is not None and depth in walk.step_ends:
            frontier = walk.step_cut(nodes, frontier, depth)
        if depth >= max_steps:
            if pruned:  # a dead configuration may have been met late: ask without pruning
                return _search(machine, rows, w, opts, look_ahead=False)
            cut = True
            break
        depth += 1
        next_frontier: list[int] = []
        for node_idx in frontier:
            state, pos, focus, ctx, was_stat, size, _, _ = nodes[node_idx]
            if walk is not None and not pending[pos]:
                continue  # every target through this prefix has its witness
            v = verts[focus]
            if walk is None:
                letter = w[pos] if pos < max_len else END
            else:
                letter = ANY_LETTER if len(words[pos]) < max_len else END
            for tidx, inp, _, kind, n, nlab, dst, stat, ahead in rows[state, v[0], letter]:
                if was_stat and stat:
                    continue
                if inp is None:
                    npos = pos
                elif walk is None:
                    npos = pos + 1
                else:
                    npos = walk.child(pos, inp)
                    if npos is None:
                        continue
                nfocus, nctx, nsize = focus, ctx, size
                if kind == _PUSH:
                    if v[n + 1] or k == 0:  # k = 0 bars the visit from below a push makes
                        continue
                    nfocus = leaves.get(nlab)
                    if nfocus is None:
                        leaf = (nlab, fresh) + empty
                        nfocus = leaves[nlab] = vid.get(leaf) or _intern(vid, verts, leaf)
                    nc = (ctx, focus, n)
                    nctx = cid.get(nc) or _intern(cid, ctxs, nc)
                    nsize += 1
                elif kind == _UP:
                    nfocus = v[n + 1]
                    if not nfocus:
                        continue
                    if k is not None:
                        nv = [*verts[nfocus]]  # one more visit from below
                        nv[1] += 1
                        if nv[1] > k:
                            continue
                        nv = tuple(nv)
                        nfocus = vid.get(nv) or _intern(vid, verts, nv)
                    nv = [*v]  # v with its child n taken out
                    nv[n + 1] = 0
                    nv = tuple(nv)
                    nc = (ctx, vid.get(nv) or _intern(vid, verts, nv), n)
                    nctx = cid.get(nc) or _intern(cid, ctxs, nc)
                elif kind == _ID:
                    pass
                elif not ctx:  # down, set and pop need a non-root pointer
                    continue
                elif kind == _DOWN:
                    nctx, parent, hn = ctxs[ctx]
                    nv = [*verts[parent]]  # the parent with the focus put back
                    nv[hn + 1] = focus
                    nv = tuple(nv)
                    nfocus = vid.get(nv) or _intern(vid, verts, nv)
                elif kind == _SET:
                    nv = (nlab,) + v[1:]
                    nfocus = vid.get(nv) or _intern(vid, verts, nv)
                else:  # pop: the pointer is the top of a one-path tree
                    nctx, nfocus, _ = ctxs[ctx]
                    nsize -= 1
                if walk is None:
                    if nsize > max_vertices:
                        cut = True
                        continue
                    if ahead is not None and look_ahead:
                        r, p = ahead  # dst is dead here: drop it if no budget can cut below it
                        if nsize + p <= max_vertices and depth + r * (nsize + p + 1) < max_steps:
                            pruned = True
                            continue
                elif nsize > vcap[npos] and walk.vertex_cut(npos, nsize):
                    continue
                stat = stat and proper
                before = len(seen)  # one hash per memo insert: add, then see if it grew
                seen.add((dst, npos, nfocus, nctx, stat))
                if len(seen) == before:
                    continue
                me = len(nodes)
                nodes.append((dst, npos, nfocus, nctx, stat, nsize, node_idx, tidx))
                if dst in finals and (not nctx or not root_only):
                    if walk is None:
                        if npos == max_len:
                            return _arena_run(nodes, me)
                    elif walk.takes(npos, depth, nsize):
                        walk.accept(npos, _arena_run(nodes, me))
                        if not pending[npos]:
                            continue
                next_frontier.append(me)
        frontier = next_frontier

    if walk is not None:
        return None
    return NotFound("budget" if cut else "exhausted")


def _intern(ids: dict[tuple, int], table: list[tuple], x: tuple) -> int:
    """Give x the next id of a hash-consing table: `ids` maps each tuple to
    its id and `table` each id to its tuple."""
    i = ids[x] = len(table)
    table.append(x)
    return i


def _word_summaries(tsa: Tsa, rows, w: str, opts: SearchOptions) -> list[int] | NotFound | None:
    """`accepts` on a TSA with no `up` row, without proper_only:
    `_summaries` over w as a path, and the budget rules.  Returns the delta
    indices of `_search`'s witness, NotFound("exhausted") or
    NotFound("budget") where `_search` gives that, or None where a budget
    might cut `_search`, whose answer is then needed.

    The goal's run is `_search`'s witness if it fits both budgets (its
    length and 1 + its pushes), since a TSA tree never shrinks.  With no
    goal, one longest-path pass over the derivations of the saturated
    facts bounds every run prefix (`_longest_prefix`).  Each rule adds a
    step, so a cycle of facts is unbounded.  If no run prefix reaches
    either budget, `_search` answers `exhausted`.  If a cycle passes
    through an opening (`_reopens`), the tree grows without end along one
    run prefix, and `_search` answers `budget`."""
    n = len(w)
    path = [(x, {None: j, x: j + 1}, False) for j, x in enumerate(w)]
    path.append((rows.END, {None: n}, True))
    run, derived, _ = _summaries(tsa, rows, path, opts)
    max_steps, max_vertices = search_budgets(tsa, opts, n)
    if run is not None:
        return list(run) if len(run) <= max_steps and 1 + _pushes(tsa, run) <= max_vertices else None
    most = _longest_prefix(derived)
    if most is None:  # a cycle of facts
        return NotFound("budget") if _reopens(derived) else None
    if all(s < max_steps and 1 + p <= max_vertices for s, p in most.values()):
        return NotFound("exhausted")
    return None


def _pushes(tsa: Tsa, run: Sequence[int]) -> int:
    """The pushes of a run of delta indices."""
    return sum(tsa.delta[i].instr.kind == "push" for i in run)


class _Derivation:
    """What one `_summaries` run derived, as int ids.  `facts[i]` is the
    fact of id i; a fact gets its id when it is first offered, and an
    entry's opening, which stands there as the entry id, when the entry is
    made.  `opening` maps each entry id to its opening's id.  `firings`
    holds each rule firing as a row of ids, (conclusion, *premises).
    Iterating gives the firings as rows of facts."""

    def __init__(self):
        self.facts: list = []
        self.opening: list[int] = []
        self.firings: list[tuple[int, ...]] = []

    def __iter__(self):
        facts = self.facts
        return (tuple(map(facts.__getitem__, row)) for row in self.firings)


def _summaries(tsa: Tsa, rows, at, opts: SearchOptions,
               goals: dict | None = None) -> tuple[tuple | None, _Derivation, dict]:
    """The least accepting run of a TSA with no `up` row, without
    proper_only, on the words of a deterministic position automaton, by
    entry/exit summaries.  Position j is `at[j]` = (letter key, moves,
    end): its `Dispatch` letter key (a letter, END or ANY_LETTER), a dict
    from each letter it reads to the next position and from None (eps) to
    j, and whether a run may accept at j.  Position 0 is the start.  A
    fixed word is a path (`_word_summaries`), the words up to a length are
    a `_Trie` (`_trie_words`), and `langlab.rational_membership` passes a
    deterministic B . w^-1.  Returns the goal's run of delta indices, or
    None once the facts saturate without it, with the `_Derivation` of
    the facts and `entries`.  Given `goals`, a dict, every goal is wanted:
    the loop records each position's goal run there and runs on until the
    facts saturate.

    Without `up` a vertex is entered once, by its push (the root at the
    start), and left by at most one exit, so what a run does inside a
    vertex depends only on how the vertex was entered.  The facts:
      - an entry (state, label, position), given an int id; the root's is
        (initial, @, 0) and has id 0;
      - a local fact (entry id, state, label, used child slots as a bit
        set, position): the run from the entry got there without leaving
        the vertex, finished child visits included;
      - an exit (entry id, state, position): the vertex was left by a down
        into that state at that position or, as (entry id, None,
        position), by acceptance inside it at an end position.
    `id` and `set` extend a local fact, `down` ends it in an exit, and a
    final local fact at an end position gives an accepting exit there (in
    root mode only the root's).  `push n B` with slot n free (and k != 0:
    k = 0 bars the visit from below a push makes) enters (target, B,
    position) and joins the local fact with each exit of that entry; an
    accepting exit gives the parent's.  A goal is the root's accepting
    exit at a position.  A position that reads several letters takes all
    their rows in one ANY_LETTER lookup and skips the rows of letters it
    does not read, so each local fact costs one `Dispatch` lookup, as on a
    fixed word.  Each fact is held by its int id (`_Derivation`), so the
    queue, the table of least runs and the rule firings hash no fact
    tuple again.

    A fact's weight is its run's delta indices, ordered by length and then
    lexicographically.  Concatenation is monotone in that order and a
    rule's conclusion weighs at least each premise, so Knuth's lightest
    derivation (Knuth 1977) gives each fact its least run when it is first
    popped from the queue, entries found late included, since their local
    facts start from the empty run.  So a goal's run is the
    lexicographically least shortest accepting run on its position's
    words, and without a goal the finitely many facts saturate."""
    from heapq import heappop, heappush  # here, so that importing tsalab stays as quick

    root_only = opts.accept_mode == "root"
    pushing = opts.k != 0
    finals = tsa.finals
    entries: dict = {}
    waiting: list[list] = []  # entry id -> (pushing local fact's id, its entry, run with the push, label, slots after)
    exits: list[list] = []  # entry id -> (exit, its id, run) of each popped exit
    derived = _Derivation()
    facts, opening, firings = derived.facts, derived.opening, derived.firings
    ids: dict = {}  # fact -> its id
    best: list = []  # fact id -> least run offered so far (None for an opening)
    queue: list = []  # (length, run, fact id)

    def offer(fact, run) -> int:
        i = ids.get(fact)
        if i is None:
            i = ids[fact] = len(facts)
            facts.append(fact)
            best.append(run)
        else:
            old = best[i]
            if len(run) > len(old) or len(run) == len(old) and run >= old:
                return i
            best[i] = run
        heappush(queue, (len(run), run, i))
        return i

    def enter(q, lab, j) -> int:  # a new entry: its id, its opening and its first local fact
        e = entries[q, lab, j] = len(waiting)
        waiting.append([])
        exits.append([])
        opening.append(len(facts))
        facts.append(e)
        best.append(None)
        offer((e, q, lab, 0, j), ())
        return e

    def join(site, out, oi, orun):  # a push's local fact with an exit of the entry it pushed into
        li, e, before, lab, used = site
        if out[1] is None:  # an accepting exit gives the parent's
            offer((e, None, out[2]), before + orun)
        else:
            firings.append((offer((e, out[1], lab, used, out[2]), before + orun), li, oi))

    enter(tsa.initial, ROOT_LABEL, 0)
    while queue:
        _, run, i = heappop(queue)
        if best[i] is not run:
            continue  # a heavier run of a fact popped before
        fact = facts[i]
        if len(fact) == 3:  # an exit
            e = fact[0]
            if not e:  # a goal: a down never leaves the root
                if goals is None:
                    return run, derived, entries
                goals[fact[2]] = run
                continue
            exits[e].append((fact, i, run))
            for site in waiting[e]:
                join(site, fact, i, run)
            continue
        e, p, lab, used, j = fact
        key, moves, end = at[j]
        if end and p in finals and (not e or not root_only):
            offer((e, None, j), run)
        for tidx, inp, _, kind, c, nlab, dst, _, _ in rows[p, lab, key]:
            nj = moves.get(inp)
            if nj is None:
                continue  # a letter this position does not read
            nrun = run + (tidx,)
            if kind == _PUSH:
                bit = 1 << c
                if used & bit or not pushing:
                    continue
                e2 = entries.get((dst, nlab, nj))
                if e2 is None:
                    e2 = enter(dst, nlab, nj)
                firings.append((opening[e2], opening[e], i))  # the opening of e2 through this push
                site = (i, e, nrun, lab, used | bit)
                waiting[e2].append(site)
                for out, oi, orun in exits[e2]:
                    join(site, out, oi, orun)
                continue
            if kind == _ID:
                nxt = (e, dst, lab, used, nj)
            elif not e:  # down and set need a non-root pointer
                continue
            elif kind == _DOWN:
                nxt = (e, dst, nj)
            else:  # set
                nxt = (e, dst, nlab, used, nj)
            firings.append((offer(nxt, nrun), i))
    return None, derived, entries


def _longest_prefix(derived: _Derivation, cyclic: list[int] | None = None) -> dict | None:
    """Per position j, (most steps, most pushes) of a run prefix that
    ends at a local fact at j, from the saturated facts of `_summaries`;
    None if the facts have a cycle, since a cycle repeats without end.
    Given `cyclic`, a list, a cycle instead puts there the ids of the
    facts on or after one, which no order reaches, and the maxima count
    only the local facts whose own and entry's opening were ordered.  A
    firing with one premise (`id`, `set`, `down`) adds a step, and one
    with two (a push joined with an exit, or opening an entry) adds a step
    and a push.  A local fact counts from its entry and an opening from
    the start, so a run prefix ending at a local fact takes the maxima of
    both.  The facts no firing derives, the root's opening and each
    entry's first local fact among them, start from the empty run.  One
    pass over the int ids in topological order, by Kahn's algorithm."""
    # Kahn's loop by hand, not graphlib as in `_reopens`: it counts each firing's
    # premises down as it orders the facts, and a graphlib version made `accepts`
    # on the 200 wpz non-members of search seed 1, rounds 0-19, take 113-167 ms
    # against 66-92 ms (2 cores, Python 3.11.7)
    facts, firings = derived.facts, derived.firings
    n = len(facts)
    into = [0] * n  # fact id -> the firings into it not yet counted
    uses: list[list[int]] = [[] for _ in range(n)]  # fact id -> the firings it is a premise of
    for r, row in enumerate(firings):
        into[row[0]] += 1
        uses[row[1]].append(r)
        if len(row) == 3:
            uses[row[2]].append(r)
    need = [len(row) - 1 for row in firings]  # premises not yet final
    steps, pushes = [0] * n, [0] * n
    ready = [i for i in range(n) if not into[i]]
    done = 0
    while ready:
        done += 1
        for r in uses[ready.pop()]:
            need[r] -= 1
            if need[r]:
                continue
            row = firings[r]
            if len(row) == 2:
                s, p = steps[row[1]] + 1, pushes[row[1]]
            else:
                a, b = row[1], row[2]
                s, p = steps[a] + steps[b] + 1, pushes[a] + pushes[b] + 1
            c = row[0]
            if s > steps[c]:
                steps[c] = s
            if p > pushes[c]:
                pushes[c] = p
            into[c] -= 1
            if not into[c]:
                ready.append(c)
    opening = derived.opening
    if done < n:  # a cycle: some fact never became ready
        if cyclic is None:
            return None
        cyclic += [i for i in range(n) if into[i]]
        facts = [None if into[i] or type(f) is tuple and len(f) == 5 and into[opening[f[0]]] else f
                 for i, f in enumerate(facts)]
    most: dict = {}
    for i, f in enumerate(facts):
        if type(f) is tuple and len(f) == 5:  # a local fact, after its entry's opening
            o = opening[f[0]]
            s, p = steps[o] + steps[i], pushes[o] + pushes[i]
            old = most.get(f[4])
            if old is None:
                most[f[4]] = (s, p)
            elif s > old[0] or p > old[1]:
                most[f[4]] = (max(old[0], s), max(old[1], p))
    return most


class _Trie(dict):
    """Every word of length <= max_len over an alphabet of a letters, as
    the positions of `_summaries`: "" is node 0, and word u + x, x the
    i-th letter, is node a * u + i + 1, so the nodes of each length come in
    itertools.product order.  Every node is an end position.  A node
    shorter than max_len reads each letter in one ANY_LETTER lookup, and a
    node of length max_len reads nothing (END).  A node is made the first
    time it is asked for, so only the words some fact reaches are made."""

    def __init__(self, alphabet: Sequence[str], max_len: int):
        super().__init__()
        self.alphabet, self.max_len = alphabet, max_len
        self.starts = [0]  # the first node of each length, and one past the last
        for _ in range(max_len + 1):
            self.starts.append(self.starts[-1] * len(alphabet) + 1)

    def __missing__(self, j: int):
        if j >= self.starts[self.max_len]:
            at = self[j] = (Dispatch.END, {None: j}, True)
        else:
            moves = dict(zip(self.alphabet, itertools.count(len(self.alphabet) * j + 1)))
            moves[None] = j
            at = self[j] = (Dispatch.ANY_LETTER, moves, True)
        return at

    def word(self, j: int) -> str:
        letters = []
        while j:
            j, i = divmod(j - 1, len(self.alphabet))
            letters.append(self.alphabet[i])
        return "".join(reversed(letters))


def _trie_words(tsa: Tsa, rows, max_len: int,
                opts: SearchOptions) -> tuple[dict[str, tuple], list[str]] | None:
    """`enumerate_words` on a TSA with no `up` row, without proper_only:
    `_summaries` over the `_Trie` of the words up to max_len, with every
    goal wanted, and the budget rules of `_word_summaries` for each
    length.  Returns each accepted word's run of delta indices, the walk's
    witness, with the words the walk would list as cut by a budget, or
    None where a budget might cut the walk, whose answer is then needed.

    A fact at a node depends only on the facts at the node's prefixes, so
    a node's goal run is the least run of its word, as on the word's own
    path, and a cycle of facts lies at one node.  A goal run is the
    witness if it fits the budgets of the word's length.  A word with no
    goal is rejected, with no cut, when no fact at its prefixes lies on or
    after a cycle and every run prefix that ends at a node no longer than
    the word fits those budgets (`_longest_prefix`): the word's own search
    meets only the nodes of its prefixes.  It is cut by a budget when a
    cycle of openings lies at one of its prefixes (`_reopens`), and any
    other cycle there leaves the answer to the walk."""
    from bisect import bisect_right  # here, as heapq in `_summaries`

    trie = _Trie(tsa.alphabet, max_len)
    goals: dict[int, tuple] = {}
    _, derived, entries = _summaries(tsa, rows, trie, opts, goals)
    budgets = [search_budgets(tsa, opts, n) for n in range(max_len + 1)]
    runs = {}
    accepted = [0] * (max_len + 1)  # accepted words of each length
    for j, run in goals.items():
        w = trie.word(j)
        max_steps, max_vertices = budgets[len(w)]
        if len(run) > max_steps or 1 + _pushes(tsa, run) > max_vertices:
            return None
        runs[w] = run
        accepted[len(w)] += 1
    a = len(tsa.alphabet)
    rejecting = [n for n in range(max_len + 1) if accepted[n] < a ** n]
    if not rejecting:
        return runs, []
    cyclic: list[int] = []
    most = _longest_prefix(derived, cyclic)
    steps, pushes = [0] * (max_len + 1), [0] * (max_len + 1)  # most at nodes of each length
    for j, (s, p) in most.items():
        n = bisect_right(trie.starts, j) - 1
        steps[n], pushes[n] = max(steps[n], s), max(pushes[n], p)
    for n in range(1, max_len + 1):  # ... and at nodes no longer
        steps[n], pushes[n] = max(steps[n - 1], steps[n]), max(pushes[n - 1], pushes[n])
    fits = [s < max_steps and 1 + p <= max_vertices
            for s, p, (max_steps, max_vertices) in zip(steps, pushes, budgets)]
    if not cyclic:
        return (runs, []) if all(fits[n] for n in rejecting) else None
    # each rejected word by the cycles at its prefixes: 2 a cycle of
    # openings, 1 another, 0 none
    at_entry = [j for _, _, j in entries]  # entry id -> its node
    facts = derived.facts
    cycles = dict.fromkeys([at_entry[f] if type(f) is int else f[-1]
                            for f in map(facts.__getitem__, cyclic)], 1)
    cycles.update(dict.fromkeys(map(at_entry.__getitem__, _reopens(derived)), 2))
    below = [0] * trie.starts[-1]  # node -> the worst cycle at its prefixes
    budget_words = []
    for n in range(max_len + 1):
        for j in range(trie.starts[n], trie.starts[n + 1]):
            below[j] = c = max(below[(j - 1) // a] if j else 0, cycles.get(j, 0))
            if j in goals:
                continue
            if c == 2:
                budget_words.append(trie.word(j))
            elif c or not fits[n]:
                return None
    return runs, budget_words


def _replay_from(tsa: Tsa, word: str, at: tuple, tidxs: Sequence[int], records: list) -> None:
    """Run delta indices from the step record `at` through `_run`,
    appending their records to `records`.  Raises ReplayMismatch at the
    first step that does not apply or names no transition, numbered from
    1 along `records`."""
    delta = tsa.delta
    good = len(tidxs)
    if tidxs and (min(tidxs) < 0 or max(tidxs) >= len(delta)):
        good = next(j for j, i in enumerate(tidxs) if not 0 <= i < len(delta))
    try:
        _run(word, at, zip(tidxs, map(delta.__getitem__, tidxs[:good])), records)
    except NotApplicable as e:
        raise ReplayMismatch(len(records) + 1, e.reason) from None
    if good < len(tidxs):
        raise ReplayMismatch(len(records) + 1, f"no transition #{tidxs[good] + 1}")


def _reopens(derived: _Derivation) -> set[int]:
    """The entries whose openings lie on or after a cycle of openings in
    the saturated facts of `_summaries`: an entry whose run pushes, through
    entries it opens, into an entry equal to it (the same state, label and
    position), and every entry opened from one.  An opening is a premise
    only of openings, so such a cycle is a strongly connected component of
    the facts that holds an opening.  From the entry the cycle then
    repeats without end and without reading a letter, and each round adds
    a vertex, so the tree grows without bound along one run prefix: with
    no goal the search can only stop at a budget.  A cycle of `id` or
    `set` firings alone repeats its configurations, so the search may
    still exhaust; it is not this."""
    from graphlib import CycleError, TopologicalSorter  # here, as heapq in `_summaries`

    opened_from: dict[int, set[int]] = {}  # entry id -> the entries whose runs open it
    for concl, *premises in derived:
        if type(concl) is int:
            opened_from.setdefault(concl, set()).add(premises[0])
    order = TopologicalSorter(opened_from)
    try:
        order.prepare()
    except CycleError:  # get_ready still gives every entry no cycle blocks
        ordered = set()
        while order.is_active():
            ready = order.get_ready()
            order.done(*ready)
            ordered.update(ready)
        return set(opened_from).difference(ordered)
    return set()


def _execute(tsa: Tsa, runs: dict[str, Sequence[int]]) -> dict[str, RunTrace]:
    """Re-execute each word's run of delta indices from the initial
    configuration through `_run`, each shared run prefix once.  The runs
    go in lexicographic order, where the longest prefix a run shares with
    any run before it is the one it shares with the run just before it:
    the run takes that run's records up to there and runs the rest from
    the last record they keep.  Its trace has the trace before as its
    base, so when its steps are read it takes the shared ones from there,
    and runs with a common prefix share its Configurations.  A run prefix
    fixes the letters it reads, so its steps are the same for every word
    whose witness it begins.  Raises ReplayMismatch at the first step that
    does not apply, numbered from 1 along its run."""
    init = initial_configuration(tsa)
    traces = {}
    records: list = []  # the records of the run before
    before = None  # and its trace
    for word, run in sorted(runs.items(), key=lambda item: item[1]):
        shared = 0
        for tidx, record in zip(run, records):
            if tidx != record[0]:
                break
            shared += 1
        records = records[:shared]
        _replay_from(tsa, word, records[-1] if records else _record(init), run[shared:], records)
        before = traces[word] = RunTrace._checked(tsa, word, records, init,
                                                  (before, shared) if shared else None)
    return traces


def replay(tsa: Tsa, word: str, tidx_seq: Sequence[int]) -> RunTrace:
    """Re-execute a transition index sequence from the initial configuration
    through `_run`; `tsa` may also be a `convert.Pda`.

    Raises ReplayMismatch at the first step that does not apply or names
    no transition, so the whole run is checked before it returns; the
    trace's steps are built when first read, and the final configuration
    is trace.final().
    """
    init = initial_configuration(tsa)
    records: list = []
    _replay_from(tsa, word, _record(init), list(tidx_seq), records)
    return RunTrace._checked(tsa, word, records, init)


def replay_trace(trace: RunTrace) -> Configuration:
    """`replay` of a RunTrace's transition indices, checked against its
    recorded configurations; returns the final configuration.  Raises
    ReplayMismatch at the first step that does not apply or differs from
    its record, or at the last step if the run leaves the word unread."""
    tidxs = trace.transition_indices()
    try:
        again, failed = replay(trace.tsa, trace.word, tidxs), None
    except ReplayMismatch as e:  # a step before it may differ from its record
        again, failed = replay(trace.tsa, trace.word, tidxs[:e.step_index - 1]), e
    for j, ((_, recorded), (_, cfg)) in enumerate(zip(trace.steps, again.steps), start=1):
        if cfg != recorded:
            raise ReplayMismatch(j, "recorded configuration differs")
    if failed:
        raise failed
    if again.final().pos != len(trace.word):
        raise ReplayMismatch(len(trace), "word not fully consumed")
    return again.final()


def enumerate_words(tsa: Tsa, max_len: int, opts: SearchOptions = SearchOptions()) -> set[str]:
    """All words of length <= max_len that `accepts` accepts within the
    budgets.  Raises BudgetExceeded (carrying the partial result) if the
    search of any word would be cut off rather than exhausted; it lists
    those words by length, each length in itertools.product order.

    On a machine with no `up` row, without proper_only, the words come
    first from entry/exit summaries over the trie of every word up to
    max_len (`_trie_words`): each fact is derived once, at the node of the
    word it has read, and the root's accepting exit at a node is that
    word's least run.  A witness stands when it fits the budgets of its
    word's length.  A word without one is rejected when no run prefix on
    the trie's nodes up to its length can reach them, and is a budget
    word when a cycle of openings lies at one of its prefixes.  The witnesses
    are re-executed together through `_execute`, each shared run prefix
    once.  Otherwise, or on any other machine or options, one
    breadth-first walk over (configuration, read prefix) pairs runs, with
    every word up to max_len as a target, each under the budgets of its
    own length: `_search` in walk mode.  A prefix that no configuration
    reaches prunes all its words, and the accepted words' witnesses are
    re-executed by `_Walk.witnesses`, each shared run prefix once.  The walk
    holds the configurations of all live prefixes at once and grows
    faster than the words: on wpz, about 8x in time for each two letters
    against the trie's 4x.
    """
    if max_len < 0:
        return set()
    rows = search_rows(tsa)
    if rows.up_free and not opts.proper_only:
        answer = _trie_words(tsa, rows, max_len, opts)
        if answer is not None:
            runs, budget_words = answer
            found = set(_execute(tsa, runs))
            if budget_words:
                raise BudgetExceeded(found, budget_words)
            return found
    walk = _Walk(tsa, opts, max_len)
    _search(tsa, rows, None, opts, walk)
    found = set(walk.witnesses(tsa))
    budget_words = walk.budget_words(tsa.alphabet, found)
    if budget_words:
        raise BudgetExceeded(found, budget_words)
    return found


def accepts_each(tsa: Tsa, words: Iterable[str],
                 opts: SearchOptions = SearchOptions()) -> dict[str, RunTrace | NotFound]:
    """`accepts(tsa, w, opts)` for every word w of `words`, from one
    breadth-first walk over (configuration, read prefix) pairs whose
    reading steps follow the prefixes of the words: `_search` in walk
    mode, each word under the budgets of its own length.  The witnesses
    are re-executed by `_Walk.witnesses`, each shared run prefix once, so
    witnesses with a common prefix share its Configurations.  The walk
    holds the configurations of all live prefixes at once, so it needs
    more memory than one search per word, less what the words' shared
    prefixes share."""
    words = list(dict.fromkeys(words))
    if not words:
        return {}
    walk = _Walk(tsa, opts, max(map(len, words)), words)
    _search(tsa, search_rows(tsa), None, opts, walk)
    found = walk.witnesses(tsa)
    return {w: found[w] if w in found else NotFound("budget" if walk.was_cut(w) else "exhausted")
            for w in words}


def visited_from_below_counts(trace: RunTrace) -> dict[Address, int]:
    """How many times the run entered each address from its parent: the
    steps that lengthen the pointer address (push or up), counted by the
    address entered, in address order."""
    rho = [c.ts.pointer for c in trace.configurations()]
    return dict(sorted(Counter(b for a, b in zip(rho, rho[1:]) if len(b) > len(a)).items()))


def is_k_restricted(trace: RunTrace, k: int) -> bool:
    return all(c <= k for c in visited_from_below_counts(trace).values())


def is_accepting_run(trace: RunTrace, opts: SearchOptions = SearchOptions()) -> bool:
    """Whether this run is one that `accepts` may return under opts, budgets aside."""
    final = trace.final()
    return (final.pos == len(trace.word) and final.state in trace.tsa.finals
            and (opts.accept_mode == "any" or final.ts.pointer == ROOT)
            and (opts.k is None or is_k_restricted(trace, opts.k))
            and (not opts.proper_only or is_proper(trace)))


@dataclass(frozen=True)
class Degree:
    """The child indices that a TSA's pushes use, and their number."""

    delta_set: frozenset[int]
    value: int


def degree(tsa: Tsa) -> Degree:
    """Distinct child indices used by push instructions; D bounds out-degree."""
    idx = frozenset(t.instr.n for t in tsa.delta if t.instr.kind == "push")
    return Degree(idx, len(idx))


def normalize_child_indices(tsa: Tsa) -> Tsa:
    """Remap push/up indices order-preservingly onto [1, D] so that the
    largest index used equals the degree.  An `up n` whose n no push uses
    can never fire; it is dropped, since after the renumbering a push may
    use that n.  The language is unchanged."""
    deg = degree(tsa)
    mapping = {old: rank for rank, old in enumerate(sorted(deg.delta_set), start=1)}
    new_delta = []
    for t in tsa.delta:
        if t.instr.kind not in ("push", "up"):
            new_delta.append(t)
        elif t.instr.n in mapping:
            new_delta.append(replace(t, instr=replace(t.instr, n=mapping[t.instr.n])))
    return replace(tsa, delta=tuple(new_delta))


def _compose_stationary(t1: Transition, t2: Transition) -> Transition | None:
    """The one stationary eps-transition that does t1 then t2, or None when
    the pair never fires.  t2 tests the label t1 leaves behind: the label t1
    sets, or else the label t1 tested (unknown after `true` with `id`).  The
    composite tests t1's predicate, or t2's when t1 runs `id` under `true`,
    and runs t2's instruction when that sets a label, else t1's.  A
    composite that sets a label under `eq @` is None too: `set` fails at
    the root."""
    left = t1.instr.label if t1.instr.kind == "set" else t1.pred.label
    if t2.pred.kind == "eq" and left is not None and left != t2.pred.label:
        return None
    free = t1.pred.kind == "true" and t1.instr.kind == "id"
    pred = t2.pred if free else t1.pred
    instr = t2.instr if t2.instr.kind == "set" else t1.instr
    if pred.label == ROOT_LABEL and instr.kind == "set":
        return None
    return Transition(t1.src, None, pred, instr, t2.dst)


def standardise(tsa: Tsa) -> Tsa:
    """Close delta under composition of stationary eps-transition pairs.

    Only adds transitions (in deterministic discovery order), so the
    language is unchanged; idempotent by construction.
    """
    delta = list(tsa.delta)
    have = {t.core() for t in delta}
    changed = True
    while changed:
        changed = False
        for t1 in list(delta):
            if not t1.is_stationary_eps():
                continue
            for t2 in list(delta):
                if not t2.is_stationary_eps() or t1.dst != t2.src:
                    continue
                t3 = _compose_stationary(t1, t2)
                if t3 is not None and t3.core() not in have:
                    delta.append(t3)
                    have.add(t3.core())
                    changed = True
    return replace(tsa, delta=tuple(delta))


def is_proper(trace: RunTrace) -> bool:
    """No two consecutive steps may both be stationary eps-transitions."""
    prev = False
    for tidx in trace.transition_indices():
        stat = trace.tsa.delta[tidx].is_stationary_eps()
        if stat and prev:
            return False
        prev = stat
    return True


def make_root_accepting(tsa: Tsa) -> Tsa:
    """Append drain states so acceptance requires the pointer at the root.

    For each final f: f -eps-> f_dn, f_dn -eps,down-> f_dn,
    f_dn -eps,eq(@)-> f_ok; the new finals are the f_ok states.  Only
    down/id transitions are added, so visit-from-below counts are unchanged
    and the root-mode language equals the old any-mode language.
    """
    names = Names(tsa.states)
    delta = list(tsa.delta)
    new_finals = []
    for f in sorted(tsa.finals):
        dn = names.new(f + "_dn")
        ok = names.new(f + "_ok")
        delta.append(Transition(f, None, PRED_TRUE, instr_id(), dn))
        delta.append(Transition(dn, None, PRED_TRUE, instr_down(), dn))
        delta.append(Transition(dn, None, pred_eq(ROOT_LABEL), instr_id(), ok))
        new_finals.append(ok)
    return Tsa((*tsa.states, *names.added), tsa.labels, tsa.alphabet, tsa.initial,
               tuple(delta), frozenset(new_finals))


# ---------------------------------------------------------------------------
# file format


def _parse_instruction(tokens: list[str], labels: set[str], line: int) -> Instruction:
    kind = tokens[0]
    if kind == "id" and len(tokens) == 1:
        return instr_id()
    if kind == "down" and len(tokens) == 1:
        return instr_down()
    if kind == "up" and len(tokens) == 2:
        n = _parse_index(tokens[1], line)
        return instr_up(n)
    if kind == "push" and len(tokens) == 3:
        n = _parse_index(tokens[1], line)
        if tokens[2] not in labels:
            raise UnknownLabel(f"unknown label {tokens[2]!r}", line)
        return instr_push(n, tokens[2])
    if kind == "set" and len(tokens) == 2:
        if tokens[1] not in labels:
            raise UnknownLabel(f"unknown label {tokens[1]!r}", line)
        return instr_set(tokens[1])
    raise ParseError(f"bad instruction {' '.join(tokens)!r}", line)


def _parse_index(tok: str, line: int) -> int:
    try:
        n = int(tok)
    except ValueError:
        raise BadIndex(f"bad index {tok!r}", line) from None
    if n < 1:
        raise BadIndex(f"index must be >= 1, got {n}", line)
    return n


def read_sections(text: str, header: str) -> list[tuple[int, str, str, str | None]]:
    """The reader shared by the line-based file formats: a header line,
    then `key: rest` lines; '#' starts a comment.  Returns (line number,
    key, rest, comment or None) per line."""
    out = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw, _, comment = raw.partition("#")
        line = raw.strip()
        if not line:
            continue
        if not saw_header:
            if line != header:
                raise ParseError(f"expected '{header}' header", lineno)
            saw_header = True
        elif ":" not in line:
            raise ParseError(f"expected 'key: ...', got {line!r}", lineno)
        else:
            key, rest = line.split(":", 1)
            out.append((lineno, key.strip(), rest, comment.strip() or None))
    if not saw_header:
        raise ParseError(f"missing '{header}' header", 1)
    return out


def read_machine(text: str, header: str, extra: tuple[str, ...] = (), letters: bool = True):
    """The sections the TSA, PDA and FSA formats share.  Returns (lists,
    initial, trans): lists maps states, final, alphabet and each extra key
    (labels, stack; '@' is implicit there) to its tokens.  A second initial
    line, or a state, symbol or letter declared twice, is refused, and the
    initial and final states are checked against the declared ones; with
    `letters`, alphabet symbols must be single characters.  trans yields
    (line, src, inp, middle tokens, dst, name) per transition, inp None for
    eps and name the line's comment, checking each line as it goes, so that
    errors come in file order: at least three tokens, a declared source and
    target, and an input that is eps or an alphabet letter."""
    lists: dict[str, list[str]] = {key: [] for key in ("states", "final", "alphabet", *extra)}
    named: list[tuple[int, str]] = []  # (line, state) for initial and finals
    initial = None
    raw_trans = []
    for lineno, key, rest, comment in read_sections(text, header):
        toks = rest.split()
        if key == "trans":
            raw_trans.append((lineno, toks, comment))
        elif key == "initial":
            if len(toks) != 1:
                raise ParseError("initial takes one state", lineno)
            if initial is not None:
                raise ParseError("initial is declared twice", lineno)
            initial = toks[0]
            named.append((lineno, initial))
        elif key not in lists:
            raise ParseError(f"unknown section {key!r}", lineno)
        elif key in extra and ROOT_LABEL in toks:
            raise ParseError(f"{ROOT_LABEL} is implicit and cannot be declared in {key}", lineno)
        elif key == "alphabet" and letters and (long := [tok for tok in toks if len(tok) != 1]):
            raise ParseError(f"alphabet letters must be single characters, got {long[0]!r}", lineno)
        elif key == "final":
            lists[key].extend(toks)
            named += [(lineno, q) for q in toks]
        else:
            for tok in toks:
                if tok in lists[key]:
                    raise ParseError(f"{tok!r} is declared twice in {key}", lineno)
                lists[key].append(tok)
    if initial is None:
        raise ParseError("missing initial state", 1)
    states = set(lists["states"])
    for lineno, q in named:
        if q not in states:
            raise UnknownState(f"unknown state {q!r}", lineno)

    def transitions():
        for lineno, toks, name in raw_trans:
            if len(toks) < 3:
                raise ParseError("transition needs: src input ... dst", lineno)
            src, inp, *mid, dst = toks
            for q in (src, dst):
                if q not in states:
                    raise UnknownState(f"unknown state {q!r}", lineno)
            if inp != "eps" and inp not in lists["alphabet"]:
                raise ParseError(f"input letter {inp!r} not in alphabet", lineno)
            yield lineno, src, None if inp == "eps" else inp, mid, dst, name
    return lists, initial, transitions()


def render_machine(machine, header: str, extra: tuple[str, tuple[str, ...]], middle, parse) -> str:
    """The writer of the TSA and PDA formats: the header, the shared
    sections with the `extra` (key, symbols) section before the alphabet,
    and one trans line per transition, `middle(t)` between its input and
    its target and its name as a trailing comment.  The text is read back
    with `parse`; a machine that does not read back equal raises
    InputError rather than changing on the way back in."""
    key, symbols = extra
    lines = [header,
             "states: " + " ".join(machine.states),
             "initial: " + machine.initial,
             "final: " + " ".join(sorted(machine.finals)),
             f"{key}: " + " ".join(symbols),
             "alphabet: " + " ".join(machine.alphabet)]
    for t in machine.delta:
        inp = t.inp if t.inp is not None else "eps"
        name = f"  # {t.name}" if t.name is not None else ""
        lines.append(f"trans: {t.src} {inp} {middle(t)} {t.dst}{name}")
    text = "\n".join(lines) + "\n"
    try:
        problem = None if parse(text) == machine else "it reads back as a different machine"
    except ParseError as e:
        problem = str(e)
    if problem:
        raise InputError(f"this {header} cannot be written to a machine file: {problem}")
    return text


def parse_tsa(text: str) -> Tsa:
    """Parse the line-based TSA file format (see the README); '#' starts a
    comment, and a trailing comment on a trans line names the transition."""
    lists, initial, raw_trans = read_machine(text, "tsa", extra=("labels",))
    states, labels, alphabet, finals = (lists[k] for k in ("states", "labels", "alphabet", "final"))
    label_set = set(labels)
    delta = []
    for lineno, src, inp, mid, dst, name in raw_trans:
        if not mid:
            raise ParseError("transition needs: src input pred instr dst", lineno)
        if mid[0] == "true":
            pred = PRED_TRUE
            instr_toks = mid[1:]
        elif mid[0] == "eq" and len(mid) >= 2:
            lab = mid[1]
            if lab != ROOT_LABEL and lab not in label_set:
                raise UnknownLabel(f"unknown label {lab!r}", lineno)
            pred = pred_eq(lab)
            instr_toks = mid[2:]
        else:
            raise ParseError(f"bad predicate {mid[0]!r}", lineno)
        if not instr_toks:
            raise ParseError("missing instruction", lineno)
        instr = _parse_instruction(instr_toks, label_set, lineno)
        delta.append(Transition(src, inp, pred, instr, dst, name=name))

    return Tsa(tuple(states), tuple(labels), tuple(alphabet), initial,
               tuple(delta), frozenset(finals))


def render_tsa(tsa: Tsa) -> str:
    """Serialise a Tsa in the file format; parse_tsa(render_tsa(a)) == a,
    and a Tsa the format cannot carry raises InputError."""
    return render_machine(tsa, "tsa", ("labels", tsa.labels),
                          lambda t: f"{t.pred} {t.instr}", parse_tsa)
