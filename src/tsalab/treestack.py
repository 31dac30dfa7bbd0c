"""Tree stacks: rooted labelled trees with a pointer, plus the five
partial instructions (id, push, up, down, set) and the two predicates
(true, eq) that drive a tree stack automaton, and a PDA's pop.

Addresses are tuples of positive ints; the root is the empty tuple.
The root label is the reserved symbol ``@`` and never occurs elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

Address = tuple[int, ...]

ROOT: Address = ()
ROOT_LABEL = "@"


class InputError(ValueError):
    """The caller's input cannot be used: a malformed file, or a machine,
    run, vertex or parameter outside a tool's side conditions.  The CLI
    turns it into one `tsalab: ...` line and exit 3; every other exception
    is a bug or an internal signal and propagates."""


class TreeStackError(Exception):
    """An instruction or query was not applicable to this tree stack."""


class PushTargetExists(TreeStackError):
    pass


class UpTargetMissing(TreeStackError):
    pass


class PointerAtRoot(TreeStackError):
    pass


@dataclass(frozen=True)
class Instruction:
    """One of id / push_n(c) / up_n / down / set(c), or a PDA's pop: down,
    deleting the leaf it leaves (`Tsa` refuses it).

    ``n`` is the child index (>= 1) for push/up, ``label`` the new label
    for push/set; unused fields are None.
    """

    kind: str  # "id" | "push" | "up" | "down" | "set" | "pop"
    n: int | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("id", "push", "up", "down", "set", "pop"):
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.kind in ("push", "up"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} needs a child index >= 1")
        if self.kind in ("push", "set"):
            if self.label is None or self.label == ROOT_LABEL:
                raise ValueError(f"{self.kind} needs a non-root label")

    def __str__(self):
        if self.kind == "push":
            return f"push {self.n} {self.label}"
        if self.kind == "up":
            return f"up {self.n}"
        if self.kind == "set":
            return f"set {self.label}"
        return self.kind


def instr_id() -> Instruction:
    return Instruction("id")


def instr_push(n: int, label: str) -> Instruction:
    return Instruction("push", n=n, label=label)


def instr_up(n: int) -> Instruction:
    return Instruction("up", n=n)


def instr_down() -> Instruction:
    return Instruction("down")


def instr_set(label: str) -> Instruction:
    return Instruction("set", label=label)


@dataclass(frozen=True)
class Predicate:
    """``true`` or ``eq(label)``; eq may test the root label ``@``."""

    kind: str  # "true" | "eq"
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("true", "eq"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.kind == "eq" and self.label is None:
            raise ValueError("eq needs a label")

    def __str__(self):
        return "true" if self.kind == "true" else f"eq {self.label}"


PRED_TRUE = Predicate("true")


def pred_eq(label: str) -> Predicate:
    return Predicate("eq", label=label)


class TreeStack:
    """Immutable tree stack: a finite prefix-closed address->label map
    plus a pointer into it.  All operations return new values.

    Held as a persistent zipper focused at the pointer (Huet 1997, *The
    Zipper*): the pointer's label, its children as child index ->
    (label, children), and a context, None at the root and otherwise the
    list [parent context, parent label, parent children, hole index,
    address or None].  The parent's children may hold a stale entry at the
    hole, which `down` replaces and `pop` drops.  No child map is ever
    mutated once built, so tree stacks share them freely.  So `ts_apply`,
    `pointer_label` and `len` cost the same at any depth.  `dom` and
    `key()` are built on each call; the pointer address is built once per
    context and cached in its last slot, so a run's pointer path costs one
    tuple per push or up.
    """

    __slots__ = ("_label", "_kids", "_ctx", "_size")

    def __init__(self, dom: Mapping[Address, str], pointer: Address):
        _validate(dom, pointer)
        kids: dict[Address, dict] = {a: {} for a in dom}
        for a, label in dom.items():
            if a != ROOT:
                kids[a[:-1]][a[-1]] = (label, kids[a])
        label, ctx = ROOT_LABEL, None
        for j, i in enumerate(pointer, start=1):
            ctx = [ctx, label, kids[pointer[:j - 1]], i, pointer[:j]]
            label = dom[pointer[:j]]
        self._label, self._kids, self._ctx, self._size = label, kids[pointer], ctx, len(dom)

    @property
    def dom(self) -> dict[Address, str]:
        """Address -> label; built on each call."""
        return self._build_dom()

    def _root(self) -> tuple[str, dict]:
        """The root's (label, children), the focus written back into each
        parent on the way up."""
        label, kids, c = self._label, self._kids, self._ctx
        while c is not None:
            kids = {**c[2], c[3]: (label, kids)}
            label, c = c[1], c[0]
        return label, kids

    def _build_dom(self) -> dict[Address, str]:
        dom = {}
        todo = [(ROOT, *self._root())]
        while todo:
            a, label, kids = todo.pop()
            dom[a] = label
            todo += [(a + (i,), *node) for i, node in kids.items()]
        return dom

    @property
    def pointer(self) -> Address:
        c = self._ctx
        if c is None:
            return ROOT
        return c[4] or _address(c)

    @property
    def pointer_label(self) -> str:
        return self._label

    def label_at(self, addr: Address) -> str:
        """The label at addr, KeyError if addr is not in the domain.  It
        climbs from the focus to the deepest common ancestor of addr and
        the pointer, then descends to addr, so it costs the depth of the
        two addresses and never builds `dom`.  The only stale entry in a
        context's children is at its hole, which the descent never takes:
        it leaves the ancestor by an index other than the pointer's."""
        pointer = self.pointer
        k = 0
        for i, j in zip(addr, pointer):
            if i != j:
                break
            k += 1
        label, kids, c = self._label, self._kids, self._ctx
        for _ in range(len(pointer) - k):
            label, kids, c = c[1], c[2], c[0]
        for i in addr[k:]:
            label, kids = kids[i]
        return label

    def key(self):
        """Canonical hashable form, compared by `==` and `hash`; built on
        each call.  The tree in preorder, children by index, each vertex
        as (child index, label, child count), the root's index 0;
        then the pointer.  It builds no address but the pointer's, so it
        costs the same per vertex whatever the depth of the tree."""
        out = []
        todo = [(0, *self._root())]
        while todo:
            i, label, kids = todo.pop()
            out += (i, label, len(kids))
            while kids:  # down the first child; its siblings wait on the stack
                if len(kids) > 1:
                    first, *rest = sorted(kids)
                    todo += [(j, *kids[j]) for j in reversed(rest)]
                else:
                    (first,) = kids
                label, kids = kids[first]
                out += (first, label, len(kids))
        return tuple(out), self.pointer

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, TreeStack) and self._size == other._size
                and self._label == other._label and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __len__(self):
        return self._size

    def __repr__(self):
        return f"TreeStack({render_tree_stack(self)})"


def _validate(dom: Mapping[Address, str], pointer: Address) -> None:
    if ROOT not in dom or dom[ROOT] != ROOT_LABEL:
        raise ValueError("root must be present and labelled @")
    for addr, label in dom.items():
        if addr != ROOT and label == ROOT_LABEL:
            raise ValueError(f"non-root vertex {addr} labelled @")
        if any(i < 1 for i in addr):
            raise ValueError(f"address {addr} has an index < 1")
        if addr != ROOT and addr[:-1] not in dom:
            raise ValueError(f"domain not prefix-closed at {addr}")
    if pointer not in dom:
        raise ValueError(f"pointer {pointer} not in domain")


def _address(ctx: list) -> Address:
    """The address of a context's hole, built from the nearest ancestor
    context that has its address and cached in every context on the way."""
    chain = []
    while ctx is not None and ctx[4] is None:
        chain.append(ctx)
        ctx = ctx[0]
    a = ROOT if ctx is None else ctx[4]
    for ctx in reversed(chain):
        a = ctx[4] = a + (ctx[3],)
    return a


_NO_KIDS: dict = {}  # a new leaf's children; never mutated
_new = object.__new__


def _zipper(label: str, kids: dict, ctx: list | None, size: int) -> TreeStack:
    ts = _new(TreeStack)
    ts._label, ts._kids, ts._ctx, ts._size = label, kids, ctx, size
    return ts


def ts_init() -> TreeStack:
    """The initial tree stack: a lone root with the pointer on it."""
    return TreeStack({ROOT: ROOT_LABEL}, ROOT)


def ts_apply(ts: TreeStack, instr: Instruction) -> TreeStack:
    """Apply one instruction, returning a new tree stack.

    Raises PushTargetExists / UpTargetMissing / PointerAtRoot when the
    partial function is undefined, and TreeStackError for a pop at a vertex
    with children: the one applicability rule (`tsa.step` turns them into
    NotApplicable).  Only pop removes a vertex.  Each case reads only the
    focus's children and the context: a push or up opens a context, a down
    writes the focus back into its parent's child map (a new map only when
    the focus changed since it was opened), and a pop leaves the focus out
    of it.
    """
    k = instr.kind
    if k == "id":
        return ts
    if k == "push":
        n = instr.n
        if n in ts._kids:
            raise PushTargetExists(f"push target {ts.pointer + (n,)} already exists")
        return _zipper(instr.label, _NO_KIDS, [ts._ctx, ts._label, ts._kids, n, None], ts._size + 1)
    if k == "up":
        n = instr.n
        child = ts._kids.get(n)
        if child is None:
            raise UpTargetMissing(f"up target {ts.pointer + (n,)} missing")
        return _zipper(child[0], child[1], [ts._ctx, ts._label, ts._kids, n, None], ts._size)
    c = ts._ctx
    if c is None:
        raise PointerAtRoot(f"{k} at the root")
    if k == "down":
        kids, hole = c[2], c[3]
        old = kids.get(hole)
        if old is None or old[1] is not ts._kids or old[0] != ts._label:
            kids = {**kids, hole: (ts._label, ts._kids)}
        return _zipper(c[1], kids, c[0], ts._size)
    if k == "pop":
        if ts._kids:
            raise TreeStackError(f"pop at {ts.pointer}, which has children")
        kids, hole = c[2], c[3]
        if hole in kids:  # the stale entry an up left
            kids = {i: child for i, child in kids.items() if i != hole}
        return _zipper(c[1], kids, c[0], ts._size - 1)
    # set
    return _zipper(instr.label, ts._kids, c, ts._size)


def pred_eval(ts: TreeStack, pred: Predicate) -> bool:
    return pred.kind == "true" or ts._label == pred.label


def format_address(addr: Address) -> str:
    return "eps" if addr == ROOT else ".".join(str(i) for i in addr)


def parse_address(text: str) -> Address:
    """Inverse of format_address; accepts e.g. ``eps``, ``1``, ``1.2.14``."""
    if text == "eps":
        return ROOT
    try:
        parts = tuple(int(p) for p in text.split("."))
    except ValueError:
        raise InputError(f"bad address {text!r}") from None
    if any(i < 1 for i in parts) or not parts:
        raise InputError(f"bad address {text!r}")
    return parts


def render_tree_stack(ts: TreeStack) -> str:
    """Canonical text form ``(addr=LABEL, ...; ptr=addr)``, entries sorted
    lexicographically by path.  Golden-trace tests rely on this byte for byte."""
    entries = ", ".join(
        f"{format_address(a)}={label}" for a, label in sorted(ts.dom.items())
    )
    return f"({entries}; ptr={format_address(ts.pointer)})"
