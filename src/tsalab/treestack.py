"""Tree stacks: rooted labelled trees with a pointer, plus the five
partial instructions (id, push, up, down, set) and the two predicates
(true, eq) that drive a tree stack automaton.

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
    """One of id / push_n(c) / up_n / down / set(c).

    ``n`` is the child index (>= 1) for push/up, ``label`` the new label
    for push/set; unused fields are None.
    """

    kind: str  # "id" | "push" | "up" | "down" | "set"
    n: int | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("id", "push", "up", "down", "set"):
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
    plus a pointer into it.  All mutating operations return new values.
    """

    __slots__ = ("dom", "pointer", "_key")

    def __init__(self, dom: Mapping[Address, str], pointer: Address):
        object.__setattr__(self, "dom", dict(dom))
        object.__setattr__(self, "pointer", pointer)
        object.__setattr__(self, "_key", None)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("TreeStack is immutable")

    def _validate(self):
        if ROOT not in self.dom or self.dom[ROOT] != ROOT_LABEL:
            raise ValueError("root must be present and labelled @")
        for addr, label in self.dom.items():
            if addr != ROOT and label == ROOT_LABEL:
                raise ValueError(f"non-root vertex {addr} labelled @")
            if any(i < 1 for i in addr):
                raise ValueError(f"address {addr} has an index < 1")
            if addr != ROOT and addr[:-1] not in self.dom:
                raise ValueError(f"domain not prefix-closed at {addr}")
        if self.pointer not in self.dom:
            raise ValueError(f"pointer {self.pointer} not in domain")

    def key(self):
        """Canonical hashable form, used for search memoisation."""
        k = self._key
        if k is None:
            k = (tuple(sorted(self.dom.items())), self.pointer)
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other):
        return isinstance(other, TreeStack) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def label_at(self, addr: Address) -> str:
        return self.dom[addr]

    @property
    def pointer_label(self) -> str:
        return self.dom[self.pointer]

    def __len__(self):
        return len(self.dom)

    def __repr__(self):
        return f"TreeStack({render_tree_stack(self)})"

    def _moved(self, pointer: Address) -> "TreeStack":
        ts = TreeStack.__new__(TreeStack)
        object.__setattr__(ts, "dom", self.dom)  # shared: moves never mutate
        object.__setattr__(ts, "pointer", pointer)
        object.__setattr__(ts, "_key", None)
        return ts

    def _rewritten(self, addr: Address, label: str, pointer: Address) -> "TreeStack":
        dom = dict(self.dom)
        dom[addr] = label
        ts = TreeStack.__new__(TreeStack)
        object.__setattr__(ts, "dom", dom)
        object.__setattr__(ts, "pointer", pointer)
        object.__setattr__(ts, "_key", None)
        return ts


def ts_init() -> TreeStack:
    """The initial tree stack: a lone root with the pointer on it."""
    return TreeStack({ROOT: ROOT_LABEL}, ROOT)


def ts_apply(ts: TreeStack, instr: Instruction) -> TreeStack:
    """Apply one instruction, returning a new tree stack.

    Raises PushTargetExists / UpTargetMissing / PointerAtRoot when the
    partial function is undefined, the one applicability rule (`tsa.step`
    turns them into NotApplicable); no instruction ever removes a vertex.
    """
    k = instr.kind
    if k == "id":
        return ts
    if k == "push":
        target = ts.pointer + (instr.n,)
        if target in ts.dom:
            raise PushTargetExists(f"push target {target} already exists")
        return ts._rewritten(target, instr.label, target)
    if k == "up":
        target = ts.pointer + (instr.n,)
        if target not in ts.dom:
            raise UpTargetMissing(f"up target {target} missing")
        return ts._moved(target)
    if k == "down":
        if ts.pointer == ROOT:
            raise PointerAtRoot("down at the root")
        return ts._moved(ts.pointer[:-1])
    # set
    if ts.pointer == ROOT:
        raise PointerAtRoot("set at the root")
    return ts._rewritten(ts.pointer, instr.label, ts.pointer)


def pred_eval(ts: TreeStack, pred: Predicate) -> bool:
    if pred.kind == "true":
        return True
    return ts.pointer_label == pred.label


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
