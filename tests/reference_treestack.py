"""The dict-of-addresses tree stack that `treestack.TreeStack`'s zipper
replaced, kept as the slow-path reference for the differential tests.

A tree stack is a dict from address tuples to labels plus a pointer
address.  Every step hashes the pointer's address, as long as the tree is
deep, and every push, set or pop copies the whole dict.  `ref_ts_apply`
raises the library's `PushTargetExists`, `UpTargetMissing` and
`PointerAtRoot`, and a plain `TreeStackError` for a pop at a vertex with
children, where the instruction does not apply.
"""

from __future__ import annotations

from tsalab.treestack import (
    ROOT,
    ROOT_LABEL,
    Address,
    Instruction,
    PointerAtRoot,
    PushTargetExists,
    TreeStackError,
    UpTargetMissing,
)


class RefTreeStack:
    __slots__ = ("dom", "pointer")

    def __init__(self, dom: dict[Address, str], pointer: Address):
        self.dom = dom
        self.pointer = pointer

    @property
    def pointer_label(self) -> str:
        return self.dom[self.pointer]

    def label_at(self, addr: Address) -> str:
        return self.dom[addr]

    def key(self):
        return (tuple(sorted(self.dom.items())), self.pointer)

    def __len__(self):
        return len(self.dom)


def ref_ts_init() -> RefTreeStack:
    return RefTreeStack({ROOT: ROOT_LABEL}, ROOT)


def ref_ts_apply(ts: RefTreeStack, instr: Instruction) -> RefTreeStack:
    k = instr.kind
    if k == "id":
        return ts
    if k == "push":
        target = ts.pointer + (instr.n,)
        if target in ts.dom:
            raise PushTargetExists(f"push target {target} already exists")
        return RefTreeStack({**ts.dom, target: instr.label}, target)
    if k == "up":
        target = ts.pointer + (instr.n,)
        if target not in ts.dom:
            raise UpTargetMissing(f"up target {target} missing")
        return RefTreeStack(ts.dom, target)
    if ts.pointer == ROOT:
        raise PointerAtRoot(f"{k} at the root")
    if k == "down":
        return RefTreeStack(ts.dom, ts.pointer[:-1])
    if k == "pop":
        if any(a[:-1] == ts.pointer for a in ts.dom if a):
            raise TreeStackError(f"pop at {ts.pointer}, which has children")
        dom = dict(ts.dom)
        del dom[ts.pointer]
        return RefTreeStack(dom, ts.pointer[:-1])
    return RefTreeStack({**ts.dom, ts.pointer: instr.label}, ts.pointer)  # set
