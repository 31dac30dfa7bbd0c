import pytest
from hypothesis import given, strategies as st

from reference_treestack import ref_ts_apply, ref_ts_init

from tsalab.treestack import (
    ROOT,
    PointerAtRoot,
    PushTargetExists,
    TreeStack,
    TreeStackError,
    UpTargetMissing,
    format_address,
    instr_down,
    instr_id,
    instr_push,
    instr_set,
    instr_up,
    parse_address,
    pred_eq,
    pred_eval,
    PRED_TRUE,
    render_tree_stack,
    ts_apply,
    ts_init,
)


def test_init_is_forced():
    ts = ts_init()
    assert ts.dom == {ROOT: "@"}
    assert ts.pointer == ROOT


def test_push_moves_pointer():
    ts = ts_apply(ts_init(), instr_push(1, "*"))
    assert ts.dom == {ROOT: "@", (1,): "*"}
    assert ts.pointer == (1,)


def test_down_at_root_fails():
    with pytest.raises(PointerAtRoot):
        ts_apply(ts_init(), instr_down())
    with pytest.raises(PointerAtRoot):
        ts_apply(ts_init(), instr_set("*"))


def test_figure_tree_down():
    # the five-vertex example tree, pointer at 1.4; down lands on 1
    dom = {ROOT: "@", (1,): "*", (1, 4): "#", (1, 6): "+", (3,): "+"}
    ts = TreeStack(dom, (1, 4))
    out = ts_apply(ts, instr_down())
    assert out.dom == dom and out.pointer == (1,)


def test_id_is_identity():
    ts = ts_apply(ts_init(), instr_push(2, "x"))
    assert ts_apply(ts, instr_id()) == ts


def test_set_then_push():
    ts = ts_apply(ts_init(), instr_push(1, "*"))
    ts = ts_apply(ts, instr_set("#"))
    assert ts.dom[(1,)] == "#" and ts.pointer == (1,)
    ts = ts_apply(ts, instr_push(1, "*"))
    assert ts.dom == {ROOT: "@", (1,): "#", (1, 1): "*"}
    assert ts.pointer == (1, 1)


def test_push_collision_and_up_missing():
    ts = ts_apply(ts_init(), instr_push(1, "*"))
    ts = ts_apply(ts, instr_down())
    with pytest.raises(PushTargetExists):
        ts_apply(ts, instr_push(1, "#"))
    with pytest.raises(UpTargetMissing):
        ts_apply(ts, instr_up(2))
    assert ts_apply(ts, instr_up(1)).pointer == (1,)


def test_pred_eval():
    ts = ts_apply(ts_init(), instr_push(1, "*"))
    assert pred_eval(ts, pred_eq("*"))
    assert pred_eval(ts, PRED_TRUE)
    assert not pred_eval(ts, pred_eq("#"))
    down = ts_apply(ts, instr_down())
    assert not pred_eval(down, pred_eq("*"))
    assert pred_eval(down, pred_eq("@"))


def test_exactly_one_eq_holds():
    ts = ts_apply(ts_init(), instr_push(1, "*"))
    labels = ["@", "*", "#"]
    assert sum(pred_eval(ts, pred_eq(x)) for x in labels) == 1


def test_address_rendering():
    assert format_address(ROOT) == "eps"
    assert format_address((1, 2, 14)) == "1.2.14"
    assert parse_address("eps") == ROOT
    assert parse_address("1.2.14") == (1, 2, 14)
    with pytest.raises(ValueError):
        parse_address("0.1")


def test_canonical_rendering():
    ts = ts_apply(ts_init(), instr_push(1, "STAR"))
    ts = ts_apply(ts, instr_push(1, "HASH"))
    assert render_tree_stack(ts) == "(eps=@, 1=STAR, 1.1=HASH; ptr=1.1)"


def test_validation_rejects_bad_trees():
    with pytest.raises(ValueError):
        TreeStack({ROOT: "@", (2,): "@"}, ROOT)  # @ off the root
    with pytest.raises(ValueError):
        TreeStack({ROOT: "@", (1, 1): "x"}, ROOT)  # not prefix-closed
    with pytest.raises(ValueError):
        TreeStack({ROOT: "@"}, (1,))  # pointer outside the domain


# random instruction walks keep the structural invariants

_instr = st.one_of(
    st.just(instr_id()),
    st.just(instr_down()),
    st.builds(instr_push, st.integers(1, 3), st.sampled_from(["x", "y"])),
    st.builds(instr_up, st.integers(1, 3)),
    st.builds(instr_set, st.sampled_from(["x", "y"])),
)


@given(st.lists(_instr, max_size=40))
def test_instruction_walk_invariants(instrs):
    ts = ts_init()
    size = len(ts)
    for ins in instrs:
        try:
            nxt = ts_apply(ts, ins)
        except TreeStackError:
            continue
        assert nxt.dom[ROOT] == "@"
        assert all(lab != "@" for a, lab in nxt.dom.items() if a != ROOT)
        assert all(a == ROOT or a[:-1] in nxt.dom for a in nxt.dom)
        assert nxt.pointer in nxt.dom
        # vertices are never removed; only push adds one
        assert set(ts.dom) <= set(nxt.dom)
        assert len(nxt) == size + (1 if ins.kind == "push" else 0)
        size = len(nxt)
        ts = nxt


@given(st.integers(1, 3), st.sampled_from(["x", "y"]))
def test_push_down_restores_pointer(n, c):
    ts = ts_apply(ts_init(), instr_push(1, "x"))  # the pointer is on a leaf, so any push applies
    there = ts_apply(ts, instr_push(n, c))
    back = ts_apply(there, instr_down())
    assert back.pointer == ts.pointer
    assert there.pointer in back.dom


# the zipper against the dict-of-addresses reference it replaced

MAX_DEPTH = 40


def _same(z, ref):
    """The zipper z and the reference agree on everything a caller reads."""
    assert z.dom == ref.dom
    assert z.pointer == ref.pointer
    assert z.pointer_label == ref.pointer_label
    assert len(z) == len(ref)
    assert all(z.label_at(a) == label for a, label in ref.dom.items())
    with pytest.raises(KeyError):
        z.label_at(ref.pointer + (4,))  # child indices are 1-3
    rebuilt = TreeStack(ref.dom, ref.pointer)
    assert z.key() == rebuilt.key() and z == rebuilt and hash(z) == hash(rebuilt)


# each instruction repeated 1-20 times, so that push and up bursts reach depth 40
_bursts = st.lists(st.tuples(_instr, st.integers(1, 20)), max_size=40)


@given(_bursts)
def test_zipper_matches_reference(bursts):
    z, ref = ts_init(), ref_ts_init()
    lazy = ts_init()  # the same steps, read only at the end: no address or dom cached
    prev, prev_key = z, ref.key()
    for ins in (ins for ins, times in bursts for _ in range(times)):
        if ins.kind in ("push", "up") and len(ref.pointer) == MAX_DEPTH:
            continue
        try:
            want = ref_ts_apply(ref, ins)
        except TreeStackError as e:
            with pytest.raises(type(e)):
                ts_apply(z, ins)
            continue
        z, ref, lazy = ts_apply(z, ins), want, ts_apply(lazy, ins)
        _same(z, ref)
        assert (z == prev) == (z.key() == prev.key()) == (ref.key() == prev_key)
        prev, prev_key = z, ref.key()
    _same(lazy, ref)
