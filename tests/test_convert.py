from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import counting_wpz_oracle, words_upto

from tsalab.convert import (
    NotOneTsa,
    Pda,
    box,
    fixture_ks_tsa,
    fixture_wpz_pda,
    fixture_wpz_tsa,
    ks_stuck_prefix,
    parse_pda,
    pda_accepts,
    pda_to_tsa1,
    render_pda,
    tsa1_to_pda,
)
from tsalab.fixtures import abcd_tsa
from tsalab.treestack import (
    PRED_TRUE,
    ROOT_LABEL,
    Instruction,
    TreeStack,
    instr_down,
    instr_id,
    instr_push,
    pred_eq,
    ts_init,
)
from tsalab.tsa import (
    Configuration,
    NotApplicable,
    ParseError,
    ReplayMismatch,
    SearchOptions,
    Transition,
    UnknownState,
    accepts,
    initial_configuration,
    parse_tsa,
    replay,
    step,
    visited_from_below_counts,
)

ANY = SearchOptions(accept_mode="any")


def test_wpz_pda_accepts_example_word():
    pda = fixture_wpz_pda()
    res = pda_accepts(pda, "ttTtTT")
    assert res
    names = [pda.delta[i].name for i in res.transition_indices()]
    assert names == ["t@", "tt", "popt", "tt", "popt", "popt", "fin"]


def test_wpz_pda_accepts_epsilon_via_final_push():
    res = pda_accepts(fixture_wpz_pda(), "")
    assert res and [i for i, _ in res.steps] == [6]  # just the final eps-push


@pytest.mark.parametrize("word, tidxs, reason", [
    ("tT", [0, 1], "input mismatch"),  # tt reads t where the word has T
    ("tT", [0, 2], "PredicateFails"),  # T@ tests eq @, and t is on top
    ("t", [6, 0], "state mismatch"),  # fin leaves q for good
])
def test_pda_replay_refuses_a_step_that_does_not_apply(word, tidxs, reason):
    pda = fixture_wpz_pda()
    assert replay(pda, "tT", [0, 5, 6]).steps == pda_accepts(pda, "tT").steps
    with pytest.raises(ReplayMismatch) as e:
        replay(pda, word, tidxs)
    assert e.value.step_index == 2 and str(e.value) == f"step 2: {reason}"


@pytest.mark.parametrize("bad", [-7, 7], ids=["negative", "len-delta"])
def test_pda_replay_refuses_an_index_outside_delta(bad):
    pda = fixture_wpz_pda()
    assert len(pda.delta) == 7
    for seq, j in (([0, bad, 6], 2), ([bad, 5, 6], 1)):
        with pytest.raises(ReplayMismatch) as e:
            replay(pda, "tT", seq)
        assert str(e.value) == f"step {j}: no transition #{bad + 1}"
    with pytest.raises(ReplayMismatch) as e:  # a step before it that does not apply comes first
        replay(pda, "tT", [1, bad])
    assert str(e.value) == "step 1: PredicateFails"


def test_pda_replay_configs_equal_constructed_ones():
    # `tsa._configurations` fills a trace's Configurations through slot
    # descriptors, past the frozen __init__; they must still be ordinary
    # frozen Configurations, the stack a path TreeStack equal to one built
    # from its addresses
    pda = fixture_wpz_pda()
    res = pda_accepts(pda, "ttTtTT")
    for _, cfg in res.steps:
        made = Configuration(cfg.state, TreeStack(cfg.ts.dom, cfg.ts.pointer), cfg.pos)
        assert cfg == made and hash(cfg) == hash(made) and repr(cfg) == repr(made)
        with pytest.raises(FrozenInstanceError):
            cfg.pos = 0
    assert [len(cfg.ts) for _, cfg in res.steps] == [2, 3, 2, 3, 2, 1, 1]
    assert res.final() == Configuration("qf", ts_init(), 6)
    assert not hasattr(res.final(), "__dict__")


def test_wpz_pda_rejects_unbalanced():
    res = pda_accepts(fixture_wpz_pda(), "tt", max_steps=100)
    assert not res and res.reason == "exhausted"


def test_pda_never_pops_bottom():
    with pytest.raises(ValueError, match="bottom"):
        Pda(("q",), ("t",), ("t",), "q",
            (Transition("q", "t", pred_eq("@"), Instruction("pop"), "q"),), frozenset())
    with pytest.raises(ValueError):
        instr_push(1, "@")


@pytest.mark.parametrize("pred, instr, message", [
    (PRED_TRUE, instr_id(), "not a PDA move"),  # a move tests the stack top
    (pred_eq("t"), instr_push(2, "t"), "not a PDA move"),  # the stack is child 1's path
    (pred_eq("t"), instr_down(), "not a PDA move"),  # down keeps the vertex: pop it
    (pred_eq("t"), Instruction("set", label="t"), "not a PDA move"),
    (pred_eq("X"), instr_id(), "stack symbol 'X' not declared"),
    (pred_eq("t"), instr_push(1, "X"), "stack symbol 'X' not declared"),
])
def test_pda_refuses_a_row_that_is_not_a_stack_move(pred, instr, message):
    with pytest.raises(ValueError, match=message):
        Pda(("q",), ("t",), ("t",), "q", (Transition("q", "t", pred, instr, "q"),), frozenset())


@pytest.mark.parametrize("action", ["push t @", "pop @", "push X t"])
def test_pda_file_bad_stack_symbol(action):
    text = f"pda\nstates: q\ninitial: q\nfinal: q\nstack: t\nalphabet: t\ntrans: q t {action} q\n"
    with pytest.raises(ParseError) as exc:
        parse_pda(text)
    assert exc.value.line == 7


def test_pda_file_stack_symbol_declared_twice():
    text = "pda\nstates: q\ninitial: q\nfinal: q\nstack: t T t\nalphabet: t\n"
    with pytest.raises(ParseError) as exc:
        parse_pda(text)
    assert exc.value.line == 5


@pytest.mark.parametrize("trans", ["q9 t pop t q", "q t pop t q9"])
def test_pda_file_unknown_state(trans):
    text = f"pda\nstates: q\ninitial: q\nfinal: q\nstack: t\nalphabet: t\ntrans: {trans}\n"
    with pytest.raises(UnknownState) as exc:
        parse_pda(text)
    assert exc.value.line == 7


def test_pda_file_round_trip():
    pda = fixture_wpz_pda()
    assert parse_pda(render_pda(pda)) == pda


def test_tsa1_to_pda_rejects_up():
    with pytest.raises(NotOneTsa):
        tsa1_to_pda(abcd_tsa())


def test_tsa1_to_pda_down_true_expands():
    # one true/down transition becomes a pop for every non-bottom symbol
    tsa = fixture_wpz_tsa()
    pda = tsa1_to_pda(tsa)
    downs_true = [t for t in tsa.delta if t.instr.kind == "down" and t.pred.kind == "true"]
    assert not downs_true  # the fixture pins all its downs with eq
    # eq-pinned id becomes push(z, eps)
    id_eq = [t for t in tsa.delta if t.instr.kind == "id" and t.pred.kind == "eq"
             and t.pred.label != "@"]
    for t in id_eq:
        assert any(p.src == t.src and p.pred == t.pred and p.instr == instr_id()
                   for p in pda.delta)


def test_tsa1_to_pda_true_variants():
    from tsalab.treestack import PRED_TRUE, instr_down, instr_id
    from tsalab.tsa import Transition, Tsa

    tsa = Tsa(("q0", "q1"), ("x", "y"), ("a",), "q0",
              (Transition("q0", "a", PRED_TRUE, instr_down(), "q1"),
               Transition("q0", None, PRED_TRUE, instr_id(), "q1")),
              frozenset({"q1"}))
    pda = tsa1_to_pda(tsa)
    pops = {t.pred.label for t in pda.delta if t.instr.kind == "pop"}
    assert pops == {"x", "y"}  # pop never targets the bottom
    id_tops = {t.pred.label for t in pda.delta if t.instr.kind == "id"}
    assert id_tops == {"x", "y", "@"}


# down and set never fire at the root, so tsa1_to_pda drops their eq @
# rows: a PDA never pops the bottom
ROOT_ROWS_TSA = """tsa
states: q0 q1 q2
initial: q0
final: q2
labels: A
alphabet: a b
trans: q0 a eq @ down q2
trans: q0 b eq @ set A q2
trans: q0 a eq @ push 1 A q1
trans: q1 b eq A set A q1
trans: q1 a eq A down q2
"""


def test_tsa1_to_pda_drops_down_and_set_at_the_root():
    tsa = parse_tsa(ROOT_ROWS_TSA)
    pda = tsa1_to_pda(tsa)
    assert not any(t.instr.kind == "pop" and t.pred.label == ROOT_LABEL for t in pda.delta)
    assert not any(t.src == "q0" and t.dst == "q2" for t in pda.delta)
    accepted = set()
    for w in words_upto("ab", 4):
        got = bool(pda_accepts(pda, w))
        assert got == bool(accepts(tsa, w, ANY)), w
        if got:
            accepted.add(w)
    assert accepted == {"aa", "aba", "abba"}


def test_pda_to_tsa1_shape():
    tsa = pda_to_tsa1(fixture_wpz_pda())
    assert all(t.instr.kind != "up" for t in tsa.delta)
    assert tsa.delta[0].name == "s0"
    assert tsa.delta[0].instr.label == box("@")


def test_round_trip_language_desk_scale():
    pda = fixture_wpz_pda()
    tsa = pda_to_tsa1(pda)
    back = tsa1_to_pda(tsa)
    for w in words_upto("tT", 6):
        want = counting_wpz_oracle(w)
        assert bool(pda_accepts(pda, w)) == want, w
        assert bool(accepts(tsa, w, ANY)) == want, w
        assert bool(pda_accepts(back, w)) == want, w


# pushes and a pop from p0 to different targets: intermediate states named
# by the source would let the b-push's ladder end in p0 and read the a-pop
SPLIT_TARGETS_PDA = """pda
states: p0 p1
initial: p0
final: p1
stack: X
alphabet: a b
trans: p0 b push @ X p1
trans: p0 a push X X p0
trans: p0 a pop X p1
"""


def test_pda_to_tsa1_keeps_targets_apart():
    pda = parse_pda(SPLIT_TARGETS_PDA)
    tsa = pda_to_tsa1(pda)
    assert not pda_accepts(pda, "ba")
    for w in words_upto("ab", 4):
        assert bool(accepts(tsa, w, ANY)) == bool(pda_accepts(pda, w)), w


# a PDA state named like the pop ladder's state: unprimed, the two merge
# and the translation reads `t` straight into the final state
TAG_NAMED_PDA = """pda
states: q q^(u)
initial: q
final: q^(u)
stack: t
alphabet: t
trans: q t push @ t q
trans: q t pop t q^(u)
"""


def test_pda_to_tsa1_primes_a_name_the_pda_uses():
    pda = parse_pda(TAG_NAMED_PDA)
    tsa = pda_to_tsa1(pda)
    assert not pda_accepts(pda, "t")
    for w in words_upto("t", 4):
        assert bool(accepts(tsa, w, ANY)) == bool(pda_accepts(pda, w)), w
    assert tsa.states == ("q", "q^(u)", "q^(u)'", "q^(t)", "q^(u)^(d)")


# the set ladder's state of p under A is p^(A), which the TSA already has
SET_TAG_TSA = """tsa
states: q0 q1 p p^(A)
initial: q0
final: p^(A)
labels: A B
alphabet: a b
trans: q0 a true push 1 A q1
trans: q1 b eq A set B p
"""


def test_tsa1_to_pda_primes_a_name_the_tsa_uses():
    tsa = parse_tsa(SET_TAG_TSA)
    pda = tsa1_to_pda(tsa)
    assert not accepts(tsa, "ab", ANY)
    for w in words_upto("ab", 3):
        assert bool(pda_accepts(pda, w)) == bool(accepts(tsa, w, ANY)), w
    assert pda.states == ("q0", "q1", "p", "p^(A)", "p^(A)'")


def test_converted_witnesses_are_1_restricted():
    tsa = pda_to_tsa1(fixture_wpz_pda())
    for w in words_upto("tT", 6):
        res = accepts(tsa, w, ANY)
        if res:
            counts = visited_from_below_counts(res)
            assert all(c <= 1 for c in counts.values()), w
    # structurally there is no up instruction, so this cannot fail,
    # but the k=1 search must also succeed whenever the plain one does
    for w in ["tT", "ttTT", "tTtT", "ttTtTT"]:
        assert accepts(tsa, w, SearchOptions(accept_mode="any", k=1))


def simulation_run(pda, tsa, ptrace):
    """Build the step-for-step simulation of a PDA trace on the translated
    machine, per the construction: a push goes via the two-transition
    ladder when the child slot is free and via the sidestep triple when an
    earlier pop left it occupied; a pop descends through box vertices.

    Returns the delta indices and, per simulated PDA step, the pair
    (pointer label afterwards, box of the simulated stack top), which the
    locality invariant requires to be equal."""
    by_core = {t.core(): i for i, t in enumerate(tsa.delta)}

    def tag(q, suffix):
        return f"{q}^({suffix})"

    def apply(cfg, src, inp, pred, instr, dst):
        idx = by_core[(src, inp, pred, instr, dst)]
        return step(tsa, ptrace.word, cfg, tsa.delta[idx]), idx

    cfg = initial_configuration(tsa)
    out: list[int] = []
    cfg, idx = apply(cfg, pda.initial, None, pred_eq(ROOT_LABEL),
                     instr_push(1, box(ROOT_LABEL)), pda.initial)
    out.append(idx)
    checkpoints: list[tuple[str, str]] = []
    for (tidx, pcfg) in ptrace.steps:
        t = pda.delta[tidx]
        z = t.pred.label
        if t.instr.kind == "push":
            s = t.instr.label
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
        elif t.instr.kind == "pop":
            dn = tag(t.dst, "d")
            cfg, idx = apply(cfg, t.src, t.inp, pred_eq(box(z)), instr_down(), dn)
            out.append(idx)
            while cfg.ts.pointer_label == box(z):
                cfg, idx = apply(cfg, dn, None, pred_eq(box(z)), instr_down(), dn)
                out.append(idx)
            cfg, idx = apply(cfg, dn, None, pred_eq(z), instr_down(), t.dst)
            out.append(idx)
        else:  # push(z, eps)
            cfg, idx = apply(cfg, t.src, t.inp, pred_eq(box(z)), instr_id(), t.dst)
            out.append(idx)
        checkpoints.append((cfg.ts.pointer_label, box(pcfg.ts.pointer_label)))
    return out, checkpoints


def test_simulation_locality():
    # after each simulated stack step the pointer rests on the box vertex
    # recording the simulated stack top (instrumented replay)
    pda = fixture_wpz_pda()
    tsa = pda_to_tsa1(pda)
    for w in ["", "tT", "ttTT", "ttTtTT", "tTtTtT", "tttTTT", "tTtTttTT"]:
        ptrace = pda_accepts(pda, w)
        assert ptrace
        idxs, checkpoints = simulation_run(pda, tsa, ptrace)
        tr = replay(tsa, w, idxs)
        final = tr.final()
        assert final.pos == len(w) and final.state in tsa.finals, w
        for got, want in checkpoints:
            assert got == want, w


def test_wpz_fixture_is_the_translation_with_a_root_drain():
    # pda_to_tsa1 of the wpz PDA without its final eps-push, then the pair
    # that returns to the root and accepts there
    pda = fixture_wpz_pda()
    base = pda_to_tsa1(replace(pda, delta=pda.delta[:-1]))
    drain = (Transition("q", None, pred_eq(box(ROOT_LABEL)), instr_down(), "q"),
             Transition("q", None, pred_eq(ROOT_LABEL), instr_id(), "qf"))
    tsa = fixture_wpz_tsa()
    assert [t.core() for t in tsa.delta] == [t.core() for t in base.delta + drain]
    assert (tsa.states, tsa.labels, tsa.alphabet, tsa.initial, tsa.finals) == (
        base.states, base.labels, base.alphabet, base.initial, base.finals)


def test_wpz_fixture_structure_matches_printed_machine():
    tsa = fixture_wpz_tsa()
    assert set(tsa.states) == {"q", "qf", "q^(u)", "q^(t)", "q^(T)", "q^(d)"}
    assert set(tsa.labels) == {"t", "T", "[@]", "[t]", "[T]"}
    assert len(tsa.delta) == 23  # s0, 4 push ladders (shared .2), 2 pop triples, final pair
    names = [t.name for t in tsa.delta]
    assert names[0] == "s0" and names[-2:] == ["s'f", "s''f"]
    assert names.count("s'2") == 1 and names.count("s''2") == 1  # deduplicated


def test_wpz_fixture_golden_sequence():
    tsa = fixture_wpz_tsa()
    res = accepts(tsa, "ttTtTT")
    assert res.names() == ["s0", "s'1@", "s'2", "s'1t", "s'2", "s''5", "s''7",
                           "s'3t", "s'4t", "s'2", "s''5", "s''7", "s''5",
                           "s''6", "s''7", "s'f", "s''f"]
    assert res.final().ts.pointer == ()


def test_wpz_fixture_accepts_tT():
    assert accepts(fixture_wpz_tsa(), "tT")


def test_wpz_fixture_language():
    tsa = fixture_wpz_tsa()
    for w in words_upto("tT", 6):
        assert bool(accepts(tsa, w)) == counting_wpz_oracle(w), w


def test_ks_stuck_branch_matches_table():
    tsa = fixture_ks_tsa()
    tr = replay(tsa, "ttTtTT", ks_stuck_prefix(tsa))
    final = tr.final()
    assert final.state == "S"
    assert final.ts.pointer == (1, 2)
    assert final.ts.pointer_label == "t"
    assert final.pos == 3  # ttT read
    for t in tsa.delta:
        with pytest.raises(NotApplicable):
            step(tsa, "ttTtTT", final, t)


def test_ks_accepts_simple_words():
    tsa = fixture_ks_tsa()
    assert accepts(tsa, "ttTT", ANY)
    assert accepts(tsa, "tT", ANY)
    assert not accepts(tsa, "tt", ANY)
    assert not accepts(tsa, "tTT", ANY)


def test_ks_whole_word_search_on_ttTtTT():
    # The published machine is claimed to jam on this word, and its stack
    # simulation does (see test_ks_stuck_branch_matches_table), but the
    # machine as printed also has a non-simulation branch that accepts.
    res = accepts(fixture_ks_tsa(), "ttTtTT", ANY)
    assert res
    assert res.names()[:5] == ["s1.@", "s2", "s1.t", "s2", "s7"]
    assert res.names()[5] != "s5"  # the accepting branch avoids the jam


def test_ks_language_is_wpz_at_desk_scale():
    tsa = fixture_ks_tsa()
    for w in words_upto("tT", 7):
        assert bool(accepts(tsa, w, ANY)) == counting_wpz_oracle(w), w
