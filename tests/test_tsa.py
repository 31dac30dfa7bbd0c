import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import abcd_oracle, abcd_word, count_configurations, words_upto
from reference_treestack import ref_ts_apply, ref_ts_init
from strategies import random_pdas, random_tsas

from tsalab.convert import (
    Pda,
    fixture_ks_tsa,
    fixture_wpz_pda,
    fixture_wpz_tsa,
    parse_pda,
    pda_accepts,
    render_pda,
)
from tsalab.fixtures import ABCD_FILE, TSA_FILES, abcd_tsa, anbmcndm_tsa, astar_tsa, updown_demo_tsa
from tsalab.langlab import Fsa, parse_fsa
from tsalab.mcfg import EXAMPLE_ABCD, EXAMPLE_ANBMCNDM, mcfg_enumerate, parse_mcfg
from tsalab import treestack
import tsalab.tsa as tsa_mod
from tsalab.treestack import (PRED_TRUE, TreeStack, instr_down, instr_id, instr_push, instr_set, instr_up,
                              pred_eq, render_tree_stack)
from tsalab.tsa import (
    BadIndex,
    Configuration,
    NotApplicable,
    ParseError,
    ReplayMismatch,
    RunTrace,
    SearchOptions,
    Transition,
    Tsa,
    UnknownState,
    accepts,
    accepts_each,
    applicable_transitions,
    degree,
    enumerate_words,
    initial_configuration,
    is_accepting_run,
    is_k_restricted,
    is_proper,
    make_root_accepting,
    normalize_child_indices,
    parse_tsa,
    render_tsa,
    replay,
    replay_trace,
    standardise,
    step,
    visited_from_below_counts,
)


K2 = SearchOptions(k=2)


def test_parse_abcd_file():
    tsa = parse_tsa(ABCD_FILE)
    assert len(tsa.states) == 5
    assert len(tsa.labels) == 2
    assert len(tsa.delta) == 9
    assert tsa.delta[0].name == "s1"


def test_parse_empty_delta():
    tsa = parse_tsa("tsa\nstates: q0\ninitial: q0\nfinal: q0\nlabels: X\nalphabet: a\n")
    assert tsa.delta == ()
    assert accepts(tsa, "", SearchOptions(accept_mode="any"))
    assert not accepts(tsa, "a", SearchOptions(accept_mode="any"))


def test_parse_bad_index():
    text = "tsa\nstates: q0 q1\ninitial: q0\nfinal: q1\nlabels: X\nalphabet: a\ntrans: q0 a true up 0 q1\n"
    with pytest.raises(BadIndex):
        parse_tsa(text)


def test_tsa_refuses_a_pop_row():
    # a TSA tree never shrinks: pop is a PDA's instruction, in no TSA file
    pop = Transition("q0", "a", pred_eq("X"), treestack.Instruction("pop"), "q0")
    with pytest.raises(ValueError, match="pop"):
        Tsa(("q0",), ("X",), ("a",), "q0", (pop,), frozenset())
    text = "tsa\nstates: q0\ninitial: q0\nfinal: q0\nlabels: X\nalphabet: a\ntrans: q0 a eq X pop q0\n"
    with pytest.raises(ParseError, match="bad instruction 'pop'") as exc:
        parse_tsa(text)
    assert exc.value.line == 7


HEAD = "tsa\nstates: q0 q1\ninitial: q0\nalphabet: a\n"


@pytest.mark.parametrize("text, error, line", [
    (HEAD + "final: q1 q7\nlabels: X\n", UnknownState, 5),  # undeclared final
    (HEAD + "final: q1\nlabels: X @\n", ParseError, 6),  # @ is the root's label
    ("tsa\nstates: q0\ninitial: q9\n", UnknownState, 3),  # undeclared initial
    ("tsa\nstates: q0\ninitial:\n", ParseError, 3),
    ("tsa\nstates: q0 q1\ninitial: q0\ninitial: q1\n", ParseError, 4),  # initial twice
    ("tsa\nstates: q0 q1\nstates: q1\ninitial: q0\n", ParseError, 3),  # a state twice
    (HEAD + "final: q1\nlabels: X Y X\n", ParseError, 6),  # a label twice
    (HEAD + "final: q1\nalphabet: b a\n", ParseError, 6),  # a letter twice
])
def test_parse_tsa_errors_carry_line_numbers(text, error, line):
    with pytest.raises(error) as exc:
        parse_tsa(text)
    assert exc.value.line == line


def _tsa(states, initial, finals, edges, alphabet=("a",), symbols=("X",)):
    delta = tuple(Transition(src, inp, PRED_TRUE, instr_id(), dst) for src, inp, dst in edges)
    return Tsa(states, symbols, alphabet, initial, delta, frozenset(finals))


def _pda(states, initial, finals, edges, alphabet=("a",), symbols=("A",)):
    delta = tuple(Transition(src, inp, pred_eq("@"), instr_id(), dst) for src, inp, dst in edges)
    return Pda(states, alphabet, symbols, initial, delta, frozenset(finals))


def _fsa(states, initial, finals, edges, alphabet=("a",)):
    return Fsa(states, alphabet, tuple(edges), initial, frozenset(finals))


ILL_FORMED = {
    "state-twice": ((("q", "p", "q"), "q", {"q"}, ()), "state 'q' is declared twice"),
    "initial": ((("q",), "r", {"q"}, ()), "initial state 'r' not declared"),
    "final": ((("q",), "q", {"r"}, ()), r"final states \['r'\] not declared"),
    "endpoint": ((("q",), "q", {"q"}, [("q", "a", "r")]), "endpoint not declared"),
    "letter": ((("q",), "q", {"q"}, [("q", "b", "q")]), "input letter 'b' not in alphabet"),
    "letter-twice": ((("q",), "q", {"q"}, (), ("a", "b", "a")), "letter 'a' is declared twice"),
    # a TSA's labels and a PDA's stack alphabet; an FSA has no stack
    "symbol-twice": ((("q",), "q", {"q"}, (), ("a",), ("X", "Y", "X")),
                     "stack symbol 'X' is declared twice"),
}
MAKERS = {"tsa": _tsa, "pda": _pda, "fsa": _fsa}


@pytest.mark.parametrize("make, parts, message", [
    pytest.param(make, parts, message, id=f"{case}-{kind}")
    for case, (parts, message) in ILL_FORMED.items() for kind, make in MAKERS.items()
    if kind != "fsa" or case != "symbol-twice"])
def test_machines_share_one_well_formedness_check(make, parts, message):
    # Tsa, Pda and Fsa validate through tsa.check_machine, as read_machine
    # does for machine files; a name declared twice would otherwise merge
    # with itself in every construction and inflate |C| in the bounds
    with pytest.raises(ValueError, match=message):
        make(*parts)
    make(("q", "p"), "q", {"q"}, [("q", "a", "p"), ("p", None, "q")])  # well formed


MACHINE_FILES = [
    (parse_tsa, ABCD_FILE),
    (parse_pda, render_pda(fixture_wpz_pda())),
    (parse_fsa, "fsa\nstates: u v\ninitial: u\nfinal: v\nalphabet: a b\ntrans: u a v\ntrans: v eps u\n"),
    (parse_mcfg, EXAMPLE_ABCD),
    (parse_mcfg, EXAMPLE_ANBMCNDM),
]
MUTANTS = ["", "@", "eps", "#", ":", "-", "0", "-1", "x9", "push", "up", "eq", "true", "trans:"]
RENDER = {parse_tsa: render_tsa, parse_pda: render_pda}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MACHINE_FILES),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                          st.sampled_from(MUTANTS)), min_size=1, max_size=3))
def test_mutated_machine_files_raise_only_parse_errors(which, edits):
    parse, text = which
    toks = text.replace("\n", " \n ").split(" ")
    for pos, op, tok in edits:
        i = pos % len(toks)
        if op == 0:
            del toks[i]
        elif op == 1:
            toks.insert(i, tok)
        else:
            toks[i] = toks[(pos // 7) % len(toks)]  # a token from elsewhere in the file
    try:
        machine = parse(" ".join(toks))
    except ParseError as e:
        assert e.line is not None
        return
    if parse in RENDER:
        assert parse(RENDER[parse](machine)) == machine


def test_render_parse_round_trip():
    for fixture in (abcd_tsa, anbmcndm_tsa, updown_demo_tsa, astar_tsa,
                    fixture_wpz_tsa, fixture_ks_tsa):
        for tsa in (fixture(), standardise(fixture())):
            assert parse_tsa(render_tsa(tsa)) == tsa, fixture.__name__


def tsa_with(label="X", letter="a", name=None):
    t = Transition("q", letter, PRED_TRUE, instr_id(), "q", name=name)
    return Tsa(("q",), (label,), (letter,), "q", (t,), frozenset({"q"}))


def pda_with(symbol="A", letter="a", name=None):
    # '@' may only be declared: no action pushes the bottom symbol
    instr = instr_push(1, symbol) if symbol != "@" else instr_id()
    p = Transition("q", letter, pred_eq("@"), instr, "q", name=name)
    return Pda(("q",), (letter,), (symbol,), "q", (p,), frozenset({"q"}))


UNWRITABLE = [(label, [(render_tsa, tsa_with(label=label))])
              for label in ("#", "a#b", "two words", "")]
UNWRITABLE += [(f"name={name!r}", [(render_tsa, tsa_with(name=name)),
                                   (render_pda, pda_with(name=name))])
               for name in (" s1 ", "s1 ", "", "s1\ns2")]
UNWRITABLE += [
    ("stack=-", [(render_pda, pda_with(symbol="-"))]),  # '-' in a push means "nothing"
    ("stack=@", [(render_pda, pda_with(symbol="@"))]),  # the implicit bottom symbol
    ("tsa letter=ab", [(render_tsa, tsa_with(letter="ab"))]),
    ("pda letter=ab", [(render_pda, pda_with(letter="ab"))]),
]


@pytest.mark.parametrize("machines", [m for _, m in UNWRITABLE], ids=[i for i, _ in UNWRITABLE])
def test_render_refuses_symbols_the_format_cannot_carry(machines):
    for render, machine in machines:
        with pytest.raises(ValueError, match="cannot be written"):
            render(machine)


def test_step_first_push():
    tsa = abcd_tsa()
    cfg = initial_configuration(tsa)
    nxt = step(tsa, "aabbccdd", cfg, tsa.delta[0])
    assert nxt.state == "q0"
    assert nxt.ts.dom == {(): "@", (1,): "STAR"}
    assert nxt.pos == 1
    assert visited_from_below_counts(RunTrace(tsa, "aabbccdd", [(0, nxt)], cfg)) == {(1,): 1}


def test_step_self_loop_id():
    tsa = astar_tsa()
    cfg = initial_configuration(tsa)
    nxt = step(tsa, "a", cfg, tsa.delta[0])
    assert nxt.state == cfg.state and nxt.ts == cfg.ts and nxt.pos == 1


def test_step_predicate_fails():
    tsa = abcd_tsa()
    cfg = initial_configuration(tsa)
    with pytest.raises(NotApplicable):
        step(tsa, "b", cfg, tsa.delta[3])  # s4 wants eq STAR, root is @


STEP_TSA = parse_tsa("""tsa
states: q0 q1
initial: q0
final: q1
labels: X
alphabet: a
trans: q0 a true id q1
trans: q0 eps eq X id q1
trans: q0 eps true push 1 X q1
trans: q0 eps true up 1 q1
trans: q0 eps true down q1
trans: q0 eps true set X q1
""")
AT_ROOT = initial_configuration(STEP_TSA)
ABOVE_CHILD = Configuration("q0", TreeStack({(): "@", (1,): "X"}, ()), 0)  # pointer at the root


REFUSALS = [
    ("a", replace(AT_ROOT, state="q1"), 0, "state mismatch"),
    ("", AT_ROOT, 0, "input mismatch"),
    ("", AT_ROOT, 1, "PredicateFails"),
    ("", ABOVE_CHILD, 2, "InstructionFails"),  # push onto an existing child
    ("", AT_ROOT, 3, "InstructionFails"),  # up to a missing child
    ("", AT_ROOT, 4, "InstructionFails"),  # down at the root
    ("", AT_ROOT, 5, "InstructionFails"),  # set at the root
]


@pytest.mark.parametrize("word, cfg, tidx, reason", REFUSALS)
def test_step_refusal_reasons(word, cfg, tidx, reason):
    with pytest.raises(NotApplicable) as e:
        step(STEP_TSA, word, cfg, STEP_TSA.delta[tidx])
    assert e.value.reason == reason


# STEP_TSA with three moves that reach the configurations of REFUSALS:
# delta indices 6 and 7 push and come back down (ABOVE_CHILD), 8 only
# changes state
REACHING_TSA = replace(STEP_TSA, delta=STEP_TSA.delta + parse_tsa("""tsa
states: q0 q1
initial: q0
final: q1
labels: X
alphabet: a
trans: q0 eps true push 1 X q0
trans: q0 eps true down q0
trans: q0 eps true id q1
""").delta)


@pytest.mark.parametrize("word, cfg, tidx, reason", REFUSALS)
def test_replay_refusal_reasons(word, cfg, tidx, reason):
    # the table of `step`'s refusals, met along a replayed run
    prefix = next(p for p in ([], [8], [6, 7]) if replay(REACHING_TSA, word, p).final() == cfg)
    with pytest.raises(ReplayMismatch) as e:
        replay(REACHING_TSA, word, prefix + [tidx])
    j = len(prefix) + 1
    assert (e.value.step_index, str(e.value)) == (j, f"step {j}: {reason}")


@pytest.mark.parametrize("bad", [-1, 9], ids=["negative", "len-delta"])
def test_replay_refuses_an_index_outside_delta(bad):
    tsa = abcd_tsa()
    assert len(tsa.delta) == 9
    for seq, j in (([0, bad], 2), ([bad, 0], 1)):
        with pytest.raises(ReplayMismatch) as e:
            replay(tsa, "aabbccdd", seq)
        assert str(e.value) == f"step {j}: no transition #{bad + 1}"
    with pytest.raises(ReplayMismatch) as e:  # a step before it that does not apply comes first
        replay(tsa, "aabbccdd", [3, bad])
    assert str(e.value) == "step 1: state mismatch"


def test_witnesses_do_not_go_through_step(monkeypatch):
    # every witness is re-executed by `_run`, so a `step` that always
    # raises leaves accepts, replay and the walk's witnesses as they were
    tsa, wpz = abcd_tsa(), fixture_wpz_tsa()
    before = (accepts(tsa, "aabbccdd", K2), accepts(wpz, "ttTtTT"),
              accepts_each(wpz, ["tT", "ttTT", "tTtT"]))

    def broken(*args):
        raise RuntimeError("step called")

    monkeypatch.setattr(tsa_mod, "step", broken)
    after = (accepts(tsa, "aabbccdd", K2), accepts(wpz, "ttTtTT"),
             accepts_each(wpz, ["tT", "ttTT", "tTtT"]))
    assert [r.steps for r in after[:2]] == [r.steps for r in before[:2]]
    assert {w: r.steps for w, r in after[2].items()} == {w: r.steps for w, r in before[2].items()}
    assert replay(tsa, "aabbccdd", before[0].transition_indices()).steps == before[0].steps
    with pytest.raises(RuntimeError, match="step called"):
        applicable_transitions(tsa, "a", initial_configuration(tsa))


def test_applicable_transitions_let_no_tree_stack_error_out():
    assert applicable_transitions(STEP_TSA, "a", AT_ROOT) == [STEP_TSA.delta[0], STEP_TSA.delta[2]]
    assert applicable_transitions(STEP_TSA, "", ABOVE_CHILD) == [STEP_TSA.delta[3]]
    # every transition at every configuration three steps from the start
    for tsa in random_tsas(5, 200):
        layer = [(w, initial_configuration(tsa)) for w in ("", "a", "ab")]
        for _ in range(3):
            layer = [(w, step(tsa, w, cfg, t)) for w, cfg in layer
                     for t in applicable_transitions(tsa, w, cfg)][:50]


def test_replay_table_sequence():
    tsa = abcd_tsa()
    seq = [0, 0, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8]
    tr = replay(tsa, "aabbccdd", seq)
    final = tr.final()
    assert final.state == "q4"
    assert final.ts.pointer == ()
    assert set(final.ts.dom) == {(), (1,), (1, 1), (1, 1, 1)}


def test_replay_empty_is_initial():
    tsa = abcd_tsa()
    tr = replay(tsa, "", [])
    assert tr.final() == initial_configuration(tsa)


def test_replay_bad_last_step():
    tsa = abcd_tsa()
    seq = [0, 0, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 7]  # s8 again instead of s9
    with pytest.raises(ReplayMismatch) as e:
        replay(tsa, "aabbccdd", seq)
    assert e.value.step_index == 13


def test_deep_replay_builds_no_dom_and_no_address(monkeypatch):
    # a step reads only the zipper's focus and context, so replaying the
    # abcd member with m = 200 (a path of 201 vertices below the root)
    # builds no `dom` and no pointer address: a count, not a time, that
    # fails on a step whose cost grows with the depth of the tree
    tsa, w = abcd_tsa(), abcd_word(200)
    tidxs = accepts(tsa, w, K2).transition_indices()
    built = []
    build_dom, address = TreeStack._build_dom, treestack._address
    monkeypatch.setattr(TreeStack, "_build_dom", lambda ts: built.append("dom") or build_dom(ts))
    monkeypatch.setattr(treestack, "_address", lambda ctx: built.append("address") or address(ctx))
    tr = replay(tsa, w, tidxs)
    assert built == [] and len(tr) == 805
    monkeypatch.undo()
    final = replay_trace(tr)
    assert final == tr.final() and final.ts.pointer == () and len(final.ts) == 202


def assert_steps_are_the_step_chain(trace):
    """trace.steps, built on first read from the records `_run` kept, equal
    the chain of `step` calls from the initial configuration, and each
    tree stack renders as the dict-of-addresses reference along the run."""
    machine, word = trace.tsa, trace.word
    cfg, ref, chain, refs = trace.initial, ref_ts_init(), [], []
    for tidx in trace.transition_indices():
        t = machine.delta[tidx]
        cfg, ref = step(machine, word, cfg, t), ref_ts_apply(ref, t.instr)
        chain.append((tidx, cfg))
        refs.append(render_tree_stack(ref))
    assert trace.steps == chain
    assert [render_tree_stack(c.ts) for _, c in trace.steps] == refs
    assert trace.final() == (chain[-1][1] if chain else trace.initial)


def test_lazy_steps_equal_the_step_chain():
    fixtures = [parse_tsa(text) for text in TSA_FILES.values()]
    witnesses = 0
    for mode in ("root", "any"):
        opts = SearchOptions(accept_mode=mode)
        for tsa, n in [(tsa, 4) for tsa in fixtures] + [(tsa, 3) for tsa in random_tsas(3, 60)]:
            for w in words_upto(tsa.alphabet, n):
                trace = accepts(tsa, w, opts)
                if trace:
                    assert_steps_are_the_step_chain(trace)
                    witnesses += 1
        for pda in [fixture_wpz_pda()] + random_pdas(3, 60):
            for w in words_upto(pda.alphabet, 4):
                trace = tsa_mod._tsa_search(pda, w, opts)
                if trace:
                    assert_steps_are_the_step_chain(trace)
                    witnesses += 1
    for trace in (accepts(abcd_tsa(), "aabbccdd", K2), accepts(fixture_wpz_tsa(), "ttTtTT"),
                  pda_accepts(fixture_wpz_pda(), "tTttTT")):
        assert_steps_are_the_step_chain(trace)
    assert witnesses > 300


def test_witnesses_build_their_configurations_on_first_read(monkeypatch):
    built = count_configurations(monkeypatch)
    runs = [accepts(abcd_tsa(), "a" * 40 + "b" * 40 + "c" * 40 + "d" * 40, K2),
            pda_accepts(fixture_wpz_pda(), "t" * 100 + "T" * 100)]
    assert all(runs) and built[0] == 0
    for run in runs:  # the verdict, the length, the indices and names read the records
        assert len(run) == len(run.transition_indices()) == len(run.names()) > 150
    assert built[0] == 0
    for run in runs:
        built[0] = 0
        run.final()
        assert built[0] == 1  # the last configuration only
        built[0] = 0
        run.steps, run.steps
        assert built[0] == len(run)  # once, on the first read


def test_replay_trace_reports_the_first_bad_step():
    tsa = abcd_tsa()
    good = accepts(tsa, "aabbccdd", K2)
    steps = good.steps
    other = steps[0][1]
    wrong_cfg = steps[:3] + [(steps[3][0], other)] + steps[4:]
    wrong_last = steps[:-1] + [(7, steps[-1][1])]  # s8 again instead of s9
    cases = [
        (wrong_cfg, "aabbccdd", 4, "recorded configuration differs"),
        (wrong_last, "aabbccdd", 13, "input mismatch"),
        (wrong_cfg[:-1] + wrong_last[-1:], "aabbccdd", 4, "recorded configuration differs"),
        (steps[:5], "aabbccdd", 5, "word not fully consumed"),
        (steps[:3] + [(99, other)], "aabbccdd", 4, "no transition #100"),
    ]
    for bad, word, index, reason in cases:
        with pytest.raises(ReplayMismatch) as e:
            replay_trace(RunTrace(tsa, word, bad, good.initial))
        assert (e.value.step_index, str(e.value)) == (index, f"step {index}: {reason}")
    assert replay_trace(good) == good.final()


def test_accepts_matches_table():
    tsa = abcd_tsa()
    res = accepts(tsa, "aabbccdd", K2)
    assert res.names() == ["s1", "s1", "s2", "s3", "s4", "s4",
                           "s5", "s6", "s6", "s7", "s8", "s8", "s9"]
    replay_trace(res)


def test_accepts_epsilon():
    res = accepts(abcd_tsa(), "", K2)
    assert res and res.names() == ["s2", "s3", "s5", "s7", "s9"]


def test_reject_is_exhausted():
    res = accepts(abcd_tsa(), "aabbccddd", SearchOptions(k=2, max_steps=200, max_vertices=50))
    assert not res and res.reason == "exhausted"


def test_determinism():
    tsa = abcd_tsa()
    a = accepts(tsa, abcd_word(3), K2)
    b = accepts(tsa, abcd_word(3), K2)
    assert a.transition_indices() == b.transition_indices()


def test_soundness_of_witnesses():
    tsa = abcd_tsa()
    for m in range(5):
        res = accepts(tsa, abcd_word(m), K2)
        final = replay_trace(res)
        assert final.state in tsa.finals and final.ts.pointer == ()


def test_k_monotonicity():
    tsa = abcd_tsa()
    for m in range(4):
        w = abcd_word(m)
        assert accepts(tsa, w, SearchOptions(k=2))
        assert accepts(tsa, w, SearchOptions(k=3))
        assert accepts(tsa, w, SearchOptions(k=10))


def test_k_too_small_rejects():
    # every accepting run pushes vertex 1 and later moves up into it again,
    # so nothing at all is accepted under k=1
    assert not accepts(abcd_tsa(), "abcd", SearchOptions(k=1))
    assert not accepts(abcd_tsa(), "", SearchOptions(k=1))
    assert accepts(abcd_tsa(), "", SearchOptions(k=2))


def test_enumerate_matches_oracle():
    tsa = abcd_tsa()
    words = enumerate_words(tsa, 8, K2)
    assert words == {"", "abcd", "aabbccdd"}
    assert words == {w for w in words_upto("abcd", 8) if abcd_oracle(w)}


def test_enumerate_empty_word_only():
    assert enumerate_words(abcd_tsa(), 0, K2) == {""}


def test_a_negative_length_bound_enumerates_nothing():
    assert enumerate_words(abcd_tsa(), -1, K2) == set()
    assert mcfg_enumerate(parse_mcfg(EXAMPLE_ABCD), -1) == set()


def test_search_options_refuse_a_negative_k():
    # under k = -1 accepts found a wpz run that is_accepting_run refused
    # under the same options, as no vertex can be visited -1 times
    with pytest.raises(ValueError, match="k must be None or >= 0"):
        SearchOptions(k=-1)
    with pytest.raises(ValueError, match="k must be None or >= 0"):
        replace(K2, k=-1)


def recount_vfb(trace):
    """The visit-from-below counts recounted from the run's push and up
    steps, by the address each enters: the reference for the counts that
    `visited_from_below_counts` reads off the pointer path."""
    counts = {}
    for tidx, cfg in trace.steps:
        if trace.tsa.delta[tidx].instr.kind in ("push", "up"):
            addr = cfg.ts.pointer
            counts[addr] = counts.get(addr, 0) + 1
    return counts


def test_vfb_counts_on_table_run():
    res = accepts(abcd_tsa(), "aabbccdd", K2)
    counts = visited_from_below_counts(res)
    assert counts == {(1,): 2, (1, 1): 2, (1, 1, 1): 2}
    assert counts == recount_vfb(res)
    assert is_k_restricted(res, 2)
    assert not is_k_restricted(res, 1)


def test_vfb_empty_trace():
    tr = replay(abcd_tsa(), "", [])
    assert visited_from_below_counts(tr) == {}
    assert is_k_restricted(tr, 0)


def test_witnesses_up_to_12_are_2_restricted():
    tsa = abcd_tsa()
    for m in range(4):  # lengths 0, 4, 8, 12
        res = accepts(tsa, abcd_word(m), K2)
        assert res and is_k_restricted(res, 2)
        assert visited_from_below_counts(res) == recount_vfb(res)


# one push that never returns: the only run on "a" ends at vertex 1
OFF_ROOT = parse_tsa("""tsa
states: q0 q1
initial: q0
final: q1
labels: X
alphabet: a
trans: q0 a true push 1 X q1  # p
""")
# two stationary eps steps in a row: the only run on "" is not proper
TWO_STATIONARY = parse_tsa("""tsa
states: q0 q1 q2
initial: q0
final: q2
alphabet: a
trans: q0 eps true id q1
trans: q1 eps true id q2
""")


def test_vfb_counts_arrivals_that_never_return():
    res = accepts(OFF_ROOT, "a", SearchOptions(accept_mode="any"))
    assert res.final().ts.pointer == (1,)
    assert visited_from_below_counts(res) == {(1,): 1} == recount_vfb(res)


ABCD_M2_RUN = [0, 0, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8]  # s1 s1 s2 s3 s4 s4 s5 s6 s6 s7 s8 s8 s9


@pytest.mark.parametrize("tsa, word, run, opts, accepting", [
    (OFF_ROOT, "a", [0], SearchOptions(), False),  # ends off the root
    (OFF_ROOT, "a", [0], SearchOptions(accept_mode="any"), True),
    (OFF_ROOT, "a", [0], SearchOptions(accept_mode="any", k=0), False),
    (OFF_ROOT, "aa", [0], SearchOptions(accept_mode="any"), False),  # word not read
    (abcd_tsa(), "aabbccdd", ABCD_M2_RUN, SearchOptions(), True),
    (abcd_tsa(), "aabbccdd", ABCD_M2_RUN, K2, True),
    (abcd_tsa(), "aabbccdd", ABCD_M2_RUN, SearchOptions(k=1), False),
    (abcd_tsa(), "aabbccdd", ABCD_M2_RUN[:-1], SearchOptions(), False),  # q3 is not final
    (TWO_STATIONARY, "", [0, 1], SearchOptions(), True),
    (TWO_STATIONARY, "", [0, 1], SearchOptions(proper_only=True), False),
])
def test_is_accepting_run_keeps_the_search_options(tsa, word, run, opts, accepting):
    assert is_accepting_run(replay(tsa, word, run), opts) == accepting


def test_derived_counts_match_the_recount_on_random_machines():
    words = list(words_upto("ab", 4))
    seen = set()
    for tsa in random_tsas(18, 400):
        for k, mode in itertools.product((None, 2), ("root", "any")):
            opts = SearchOptions(k=k, accept_mode=mode, max_steps=16, max_vertices=6)
            for w in words:
                res = accepts(tsa, w, opts)
                if not res:
                    continue
                counts = visited_from_below_counts(res)
                assert counts == recount_vfb(res) and list(counts) == sorted(counts), render_tsa(tsa)
                assert is_accepting_run(res, opts), render_tsa(tsa)
                assert k is None or is_k_restricted(res, k), render_tsa(tsa)
                seen.add((k, mode, res.final().ts.pointer == (), max(counts.values(), default=0)))
    # witnesses under every option set, any-mode ones off the root, and
    # unrestricted ones that enter a vertex three times
    assert {(k, mode) for k, mode, _, _ in seen} == set(itertools.product((None, 2), ("root", "any")))
    assert (2, "any", False, 2) in seen and (None, "root", True, 3) in seen


def test_degree():
    d = degree(abcd_tsa())
    assert d.delta_set == frozenset({1}) and d.value == 1
    assert degree(astar_tsa()).value == 0


def test_normalize_child_indices():
    T = Transition
    tsa = Tsa(
        states=("q0", "q1"),
        labels=("x",),
        alphabet=("a", "b"),
        initial="q0",
        delta=(
            T("q0", "a", PRED_TRUE, instr_push(1, "x"), "q0"),
            T("q0", "b", PRED_TRUE, instr_push(3, "x"), "q0"),
            T("q0", None, pred_eq("x"), instr_up(3), "q1"),
            T("q0", None, PRED_TRUE, instr_id(), "q1"),
        ),
        finals=frozenset({"q1"}),
    )
    norm = normalize_child_indices(tsa)
    assert degree(norm).value == 2
    assert max(t.instr.n for t in norm.delta if t.instr.n) == 2
    assert (enumerate_words(tsa, 8, SearchOptions(accept_mode="any"))
            == enumerate_words(norm, 8, SearchOptions(accept_mode="any")))


def test_normalize_child_indices_drops_unusable_up():
    # `up 1` can never fire, since only `push 2` exists; renumbering that
    # push to 1 must not let the `up 1` reach the pushed child
    tsa = parse_tsa("tsa\nstates: q0 q1 q2\ninitial: q0\nfinal: q2\nlabels: A\n"
                    "alphabet: a\n"
                    "trans: q0 eps true push 2 A q1\n"
                    "trans: q1 eps true down q1\n"
                    "trans: q1 a eq @ up 1 q2\n")
    norm = normalize_child_indices(tsa)
    assert not accepts(tsa, "a")
    assert not accepts(norm, "a")
    assert [t.instr.kind for t in norm.delta] == ["push", "down"]


def _toy(delta):
    states = sorted({t.src for t in delta} | {t.dst for t in delta} | {"q1"})
    labels = tuple(sorted({t.pred.label for t in delta if t.pred.kind == "eq" and t.pred.label != "@"}
                          | {t.instr.label for t in delta if t.instr.label}))
    return Tsa(tuple(states), labels or ("c",), ("a",), "q1", tuple(delta), frozenset({states[-1]}))


def test_standardise_adds_figure_composite():
    T = Transition
    t1 = T("q1", None, pred_eq("c"), instr_set("d"), "q2")
    t2 = T("q2", None, pred_eq("d"), instr_set("e"), "q3")
    tsa = _toy([t1, t2])
    out = standardise(tsa)
    assert T("q1", None, pred_eq("c"), instr_set("e"), "q3").core() in {t.core() for t in out.delta}


def test_standardise_identity_row():
    T = Transition
    t1 = T("q1", None, PRED_TRUE, instr_id(), "q2")
    t2 = T("q2", None, PRED_TRUE, instr_id(), "q3")
    out = standardise(_toy([t1, t2]))
    assert T("q1", None, PRED_TRUE, instr_id(), "q3").core() in {t.core() for t in out.delta}


STATIONARY = [(p, f) for p in (PRED_TRUE, pred_eq("A"), pred_eq("B"), pred_eq("@"))
              for f in (instr_id(), instr_set("A"), instr_set("B"))]
DEPTH_ONE = [TreeStack({(): "@"}, ())] + [TreeStack({(): "@", (1,): c}, p)
                                          for c in "AB" for p in ((), (1,))]


def _step_or_none(tsa, cfg, t):
    try:
        return step(tsa, "", cfg, t)
    except NotApplicable:
        return None


def test_standardise_composes_every_stationary_cell():
    # each pair of stationary eps rows over labels A and B gets the one
    # composite that does both, checked through `step` on every tree stack
    # of depth <= 1: it applies exactly where the pair does, with the same
    # result
    T = Transition
    fired = set()
    for (p1, f1), (p2, f2) in itertools.product(STATIONARY, STATIONARY):
        t1, t2 = T("q1", None, p1, f1, "q2"), T("q2", None, p2, f2, "q3")
        tsa = Tsa(("q1", "q2", "q3"), ("A", "B"), ("a",), "q1", (t1, t2), frozenset({"q3"}))
        composite = standardise(tsa).delta[2:]  # at most q1 -> q3
        for ts in DEPTH_ONE:
            cfg = Configuration("q1", ts, 0)
            mid = _step_or_none(tsa, cfg, t1)
            want = None if mid is None else _step_or_none(tsa, mid, t2)
            got = _step_or_none(tsa, cfg, composite[0]) if composite else None
            assert len(composite) <= 1 and got == want, (str(t1), str(t2), ts)
            if want is not None:
                fired.add((t1, t2))
        # and no composite for a pair that never fires
        assert bool(composite) == ((t1, t2) in fired), (str(t1), str(t2))
    assert len(fired) == 60


def test_standardise_composes_eq_then_true_with_set():
    # `eq A` with `id`, then `true` with `set B`: the only accepting run of
    # the empty word takes both in a row, so without their composite the
    # standardised machine has no proper run
    tsa = parse_tsa("tsa\nstates: q0 q1 q2 q3 q4\ninitial: q0\nfinal: q4\nlabels: A B\n"
                    "alphabet: a\n"
                    "trans: q0 eps true push 1 A q1\n"
                    "trans: q1 eps eq A id q2\n"
                    "trans: q2 eps true set B q3\n"
                    "trans: q3 eps eq B down q4\n")
    std = standardise(tsa)
    assert accepts(tsa, "")
    assert accepts(std, "", SearchOptions(proper_only=True))
    assert [str(t) for t in std.delta[len(tsa.delta):]] == ["q1 eps eq A set B q3"]


def test_abcd_already_standardised():
    tsa = abcd_tsa()
    assert standardise(tsa).delta == tsa.delta


def test_standardise_idempotent_and_language_preserving():
    T = Transition
    t1 = T("q1", None, pred_eq("c"), instr_set("d"), "q2")
    t2 = T("q2", None, pred_eq("d"), instr_set("e"), "q3")
    loader = T("q1", "a", PRED_TRUE, instr_push(1, "c"), "q1")
    tsa = _toy([loader, t1, t2])
    once = standardise(tsa)
    assert standardise(once).delta == once.delta
    assert set(tsa.delta) <= set(once.delta)
    o = SearchOptions(accept_mode="any")
    for L in range(6):
        assert enumerate_words(tsa, L, o) == enumerate_words(once, L, o)


def test_proper_runs():
    tsa = abcd_tsa()
    res = accepts(tsa, "aabbccdd", K2)
    assert is_proper(res)
    # an improper machine: two stationary eps steps in a row
    T = Transition
    imp = Tsa(("q0", "q1", "q2"), ("c",), ("a",),
              "q0",
              (T("q0", None, PRED_TRUE, instr_id(), "q1"),
               T("q1", None, PRED_TRUE, instr_id(), "q2")),
              frozenset({"q2"}))
    res = accepts(imp, "", SearchOptions(accept_mode="any"))
    assert res and not is_proper(res)
    assert not accepts(imp, "", SearchOptions(accept_mode="any", proper_only=True))


def test_standardised_machines_have_proper_witnesses():
    # after standardising, the proper-filtered search finds every word the
    # unrestricted search finds (with room in the budgets)
    T = Transition
    t1 = T("q1", "a", PRED_TRUE, instr_push(1, "c"), "q1")
    t2 = T("q1", None, pred_eq("c"), instr_set("d"), "q2")
    t3 = T("q2", None, pred_eq("d"), instr_set("e"), "q3")
    t4 = T("q3", "a", pred_eq("e"), instr_down(), "q3")
    tsa = _toy([t1, t2, t3, t4])
    std = standardise(tsa)
    for L in range(5):
        plain = enumerate_words(std, L, SearchOptions(accept_mode="any"))
        proper = enumerate_words(std, L, SearchOptions(accept_mode="any", proper_only=True))
        assert plain == proper


def test_make_root_accepting_preserves_language():
    tsa = abcd_tsa()
    rooted = make_root_accepting(tsa)
    assert (enumerate_words(tsa, 8, SearchOptions(k=2, accept_mode="any"))
            == enumerate_words(rooted, 8, SearchOptions(k=2, accept_mode="root")))


def test_make_root_accepting_stranded_pointer():
    # accepts "a" with the pointer stranded at depth 2
    T = Transition
    tsa = Tsa(("q0", "q1", "q2"), ("x",), ("a",), "q0",
              (T("q0", "a", PRED_TRUE, instr_push(1, "x"), "q1"),
               T("q1", None, PRED_TRUE, instr_push(1, "x"), "q2")),
              frozenset({"q2"}))
    assert accepts(tsa, "a", SearchOptions(accept_mode="any"))
    assert not accepts(tsa, "a", SearchOptions(accept_mode="root"))
    rooted = make_root_accepting(tsa)
    res = accepts(rooted, "a", SearchOptions(accept_mode="root"))
    assert res and res.final().ts.pointer == ()
    # only down/id were added: vfb counts unchanged
    assert max(visited_from_below_counts(res).values()) == 1


def test_make_root_accepting_no_finals():
    T = Transition
    tsa = Tsa(("q0",), ("x",), ("a",), "q0", (), frozenset())
    out = make_root_accepting(tsa)
    assert not accepts(out, "", SearchOptions(accept_mode="root"))


def test_two_branch_machine_matches_grammar():
    # the two-branch a^n b^m c^n d^m machine against the two-pair grammar
    from tsalab.fixtures import anbmcndm_tsa
    from tsalab.mcfg import EXAMPLE_ANBMCNDM, mcfg_enumerate, parse_mcfg

    grammar = parse_mcfg(EXAMPLE_ANBMCNDM)
    assert enumerate_words(anbmcndm_tsa(), 8, K2) == mcfg_enumerate(grammar, 8)


def test_budget_reporting():
    # a machine that can push forever on eps: budget cut, not exhaustion
    T = Transition
    tsa = Tsa(("q0", "q1"), ("x",), ("a",), "q0",
              (T("q0", None, PRED_TRUE, instr_push(1, "x"), "q0"),),
              frozenset({"q1"}))
    res = accepts(tsa, "", SearchOptions(max_steps=10, max_vertices=5))
    assert not res and res.reason == "budget"
