import argparse
import importlib
import io
import itertools
import pkgutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tsalab
import tsalab.cli as cli
import tsalab.tsa as tsa_mod
from tsalab.cli import build_parser, main
from tsalab.treestack import InputError, TreeStackError
from tsalab.mcfg import EXAMPLE_ABCD, EXAMPLE_WPZ

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, buf.getvalue()


def test_run_accept_exit_zero():
    code, out = run_cli("run", "abcd", "--word", "abcd", "--k", "2")
    assert code == 0
    assert "result=accept" in out
    assert "steps=s1 s2 s3 s4 s5 s6 s7 s8 s9" in out


def test_run_reject_exit_one():
    code, out = run_cli("run", "abcd", "--word", "abdc")
    assert code == 1
    assert "result=reject:exhausted" in out


def test_run_budget_exit_two():
    code, out = run_cli("run", "abcd", "--word", "aabbccdd", "--max-steps", "3")
    assert code == 2
    assert "result=reject:budget" in out


def test_run_trace_prints_the_block_then_the_table():
    # the README's example
    code, out = run_cli("run", "abcd", "--word", "aabbccdd", "--k", "2", "--trace")
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == "command=run" and lines[10] == "max_vfb=2"
    table = lines[11:]
    assert len(table) == 15 and table[0].startswith("Transition | State")
    assert [c.strip() for c in table[-1].split("|")] == [
        "s9", "q4", "(eps=@, 1=STAR, 1.1=STAR, 1.1.1=HASH; ptr=eps)", "eps"]


@pytest.mark.parametrize("argv, code, line", [
    (["trace", "abcd", "--word", "abc", "--k", "2"], 1, "result=reject:exhausted"),
    (["trace", "abcd", "--word", "abc", "--k", "2", "--max-steps", "3"], 2,
     "result=reject:budget"),
    (["analyze", "pump", "abcd", "--word", "aabbccdd", "--k", "2", "--m", "1"], 0,
     "result=none"),
    (["rational", "--wp", "abcd", "--regex", "a", "--word", "a"], 3,
     "tsalab: only the t/T group alphabet is built in; supply a wp machine over t T"),
    (["rational", "--wp", "wpz", "--regex", "t+", "--word", "T"], 1, "verdict=no"),
], ids=["trace-exhausted", "trace-budget", "pump-none", "rational-not-wpz", "rational-no"])
def test_exit_code_and_outcome_line(capsys, argv, code, line):
    got, out = run_cli(*argv)
    assert got == code and line in (out + capsys.readouterr().err).splitlines()


def test_run_porcelain_only_block():
    code, out = run_cli("--porcelain", "run", "abcd", "--word", "abcd")
    assert code == 0
    assert out.splitlines()[0] == "command=run"


def test_env_var_budget(monkeypatch):
    monkeypatch.setenv("TSALAB_MAX_STEPS", "3")
    code, out = run_cli("run", "abcd", "--word", "aabbccdd")
    assert code == 2
    monkeypatch.delenv("TSALAB_MAX_STEPS")


WRITER_GOLDENS = [(["fixtures", n], f"fixture_{n}.tsa")
                  for n in ("abcd", "anbmcndm", "updown", "astar", "wpz", "ks")]
WRITER_GOLDENS += [
    (["fixtures", "wpz", "--pda"], "fixture_wpz.pda"),
    (["convert", "pda2tsa", "--root-drain", str(GOLDEN / "fixture_wpz.pda")],
     "wpz_pda2tsa_root_drain.tsa"),
    (["convert", "pda2tsa", "--root-drain", "wpz"], "wpz_pda2tsa_root_drain.tsa"),
]
# a case is named after its golden; a later case on the same golden adds its last argument
WRITER_IDS = [g if [h for _, h in WRITER_GOLDENS].index(g) == i else f"{g}-{argv[-1]}"
              for i, (argv, g) in enumerate(WRITER_GOLDENS)]


@pytest.mark.parametrize("argv, golden", WRITER_GOLDENS, ids=WRITER_IDS)
def test_writers_match_goldens(argv, golden):
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# word lists for `analyze upsets`: every wpz word of length 1-6, and three
# abcd words whose searches a 3-step budget cuts
WORD_FILES = {
    "wpz_words": "\n".join("".join(p) for n in range(1, 7)
                           for p in itertools.product("tT", repeat=n)) + "\n",
    "abcd_words": "abcd aabbccdd ab\n",
}
PORCELAIN_GOLDENS = [
    (["enumerate", "abcd", "--k", "2", "--max-len", "8"], "enumerate_abcd.txt", 0),
    (["enumerate", "anbmcndm", "--k", "2", "--max-len", "8"], "enumerate_anbmcndm.txt", 0),
    (["enumerate", "wpz", "--max-len", "8"], "enumerate_wpz.txt", 0),
    (["analyze", "upsets", "wpz", "--words-file", "{wpz_words}"], "upsets_wpz.txt", 0),
    (["analyze", "upsets", "abcd", "--k", "2", "--words-file", "{abcd_words}",
      "--max-steps", "3"], "upsets_abcd_budget.txt", 2),
]


@pytest.mark.parametrize("argv, golden, code", PORCELAIN_GOLDENS,
                         ids=[g for _, g, _ in PORCELAIN_GOLDENS])
def test_porcelain_matches_goldens(tmp_path, argv, golden, code):
    paths = {}
    for key, text in WORD_FILES.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text)
    got, out = run_cli("--porcelain", *(a.format(**paths) for a in argv))
    assert got == code
    assert out == (GOLDEN / golden).read_text()


def test_run_by_name_matches_run_on_the_golden_file():
    by_name = run_cli("--porcelain", "run", "wpz", "--word", "ttTtTT")
    by_file = run_cli("--porcelain", "run", str(GOLDEN / "fixture_wpz.tsa"), "--word", "ttTtTT")
    assert by_name[0] == 0 and by_file == by_name


def test_mcfg_enumerate_wpz_grammar_to_length_12(tmp_path):
    # the README's example command
    grammar = tmp_path / "wpz.mcfg"
    grammar.write_text(EXAMPLE_WPZ)
    code, out = run_cli("--porcelain", "mcfg", "enumerate", str(grammar), "--max-len", "12")
    assert code == 0
    assert sum(line.startswith("word=") for line in out.splitlines()) == 1275


def test_experiment_f2f2_at_its_default_size():
    code, out = run_cli("--porcelain", "experiment", "f2f2")
    assert code == 0
    lines = out.splitlines()
    for want in ("words=2012283", "members=9", "mismatches=0", "result=pass"):
        assert want in lines


def test_suite_all_fails_only_the_ks_claim():
    code, out = run_cli("suite", "all")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and "exhaustive search rejects ttTtTT" in fails[0]


def test_trace_golden_abcd():
    code, out = run_cli("trace", "abcd", "--word", "aabbccdd", "--k", "2")
    assert code == 0
    assert out == (GOLDEN / "abcd_m2_trace.txt").read_text()
    # 13 transitions, so 14 rows plus the header
    assert len(out.splitlines()) == 15


def test_trace_golden_wpz():
    code, out = run_cli("trace", "wpz", "--word", "ttTtTT")
    assert code == 0
    assert out == (GOLDEN / "wpz_ttTtTT_trace.txt").read_text()
    assert len(out.splitlines()) == 19  # header + initial + 17 steps


def test_trace_golden_ks_stuck():
    code, out = run_cli("trace", "ks", "--word", "ttTtTT",
                        "--follow", "s1.@,s2,s1.t,s2,s7,s5")
    assert code == 1
    assert out == (GOLDEN / "ks_ttTtTT_stuck.txt").read_text()
    lines = out.splitlines()
    assert len(lines) == 9  # header + initial + 6 steps + STUCK
    assert lines[-1] == "STUCK state=S pointer=1.2 label=t pos=3"


# machines whose followed runs end in a final state with the word read:
# off the root, and after two stationary eps steps in a row
FOLLOW_MACHINES = {
    "offroot": """tsa
states: q0 q1
initial: q0
final: q1
labels: X
alphabet: a
trans: q0 a true push 1 X q1  # p
""",
    "stationary": """tsa
states: q0 q1 q2
initial: q0
final: q2
alphabet: a
trans: q0 eps true id q1  # e1
trans: q1 eps true id q2  # e2
""",
}
ABCD_M2 = "s1,s1,s2,s3,s4,s4,s5,s6,s6,s7,s8,s8,s9"


def machine_arg(tmp_path, machine: str) -> str:
    if machine not in FOLLOW_MACHINES:
        return machine
    path = tmp_path / f"{machine}.tsa"
    path.write_text(FOLLOW_MACHINES[machine])
    return str(path)


@pytest.mark.parametrize("machine, word, follow, flags, code", [
    ("offroot", "a", "p", [], 1),
    ("offroot", "a", "p", ["--accept-mode", "any"], 0),
    ("abcd", "aabbccdd", ABCD_M2, [], 0),
    ("abcd", "aabbccdd", ABCD_M2, ["--k", "2"], 0),
    ("abcd", "aabbccdd", ABCD_M2, ["--k", "1"], 1),
    ("stationary", "", "e1,e2", [], 0),
    ("stationary", "", "e1,e2", ["--proper"], 1),
])
def test_follow_exits_as_run_does(tmp_path, machine, word, follow, flags, code):
    machine = machine_arg(tmp_path, machine)
    got, out = run_cli("trace", machine, "--word", word, "--follow", follow, *flags)
    assert got == code and "STUCK" not in out  # the run is not stuck, only not accepted
    assert run_cli("run", machine, "--word", word, *flags)[0] == code


def test_machine_argument_is_a_file_before_a_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wpz").mkdir()  # a directory does not hide the fixture
    assert run_cli("run", "wpz", "--word", "tT")[0] == 0
    (tmp_path / "abcd").write_text(FOLLOW_MACHINES["offroot"])  # a file does
    assert run_cli("run", "abcd", "--word", "abcd")[0] == 1
    assert run_cli("run", "abcd", "--word", "a", "--accept-mode", "any")[0] == 0


@pytest.mark.parametrize("machine, argv, line", [
    ("abcd", ["--word", "aabbccdd", "--k", "2"], "max_vfb=2"),
    ("offroot", ["--word", "a", "--accept-mode", "any"], "max_vfb=1"),  # ends at vertex 1
])
def test_run_porcelain_reports_max_vfb(tmp_path, machine, argv, line):
    code, out = run_cli("--porcelain", "run", machine_arg(tmp_path, machine), *argv)
    assert code == 0 and line in out.splitlines()


@pytest.mark.parametrize("argv", [
    ("trace", "ks", "--word", "ttTtTT", "--follow", "s1.@,s2,s1.t,s2,s7,s5"),
    ("suite", "ks"),
], ids=["trace-follow", "suite-ks"])
def test_stuck_check_lets_step_bugs_propagate(argv, monkeypatch):
    # the stuck-run check (tsa.applicable_transitions) treats NotApplicable
    # as "does not apply"; any other exception from step is a bug and must
    # surface.  The broken step still applies what applies, so the replay
    # of the prefix succeeds and only the stuck check meets the bug.
    real = tsa_mod.step

    def broken(*args):
        try:
            return real(*args)
        except tsa_mod.NotApplicable:
            raise RuntimeError("bug in step") from None

    monkeypatch.setattr(tsa_mod, "step", broken)
    with pytest.raises(RuntimeError, match="bug in step"):
        run_cli(*argv)


def test_trace_byte_identical_across_runs():
    a = run_cli("trace", "wpz", "--word", "ttTtTT")
    b = run_cli("trace", "wpz", "--word", "ttTtTT")
    assert a == b


def test_enumerate_command():
    code, out = run_cli("enumerate", "abcd", "--max-len", "8", "--k", "2")
    assert code == 0
    assert "word=eps" in out and "word=abcd" in out and "word=aabbccdd" in out


def test_enumerate_budget_exit_two():
    code, out = run_cli("--porcelain", "enumerate", "abcd", "--max-len", "4",
                        "--max-steps", "3")
    assert code == 2
    assert out == (GOLDEN / "enumerate_abcd_budget.txt").read_text()
    # every word up to length 4 over abcd is cut off: 1 + 4 + 16 + 64 + 256
    assert "budget_words=341" in out.splitlines()
    assert out.splitlines()[-1].startswith("budget_hit=eps a b ")


def test_run_shows_empty_word_as_eps():
    code, out = run_cli("--porcelain", "run", "astar", "--word", "")
    assert code == 0
    assert out.splitlines()[:2] == ["command=run", "word=eps"]


def test_standardise_command(tmp_path):
    f = tmp_path / "m.tsa"
    f.write_text(
        "tsa\nstates: q1 q2 q3\ninitial: q1\nfinal: q3\nlabels: c d e\nalphabet: a\n"
        "trans: q1 eps eq c set d q2\ntrans: q2 eps eq d set e q3\n")
    code, out = run_cli("standardise", str(f))
    assert code == 0
    assert "trans: q1 eps eq c set e q3" in out


def test_degree_command():
    from tsalab.fixtures import abcd_tsa
    from tsalab.tsa import parse_tsa

    code, out = run_cli("degree", "abcd")
    assert code == 0
    assert "degree=1" in out and "delta_set=1" in out
    code, out = run_cli("degree", "abcd", "--normalize")
    assert code == 0
    assert parse_tsa(out[out.index("\ntsa\n") + 1:]) == abcd_tsa()


def test_mcfg_commands(tmp_path):
    g = tmp_path / "g.mcfg"
    g.write_text(EXAMPLE_ABCD)
    code, out = run_cli("mcfg", "enumerate", str(g), "--max-len", "8")
    assert code == 0 and "word=aabbccdd" in out
    code, _ = run_cli("mcfg", "member", str(g), "--word", "abcd")
    assert code == 0
    code, _ = run_cli("mcfg", "member", str(g), "--word", "abc")
    assert code == 1
    code, out = run_cli("mcfg", "empty", str(g))
    assert code == 0 and "result=nonempty" in out


def test_mcfg_member_shows_empty_word_as_eps(tmp_path):
    g = tmp_path / "g.mcfg"
    g.write_text(EXAMPLE_ABCD)
    code, out = run_cli("--porcelain", "mcfg", "member", str(g), "--word", "")
    assert code == 0
    assert out.splitlines() == ["command=mcfg.member", "word=eps", "result=yes"]


def test_mcfg_member_deleting_grammar(tmp_path):
    g = tmp_path / "del.mcfg"
    g.write_text("mcfg\nstart: S\nrule: T(a, b) <-\nrule: S(x1) <- T(x1, x2)\n")
    code, out = run_cli("mcfg", "member", str(g), "--word", "a")
    assert code == 0 and "result=yes" in out


@pytest.mark.parametrize("argv, name, text, line", [
    (["mcfg", "member", "{}", "--word", "ab"], "bad.mcfg",
     "mcfg\nstart: S\nrule: S(a) <-\nrule: S(x1 x1) <- S(x1)\n", 4),
    (["mcfg", "enumerate", "{}", "--max-len", "2"], "bad.mcfg",
     "mcfg\nstart: S\nrule: S(a, b) <-\n", 2),
    (["run", "{}", "--word", "ab"], "bad.tsa",
     "tsa\nstates: q\ninitial: q\nfinal: r\nalphabet: a\n", 4),
])
def test_malformed_file_exits_three(tmp_path, capsys, argv, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    code = main([a.format(path) for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"tsalab: line {line}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["mcfg", "member", "{missing}", "--word", "a"], id="mcfg-member-missing-file"),
    pytest.param(["convert", "pda2tsa", "{missing}"], id="pda2tsa-missing-file"),
    pytest.param(["analyze", "upsets", "abcd", "--words-file", "{missing}"],
                 id="upsets-missing-words-file"),
    pytest.param(["run", "{missing}", "--word", "a"],  # neither a file nor a fixture
                 id="run-missing-machine"),
    pytest.param(["suite", "nope"], id="suite-unknown"),
    pytest.param(["trace", "ks", "--word", "tT", "--follow", "s1.@,nope"],
                 id="trace-follow-unknown-name"),
    pytest.param(["experiment", "gaps", "--family", "alpha:x"], id="gaps-alpha-not-a-number"),
    pytest.param(["experiment", "gaps", "--family", "cubes"], id="gaps-unknown-family"),
    pytest.param(["run", "abcd"], id="run-without-word"),  # usage error: --word is required
    pytest.param(["frobnicate"], id="unknown-command"),
    pytest.param(["convert", "tsa2pda", "abcd"],  # not a 1-TSA: it has up transitions
                 id="tsa2pda-not-a-1-tsa"),
    pytest.param(["analyze", "updown", "abcd", "--word", "abcd", "--vertex", "x.y"],
                 id="updown-vertex-not-an-address"),
    pytest.param(["analyze", "updown", "abcd", "--word", "abcd", "--vertex", "7"],  # not in the tree
                 id="updown-vertex-not-in-tree"),
    pytest.param(["analyze", "level1", "astar", "--word", ""],  # the run never leaves the root
                 id="level1-run-stays-at-root"),
    pytest.param(["analyze", "bounds", "astar", "--word", "a"],  # degree 0: no push
                 id="bounds-degree-zero"),
    ["analyze", "pump", "astar", "--word", "aaa", "--m", "0"],
    ["analyze", "bounds", "abcd", "--word", "abcd", "--mu", "-1"],
    ["experiment", "gaps", "--family", "pow2", "--n", "0"],
    ["experiment", "gaps", "--family", "pow2", "--m-max", "0"],
    ["experiment", "sm", "--m", "-1"],
    ["experiment", "sm", "--m", "0"],
    ["experiment", "sm", "--i-max", "-1"],
    ["experiment", "ambm", "--i-max", "-1"],
    ["experiment", "f2f2", "--n-max", "0"],
    ["experiment", "f2f2", "--m-max", "0"],
    ["experiment", "sm", "--m", "two"],  # not a number at all
    ["experiment", "sm", "--m", "13"],  # s_13 needs 27 indexed letters
    ["rational", "--wp", "wpz", "--regex", "a", "--word", "T"],  # 'a' is not a group letter
    ["analyze", "swap", "abcd", "--k", "2", "--word1", "aabbccdd", "--vertex1", "1",
     "--word2", "aabbccdd", "--vertex2", "1.1.1"],  # the two vertices' history arrays differ
    ["rational", "--wp", "wpz", "--regex", "t+", "--word", "x"],  # 'x' is not a group letter
    ["analyze", "bounds", "{stationary}", "--word", "aaaaaaaaaa", "--mu", "1"],
    ["convert", "pda2tsa", "{box}"],  # stack symbol [t] is the box label of t
    ["convert", "tsa2pda", "{dash}"],  # stack symbol - would be written as "push nothing"
    ["trace", "ks", "--word", "ttTtTT", "--follow", "s2"],  # s2 does not apply first
    ["trace", "abcd", "--word", "ab", "--follow", "s1,s1"],
    ["enumerate", "abcd", "--max-len", "-1"],
    ["mcfg", "enumerate", "{grammar}", "--max-len", "-1"],
    ["run", "abcd", "--word", "ab", "--max-steps", "-1"],
    ["run", "abcd", "--word", "ab", "--max-vertices", "0"],  # the root alone is one vertex
    ["run", "abcd", "--word", "ab", "--k", "-1"],
    ["analyze", "upsets", "abcd", "--words-file", "{words}", "--show", "-1"],
    pytest.param(["rational", "--wp", "{up}", "--regex", "t+", "--word", "T"],
                 id="rational-wp-with-up-row"),
    pytest.param(["experiment", "gaps", "--family", "alpha:nan"], id="gaps-alpha-nan"),
    pytest.param(["experiment", "gaps", "--family", "alpha:inf"], id="gaps-alpha-inf"),
    pytest.param(["experiment", "gaps", "--family", "alpha:1000"],  # 30 ** 1000 overflows a float
                 id="gaps-alpha-overflows-float"),
    pytest.param(["fixtures", "abcd", "--pda"], id="fixtures-pda-without-one"),  # only wpz has a PDA
    ["trace", "ks", "--word", "tT", "--follow", ""],  # no transition has the empty name
])
def test_bad_input_exits_three(tmp_path, capsys, argv):
    files = {
        "stationary": ("stationary.tsa",  # reads a^n with id at vertex 1
                       "tsa\nstates: p q r\ninitial: p\nfinal: r\nlabels: X\nalphabet: a\n"
                       "trans: p eps true push 1 X q\ntrans: q a true id q\n"
                       "trans: q eps eq X down r\n"),
        "box": ("box.pda", "pda\nstates: q\ninitial: q\nfinal: q\nstack: t [t]\nalphabet: t\n"
                           "trans: q t push @ t q\n"),
        "dash": ("dash.tsa", "tsa\nstates: q\ninitial: q\nfinal: q\nlabels: -\nalphabet: t\n"
                             "trans: q t true push 1 - q\n"),
        "grammar": ("abcd.mcfg", EXAMPLE_ABCD),
        "words": ("words.txt", "abcd\n"),
        "up": ("up.tsa", "tsa\nstates: q\ninitial: q\nfinal: q\nlabels: X\nalphabet: t T\n"
                         "trans: q t true push 1 X q\ntrans: q T eq @ up 1 q\n"),
    }
    paths = {"missing": tmp_path / "missing"}
    for key, (name, text) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_text(text)
    code = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("tsalab: ") and err.count("\n") == 1


def test_refusals_share_one_base():
    # main catches InputError alone, so every refusal derives from it; the
    # other exceptions signal a step that does not apply or a bug and must
    # keep propagating
    signals = (tsa_mod.NotApplicable, tsa_mod.ReplayMismatch, tsa_mod.BudgetExceeded,
               TreeStackError)
    classes = [obj for info in pkgutil.iter_modules(tsalab.__path__)
               for obj in vars(importlib.import_module(f"tsalab.{info.name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("tsalab.")]
    assert len(classes) > 20
    for cls in classes:
        assert issubclass(cls, InputError) or issubclass(cls, signals), cls
        assert not (issubclass(cls, InputError) and issubclass(cls, signals)), cls


@pytest.mark.parametrize("target, argv", [
    ("tsalab.langlab.unary_lengths", ("experiment", "gaps", "--family", "alpha:1.5")),
    ("tsalab.cli.accepts", ("run", "abcd", "--word", "abcd")),
    ("tsalab.cli.parse_address", ("analyze", "updown", "abcd", "--word", "abcd",
                                  "--vertex", "1")),
], ids=["gaps", "run", "address"])
def test_plain_value_error_propagates(target, argv, monkeypatch):
    # only an InputError is the caller's fault; a plain ValueError from
    # inside a command is a bug and must surface, not become exit 3
    def broken(*args, **kwargs):
        raise ValueError("bug in command")

    monkeypatch.setattr(target, broken)
    with pytest.raises(ValueError, match="bug in command"):
        main(list(argv))


def test_witness_outside_the_search_contract_is_a_bug(monkeypatch):
    # analyze asks for a proper run to the root; a witness that is not one is
    # a search bug and must surface, not become exit 3 via TraceNotProper
    monkeypatch.setattr("tsalab.cli.is_proper", lambda trace: False)
    with pytest.raises(AssertionError):
        main(["analyze", "updown", "abcd", "--word", "abcd", "--vertex", "1"])


def test_analyze_upsets_reports_rejected_words(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("ab\nabcd\n")
    code, out = run_cli("analyze", "upsets", "abcd", "--words-file", str(words), "--k", "2")
    assert code == 0
    assert "rejected=ab" in out.splitlines() and "budget_failures=" not in out


def test_analyze_upsets_exits_two_on_a_budget_cut(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("abcd aabbccdd ab\n")
    code, out = run_cli("analyze", "upsets", "abcd", "--words-file", str(words), "--k", "2",
                        "--max-steps", "3")
    assert code == 2
    assert "budget_failures=abcd aabbccdd ab" in out.splitlines()


def test_bad_max_steps_env_exits_three(monkeypatch, capsys):
    for value in ("many", "²", "-3"):  # ² passes str.isdigit, not int()
        monkeypatch.setenv("TSALAB_MAX_STEPS", value)
        assert main(["run", "abcd", "--word", "abcd"]) == 3, value
        assert capsys.readouterr().err.startswith("tsalab: TSALAB_MAX_STEPS"), value


def test_analyze_updown_factorise_history():
    code, out = run_cli("analyze", "updown", "updown", "--word", "abcdefgh",
                        "--vertex", "1.1")
    assert code == 0 and "updown=2 5 9 12" in out
    code, out = run_cli("analyze", "factorise", "updown", "--word", "abcdefgh",
                        "--vertex", "1.1")
    assert code == 0
    assert "w0=ab" in out and "u1=c" in out and "w1=de" in out and "u2=f" in out and "w2=gh" in out
    code, out = run_cli("analyze", "history", "updown", "--word", "abcdefgh",
                        "--vertex", "1.1")
    assert code == 0
    assert "labels=c2 c3 c3 c6" in out and "states=q2 q5 q4 q0" in out


@pytest.mark.parametrize("word, max_steps, code", [
    ("aabbccdd", "3", 2),  # budget cut
    ("aabbccd", "1000", 1),  # exhausted
])
def test_analyze_without_witness_exit_code(capsys, word, max_steps, code):
    argv = ["analyze", "updown", "abcd", "--word", word, "--vertex", "1", "--max-steps", max_steps]
    assert run_cli(*argv)[0] == code
    err = capsys.readouterr().err
    assert err.startswith("tsalab: no proper witness") and err.count("\n") == 1


def test_analyze_report_golden():
    _, a = run_cli("--porcelain", "analyze", "updown", "updown",
                   "--word", "abcdefgh", "--vertex", "1.1")
    _, b = run_cli("--porcelain", "analyze", "history", "updown",
                   "--word", "abcdefgh", "--vertex", "1.1")
    assert a + b == (GOLDEN / "analyze_updown_demo.txt").read_text()


def test_analyze_level1():
    code, out = run_cli("analyze", "level1", "abcd", "--word", "aabbccdd", "--k", "2")
    assert code == 0
    assert "l=1 7" in out and "m=5 11" in out and "n=1 1" in out


def test_analyze_swap():
    code, out = run_cli("analyze", "swap", "abcd", "--word1", "abcd", "--vertex1", "1",
                        "--word2", "aabbccdd", "--vertex2", "1", "--k", "2")
    assert code == 0
    assert "word=aabbccdd" in out and "accepted=yes" in out and "splice_replay=ok" in out


def test_analyze_pump():
    code, out = run_cli("analyze", "pump", "astar", "--word", "aaaaa", "--m", "1")
    assert code == 0
    assert "y=a" in out and "verified=0:yes 2:yes 3:yes" in out


def test_analyze_upsets(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("abcd\naabbccdd\n")
    code, out = run_cli("analyze", "upsets", "abcd", "--words-file", str(words), "--k", "2")
    assert code == 0
    assert "array=(STAR STAR STAR STAR | q0 q1 q2 q3)" in out


def test_analyze_bounds():
    code, out = run_cli("analyze", "bounds", "abcd", "--word", "aabbccdd",
                        "--k", "2", "--mu", "1")
    assert code == 0
    assert "all_ok=yes" in out


def test_convert_round_trip(tmp_path):
    code, pda_text = run_cli("fixtures", "wpz", "--pda")
    assert code == 0
    f = tmp_path / "wpz.pda"
    f.write_text(pda_text)
    code, tsa_text = run_cli("convert", "pda2tsa", str(f))
    assert code == 0
    g = tmp_path / "wpz.tsa"
    g.write_text(tsa_text)
    code, out = run_cli("run", str(g), "--word", "ttTT", "--accept-mode", "any")
    assert code == 0
    code, back = run_cli("convert", "tsa2pda", str(g))
    assert code == 0
    h = tmp_path / "back.pda"
    h.write_text(back)
    # the doubly converted machine still recognises balanced words
    from tsalab.convert import parse_pda, pda_accepts

    pda = parse_pda(back)
    assert pda_accepts(pda, "tT") and not pda_accepts(pda, "tt", max_steps=200)


def test_convert_pda2tsa_primes_a_state_the_pda_uses(tmp_path):
    # the pop ladder's state q^(u) is also a PDA state; the writer used to
    # read back a repeated state and refuse the machine (exit 3)
    from tsalab.tsa import parse_tsa

    f = tmp_path / "tagged.pda"
    f.write_text("pda\nstates: q q^(u)\ninitial: q\nfinal: q^(u)\nstack: t\nalphabet: t\n"
                 "trans: q t push @ t q\ntrans: q t pop t q^(u)\n")
    code, out = run_cli("convert", "pda2tsa", str(f))
    assert code == 0
    assert parse_tsa(out).states == ("q", "q^(u)", "q^(u)'", "q^(t)", "q^(u)^(d)")


def test_convert_tsa2pda_rejects_up(tmp_path, capsys):
    code, out = run_cli("fixtures", "abcd")
    f = tmp_path / "abcd.tsa"
    f.write_text(out)
    assert main(["convert", "tsa2pda", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tsalab: ") and err.count("\n") == 1


def test_fixtures_parseable(tmp_path):
    from tsalab.tsa import parse_tsa

    for name in ("abcd", "anbmcndm", "wpz", "ks", "updown", "astar"):
        code, out = run_cli("fixtures", name)
        assert code == 0
        parse_tsa(out)


def test_fixtures_help_lists_each_name_once():
    code, out = run_cli("fixtures", "--help")
    assert code == 0
    choices = out[out.index("{") + 1:out.index("}")].split(",")
    assert choices == ["abcd", "anbmcndm", "astar", "ks", "updown", "wpz"]


def leaf_handlers(parser, handler=None, path=()):
    """Every leaf command of the parser tree, as (argv prefix, handler).
    A leaf's handler is the nearest `func` default on its path, the one
    argparse leaves in the namespace."""
    handler = parser.get_default("func") or handler
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, handler
    for group in groups:
        for name, sub in group.choices.items():
            yield from leaf_handlers(sub, handler, path + (name,))


LEAVES = list(leaf_handlers(build_parser()))


@pytest.mark.parametrize("path, handler", LEAVES, ids=[" ".join(p) for p, _ in LEAVES])
def test_every_leaf_resolves_to_its_handler_and_has_help(path, handler):
    assert handler is getattr(cli, f"cmd_{path[0]}")
    code, out = run_cli(*path, "--help")
    assert code == 0 and out.startswith(f"usage: tsalab {' '.join(path)} ")


def test_experiment_gaps():
    code, out = run_cli("experiment", "gaps", "--family", "pow2", "--n", "20",
                        "--m-max", "50")
    assert code == 0 and "verdict=gap-divergent (sample)" in out
    code, out = run_cli("experiment", "gaps", "--family", "alpha:1.5", "--n", "40",
                        "--m-max", "10")
    assert code == 0


def test_experiment_f2f2_small():
    code, out = run_cli("experiment", "f2f2", "--n-max", "1", "--m-max", "2")
    assert code == 0 and "result=pass" in out


def test_experiment_pumps():
    code, out = run_cli("experiment", "sm", "--m", "2", "--i-max", "3")
    assert code == 0 and "result=pass" in out
    code, out = run_cli("experiment", "ambm", "--i-max", "3")
    assert code == 0


def test_rational_command():
    code, out = run_cli("rational", "--wp", "wpz", "--regex", "t+", "--word", "tt")
    assert code == 0 and "verdict=yes" in out and "witness=ttTT" in out
    code, out = run_cli("rational", "--wp", "wpz", "--regex", "t+", "--word", "T")
    assert code == 1 and "verdict=no" in out.splitlines()
    code, out = run_cli("--porcelain", "rational", "--wp", "wpz", "--regex", "tT", "--word", "t")
    assert code == 1 and out.endswith("verdict=no\n")


def test_suite_unknown_name():
    code, _ = run_cli("suite", "nope")
    assert code not in (0, None)


def test_suite_abcd_passes():
    code, out = run_cli("suite", "abcd")
    assert code == 0
    assert "FAIL" not in out


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "tsalab.cli", "run", "abcd",
                           "--word", "abcd"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_matches_library():
    from tsalab.fixtures import abcd_tsa
    from tsalab.tsa import SearchOptions, accepts

    code, out = run_cli("run", "abcd", "--word", "aabbccdd", "--k", "2")
    lib = accepts(abcd_tsa(), "aabbccdd", SearchOptions(k=2))
    assert ("steps=" + " ".join(lib.names())) in out
