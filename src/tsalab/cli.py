"""Command-line front end.  Every command is a thin adapter over the
library with a stable, line-oriented output format:

    result blocks are `key=value` lines; trace tables are four columns
    (Transition | State | Tree stack | Input read) with the tree stack in
    its canonical text rendering.

Exit codes: 0 accept, 1 reject, 2 budget cut; every command exits 3 on
bad input (a usage error, a missing or malformed file, an unknown name, a
machine, run or parameter the command cannot take, a bad vertex), with one
`tsalab: ...` line on stderr.  Every such refusal is an `InputError` or a
missing file; any other exception is a bug and propagates.  The env var
TSALAB_MAX_STEPS overrides the default step budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, convert, fixtures, langlab, mcfg, suites
from .treestack import ROOT, InputError, format_address, parse_address, render_tree_stack
from .tsa import (
    BudgetExceeded,
    ReplayMismatch,
    RunTrace,
    SearchOptions,
    Tsa,
    accepts,
    applicable_transitions,
    degree,
    enumerate_words,
    is_accepting_run,
    is_proper,
    make_root_accepting,
    normalize_child_indices,
    parse_tsa,
    render_tsa,
    replay,
    search_budgets,
    standardise,
    visited_from_below_counts,
)

class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def at_least(lo: int):
    """An argparse type: an int no smaller than `lo`, so that a count
    flag out of range is a usage error (exit 3) and not a run."""
    def count(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    count.__name__ = "int"  # argparse names the type in "invalid int value"
    return count


def load_machine(source: str, pda: bool = False):
    """A machine argument is a file path or a built-in fixture name: a TSA,
    or a PDA when `pda` is set.  A file of that name comes first; a
    directory does not hide a fixture."""
    parse, table = ((convert.parse_pda, fixtures.PDA_FILES) if pda
                    else (parse_tsa, fixtures.TSA_FILES))
    p = Path(source)
    if p.is_file():
        return parse(p.read_text())
    if source in table:
        return parse(table[source])
    raise InputError(f"no such file or fixture: {source}")


def search_options(args) -> SearchOptions:
    max_steps = args.max_steps
    env = os.environ.get("TSALAB_MAX_STEPS")
    if max_steps is None and env:
        try:  # parsed as --max-steps is
            max_steps = at_least(0)(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise InputError(f"TSALAB_MAX_STEPS must be a number, got {env!r}") from None
    return SearchOptions(
        k=args.k,
        accept_mode=getattr(args, "accept_mode", "root"),
        max_steps=max_steps,
        max_vertices=args.max_vertices,
        proper_only=getattr(args, "proper", False),
    )


def describe_options(opts: SearchOptions, word_len: int, tsa: Tsa) -> list[str]:
    steps, verts = search_budgets(tsa, opts, word_len)
    return [
        f"k={opts.k if opts.k is not None else 'none'}",
        f"accept_mode={opts.accept_mode}",
        f"max_steps={steps}",
        f"max_vertices={verts}",
        f"proper_only={str(opts.proper_only).lower()}",
    ]


def search_exit(reason: str) -> int:
    """The exit code of a search that found no run: 2 if a budget cut it
    off, 1 if it exhausted the space (reject)."""
    return 2 if reason == "budget" else 1


def show(word: str) -> str:
    """A word as the porcelain block writes it: the empty word is `eps`."""
    return word or "eps"


def word_lines(words) -> list[str]:
    """`word=` lines for a set of words, shortest first, then alphabetically."""
    return [f"word={show(w)}" for w in sorted(words, key=lambda w: (len(w), w))]


def trace_table(trace: RunTrace) -> str:
    rows = [("Transition", "State", "Tree stack", "Input read")]
    rows.append(("-", trace.initial.state, render_tree_stack(trace.initial.ts), "-"))
    for tidx, cfg in trace.steps:
        t = trace.tsa.delta[tidx]
        read = t.inp if t.inp is not None else "eps"
        rows.append((trace.tsa.transition_display(tidx), cfg.state,
                     render_tree_stack(cfg.ts), read))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for r in rows:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    return "\n".join(lines)


def emit(args, human: str | None, block: list[str]):
    if not getattr(args, "porcelain", False) and human:
        print(human)
    for line in block:
        print(line)


# ---------------------------------------------------------------------------
# commands

def cmd_run(args) -> int:
    tsa = load_machine(args.machine)
    opts = search_options(args)
    res = accepts(tsa, args.word, opts)
    block = (["command=run", f"word={show(args.word)}"]
             + describe_options(opts, len(args.word), tsa))
    if res:
        block.append("result=accept")
        block.append("steps=" + " ".join(res.names()))
        counts = visited_from_below_counts(res)
        block.append("max_vfb=" + str(max(counts.values(), default=0)))
        emit(args, f"accept ({len(res)} steps)", block)
        if args.trace:
            print(trace_table(res))
        return 0
    block.append(f"result=reject:{res.reason}")
    emit(args, f"reject ({res.reason})", block)
    return search_exit(res.reason)


def cmd_trace(args) -> int:
    tsa = load_machine(args.machine)
    if args.follow is not None:
        # replay a named transition sequence instead of searching; show
        # where it jams if it does
        names = args.follow.split(",")
        by_name = {t.name: i for i, t in enumerate(tsa.delta) if t.name}
        try:
            idxs = [by_name[n] for n in names]
        except KeyError as e:
            raise InputError(f"unknown transition name {e}") from None
        try:
            tr = replay(tsa, args.word, idxs)
        except ReplayMismatch as e:
            raise InputError(f"--follow {names[e.step_index - 1]} does not apply: {e}") from None
        print(trace_table(tr))
        final = tr.final()
        done = final.pos == len(args.word) and final.state in tsa.finals
        if not done and not applicable_transitions(tsa, args.word, final):
            print(f"STUCK state={final.state} pointer={format_address(final.ts.pointer)} "
                  f"label={final.ts.pointer_label} pos={final.pos}")
        opts = SearchOptions(k=args.k, accept_mode=args.accept_mode, proper_only=args.proper)
        return 0 if is_accepting_run(tr, opts) else 1
    opts = search_options(args)
    res = accepts(tsa, args.word, opts)
    if res:
        print(trace_table(res))
        return 0
    print(f"result=reject:{res.reason}")
    return search_exit(res.reason)


def cmd_enumerate(args) -> int:
    tsa = load_machine(args.machine)
    opts = search_options(args)
    try:
        words = enumerate_words(tsa, args.max_len, opts)
        budget = []
    except BudgetExceeded as e:
        words, budget = e.words, e.budget_words
    block = (["command=enumerate", f"max_len={args.max_len}"]
             + describe_options(opts, args.max_len, tsa))
    block += word_lines(words)
    if budget:
        block.append(f"budget_words={len(budget)}")
        block.append("budget_hit=" + " ".join(map(show, budget[:20])))
    emit(args, f"{len(words)} word(s)", block)
    return 2 if budget else 0


def cmd_standardise(args) -> int:
    tsa = load_machine(args.machine)
    out = standardise(tsa)
    if not args.porcelain:
        print(f"# was standardised: {str(len(out.delta) == len(tsa.delta)).lower()}; "
              f"added {len(out.delta) - len(tsa.delta)} transition(s)")
    print(render_tsa(out), end="")
    return 0


def cmd_degree(args) -> int:
    tsa = load_machine(args.machine)
    d = degree(tsa)
    block = ["command=degree",
             "delta_set=" + " ".join(str(i) for i in sorted(d.delta_set)),
             f"degree={d.value}"]
    emit(args, f"degree {d.value}", block)
    if args.normalize:
        print(render_tsa(normalize_child_indices(tsa)), end="")
    return 0


def cmd_mcfg(args) -> int:
    g = mcfg.parse_mcfg(Path(args.grammar).read_text())
    if args.mcfg_cmd == "enumerate":
        words = mcfg.mcfg_enumerate(g, args.max_len)
        block = ["command=mcfg.enumerate", f"max_len={args.max_len}"]
        block += word_lines(words)
        emit(args, f"{len(words)} word(s)", block)
        return 0
    if args.mcfg_cmd == "member":
        ok = mcfg.mcfg_member(g, args.word)
        emit(args, "member" if ok else "not a member",
             ["command=mcfg.member", f"word={show(args.word)}", f"result={'yes' if ok else 'no'}"])
        return 0 if ok else 1
    # empty
    prod = mcfg.productive_nonterminals(g)
    empty = g.start not in prod
    block = ["command=mcfg.empty",
             "productive=" + " ".join(sorted(prod)),
             f"result={'empty' if empty else 'nonempty'}"]
    emit(args, "empty" if empty else "nonempty", block)
    return 0


def _witness(tsa, word, args):
    opts = replace(search_options(args), proper_only=True)
    res = accepts(tsa, word, opts)
    if not res:
        print(f"tsalab: no proper witness run for {word!r} ({res.reason})", file=sys.stderr)
        raise SystemExit(search_exit(res.reason))
    assert is_proper(res) and res.final().ts.pointer == ROOT  # else a search bug
    return res


def _factor_lines(f: analysis.NuFactorisation) -> list[str]:
    lines = [f"w0={show(f.w0)}"]
    for j, (u, w) in enumerate(f.parts, start=1):
        lines += [f"u{j}={show(u)}", f"w{j}={show(w)}"]
    return lines


def cmd_analyze(args) -> int:
    tsa = load_machine(args.machine)
    sub = args.analyze_cmd
    if sub in ("updown", "factorise", "history"):
        trace = _witness(tsa, args.word, args)
        nu = parse_address(args.vertex)
        block = [f"command=analyze.{sub}", f"word={show(args.word)}", f"vertex={args.vertex}"]
        if sub == "updown":
            udv = analysis.up_down_vector(trace, nu)
            block.append("updown=" + " ".join(str(i) for i in udv.flat()))
        elif sub == "factorise":
            block += _factor_lines(analysis.nu_factorisation(trace, nu))
        else:
            h = analysis.history_array(trace, nu)
            block.append("labels=" + " ".join(h.labels))
            block.append("states=" + " ".join(h.states))
        emit(args, None, block)
        return 0
    if sub == "level1":
        trace = _witness(tsa, args.word, args)
        l1 = analysis.level1_arrays(trace)
        block = ["command=analyze.level1", f"word={show(args.word)}",
                 "l=" + " ".join(map(str, l1.ls)),
                 "m=" + " ".join(map(str, l1.ms)),
                 "n=" + " ".join(map(str, l1.ns))]
        block += _factor_lines(l1.factorisation)
        block.append("labels=" + " ".join(l1.history_labels))
        block.append("states=" + " ".join(l1.history_states))
        block.append("children=" + " ".join(map(str, l1.history_children)))
        emit(args, None, block)
        return 0
    if sub == "upsets":
        words = Path(args.words_file).read_text().split()
        ups = analysis.collect_upsets(tsa, words, search_options(args))
        block = ["command=analyze.upsets", f"words={len(words)}"]
        weights = ups.max_total_lengths()
        for h in sorted(ups.entries, key=lambda h: (h.s, h.labels, h.states)):
            tuples = sorted(ups.entries[h])
            block.append(f"array=({' '.join(h.labels)} | {' '.join(h.states)})")
            block.append(f"  tuples={len(tuples)} max_total_len={weights[h]}")
            for t in tuples[: args.show]:
                block.append("  u=(" + ", ".join(map(show, t)) + ")")
        if ups.budget_failures:
            block.append("budget_failures=" + " ".join(ups.budget_failures))
        if ups.rejected:
            block.append("rejected=" + " ".join(ups.rejected))
        emit(args, f"{len(ups.entries)} distinct history array(s)", block)
        return 2 if ups.budget_failures else 0
    if sub == "swap":
        t1 = _witness(tsa, args.word1, args)
        t2 = _witness(tsa, args.word2, args)
        rep = analysis.single_swap(t1, parse_address(args.vertex1),
                                   t2, parse_address(args.vertex2))
        block = ["command=analyze.swap",
                 f"word={show(rep.word)}",
                 f"accepted={'yes' if rep.accepted else 'no:' + (rep.search_reason or '')}",
                 f"splice_replay={'ok' if rep.spliced_replay_ok else 'failed'}"]
        emit(args, f"swapped word {rep.word}", block)
        return 0 if rep.accepted else 1
    if sub == "pump":
        trace = _witness(tsa, args.word, args)
        res = analysis.find_pumpable(trace, args.m)
        block = ["command=analyze.pump", f"word={show(args.word)}", f"m={args.m}"]
        if res is None:
            block.append("result=none")
        else:
            block += [f"x={show(res.x)}", f"y={show(res.y)}", f"z={show(res.z)}",
                      f"vertex={format_address(res.vertex)}",
                      "verified=" + " ".join(f"{n}:{'yes' if ok else 'no'}"
                                             for n, ok in sorted(res.verified.items()))]
        emit(args, None, block)
        return 0
    # bounds
    if degree(tsa).value == 0:
        raise InputError("bounds assume positive degree (at least one push)")
    trace = _witness(tsa, args.word, args)
    rep = analysis.check_atv_bounds(trace, args.mu)
    block = ["command=analyze.bounds", f"word={show(args.word)}", f"mu={args.mu}", f"k={rep.k}"]
    for row in rep.vertices:
        block.append(f"vertex={format_address(row.vertex)} kind={row.kind} "
                     f"letters={row.letters} bound={row.bound} "
                     f"ok={'yes' if row.ok else 'no'}")
    block.append(f"all_ok={'yes' if rep.all_ok else 'no'}")
    emit(args, None, block)
    return 0 if rep.all_ok else 1


def cmd_convert(args) -> int:
    if args.convert_cmd == "pda2tsa":
        pda = load_machine(args.file, pda=True)
        tsa = convert.pda_to_tsa1(pda)
        print(render_tsa(make_root_accepting(tsa) if args.root_drain else tsa), end="")
        return 0
    # tsa2pda
    tsa = load_machine(args.file)
    print(convert.render_pda(convert.tsa1_to_pda(tsa)), end="")
    return 0


def cmd_fixtures(args) -> int:
    if not args.pda:
        print(render_tsa(parse_tsa(fixtures.TSA_FILES[args.name])), end="")
    elif args.name in fixtures.PDA_FILES:
        print(convert.render_pda(convert.parse_pda(fixtures.PDA_FILES[args.name])), end="")
    else:
        raise InputError(f"fixture {args.name} has no PDA")
    return 0


def cmd_experiment(args) -> int:
    if args.experiment_cmd == "f2f2":
        rep = langlab.f2f2_experiment(args.n_max, args.m_max)
        block = ["command=experiment.f2f2",
                 f"n_max={rep.n_max}", f"m_max={rep.m_max}",
                 f"words={rep.total}", f"members={rep.members}",
                 f"mismatches={len(rep.mismatches)}",
                 f"psi_image_exact={'yes' if rep.psi_image == rep.psi_expected else 'no'}",
                 f"result={'pass' if rep.ok else 'fail'}"]
        emit(args, "pass" if rep.ok else "fail", block)
        return 0 if rep.ok else 1
    if args.experiment_cmd == "gaps":
        family, alpha = args.family, None
        if family.startswith("alpha:"):
            try:
                family, alpha = "alpha", float(family.split(":", 1)[1])
            except ValueError as e:
                raise InputError(f"bad family {args.family!r}: {e}") from None
        lengths = langlab.unary_lengths(family, args.n, alpha=alpha)
        rep = langlab.gap_check(lengths, args.m_max)
        block = ["command=experiment.gaps", f"family={args.family}",
                 f"samples={len(lengths)}", f"m_max={args.m_max}",
                 f"verdict={rep.verdict}"]
        emit(args, rep.verdict, block)
        return 0
    # sm, ambm
    pattern = suites.pump_pattern(args.experiment_cmd, getattr(args, "m", 2))
    rep = analysis.weak_pump_verify(*pattern, args.i_max)
    block = [f"command=experiment.{args.experiment_cmd}",
             f"i_max={args.i_max}",
             f"result={'pass' if rep.all_ok else 'fail'}"]
    for i, word, ok in rep.results:
        block.append(f"i={i} word={show(word)} member={'yes' if ok else 'no'}")
    emit(args, "pass" if rep.all_ok else "fail", block)
    return 0 if rep.all_ok else 1


def cmd_rational(args) -> int:
    wp = load_machine(args.wp)
    fsa = langlab.regex_to_fsa(args.regex, wp.alphabet)
    pairing = langlab.WPZ_ALPHABET if set(wp.alphabet) == {"t", "T"} else None
    if pairing is None:
        raise InputError("only the t/T group alphabet is built in; "
                       "supply a wp machine over t T")
    ans = langlab.rational_membership(wp, fsa, args.word, pairing)
    block = ["command=rational", f"word={show(args.word)}", f"regex={args.regex}",
             f"verdict={ans.verdict}"]
    if ans.witness is not None:
        block.append(f"witness={show(ans.witness)}")
    emit(args, ans.verdict, block)
    return 0 if ans.verdict == "yes" else 1


def cmd_suite(args) -> int:
    return 0 if suites.run_suite(args.name) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = Parser(prog="tsalab", description=__doc__,
               formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--porcelain", action="store_true",
                   help="machine-readable output only")
    sub = p.add_subparsers(dest="cmd", required=True)

    def searching(group, name, word=True, modes=False, **kw):
        """A searching subcommand: its machine, --word unless it takes none,
        the budget flags and, with `modes`, the accept-mode flags (analyze
        always takes a proper run to the root)."""
        sp = group.add_parser(name, **kw)
        sp.add_argument("machine")
        if word:
            sp.add_argument("--word", required=True)
        sp.add_argument("--k", type=at_least(0), default=None)
        sp.add_argument("--max-steps", dest="max_steps", type=at_least(0), default=None)
        sp.add_argument("--max-vertices", dest="max_vertices", type=at_least(1), default=None)
        if modes:
            sp.add_argument("--accept-mode", dest="accept_mode",
                            choices=("root", "any"), default="root")
            sp.add_argument("--proper", action="store_true")
        return sp

    sp = searching(sub, "run", modes=True, help="search for an accepting run")
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = searching(sub, "trace", modes=True, help="print the witness run as a table")
    sp.add_argument("--follow", default=None,
                    help="comma-separated transition names to replay instead of searching")
    sp.set_defaults(func=cmd_trace)

    sp = searching(sub, "enumerate", word=False, modes=True,
                   help="all accepted words up to a length")
    sp.add_argument("--max-len", type=at_least(0), required=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("standardise", help="close delta under stationary composition")
    sp.add_argument("machine")
    sp.set_defaults(func=cmd_standardise)

    sp = sub.add_parser("degree", help="push index set and degree")
    sp.add_argument("machine")
    sp.add_argument("--normalize", action="store_true")
    sp.set_defaults(func=cmd_degree)

    sp = sub.add_parser("mcfg", help="grammar operations")
    sp.set_defaults(func=cmd_mcfg)
    msub = sp.add_subparsers(dest="mcfg_cmd", required=True)
    me = msub.add_parser("enumerate")
    me.add_argument("grammar")
    me.add_argument("--max-len", type=at_least(0), required=True)
    mm = msub.add_parser("member")
    mm.add_argument("grammar")
    mm.add_argument("--word", required=True)
    mp = msub.add_parser("empty")
    mp.add_argument("grammar")

    sp = sub.add_parser("analyze", help="run analysis")
    sp.set_defaults(func=cmd_analyze)
    asub = sp.add_subparsers(dest="analyze_cmd", required=True)
    for name in ("updown", "factorise", "history"):
        ap = searching(asub, name)
        ap.add_argument("--vertex", required=True)
    searching(asub, "level1")
    ap = searching(asub, "upsets", word=False)
    ap.add_argument("--words-file", dest="words_file", required=True)
    ap.add_argument("--show", type=at_least(0), default=5)
    ap = searching(asub, "swap", word=False)
    ap.add_argument("--word1", required=True)
    ap.add_argument("--vertex1", required=True)
    ap.add_argument("--word2", required=True)
    ap.add_argument("--vertex2", required=True)
    ap = searching(asub, "pump")
    ap.add_argument("--m", type=at_least(1), default=1)
    ap = searching(asub, "bounds")
    ap.add_argument("--mu", type=at_least(1), default=1)

    sp = sub.add_parser("convert", help="PDA <-> 1-TSA translations")
    sp.set_defaults(func=cmd_convert)
    csub = sp.add_subparsers(dest="convert_cmd", required=True)
    cp = csub.add_parser("pda2tsa")
    cp.add_argument("file")
    cp.add_argument("--root-drain", action="store_true")
    ct = csub.add_parser("tsa2pda")
    ct.add_argument("file")

    sp = sub.add_parser("fixtures", help="print a built-in machine")
    sp.add_argument("name", choices=sorted(fixtures.TSA_FILES))
    sp.add_argument("--pda", action="store_true", help="print the PDA instead (wpz only)")
    sp.set_defaults(func=cmd_fixtures)

    sp = sub.add_parser("experiment", help="reproducible experiment bundles")
    sp.set_defaults(func=cmd_experiment)
    esub = sp.add_subparsers(dest="experiment_cmd", required=True)
    ef = esub.add_parser("f2f2")
    ef.add_argument("--n-max", dest="n_max", type=at_least(1), default=3)
    ef.add_argument("--m-max", dest="m_max", type=at_least(1), default=3)
    eg = esub.add_parser("gaps")
    eg.add_argument("--family", required=True,
                    help="pow2 | square | nlogn | alpha:<a>")
    eg.add_argument("--n", type=at_least(1), default=30)
    eg.add_argument("--m-max", dest="m_max", type=at_least(1), default=50)
    for name in ("sm", "ambm"):
        ex = esub.add_parser(name)
        if name == "sm":
            ex.add_argument("--m", type=at_least(1), default=2)
        ex.add_argument("--i-max", dest="i_max", type=at_least(0), default=5)

    sp = sub.add_parser("rational", help="rational-subset membership")
    sp.add_argument("--wp", required=True, help="word-problem machine (file or fixture)")
    sp.add_argument("--regex", required=True)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=cmd_rational)

    sp = sub.add_parser("suite", help="named acceptance bundles")
    sp.add_argument("name", choices=sorted(suites.SUITES) + ["all"])
    sp.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as e:
        print(f"tsalab: {e}", file=sys.stderr)
    except OSError as e:
        if e.filename is None:  # not a file the user named, e.g. a closed pipe
            raise
        print(f"tsalab: {e.filename}: {e.strerror}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
