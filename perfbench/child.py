"""One benchmark workload in a fresh process.

run.py starts it as `python3 child.py '<json>'`, with the keys root,
workload, seed, mode ("setup", "measure" or "trace"), seconds and rounds,
and reads the JSON object it prints as its last line.  The process runs
under its own address-space limit, so a runaway search fails its query
with MemoryError instead of exhausting the machine.
"""

import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import inputs
import oracles
from calibration import Calibrator, calibrated, reference_s
from tracing import Tracer

MEMORY_LIMIT = 1 << 30  # bytes of address space for one workload process

# The grammars of the three sweep languages; {x} is the letter x after the
# round's renaming.  "wpz" is the rank-1 WP(Z) grammar S() | S(t x T) |
# S(T x t) | S(x y), whose enumeration-based membership is exponential.
GRAMMARS = {
    "abcd": """mcfg
start: S
rule: T(,) <-
rule: T({a} x1 {b}, {c} x2 {d}) <- T(x1, x2)
rule: S(x1 x2) <- T(x1, x2)
""",
    "anbmcndm": """mcfg
start: S
rule: P(,) <-
rule: Q(,) <-
rule: P({a} x1, {c} x2) <- P(x1, x2)
rule: Q({b} x1, {d} x2) <- Q(x1, x2)
rule: S(x1 y1 x2 y2) <- P(x1, x2), Q(y1, y2)
""",
    "wpz": """mcfg
start: S
rule: S() <-
rule: S({t} x1 {T}) <- S(x1)
rule: S({T} x1 {t}) <- S(x1)
rule: S(x1 y1) <- S(x1), S(y1)
""",
}
SAME_LETTERS = {x: x for x in "abcdtT"}
LANGUAGES = {"abcd": (oracles.abcd, "abcd"), "anbmcndm": (oracles.anbmcndm, "abcd"),
             "wpz": (oracles.wp_z, "tT")}
# Search strata whose runs hold deep tree stacks; their queries are timed
# against the long-tuple reference, every other query against the short one
# (calibration.py).
DEEP_STRATA = {"abcd", "anbmcndm"}
KEY_COPIES = 50  # fresh copies of each witness tree timed by key_ns_per_vertex


def setup(root: str) -> SimpleNamespace:
    """Import tsalab, build the fixtures and parse the grammars."""
    sys.path.insert(0, os.path.join(root, "src"))
    from tsalab import analysis, convert, fixtures, langlab, mcfg, treestack, tsa

    return SimpleNamespace(
        tsa=tsa, mcfg=mcfg, convert=convert, analysis=analysis,
        langlab=langlab, treestack=treestack,
        machines={
            "abcd": (fixtures.abcd_tsa(), tsa.SearchOptions(k=2)),
            "anbmcndm": (fixtures.anbmcndm_tsa(), tsa.SearchOptions(k=2)),
            "wpz": (convert.fixture_wpz_tsa(), tsa.SearchOptions()),
        },
        pda=convert.fixture_wpz_pda(),
        grammars={name: mcfg.parse_mcfg(text.format(**SAME_LETTERS))
                  for name, text in GRAMMARS.items()},
        witness_trees=None,  # stratum (a) witness trees, kept when traced
    )


def witness_errors(fx) -> list[str]:
    """The witnesses of acceptance criteria 1 and 7, by transition name."""
    errors = []
    for name, word, want in (("abcd", "aabbccdd", oracles.ABCD_M2_NAMES),
                             ("wpz", "ttTtTT", oracles.WPZ_TTTTTT_NAMES)):
        machine, opts = fx.machines[name]
        run = fx.tsa.accepts(machine, word, opts)
        if not run or run.names() != want:
            errors.append(f"witness for {name} on {word}: {run and run.names()}")
    return errors


# A query is (label, ops, module, function name, args, check): the function
# is looked up when the query runs, so the traced run's wrappers see it, and
# check(result) returns the number of failed ops.

def verdict(expected: bool, keep: list | None = None):
    def check(result) -> int:
        if keep is not None and result:
            keep.append(result.final().ts)
        budget_cut = getattr(result, "reason", None) == "budget"
        return int(budget_cut or bool(result) != expected)
    return check


def same_set(want: set[str]):
    def check(result) -> int:
        return len(set(result) ^ want)
    return check


def upsets_of(want: set[str]):
    def check(result) -> int:
        return len(result.budget_failures) + len(set(result.traces) ^ want)
    return check


def f2f2_check(n_max: int, m_max: int):
    total, members, psi = oracles.f2f2_report(n_max, m_max)

    def check(report) -> int:
        if (report.total, report.members, report.psi_image, report.psi_expected) \
                != (total, members, psi, psi):
            return total
        return len(report.mismatches)
    return total, check


def search_round(fx, seed: int, index: int) -> list[tuple]:
    out = []
    for stratum, word, expected in inputs.search_round(seed, index):
        if stratum in fx.machines:
            machine, opts = fx.machines[stratum]
            keep = fx.witness_trees if stratum == "abcd" else None
            out.append((stratum, 1, fx.tsa, "accepts", (machine, word, opts),
                        verdict(expected, keep)))
        elif stratum == "pda":
            out.append((stratum, 1, fx.convert, "pda_accepts", (fx.pda, word),
                        verdict(expected)))
        else:
            out.append((stratum, 1, fx.mcfg, "mcfg_member",
                        (fx.grammars["wpz"], word), verdict(expected)))
    return out


def rename(machine, letters: dict[str, str]):
    """The machine with its input letters renamed."""
    return replace(machine, alphabet=tuple(letters[x] for x in machine.alphabet),
                   delta=tuple(t if t.inp is None else replace(t, inp=letters[t.inp])
                               for t in machine.delta))


def sweep_round(fx, seed: int, index: int) -> list[tuple]:
    letters = inputs.sweep_letters(seed, index)
    table = str.maketrans(letters)
    out = []
    for name, bound in inputs.SWEEP_BOUNDS.items():
        machine, opts = fx.machines[name]
        machine = rename(machine, letters)
        grammar = fx.mcfg.parse_mcfg(GRAMMARS[name].format(**letters))
        want = {w.translate(table) for w in fx.languages[name]}
        ops = sum(len(machine.alphabet) ** n for n in range(bound + 1))
        out += [
            (f"enumerate_words:{name}", ops, fx.tsa, "enumerate_words",
             (machine, bound, opts), same_set(want)),
            (f"mcfg_enumerate:{name}", ops, fx.mcfg, "mcfg_enumerate",
             (grammar, bound), same_set(want)),
            (f"collect_upsets:{name}", len(want), fx.analysis, "collect_upsets",
             (machine, sorted(want), opts), upsets_of(want)),
        ]
    return out


def f2f2_round(fx, seed: int, index: int) -> list[tuple]:
    total, check = f2f2_check(*inputs.F2F2_SIZE)
    out = [("f2f2_experiment", total, fx.langlab, "f2f2_experiment",
            inputs.F2F2_SIZE, check)]
    out += [("wp_f2xf2", 1, fx.langlab, "wp_f2xf2", (word,), verdict(expected))
            for word, expected in inputs.f2f2_round(seed, index)]
    return out


ROUNDS = {"search": search_round, "sweep": sweep_round, "f2f2": f2f2_round}


def run_rounds(fx, workload: str, seed: int, seconds: float | None,
               rounds: int | None, tracer: Tracer | None = None) -> dict:
    """Closed loop, one query in flight: run whole rounds until `rounds`
    are done or `seconds` have passed.  Latencies and rates are in
    calibrated time (calibration.py); the raw ones are reported beside."""
    latencies: list[float] = []
    raw_latencies: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    ops = failed = 0
    busy = 0.0
    errors: list[str] = []
    clock = Calibrator()
    start = perf_counter()
    index = 0
    while ((rounds is None or index < rounds)
           and (seconds is None or perf_counter() - start < seconds)):
        queries = ROUNDS[workload](fx, seed, index)
        round_ops = sum(q[1] for q in queries)
        round_latencies: list[float] = []
        round_raw = 0.0
        for label, n_ops, module, attr, args, check in queries:
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.begin(tracer.name_id(f"op:{label}"))
            t = perf_counter()
            try:
                result = getattr(module, attr)(*args)
            except Exception:  # one query failing must not stop the run
                raw = perf_counter() - t
                bad = n_ops
                errors.append(f"round {index} {label}: {traceback.format_exc(limit=3)}")
            else:
                raw = perf_counter() - t
                bad = check(result)
                del result  # so that it does not add to the next query's memory
                if bad:
                    words = [a for a in args if isinstance(a, str)]
                    errors.append(f"round {index} {label}: {bad} wrong answers {words}")
            if tracer is not None:
                tracer.finish(span)
            clock.add(raw, "long" if label in DEEP_STRATA else "short")
            raw_latencies.append(raw)
            round_raw += raw
            round_latencies += clock.flush()
            ops += n_ops
            failed += bad
        round_latencies += clock.flush(force=True)
        round_s = sum(round_latencies)
        rates.append(round_ops / round_s)
        raw_rates.append(round_ops / round_raw)
        latencies += round_latencies
        busy += round_s
        if index == 0:
            # Later rounds only add allocator history, which made the peak
            # depend on the seed and on how many rounds fit in the time.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1

    def p50_p90(xs: list[float]) -> tuple[float, float]:
        deciles = statistics.quantiles(xs, n=10) if len(xs) > 1 else xs * 9
        return 1e3 * statistics.median(xs), 1e3 * deciles[8]

    p50, p90 = p50_p90(latencies)
    raw_p50, raw_p90 = p50_p90(raw_latencies)
    return {"rounds": index, "queries": len(latencies), "ops": ops, "failed": failed,
            "busy_s": busy, "ops_per_s": statistics.median(rates), "p50_ms": p50,
            "p90_ms": p90, "rss_mb": rss_mb, "errors": errors[:20],
            "raw": {"ops_per_s": statistics.median(raw_rates), "p50_ms": raw_p50,
                    "p90_ms": raw_p90},
            "reference_ms": {p: 1e3 * statistics.median(x[p] for x in clock.samples)
                             for p in clock.samples[0]}}


def install_tracing(fx) -> Tracer:
    tracer = Tracer()

    def search_result(counters, result):
        if getattr(result, "reason", None) == "budget":
            counters["budget_cuts"] += 1
        elif result:
            counters["witness_steps"] += len(result)

    def pda_result(counters, result):
        if getattr(result, "reason", None) == "budget":
            counters["budget_cuts"] += 1

    def tuples(counters, result):
        counters["mcfg_tuples"] += sum(len(v) for v in result.values())

    for module, attr, name, observe in (
        (fx.tsa, "ts_apply", "treestack.ts_apply", None),
        (fx.tsa, "accepts", "tsa.accepts", search_result),
        (fx.analysis, "accepts", "tsa.accepts", search_result),
        (fx.tsa, "enumerate_words", "tsa.enumerate_words", None),
        (fx.convert, "pda_accepts", "convert.pda_accepts", pda_result),
        (fx.mcfg, "mcfg_member", "mcfg.mcfg_member", None),
        (fx.mcfg, "mcfg_enumerate", "mcfg.mcfg_enumerate", None),
        (fx.mcfg, "derivable_tuples", "mcfg.derivable_tuples", tuples),
        (fx.analysis, "collect_upsets", "analysis.collect_upsets", None),
        (fx.analysis, "history_array", "analysis.history_array", None),
        (fx.langlab, "f2f2_experiment", "langlab.f2f2_experiment", None),
        (fx.langlab, "wp_f2xf2", "langlab.wp_f2xf2", None),
    ):
        tracer.wrap(module, attr, name, observe)
    return tracer


def key_ns_per_vertex(fx) -> float:
    """TreeStack.key() on fresh copies of the kept witness trees; 0 when the
    workload keeps none."""
    copies = [fx.treestack.TreeStack(ts.dom, ts.pointer)
              for ts in fx.witness_trees for _ in range(KEY_COPIES)]
    vertices = sum(len(ts) for ts in copies)
    t = perf_counter()
    for ts in copies:
        ts.key()
    return 1e9 * (perf_counter() - t) / vertices if vertices else 0.0


def layer_metrics(tracer: Tracer, fx) -> dict[str, float]:
    rows = tracer.summary()

    def agg(field: str, name: str, parent: str = "") -> float:
        return sum(row[field] for (n, p), row in rows.items()
                   if n == name and p.startswith(parent))

    c = tracer.counters
    direct_wp = agg("calls", "langlab.wp_f2xf2", "op:")
    return {
        "treestack.apply_calls": agg("calls", "treestack.ts_apply"),
        "treestack.apply_s": agg("total_s", "treestack.ts_apply"),
        "treestack.key_ns_per_vertex": key_ns_per_vertex(fx),
        "tsa.accepts_calls": agg("calls", "tsa.accepts"),
        "tsa.accepts_s": agg("total_s", "tsa.accepts"),
        "tsa.self_s": agg("self_s", "tsa.accepts"),
        "tsa.enumerate_s": agg("total_s", "tsa.enumerate_words"),
        "tsa.budget_cuts": c["budget_cuts"],
        "tsa.witness_steps": c["witness_steps"],
        "convert.pda_accepts_calls": agg("calls", "convert.pda_accepts"),
        "convert.pda_accepts_s": agg("total_s", "convert.pda_accepts"),
        "mcfg.member_calls": agg("calls", "mcfg.mcfg_member"),
        "mcfg.member_s": agg("total_s", "mcfg.mcfg_member"),
        "mcfg.enumerate_s": agg("total_s", "mcfg.mcfg_enumerate", "op:"),
        "mcfg.tuples": c["mcfg_tuples"],
        "analysis.collect_upsets_s": agg("total_s", "analysis.collect_upsets"),
        "analysis.history_arrays": agg("calls", "analysis.history_array"),
        "langlab.f2f2_s": agg("total_s", "langlab.f2f2_experiment"),
        "langlab.wp_calls": agg("calls", "langlab.wp_f2xf2", "langlab.f2f2_experiment"),
        "langlab.wp_us": (1e6 * agg("total_s", "langlab.wp_f2xf2", "op:") / direct_wp
                          if direct_wp else 0.0),
    }


def main() -> int:
    args = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    before = reference_s()
    t0 = perf_counter()
    fx = setup(args["root"])
    raw = perf_counter() - t0
    out = {"setup_s": calibrated(raw, before, reference_s()), "setup_raw_s": raw}
    if args["mode"] != "setup":
        errors = witness_errors(fx)
        if args["workload"] == "sweep":
            fx.languages = {name: oracles.language(*LANGUAGES[name], bound)
                            for name, bound in inputs.SWEEP_BOUNDS.items()}
        tracer = None
        if args["mode"] == "trace":
            tracer = install_tracing(fx)
            fx.witness_trees = []
        out.update(run_rounds(fx, args["workload"], args["seed"], args["seconds"],
                              args["rounds"], tracer))
        out["ops"] += 2  # the two witness checks
        out["failed"] += len(errors)
        out["errors"] = errors + out["errors"]
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, fx)
            spans = os.path.join(args["root"], "perfbench", "out",
                                 f"spans-{args['workload']}.tsv.gz")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            tracer.write(spans)
            out["spans"] = len(tracer.name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
