"""tsalab benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload search|sweep|f2f2 --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports tsalab from src/.
Each workload runs in fresh child processes (child.py), one at a time, and
each child asks one query at a time: a closed loop with one client.

--trace 0 measures the end-to-end metrics: the median set-up time of
several fresh processes, then whole rounds of queries for S seconds.
Times are calibrated against a reference loop (calibration.py), because
the speed of a shared host drifts; the raw wall times are printed too.
--trace 1 gives the per-layer metrics instead: one round untraced, the
same round again with every public call wrapped in a span (spans are
written to perfbench/out/), and the CLI timed as a subprocess.

Every answer is checked against oracles that do not use tsalab.  Metrics
go to standard output as "name value unit" lines, followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search", "sweep", "f2f2")
SETUP_SAMPLES = 14  # fresh processes timed from start to first op
# A fixed hash seed keeps set and dict layouts, and so the work and its
# timing, the same from run to run.  Bytecode is always cached in the
# checkout, so set-up imports .pyc files, as an installed package would.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"
CLI_SAMPLES = 3
TRACE_ROUNDS = 1  # fixed, so that the traced counts repeat exactly
TIME_LIMIT_S = 170  # for the whole command


class BenchError(Exception):
    pass


def subprocess_run(deadline: float, cmd: list[str], env=CHILD_ENV) -> subprocess.CompletedProcess:
    """Run cmd to completion from the checkout root; on passing the
    deadline the process is killed and waited for."""
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} ran past the time limit") from None


def child(deadline: float, **args) -> dict:
    """Run child.py to completion and return its JSON result."""
    args["root"] = ROOT
    proc = subprocess_run(deadline, [sys.executable, os.path.join(HERE, "child.py"),
                                     json.dumps(args)])
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args['mode']} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_seconds(deadline: float, argv: list[str], ok) -> tuple[float, int]:
    """Median wall time of `python3 -m tsalab.cli argv`, and how many of
    the runs failed ok(returncode, stdout)."""
    env = dict(CHILD_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
    times, bad = [], 0
    for _ in range(CLI_SAMPLES):
        t = perf_counter()
        proc = subprocess_run(deadline, [sys.executable, "-m", "tsalab.cli", *argv], env=env)
        times.append(perf_counter() - t)
        bad += not ok(proc.returncode, proc.stdout)
    return statistics.median(times), bad


def run_ok(code: int, out: str) -> bool:
    return code == 0 and "result=accept" in out.splitlines()


def suite_ok(code: int, out: str) -> bool:
    """Exit 1 with exactly one FAIL line: the ks whole-word rejection claim
    that the README documents as not holding for the published machine."""
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    return code == 1 and len(fails) == 1 and "exhaustive search rejects ttTtTT" in fails[0]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown"
    outside a git checkout or when the branch ref is packed."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = [child(deadline, workload=args.workload, seed=args.seed, mode="setup",
                    seconds=None, rounds=None)
              for _ in range(SETUP_SAMPLES)]
    res = child(deadline, workload=args.workload, seed=args.seed, mode="measure",
                seconds=args.seconds, rounds=None)
    setups.append(res)
    values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
              "ops_per_s": res["ops_per_s"], "query_p50_ms": res["p50_ms"],
              "query_p90_ms": res["p90_ms"], "peak_rss_mb": res["rss_mb"]}
    raw = res["raw"]
    res["raw_lines"] = [
        f"raw setup_s {statistics.median(s['setup_raw_s'] for s in setups):.6g} s",
        f"raw ops_per_s {raw['ops_per_s']:.6g} 1/s",
        f"raw query_p50_ms {raw['p50_ms']:.6g} ms",
        f"raw query_p90_ms {raw['p90_ms']:.6g} ms",
    ]
    return values, res


def trace(args, deadline: float) -> tuple[dict, dict]:
    plain = child(deadline, workload=args.workload, seed=args.seed, mode="measure",
                  seconds=None, rounds=TRACE_ROUNDS)
    res = child(deadline, workload=args.workload, seed=args.seed, mode="trace",
                seconds=None, rounds=TRACE_ROUNDS)
    m = inputs.round_rng(args.seed, "cli", 0).randint(2, 6)
    word = "a" * m + "b" * m + "c" * m + "d" * m
    run_s, run_bad = cli_seconds(deadline, ["--porcelain", "run", "abcd", "--word", word,
                                            "--k", "2"], run_ok)
    suite_s, suite_bad = cli_seconds(deadline, ["suite", "all"], suite_ok)
    values = dict(res["layers"], **{"cli.run_s": run_s, "cli.suite_s": suite_s,
                                    "trace.overhead_ratio": res["busy_s"] / plain["busy_s"]})
    res["ops"] += plain["ops"] + 2 * CLI_SAMPLES
    res["failed"] += plain["failed"] + run_bad + suite_bad
    res["errors"] += plain["errors"] + ["cli run check failed"] * run_bad \
        + ["cli suite check failed"] * suite_bad
    return values, res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = perf_counter() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "tsalab", "__init__.py")):
        print(f"perfbench: no tsalab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
           "commit": git_commit()}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    try:
        values, res = (trace if args.trace else measure)(args, deadline)
        metrics = {m["name"]: (values.pop(m["name"]), m["unit"]) for m in spec}
        if values:
            raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    except (BenchError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    env["rounds"] = res["rounds"]
    env["queries"] = res["queries"]
    env["reference_ms"] = res["reference_ms"]
    correct = res["failed"] == 0
    for err in res["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in res.get("raw_lines", []):
        print(line)
    print(f"failed_ratio {res['failed'] / res['ops']:.6g} (failed {res['failed']} of "
          f"{res['ops']} ops)")
    print(json.dumps({"correct": correct, "attempted": res["ops"], "failed": res["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
