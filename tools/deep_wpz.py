"""Time `accepts(wpz, t^n T^n)` and `pda_accepts(wpz PDA, t^n T^n)`, or
with --enumerate `enumerate_words(wpz, n)`, in a fresh process each, for
each n.

    python3 tools/deep_wpz.py [--src DIR] [--enumerate] [n ...]

Each call runs in its own child process under 1024 MB of address space
(RLIMIT_AS) and imports tsalab from DIR (default: the src/ beside this
script), so a second checkout can be measured the same way.  The n
default to 12, 14, 16 and 100.  Prints two JSON lines per n, marked
`"machine": "tsa"` and `"machine": "pda"`, or with --enumerate one,
marked `"machine": "tsa"`: the wall time of the one call, the child's
max RSS, and the result: the witness length or the NotFound reason (the
number of words found, for --enumerate), or MemoryError when the call
ran out of the limit.  Exits 1 if a child fails any other way.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD = """
import json, resource, sys, time
limit = 1024 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from tsalab.convert import fixture_wpz_pda, fixture_wpz_tsa, pda_accepts
from tsalab.tsa import accepts, enumerate_words
call, n = sys.argv[1], int(sys.argv[2])
machine = "pda" if call == "pda" else "tsa"
wpz = fixture_wpz_pda() if machine == "pda" else fixture_wpz_tsa()
t0 = time.perf_counter()
try:
    if call == "enumerate":
        result = len(enumerate_words(wpz, n))
    else:
        res = (pda_accepts if machine == "pda" else accepts)(wpz, "t" * n + "T" * n)
        result = len(res.steps) if res else res.reason
except MemoryError:
    result = "MemoryError"
wall = time.perf_counter() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"machine": machine, "n": n, "wall_s": round(wall, 6),
                  "max_rss_mb": round(rss_kb / 1024, 1), "result": result}))
"""


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"))
    ap.add_argument("--enumerate", action="store_true",
                    help="time enumerate_words(wpz, n) instead of the two searches")
    ap.add_argument("n", type=int, nargs="*", default=[12, 14, 16, 100])
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    failed = False
    for n in args.n:
        for call in ("enumerate",) if args.enumerate else ("tsa", "pda"):
            proc = subprocess.run([sys.executable, "-c", CHILD, call, str(n)],
                                  capture_output=True, text=True, env=env)
            if proc.returncode:
                failed = True
                print(json.dumps({"machine": "pda" if call == "pda" else "tsa", "n": n,
                                  "error": proc.stderr.strip().splitlines()[-1:]}))
            else:
                print(proc.stdout.strip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
