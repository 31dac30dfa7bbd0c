"""Time `accepts(wpz, t^n T^n)` in a fresh process for each n.

    python3 tools/deep_wpz.py [--src DIR] [n ...]

Each n runs in its own child process under 1024 MB of address space
(RLIMIT_AS) and imports tsalab from DIR (default: the src/ beside this
script), so a second checkout can be measured the same way.  The n default to 12, 14, 16 and 100.  Prints one JSON line per n:
the wall time of the one `accepts` call, the child's max RSS, and the
result: the witness length, the NotFound reason, or MemoryError when the
search ran out of the limit.
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
from tsalab.convert import fixture_wpz_tsa
from tsalab.tsa import accepts
n = int(sys.argv[1])
wpz, w = fixture_wpz_tsa(), "t" * n + "T" * n
t0 = time.perf_counter()
try:
    res = accepts(wpz, w)
    result = len(res) if res else res.reason
except MemoryError:
    result = "MemoryError"
wall = time.perf_counter() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"n": n, "wall_s": round(wall, 6), "max_rss_mb": round(rss_kb / 1024, 1),
                  "result": result}))
"""


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"))
    ap.add_argument("n", type=int, nargs="*", default=[12, 14, 16, 100])
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    for n in args.n:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(n)],
                              capture_output=True, text=True, env=env)
        if proc.returncode:
            print(json.dumps({"n": n, "error": proc.stderr.strip().splitlines()[-1:]}))
        else:
            print(proc.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
