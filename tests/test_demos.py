"""Each demo, run as a script, prints exactly its golden file, under two
hash seeds: the demos print search results, which must not depend on
the order of hash-keyed tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsalab

HERE = Path(__file__).parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
SRC = str(Path(tsalab.__file__).parent.parent)  # the tsalab these tests import


def test_every_demo_has_a_golden():
    assert DEMOS and all((HERE / "golden" / f"demo_{d.stem}.txt").exists() for d in DEMOS)


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_golden(demo, seed):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (HERE / "golden" / f"demo_{demo.stem}.txt").read_text()
