"""Each benchmark workload runs end to end, traced, and passes its own output checks.

A short run of ``bench/run.py`` per workload: a broken output check, or a name that
bench/spans.py wraps and ``qmono`` no longer has, fails here before a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["haar-sample", "ghz-sym-figures", "single-state"])
def test_workload_runs_correct(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
