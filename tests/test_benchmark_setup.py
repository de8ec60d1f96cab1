"""The benchmark's set-up runs on the current library.

For each workload that BENCHMARK.json declares, `perfbench/worker.py
--setup-only` imports zetalab and the workload, builds the first block
of inputs and runs the warm-up request through its oracles.  It must
exit 0 with warmup_ok true, so a renamed import or a broken warm-up
shows here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_and_warmup_pass(workload):
    worker = ROOT / "perfbench" / "worker.py"
    argv = [sys.executable, str(worker), "--workload", workload, "--seed", "1", "--seconds", "0"]
    argv.append("--setup-only")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["warmup_ok"] is True
