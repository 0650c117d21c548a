"""The benchmark's gated workloads, and mc-ssvm, the only one whose fits
run the scan start, still run end to end on this checkout.

`bench/run.py` reads the package's public names and ends with one JSON
result line; a traceback anywhere in a run leaves that line out. One traced
op per workload, and one set-up-only process, keep this to a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--seed", "1", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("workload", ("mc-vm-kappa", "mc-ssvm", "dist-cli"))
def test_traced_op(workload):
    result = json.loads(bench("--workload", workload, "--seconds", "0", "--trace", "1"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    # a wrapped name the package no longer has reads null
    assert [name for name, m in result["metrics"].items() if m["value"] is None] == []


def test_setup_only():
    assert bench("--workload", "mc-vm-kappa", "--setup-only") == "ready"
