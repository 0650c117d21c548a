#!/usr/bin/env python3
"""Run every workload untraced and traced, each in a fresh process, print
every metric, and write the results as one point of the BENCH trajectory.

    python3 bench/record.py --seed 1 --out bench/BENCH_seed.json

Each run lasts the `run_seconds` of BENCHMARK.json. Processes run one after another, so no more than two are alive at once.
The file holds machine info, the git commit, each workload's rationale,
both result lines and report lines per workload, and the tracing overhead:
1 - traced ops_per_s / untraced ops_per_s on the same inputs, and the share
of op time that recording the spans costs, from a calibrated per-span cost.
The first figure compares two runs and carries their noise; the second does
not.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    report = next((json.loads(l[len("report "):]) for l in lines if l.startswith("report ")), None)
    if proc.returncode != 0 or report is None:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    print("\n".join(l for l in lines[:-1] if not l.startswith("report ")), flush=True)
    return {"result": json.loads(lines[-1]), "report": report}


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine():
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the BENCH json here")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results = {}
    for name in WORKLOADS:
        untraced = run_one(name, args.seed, seconds, 0)
        traced = run_one(name, args.seed, seconds, 1)
        base = untraced["report"]["metrics"]["ops_per_s"]["value"]
        with_spans = traced["report"]["metrics"]["trace.ops_per_s"]["value"]
        estimate = traced["report"]["metrics"]["trace.overhead_est"]["value"]
        results[name] = {
            "why": WORKLOADS[name]().why,
            "untraced": untraced,
            "traced": traced,
            "trace_overhead": 1.0 - with_spans / base,
            "trace_overhead_est": estimate,
        }
        print(f"{name}: tracing overhead {100 * results[name]['trace_overhead']:.1f}% "
              f"({with_spans:.4g} traced vs {base:.4g} untraced ops/s); "
              f"span cost alone {100 * estimate:.3g}%\n", flush=True)
    doc = {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "machine": machine(),
        "command": {"seed": args.seed, "seconds": seconds},
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
