#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload mc-vm-kappa --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. `--trace 0` measures the end-to-end metrics with no
spans recorded; `--trace 1` wraps each layer's public names and reports
per-layer metrics instead. Ops run closed-loop until `--seconds` have
passed, finishing the op (or round of ops) in flight. Output checks run
after the timed loop; a failed check makes the exit code 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it,
starting with `report `, holds every metric with its unit and sample count.
"""

import os

# one thread per process for every BLAS/OpenMP runtime numpy might load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import p50, tail_latency
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# fresh-process set-ups per untraced run, half before and half after the
# timed loop, so that one slow stretch of a shared host does not set the median
SETUP_REPEATS = 6


def import_package():
    """Import circwass from this checkout's src/, never from elsewhere."""
    if not (SRC / "circwass" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'circwass'} not found; run inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import circwass

    if Path(circwass.__file__).resolve().parent != SRC / "circwass":
        sys.exit(f"error: imported circwass from {circwass.__file__}, not from {SRC}")
    return circwass


def measure_setup(args) -> list:
    """Wall time from spawning a fresh process until it is ready for the
    first op (package imported, inputs built), SETUP_REPEATS times over."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(t1 - t0)
    return times


def timed_loop(workload, entry, seconds):
    """Run ops until `seconds` have passed and a round is complete."""
    latencies, ok = [], []
    per_round = workload.ops_per_round()
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        ok.append(workload.run_op(i, entry))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        i += 1
        if i % per_round == 0 and t1 - start >= seconds:
            return latencies, ok, t1 - start


def end_to_end(args, setup, latencies, ok, wall, rss_mb, quality):
    good = [t for t, s in zip(latencies, ok) if s]
    tail, pct, n = tail_latency(good)
    out = {
        "ops_per_s": {"value": len(good) / wall, "unit": "1/s", "ops": len(good), "wall_s": wall},
        "op_p50_s": {"value": p50(good), "unit": "s", "samples": len(good)},
        "op_tail_s": {"value": tail, "unit": "s", "percentile": pct, "samples": n},
        "fail_frac": {"value": ok.count(False) / len(ok), "unit": "1",
                      "failed": ok.count(False), "attempted": len(ok)},
        "setup_s": {"value": statistics.median(setup), "unit": "s", "runs": setup},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    if "fit_stuck_frac" in quality:
        out["fit_stuck_frac"] = {"value": quality["fit_stuck_frac"], "unit": "1",
                                 "by_estimator": quality["fit_stuck"]}
        out["objective_mean"] = {"value": quality["objective_mean"], "unit": "1"}
        out["fail_frac"]["estimator_failures"] = quality["estimator_failures"]
    else:
        out["tie_fail_frac"] = {"value": quality["tie_fail_frac"], "unit": "1",
                                "exit_codes": quality["tie_exit_codes"]}
    return out


def per_layer(tracer, ops, wall, names):
    """Per-op values of the declared `<span>.<field>` metrics, plus the
    fit convergence share and the tracing cost figures."""
    agg = tracer.aggregate()
    conv = tracer.converged_frac()
    out = {
        "estimate.converged_frac": {"value": 0.0 if conv is None else conv, "unit": "1",
                                    "applies": conv is not None},
        "trace.ops_per_s": {"value": ops / wall, "unit": "1/s"},
        "trace.spans": {"value": len(tracer.names) / ops, "unit": "count/op"},
    }
    absent = tracer.absent_spans()
    for name in names:
        span, field = name.rsplit(".", 1)
        if name not in out:
            out[name] = {"value": agg.get(span, {}).get(field, 0) / ops,
                         "unit": "s/op" if field.endswith("_s") else "count/op"}
        # a deleted name reads null, not 0; "estimate.fit_w" covers fit_w1 and fit_w2
        if any(name.startswith(a) for a in absent):
            out[name].update(value=None, absent=True)
    return out, agg


def self_time_sums(tracer, root_span):
    """(sum of every span's self time, total of the op spans, errors). Every
    root span must be an op and every span must nest inside its parent; then
    the two sums agree."""
    dur, self_t = tracer.self_times()
    roots = [sid for sid, parent in enumerate(tracer.parents) if parent == -1]
    total = float(sum(dur[sid] for sid in roots))
    errors = tracer.nesting_errors()[:10]
    if any(tracer.names[sid] != root_span for sid in roots):
        errors.append("spans recorded outside an op")
    return float(self_t.sum()), total, errors


def print_report(args, metrics, layers, errors):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = {k: v for k, v in m.items() if k not in ("value", "unit") and not isinstance(v, list)}
        print(f"  {name:32s} {shown:>12s} {m['unit']:9s} {extra if extra else ''}")
    if layers:
        print(f"  {'span':24s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} {'points':>12s}")
        for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span:24s} {row['calls']:9d} {row['self_s']:10.4f} "
                  f"{row['total_s']:10.4f} {row['points']:12d}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")


def declared(trace):
    """(name, unit) of the metrics the result line carries, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    circwass = import_package()
    names = declared(args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        workload.install_capture()
        entry, root_span = workload.entry()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install({m: getattr(circwass, m) for m in ("harness", "estimate", "transport", "cli")})
            entry = tracer.wrap(entry, root_span)
        setup = [] if args.trace else measure_setup(args)
        latencies, ok, wall = timed_loop(workload, entry, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        if tracer:
            tracer.uninstall()
        errors, quality = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    layers = None
    if tracer:
        metrics, layers = per_layer(tracer, len(ok), wall, [n for n, _ in names])
        summed, total, bad = self_time_sums(tracer, root_span)
        errors += bad
        metrics["trace.self_sum_s"] = {"value": summed, "unit": "s", "op_total_s": total}
        cost = tracer.span_cost()
        metrics["trace.overhead_est"] = {"value": len(tracer.names) * cost / total, "unit": "1",
                                         "span_cost_s": cost, "spans": len(tracer.names)}
        if tracer.absent:
            metrics["trace.absent"] = {"value": None, "unit": "name", "names": tracer.absent}
    else:
        metrics = end_to_end(args, setup + measure_setup(args), latencies, ok, wall, rss_mb, quality)
    for name, unit in names:
        if metrics[name]["unit"] != unit:
            raise RuntimeError(f"{name} is measured in {metrics[name]['unit']}, BENCHMARK.json says {unit}")
    print_report(args, metrics, layers, errors)
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                  "metrics": metrics, "spans": layers, "quality": quality,
                                  "errors": errors}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {n: {"value": metrics[n]["value"], "unit": u} for n, u in names},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
