"""zetalab benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload local-checks|global-lfun|analytic
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) with its own count-cache directory, so no
disk cache, process-wide zetalab cache or peak memory carries over
between workloads.  The untraced run also starts SETUP_PROBES extra
workers that stop after set-up, and reports the median set-up time.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics (end-to-end metrics untraced, per-layer
metrics traced).  The line before it holds the details: environment,
tail percentile and sample count, oracle counts and failures.  Both
lines also go to .bench_out/result-<workload>-seed<N>-trace<T>.json,
and a traced run writes its spans to .bench_out/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("local-checks", "global-lfun", "analytic")
SETUP_PROBES = 2
# every run must end within 180 s; leave room for the final bookkeeping
RUN_BUDGET_S = 170.0


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, at
    percentile 100 * (n - 10) / n; with ten or fewer samples no
    percentile qualifies and the smallest sample is reported at 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0, n - 1
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def spawn(args, deadline, setup_only=False):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(deadline - started, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("worker did not finish within the run budget")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def end_to_end(main, setups):
    lat = main["latencies"]
    tail_value, _, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="zetalab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zetalab" / "__init__.py").is_file():
        print(f"error: no zetalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    setups = []
    if not args.trace:
        setups = [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    main_run = spawn(args, deadline)
    setups.append(main_run["setup_s"])

    lat = main_run["latencies"]
    attempted, failed = len(lat), main_run["failed"]
    if args.trace:
        metrics = main_run["layer_metrics"]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(main_run, setups).items()}
    _, tail_pct, beyond = tail(lat)
    correct = failed == 0 and main_run["warmup_ok"] and main_run.get("spans_account_for_wall", True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": main_run["environment"],
        "loop": "closed, one client, one thread",
        "requests": attempted,
        "blocks": main_run["blocks"],
        "timed_phase_s": main_run["timed_phase_s"],
        "failed_ratio": failed / attempted,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "setup_runs_s": setups,
        "oracles": main_run["oracles"],
        "failures": main_run["failures"],
        "warmup_ok": main_run["warmup_ok"],
    }
    if args.trace:
        details["span_cost_s"] = main_run["span_cost_s"]
        details["spans_account_for_wall"] = main_run["spans_account_for_wall"]
        details["trace_file"] = main_run["trace_file"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_path = ROOT / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"details": dict(details, latencies_s=lat), "result": result}
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
