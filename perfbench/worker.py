"""One workload in a fresh process: set up, warm up, run whole blocks of
requests until the run length has passed, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 [--setup-only]

The process imports zetalab from the checkout's src/ and nowhere else,
and counts points into a count-cache directory of its own that it
removes on exit.  run.py starts it; it is not meant to be run alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import inputs
from tracer import NullTracer, Tracer, self_times, span_cost

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Per-layer metrics: (name, unit).  "<span>_s" is the median self time of
# the spans of that name; the rest are counts, ratios and rates.
SPAN_TIMES = (
    "counting.count_series",
    "zeta.zeta_rational",
    "zeta.weight_factorize",
    "zeta.checks",
    "ncspec.spectrum",
    "ncspec.checks",
    "report.emit",
    "lfun.euler_product",
    "lfun.bounds",
    "lfun.serre",
    "lfun.dirichlet",
    "lfun.cold_call",
    "lfun.dashboard",
    "lfun.closed_form_check",
)
WARM_CALLS = ("lfun.euler_product", "lfun.bounds", "lfun.serre", "lfun.dirichlet")
LAYERS = ("counting", "zeta", "ncspec", "report", "lfun")


def _median(values):
    return statistics.median(values) if values else 0.0


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, latencies, counters, failed_by_layer, per_span):
    """Per-layer numbers from the traced run's spans and counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name, total_by_name = {}, Counter()
    per_request_spans = Counter()
    root_self, root_wall = {}, {}
    for span, own in zip(spans, selfs):
        name, request = span[0], span[4]
        per_request_spans[request] += 1
        if name == "bench.request":
            root_self[request] = own
            root_wall[request] = span[2] - span[1]
            continue
        by_name.setdefault(name, []).append(own)
        total_by_name[name] += own
    out = {}
    for name in SPAN_TIMES:
        out[f"{name}_s"] = (_median(by_name.get(name, [])), "s")
    out["lfun.warm_call_s"] = (_median([t for n in WARM_CALLS for t in by_name.get(n, [])]), "s")

    calls = counters["counting.calls"]
    out["counting.calls"] = (calls, "count")
    out["counting.candidates"] = (counters["counting.candidates"], "count")
    out["counting.candidates_per_s"] = (
        _rate(counters["counting.candidates"], total_by_name["counting.count_series"]),
        "1/s",
    )
    out["counting.cache_hit_ratio"] = (counters["counting.hits"] / calls if calls else 0.0, "ratio")
    out["counting.cache_bytes"] = (counters["counting.cache_bytes"], "bytes")
    out["zeta.degree_scans"] = (counters["zeta.degree_scans"], "count")
    out["lfun.local_spectra"] = (counters["lfun.local_spectra"], "count")
    out["lfun.local_spectra_per_s"] = (
        _rate(counters["lfun.local_spectra"], total_by_name["lfun.cold_call"]),
        "1/s",
    )
    out["lfun.dirichlet_coeffs"] = (counters["lfun.dirichlet_coeffs"], "count")
    out["lfun.continuation_evals"] = (counters["lfun.continuation_evals"], "count")
    out["lfun.continuation_evals_per_s"] = (
        _rate(counters["lfun.continuation_evals"], total_by_name["lfun.dashboard"]),
        "1/s",
    )
    out["lfun.indeterminate_rows"] = (counters["lfun.indeterminate_rows"], "count")
    for layer in LAYERS:
        out[f"{layer}.failed"] = (failed_by_layer[layer], "count")

    # The root span's self time is the benchmark's own share of a request:
    # glue between calls plus the tracer's bookkeeping.  Root span plus
    # layer self times equal the root's wall time by construction; what
    # the outer timer sees beyond the root span is left unaccounted.
    requests = sorted(root_wall)
    overhead = [per_request_spans[r] * per_span for r in requests]
    out["bench.self_s"] = (_median([root_self[r] for r in requests]), "s")
    out["trace.overhead_s"] = (_median(overhead), "s")
    out["trace.overhead_ratio"] = (
        _median([o / latencies[r] for o, r in zip(overhead, requests)]),
        "ratio",
    )
    gaps = [latencies[r] - root_wall[r] for r in requests]
    out["trace.unaccounted_s"] = (_median(gaps), "s")
    out["trace.latency_p50_s"] = (_median(latencies), "s")
    out["trace.spans"] = (len(spans), "count")
    # every request's wall time is covered by its spans to within 1 ms
    accounted = len(requests) == len(latencies) and all(0 <= g <= 1e-3 for g in gaps)
    return out, accounted


def environment(seed):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run(args):
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import zetalab
    import zetalab.cli  # noqa: F401  (what `zetalab check` loads; its cost is set-up)

    if Path(zetalab.__file__).resolve().parent != src / "zetalab":
        raise SystemExit(f"zetalab imported from {zetalab.__file__}, not from {src}")
    import workloads  # imports zetalab's layers

    OUT_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="count-cache-", dir=OUT_DIR)
    try:
        counters = Counter()
        workload = workloads.make(args.workload, cache_dir, counters)
        gen = inputs.WORKLOAD_INPUTS[args.workload](args.seed)
        block = gen.block()
        warm = gen.warmup()
        try:
            warm_ok = all(ok for _, _, ok in workload.check(warm, workload.request(NullTracer(), warm)))
        except Exception:  # reported through warmup_ok; the run goes on
            warm_ok = False
        counters.clear()
        setup_end = time.monotonic()
        if args.setup_only:
            return {"setup_end": setup_end, "warmup_ok": warm_ok}

        per_span = span_cost() if args.trace else 0.0
        tracer = Tracer() if args.trace else NullTracer()
        latencies, messages = [], []
        failed_by_layer, oracle_runs, oracle_fails = Counter(), Counter(), Counter()
        failed = 0
        blocks = 0
        started = time.perf_counter()
        while True:
            for inp in block:
                request_id = len(latencies)
                t0 = time.perf_counter()
                tracer.begin(request_id)
                try:
                    result, error = workload.request(tracer, inp), None
                except Exception as exc:  # a failed request is counted, not fatal
                    result, error = None, exc
                tracer.end()
                latencies.append(time.perf_counter() - t0)
                if error is not None:
                    bad_layers = {getattr(error, "bench_layer", "bench")}
                    messages.append(f"request {request_id}: {type(error).__name__}: {error}")
                else:
                    try:
                        verdicts = workload.check(inp, result)
                    except Exception as exc:  # an output the oracle cannot read
                        verdicts = [(f"oracle raised {type(exc).__name__}: {exc}", "bench", False)]
                    for oracle, _, ok in verdicts:
                        oracle_runs[oracle] += 1
                        oracle_fails[oracle] += not ok
                    bad_layers = {layer for _, layer, ok in verdicts if not ok}
                    messages += [f"request {request_id}: oracle {o} failed" for o, _, ok in verdicts if not ok]
                if bad_layers:
                    failed += 1
                    failed_by_layer.update(bad_layers)
            blocks += 1
            if time.perf_counter() - started >= args.seconds:
                break
            block = gen.block()
        timed_phase = time.perf_counter() - started
        workload.finish()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    env = environment(args.seed)
    out = {
        "setup_end": setup_end,
        "warmup_ok": warm_ok,
        "latencies": latencies,
        "failed": failed,
        "failures": messages[:20],
        "oracles": {name: [oracle_runs[name], oracle_fails[name]] for name in sorted(oracle_runs)},
        "blocks": blocks,
        "timed_phase_s": timed_phase,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": env,
    }
    if args.trace:
        metrics, out["spans_account_for_wall"] = layer_metrics(
            tracer, latencies, counters, failed_by_layer, per_span
        )
        out["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["span_cost_s"] = per_span
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "environment": env,
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": tracer.spans,
                },
                fh,
            )
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
