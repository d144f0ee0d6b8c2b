"""One measured pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE BUDGET_S

Generates the inputs, runs every request in a closed loop with one client,
timing a calibration probe before each request (calib.py), then checks
each request against its reference, and prints one JSON object as its last
line.  Latencies and throughput are scaled to the reference machine; the
unscaled figures are printed too.  With TRACE = 1 the spans of the pass are
recorded (see spans.py) and written to .bench_out/ at exit.  BUDGET_S bounds the whole
pass: requests not started by then count as failed ("deadline").
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter

import calib
import spans
import workloads

OUT_DIR = workloads.ROOT / ".bench_out"


def _on_alarm(signum, frame):
    raise workloads.RequestTimeout("request exceeded its time limit")


def guarded(limit_s: float, in_process: bool, fn, *args):
    """Call fn under the time limit; a failure becomes its kind (a str)."""
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn(*args)
    except workloads.RequestTimeout:
        return "timeout"
    except workloads.CliExit as exc:
        return str(exc).split(":")[0].replace(" ", "_")
    except Exception as exc:  # every other failure is counted by its kind
        return type(exc).__name__
    finally:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv) -> int:
    name, seed, seconds, trace, budget_s = argv
    seed, seconds, trace, budget_s = int(seed), float(seconds), trace == "1", float(budget_s)
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    cls = workloads.CLASSES[name]
    import_s = 0.0
    if cls.in_process:
        sys.path.insert(0, str(workloads.SRC))
        t = time.perf_counter()
        import germindex.cli  # noqa: F401  (a cold import: cli.import_s)
        import_s = time.perf_counter() - t
        work = cls(seed, seconds)
    else:
        work = cls(seed, seconds, OUT_DIR if trace else None)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer()
    bindings = spans.install(tracer) if trace and work.in_process else []
    calibration = calib.Calibration(work.PROBE)
    outcomes, raw = [], []
    deadline = start + budget_s
    try:
        for rid, request in enumerate(work.requests):
            if time.perf_counter() > deadline:
                outcomes.append("deadline")
                raw.append(None)
                continue
            calibration.sample()
            tracer.request = rid
            t = time.perf_counter()
            outcome = guarded(work.time_limit_s, work.in_process, work.execute, request)
            raw.append(time.perf_counter() - t)
            tracer.unwind()
            outcomes.append(outcome)
        calibration.sample()
    finally:
        spans.restore(bindings)
    scale = calibration.scale()
    latencies = [None if lat is None else lat * scale for lat in raw]
    wall_s = sum(lat for lat in raw if lat is not None)
    scaled_wall_s = sum(lat for lat in latencies if lat is not None)
    who = resource.RUSAGE_SELF if work.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    kinds = work.verify(outcomes, lambda fn, *a: guarded(
        work.time_limit_s, work.in_process, fn, *a))
    ok_latencies = [lat for lat, kind in zip(latencies, kinds) if kind is None]
    ok_raw = [lat for lat, kind in zip(raw, kinds) if kind is None]
    ok = len(ok_latencies)
    failures = Counter(kind for kind in kinds if kind is not None)
    deciles = statistics.quantiles(ok_latencies, n=10) if ok >= 2 else [0.0] * 9
    result = {
        "workload": name,
        "seed": seed,
        "input_hash": workloads.input_hash(work),
        "stats": work.stats(outcomes),
        "attempted": len(kinds),
        "failed": len(kinds) - ok,
        "failures": dict(sorted(failures.items())),
        "correct": all(k is None or k in work.KNOWN_FAILURES for k in kinds),
        "wall_s": wall_s,
        "scaled_wall_s": scaled_wall_s,
        "probe_ms": 1000.0 * calibration.mean_s(),
        "probe_ref_ms": 1000.0 * calibration.ref_s,
        "raw_queries_per_s": ok / wall_s if wall_s > 0 else 0.0,
        "raw_query_p50_s": statistics.median(ok_raw) if ok else 0.0,
        "queries_per_s": ok / scaled_wall_s if scaled_wall_s > 0 else 0.0,
        "query_p50_s": statistics.median(ok_latencies) if ok else 0.0,
        "query_p90_s": deciles[-1],
        "beyond_p90": sum(1 for lat in ok_latencies if lat > deciles[-1]),
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
    }
    if trace:
        recorded = (spans.merge(work.child_spans) if not work.in_process
                    else tracer.spans)
        result["spans"] = len(recorded)
        result["self_s_total"] = sum(spans.self_times(recorded))
        result["layers"] = spans.layer_metrics(recorded, len(kinds), wall_s)
        child_imports = [end - begin for span_name, begin, end, _, _ in recorded
                         if span_name == spans.IMPORT_SPAN]
        if child_imports:
            result["import_s"] = statistics.median(child_imports)
        with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": recorded}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
