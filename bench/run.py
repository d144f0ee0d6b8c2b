"""germindex benchmark: one workload (or all), end-to-end or traced.

    python3 bench/run.py --workload type2_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

--trace 0 measures the end-to-end metrics: set-up time (the median of
several fresh processes that import germindex and load the three bundled
fixtures) and one untraced pass of the workload in a fresh worker process.
Every process runs on one core, and every timing of an end-to-end metric
is scaled to a reference machine by a calibration probe (calib.py).
--trace 1 runs the same pass twice, in two fresh processes, untraced and
then traced, and reports the per-layer metrics of the traced pass plus the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calib
from workloads import BENCH, ROOT, WORKLOADS, child_env

SETUP_REPEATS = 3
SETUP_PROBE = (
    "import germindex\n"
    "from germindex.scenario import FIXTURE_NAMES, load_fixture\n"
    "for name in FIXTURE_NAMES:\n"
    "    load_fixture(name)\n"
)
# every measuring process is stopped by then, so that a run ends within 3 minutes
RUN_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_child(cmd, timeout_s: float) -> str:
    """Run a process in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except BaseException as exc:  # a time-out, or SIGTERM (see main)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(cmd[1:3])} did not finish in {timeout_s:.0f} s")
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    return out.decode()


def measure_setup(limit_at: float) -> tuple[float, float]:
    """Median set-up time of fresh processes: (scaled, raw)."""
    calibration = calib.Calibration("child")
    times = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        t = time.perf_counter()
        run_child([sys.executable, "-c", SETUP_PROBE], limit_at - t)
        times.append(time.perf_counter() - t)
    calibration.sample()
    raw = statistics.median(times)
    return raw * calibration.scale(), raw


def run_pass(workload: str, seed: int, seconds: float, trace: bool,
             budget_s: float, limit_at: float) -> dict:
    out = run_child([sys.executable, str(BENCH / "worker.py"), workload, str(seed),
                     str(seconds), "1" if trace else "0", f"{budget_s:.1f}"],
                    limit_at - time.perf_counter())
    return json.loads(out.strip().splitlines()[-1])


def describe(res: dict) -> list[str]:
    failed_frac = res["failed"] / res["attempted"]
    stats = " ".join(f"{k}={json.dumps(v, sort_keys=True)}"
                     for k, v in res["stats"].items())
    return [
        f"inputs: hash {res['input_hash']} {stats}",
        f"requests: {res['attempted']} attempted, {res['failed']} failed "
        f"(failed_frac {failed_frac:.4f}) by kind {json.dumps(res['failures'])}; "
        f"{res['beyond_p90']} completed requests beyond p90; "
        f"correct={res['correct']}",
        f"calibration: probe mean {res['probe_ms']:.4f} ms (reference "
        f"{res['probe_ref_ms']:g} ms); unscaled queries_per_s "
        f"{res['raw_queries_per_s']:.6g} 1/s, query_p50_s {res['raw_query_p50_s']:.6g} s",
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run: returns (result of the measured pass, metrics, text lines)."""
    start = time.perf_counter()
    limit_at = start + RUN_LIMIT_S
    lines = [f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    if not trace:
        setup_s, raw_setup_s = measure_setup(limit_at)
        lines.append(f"setup: unscaled median {raw_setup_s:.6g} s")
        res = run_pass(workload, seed, seconds, False,
                       0.7 * (limit_at - time.perf_counter()), limit_at)
        values = dict(res, setup_s=setup_s,
                      ok_frac=(res["attempted"] - res["failed"]) / res["attempted"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        plain = run_pass(workload, seed, seconds, False,
                         0.35 * (limit_at - start), limit_at)
        res = run_pass(workload, seed, seconds, True,
                       0.7 * (limit_at - time.perf_counter()), limit_at)
        layers = dict(res["layers"])
        layers["cli.import_s"] = (res["import_s"], "s")
        layers["bench.trace_overhead_frac"] = (
            res["scaled_wall_s"] / plain["scaled_wall_s"] - 1.0, "ratio")
        layers["bench.probe_ms"] = (res["probe_ms"], "ms")
        layers["bench.failed_frac"] = (res["failed"] / res["attempted"], "ratio")
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
        lines.append(
            f"traced wall {res['wall_s']:.4f} s = self times {res['self_s_total']:.4f} s"
            f" + unattributed {layers['bench.unattributed_s'][0]:.4f} s; "
            f"untraced wall {plain['wall_s']:.4f} s; {res['spans']} spans written "
            f"to .bench_out/spans-{workload}-seed{seed}.json")
    lines += describe(res)
    width = max(len(name) for name in metrics)
    lines += [f"{name:<{width}}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return res, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that run_child stops its process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    calib.pin_to_one_cpu()
    # one hash seed for every process: sympy's set and dict orders follow
    # it, and with a random one the same requests cost up to 6% more or less
    os.environ["PYTHONHASHSEED"] = "0"
    if not (ROOT / "src" / "germindex" / "cli.py").is_file():
        print(f"no germindex sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res, metrics, lines = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            summary["correct"] = summary["correct"] and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
