#!/usr/bin/env python3
"""entmoment benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (the ``why`` of each is in
BENCHMARK.json, the layer map in perfbench/layers.json):

  analyze-qubits   n=2 state files through ``cli.run(["analyze", ...])``
  analyze-qudits   n=3 and n=4 state files through the same path
  sweep-figures    the figure pipeline through ``entmoment.sweep``

The seed makes every input; the program sees only the written files and
axis ranges.  Each process is fresh and single-threaded (BLAS threads 1,
``IOVT_THREADS`` removed) with one closed-loop caller.  With ``--trace 0``
processes run in turn: some that only set up, one that sets up and
replays the first ops for the determinism check, and the measured one;
``setup_s`` is the median over all five.  With ``--trace 1`` one process runs
the trace rounds untraced and then traced, and prints per-layer metrics.

Times in the result are scaled to a reference machine speed, measured
by a calibration kernel run between operations in the same process (see
CAL_REF_S); the raw times are in the detail line.  Earlier stdout lines
carry details (environment, raw and per-dimension latency, tail
percentile and sample counts); the last line is the result object.
Exits 2 without a result when the package sources are missing or a
benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analyze-qubits", "analyze-qudits", "sweep-figures")
RUN_BUDGET_S = 175  # every process of one run must end within this
# Times are reported at the speed where worker.calibration_s() takes this
# long: each is divided by (calibration time measured in its own process
# at the time) / CAL_REF_S, and a rate is multiplied by it.  See README.md.
CAL_REF_S = 0.015
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import analyze  # noqa: E402
import figures  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("IOVT_THREADS", None)
    env.update({name: "1" for name in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PERFBENCH_SRC"] = SRC
    return env


def run_worker(mode: str, plan_path: str, workdir: str, seconds: float, deadline: float) -> dict:
    out = os.path.join(workdir, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path, out, str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{mode} process ran past the {RUN_BUDGET_S}s budget") from exc
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: "1" for name in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def percentile_entry(samples: list, level: float) -> dict:
    """Median and tail; the tail is left out when fewer than ten samples lie beyond it."""
    values = np.asarray(samples)
    entry = {"p50_ms": float(np.median(values)), "samples": len(samples)}
    tail = float(np.percentile(values, level))
    beyond = int(np.sum(values > tail))
    if beyond >= 10:
        entry.update(tail_percentile=level, tail_ms=tail, beyond_tail=beyond)
    return entry


def slowdown(calibrations: list) -> float:
    """How much slower than the reference speed the process ran."""
    return statistics.median(calibrations) / CAL_REF_S


def end_to_end(workload: str, measured: dict, setups: list, plan: dict) -> tuple[dict, dict]:
    level = plan["tail_percentile"]
    valid = [ms for samples in measured["latency_ms"].values() for ms in samples]
    overall = percentile_entry(valid, level)
    per_class = {key: percentile_entry(samples, level)
                 for key, samples in sorted(measured["latency_ms"].items())}
    rate = measured["points"] / measured["busy_s"]
    slow = slowdown(measured["calibration_s"])
    metrics = {
        "latency_p50_ref_ms": (overall["p50_ms"] / slow, "ms"),
        "throughput_ref_per_s": (rate * slow, "1/s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(t / slowdown(cal) for t, cal in setups), "s"),
    }
    detail = {"latency": overall, "latency_by_n": per_class, "throughput_per_s": rate,
              "throughput_unit": "grid points/s" if workload == "sweep-figures" else "states/s",
              "slowdown": slow, "calibrations": len(measured["calibration_s"]),
              "setup_samples_s": [t for t, _ in setups],
              "setup_slowdowns": [slowdown(cal) for _, cal in setups],
              "rounds": measured["rounds"], "busy_s": measured["busy_s"]}
    return metrics, detail


def layer_metrics(layers: dict) -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # A layer the workload never entered has no counter: it did zero work.
    return {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def bench(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    module = figures if workload == "sweep-figures" else analyze
    plan = module.make_plan(workload, seed, workdir)
    plan["workload"] = workload
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    detail = {"workload": workload, "seed": seed, "environment": environment()}
    if trace:
        measured = run_worker("trace", plan_path, workdir, seconds, deadline)
        metrics = layer_metrics(measured["layers"])
        detail["untraced_busy_s"] = measured["untraced_busy_s"]
        detail["traced_busy_s"] = measured["busy_s"]
        deterministic = True
    else:
        runs = [run_worker("setup", plan_path, workdir, seconds, deadline)
                for _ in range(plan["setup_only_runs"])]
        replayed = run_worker("replay", plan_path, workdir, seconds, deadline)
        measured = run_worker("measure", plan_path, workdir, seconds, deadline)
        setups = [(r["setup_s"], r["setup_calibration_s"]) for r in runs + [replayed, measured]]
        metrics, more = end_to_end(workload, measured, setups, plan)
        detail.update(more)
        deterministic = replayed["digest"] == measured["replay_digest"]
        detail["determinism"] = {"replayed_ops": len(plan["replay"]),
                                 "digest": measured["replay_digest"], "match": deterministic}
    detail["problems"] = measured["problems"]
    print("perfbench: " + json.dumps(detail, sort_keys=True))
    return {
        "correct": measured["wrong"] == 0 and deterministic,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally below removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "entmoment", "__init__.py")):
        print(f"perfbench: no entmoment sources under {SRC}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
