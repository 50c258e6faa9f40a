"""One benchmark process: set up, then run a workload's operations.

Usage: worker.py MODE PLAN OUT SECONDS, where MODE is
  setup    import entmoment and warm up, nothing else;
  replay   set up, then run the plan's replay ops and hash their outputs;
  measure  set up, then run whole rounds for SECONDS of operation time;
  trace    set up with the tracer installed, run the trace rounds without
           it and then with it, and report per-layer counters.
The result is written as JSON to OUT.  Nothing but the standard library
is imported before the set-up clock starts.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

CAL_EVERY_S = 0.5  # operation time between two calibration samples
SETUP_CAL_SAMPLES = 7


def calibration_s() -> float:
    """Time of a fixed kernel of small-matrix numpy and pure-Python work.

    The kernel is the benchmark's own code, so it measures how fast the
    machine runs right now, whatever the package under test does.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.array([[4.0, 1, 0.5, 0.2], [1, 3, 0.3, 0.1], [0.5, 0.3, 2, 0.4], [0.2, 0.1, 0.4, 1]])
    for _ in range(150):
        m = a.copy()
        for p in range(3):
            for q in range(p + 1, 4):
                tau = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                colp, colq = m[:, p].copy(), m[:, q].copy()
                m[:, p], m[:, q] = colp * c - colq * t * c, colp * t * c + colq * c
                m[p, :], m[q, :] = m[:, p], m[:, q]
        json.dumps({"m": (m @ m).tolist()})
    return time.perf_counter() - start


def _setup(plan: dict, tracer_wanted: bool):
    start = time.perf_counter()
    import entmoment  # timed: every CLI invocation pays for it

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(entmoment.__file__).startswith(src + os.sep):
        raise SystemExit(f"entmoment imported from {entmoment.__file__}, not from {src}")
    imported = time.perf_counter()
    import analyze
    import figures
    import tracing

    runner = (figures if plan["workload"] == "sweep-figures" else analyze).Runner()
    tracer = tracing.Tracer() if tracer_wanted else None
    if tracer:
        tracer.install()
    resumed = time.perf_counter()
    for op in plan["warmup"]:
        runner.execute(op)
    return runner, tracer, (imported - start) + (time.perf_counter() - resumed)


class Tally:
    """Times, failures and the output digest of a sequence of operations."""

    def __init__(self, runner):
        self.runner = runner
        self.digest = hashlib.sha256()
        self.attempted = self.failed = self.points = 0
        self.busy = 0.0
        self.latency_ms = {}  # n (or "pass") -> list of ms, valid inputs only
        self.problems = []
        self.stdout_bytes = 0
        self.exit_nonzero = 0
        self.calibrations = [calibration_s()]
        self._calibrated_at = 0.0

    def run(self, op: dict) -> bytes:
        """Run and check one op; return the output bytes it added to the digest."""
        start = time.perf_counter()
        outcome = self.runner.execute(op)
        elapsed = time.perf_counter() - start
        # Everything below is outside the timed region.
        self.busy += elapsed
        self.attempted += 1
        self.points += self.runner.points(op)
        data = self.runner.output_bytes(outcome)
        self.digest.update(data)
        wrong = self.runner.check(op, outcome)
        if wrong:
            self.problems.append(f"op {self.attempted}: {'; '.join(wrong)}")
        if wrong or getattr(outcome, "error", None):
            self.failed += 1
        if op.get("expect", 0) == 0:
            self.latency_ms.setdefault(op.get("n", "pass"), []).append(elapsed * 1e3)
        if hasattr(outcome, "stdout"):
            self.stdout_bytes += len(outcome.stdout.encode())
            self.exit_nonzero += outcome.code != 0
        if self.busy - self._calibrated_at >= CAL_EVERY_S:
            self.calibrations.append(calibration_s())
            self._calibrated_at = self.busy
        return data

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "points": self.points,
            "busy_s": self.busy,
            "latency_ms": {str(k): v for k, v in self.latency_ms.items()},
            "problems": self.problems[:20],
            "wrong": len(self.problems),
            "digest": self.digest.hexdigest(),
            "calibration_s": self.calibrations,
        }


def main() -> None:
    mode, plan_path, out_path, seconds = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
    # One CPU for the whole process, so the calibration kernel and the
    # operations it scales run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    runner, tracer, setup_s = _setup(plan, mode == "trace")
    result = {"setup_s": setup_s,
              "setup_calibration_s": [calibration_s() for _ in range(SETUP_CAL_SAMPLES)]}
    rounds = plan["rounds"]
    replay = [rounds[0][i] for i in plan["replay"]]
    if mode == "replay":
        tally = Tally(runner)
        for op in replay:
            tally.run(op)
        result["digest"] = tally.digest.hexdigest()
    elif mode == "measure":
        # Whole rounds, so every run sees the same input mix; stop at the
        # round boundary nearest to the budget.
        tally = Tally(runner)
        replay_set, replay_digest = set(plan["replay"]), hashlib.sha256()
        done = 0
        while True:
            for i, op in enumerate(rounds[done % len(rounds)]):
                data = tally.run(op)
                if done == 0 and i in replay_set:
                    replay_digest.update(data)
            done += 1
            if tally.busy * (1.0 + 0.5 / done) >= seconds:
                break
        result.update(tally.result(), rounds=done, replay_digest=replay_digest.hexdigest())
    elif mode == "trace":
        ops = [op for r in range(plan["trace_rounds"]) for op in rounds[r % len(rounds)]]
        tracer.uninstall()
        plain = Tally(runner)
        for op in ops:
            plain.run(op)
        tracer.install()
        traced = Tally(runner)
        for op in ops:
            traced.run(op)
        tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = traced.stdout_bytes
        layers["cli.exit_nonzero"] = traced.exit_nonzero
        layers["bench.trace_overhead_pct"] = 100.0 * (traced.busy / plain.busy - 1.0)
        result.update(traced.result(), layers=layers, untraced_busy_s=plain.busy)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path + ".part", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(out_path + ".part", out_path)


if __name__ == "__main__":
    main()
