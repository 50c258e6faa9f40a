"""The analyze workloads: state files sent through ``cli.run(["analyze", ...])``.

analyze-qubits streams n=2 files.  Each round holds 95 valid states and
one file of each documented rejection class, in a seeded order.  The
valid states are random states of full and low rank plus Werner, Schmidt
and standard-form members, so the cascade settles at
``devicente_necessary``, ``devicente_sufficient`` and ``ppt``.

analyze-qudits streams random states at n = 3 and 4; half of them are
mixed towards 1/d until the sufficient criterion decides them.  A round
holds both dimensions, with counts chosen so that each takes about half
of the round's time at the seed.  n = 6 and 8 are left out: one n=8
set-up fills the 1 GB ``_pair_products`` cache in 17 to 25 s, five per
run do not fit the benchmark's time budget, and their memory-bound
einsums are not tracked by the speed calibration in worker.py (ten seeds
spread by 0.24 of the median throughput).

The non-finite file of each qubit round makes ``cli.run`` raise
``ValueError`` instead of exiting 3 at the seed: NaN passes every
tolerance comparison, and ``json.dumps(allow_nan=False)`` then rejects
the report.  It stays in the mix on purpose, counted as failed, so the
fix shows as fewer failures and higher throughput.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracle

# Valid n=2 states per round, by kind.
QUBIT_KINDS = {
    "random_full": 30,
    "random_rank1": 15,
    "random_rank2": 10,
    "werner": 15,
    "schmidt": 15,
    "standard_form": 10,
}
# One file per documented rejection class, with the exit code it must give.
REJECTIONS = {
    "malformed_json": 2,
    "non_hermitian": 3,
    "trace": 3,
    "negative_eigenvalue": 3,
    "non_finite": 3,
}
QUBIT_POOL_ROUNDS = 48  # distinct rounds written; the loop cycles through them
QUDIT_ROUND = {3: 40, 4: 11}
QUDIT_POOL_ROUNDS = 32


def _random_state(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _mixture(x: float, ket: np.ndarray) -> np.ndarray:
    return x * np.outer(ket, ket.conj()) + (1.0 - x) * np.eye(4) / 4.0


def _qubit_state(rng, kind: str) -> np.ndarray:
    if kind.startswith("random_"):
        rank = {"random_full": 4, "random_rank1": 1, "random_rank2": 2}[kind]
        return _random_state(rng, 4, rank)
    if kind == "werner":
        return _mixture(rng.uniform(0.0, 1.0), np.array([1, 0, 0, 1]) / math.sqrt(2.0))
    if kind == "schmidt":
        alpha = rng.uniform(0.0, math.pi / 2)
        return _mixture(rng.uniform(0.0, 1.0), np.array([math.cos(alpha), 0, 0, math.sin(alpha)]))
    # Standard form (1/4)(1 + sum_j d_j s_j x s_j) from seeded Bell-basis weights.
    e0, e1, e2, e3 = rng.dirichlet(np.ones(4))
    d = (e2 + e3 - e0 - e1, e1 + e3 - e0 - e2, e1 + e2 - e0 - e3)
    s = oracle.gell_mann(2)  # sigma_x, sigma_y, sigma_z
    m = np.eye(4, dtype=complex)
    for j, dj in enumerate(d):
        m += dj * np.kron(s[j], s[j])
    return m / 4.0


def _qudit_state(rng, n: int, index: int) -> np.ndarray:
    """Full rank, rank 1 and rank 2 in turn; every second state mixed towards 1/d."""
    dim = n * n
    rho = _random_state(rng, dim, (dim, 1, 2)[index % 3])
    if index % 2 == 1:
        # Scale the Bloch data so the sufficient inequality holds with margin.
        p = rng.uniform(0.5, 0.95) / oracle.sufficient_value(rho, n)
        rho = p * rho + (1.0 - p) * np.eye(dim) / dim
    return rho


def _doc(m: np.ndarray) -> str:
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return json.dumps({"dim": int(m.shape[0]), "matrix": matrix})


def _rejected(rng, kind: str) -> str:
    rho = _random_state(rng, 4, 4)
    if kind == "malformed_json":
        text = _doc(rho)
        return text[: int(rng.integers(len(text) // 4, len(text) - 1))]
    if kind == "non_hermitian":
        rho[0, 1] += rng.uniform(1e-3, 1e-2)
    elif kind == "trace":
        rho *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-1)
    elif kind == "negative_eigenvalue":
        w, v = np.linalg.eigh(rho)
        eps = rng.uniform(1e-3, 1e-1)
        w = np.concatenate([[-eps], w[1:] * (1.0 + eps) / w[1:].sum()])
        rho = (v * w) @ v.conj().T
        rho = (rho + rho.conj().T) / 2.0
    else:
        variant = int(rng.integers(3))
        if variant == 0:
            rho[1, 1] = np.nan
        elif variant == 1:
            rho[0, 2] = rho[2, 0] = complex(np.nan, 0.0)
        else:
            rho[0, 2] = rho[2, 0] = complex(np.inf, 0.0)
    return _doc(rho)


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """Write the seeded input files under ``workdir`` and describe the run."""
    rng = np.random.default_rng(seed)
    counter = iter(range(10**9))

    def write(text: str, kind: str, dim: int, expect: int) -> dict:
        path = os.path.join(workdir, f"s{next(counter):06d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"path": path, "kind": kind, "n": math.isqrt(dim), "expect": expect}

    rounds = []
    if workload == "analyze-qubits":
        warmup = [write(_doc(_random_state(rng, 4, 4)), "random_full", 4, 0)]
        for _ in range(QUBIT_POOL_ROUNDS):
            ops = [
                write(_doc(_qubit_state(rng, kind)), kind, 4, 0)
                for kind, count in QUBIT_KINDS.items()
                for _ in range(count)
            ]
            ops += [write(_rejected(rng, kind), kind, 4, code) for kind, code in REJECTIONS.items()]
            rounds.append([ops[i] for i in rng.permutation(len(ops))])
        return {"rounds": rounds, "warmup": warmup, "replay": list(range(50)),
                "trace_rounds": 8, "tail_percentile": 99.0, "setup_only_runs": 3}
    warmup = [write(_doc(_random_state(rng, n * n, n * n)), "random_full", n * n, 0)
              for n in QUDIT_ROUND]
    for _ in range(QUDIT_POOL_ROUNDS):
        ops = []
        for n, count in QUDIT_ROUND.items():
            for i in range(count):
                ops.append(write(_doc(_qudit_state(rng, n, i)),
                                 "mixed" if i % 2 else "random", n * n, 0))
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    first = rounds[0]
    # The determinism replay covers the first 16 files and the first file of each dimension.
    replay = sorted(set(range(16)) | {next(i for i, op in enumerate(first) if op["n"] == n)
                                       for n in QUDIT_ROUND})
    return {"rounds": rounds, "warmup": warmup, "replay": replay,
            "trace_rounds": 8, "tail_percentile": 90.0, "setup_only_runs": 3}


@dataclass
class Outcome:
    code: int | None  # None when cli.run raised
    error: str | None
    stdout: str
    stderr: str


class Runner:
    """Executes one analyze call per op; checks it against the oracle."""

    def __init__(self):
        from entmoment import cli

        self.cli = cli

    def execute(self, op: dict) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(["analyze", "--state", op["path"]])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return Outcome(None, type(exc).__name__, out.getvalue(), err.getvalue())
        return Outcome(code, None, out.getvalue(), err.getvalue())

    @staticmethod
    def output_bytes(outcome: Outcome) -> bytes:
        return f"{outcome.code}|{outcome.error}|".encode() + outcome.stdout.encode()

    @staticmethod
    def check(op: dict, outcome: Outcome) -> list:
        """Wrong answers in a completed call; a raised exception is not one."""
        if outcome.code is None:
            return []
        if outcome.code != op["expect"]:
            return [f"{op['kind']}: exit {outcome.code}, expected {op['expect']}"]
        if op["expect"] != 0:
            if outcome.stdout or not outcome.stderr.startswith("error: "):
                return [f"{op['kind']}: rejection without a single error line"]
            return []
        try:
            report = json.loads(outcome.stdout)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        with open(op["path"], encoding="utf-8") as fh:
            doc = json.load(fh)
        rho = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        return oracle.check_report(rho, report)

    @staticmethod
    def points(op: dict) -> int:
        return 1
