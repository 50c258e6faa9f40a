#!/usr/bin/env python3
"""Print sha256 digests of entmoment's outputs, one ``name digest`` line each.

    PYTHONPATH=src python3 scripts/output_digests.py [--quick]

Run it against two checkouts (point PYTHONPATH at each one's ``src``) and
compare the lines: a change that should leave every output byte-identical
must print the same lines.  The digests cover

  analyze-qubits/analyze-qudits  stdout, stderr and exit code of
      ``cli.run(["analyze", "--state", f])`` for every file of the seeded
      benchmark plan (``perfbench/analyze.make_plan``), one line per seed
      of ``SEEDS``;
  selftest  stdout, stderr and exit code of ``cli.run(["selftest"])``;
  figures   each CSV and SVG file of ``scripts/reproduce_figures.py --svg``;
  kernel    eigenvalues and carried rows of ``linalg._jacobi`` on seeded
      real and complex stacks of sizes 1 to 64, whose members finish at
      different sweeps, and of each stack's first member alone.

``--quick`` runs a smoke-sized version: the first round of each plan at
the first seed, a 5x5 figure grid and a few kernel sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from analyze import make_plan  # noqa: E402

from entmoment import cli, linalg  # noqa: E402

SEEDS = (1, 7)  # perfbench plan seeds
KERNEL_SIZES = range(1, 65)
QUICK_KERNEL_SIZES = (1, 2, 3, 4, 5, 8, 15)
STACK = 16  # matrices per kernel stack
CARRIED_ROWS = 3


def _cli_bytes(argv, workdir: str = "") -> bytes:
    """Exit code (or exception name), stdout and stderr of one call, with ``workdir``
    (which error messages quote) replaced by a fixed name."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # a crash is an output too
        code = type(exc).__name__
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}\0"
    return (text.replace(workdir, "<plan>") if workdir else text).encode()


def analyze_digests(quick: bool):
    for workload in ("analyze-qubits", "analyze-qudits"):
        for seed in SEEDS[:1] if quick else SEEDS:
            digest = hashlib.sha256()
            with tempfile.TemporaryDirectory() as workdir:
                plan = make_plan(workload, seed, workdir)
                rounds = plan["rounds"][:1] if quick else plan["rounds"]
                files = [op["path"] for ops in rounds for op in ops]
                for path in files:
                    digest.update(_cli_bytes(["analyze", "--state", path], workdir))
            yield f"{workload}/seed{seed}/{len(files)}files", digest.hexdigest()


def figure_digests(quick: bool):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with tempfile.TemporaryDirectory() as outdir:
        argv = [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
                "--outdir", outdir, "--svg"] + (["--count", "5"] if quick else [])
        subprocess.run(argv, env=env, check=True, capture_output=True)
        for path in sorted(pathlib.Path(outdir).iterdir()):
            yield f"figures/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest()


def _kernel_stack(rng, n: int, dtype) -> np.ndarray:
    """STACK Hermitian n x n matrices that converge after different numbers of sweeps:
    random, nearly diagonal, diagonal with ties, low rank, tiny and large."""
    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if dtype is complex else g

    g = draw(STACK, n, n)
    a = g + np.swapaxes(g, -1, -2).conj()
    eye = np.eye(n, dtype=bool)
    a[1] = np.where(eye, a[1], 1e-9 * a[1])
    a[2] = np.diag(np.round(a[2].diagonal().real))
    low = draw(n, min(2, n))
    a[3] = low @ low.conj().T
    a[4] *= 2.0**-30
    a[5] *= 2.0**20
    a[6] = np.where(eye, a[6], 1e-3 * a[6])
    return a


def kernel_digests(quick: bool):
    rng = np.random.default_rng(2024)
    for n in QUICK_KERNEL_SIZES if quick else KERNEL_SIZES:
        for dtype in (float, complex):
            a = _kernel_stack(rng, n, dtype)
            carry = rng.standard_normal((STACK, CARRIED_ROWS, n)).astype(dtype)
            digest = hashlib.sha256()
            for solve in (linalg._jacobi(a, carry), linalg._jacobi(a[:1], carry[:1]),
                          linalg._jacobi(a)):
                for part in solve:
                    digest.update(part.tobytes())
            yield f"kernel/{dtype.__name__}{n}x{n}/{STACK}", digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="smoke-sized run")
    args = parser.parse_args()
    print(f"# entmoment from {pathlib.Path(cli.__file__).parent}", file=sys.stderr)
    sections = [
        analyze_digests(args.quick),
        [("selftest", hashlib.sha256(_cli_bytes(["selftest"])).hexdigest())],
        figure_digests(args.quick),
        kernel_digests(args.quick),
    ]
    for section in sections:
        for name, digest in section:
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
