"""The sweep-figures workload: the pipeline of ``scripts/reproduce_figures.py``.

One op is one pass of that pipeline through the public ``entmoment.sweep``
functions: the Werner line, the Schmidt plane, the wedge field computed
from the plane table, and CSV plus SVG emission.  Point counts are fixed;
the seed draws axis ranges that cover most of each domain.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import oracle

WERNER_POINTS = 65
PLANE_POINTS = 25  # per axis
POOL_PASSES = 128


def _span(rng, lo: float, hi: float) -> tuple:
    width = hi - lo
    return (lo + rng.uniform(0.0, 0.1) * width, hi - rng.uniform(0.0, 0.1) * width)


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)

    def one_pass(k: int, werner_points: int, plane_points: int) -> dict:
        outdir = os.path.join(workdir, f"pass{k}")
        os.makedirs(outdir, exist_ok=True)
        return {
            "outdir": outdir,
            "werner": [*_span(rng, 0.0, 1.0), werner_points],
            "x": [*_span(rng, 0.0, 1.0), plane_points],
            "alpha": [*_span(rng, 0.0, math.pi / 2), plane_points],
        }

    # Every pass of a round writes into its own directory, so the files a
    # pass emitted can be read back after it.
    rounds = [[one_pass(k, WERNER_POINTS, PLANE_POINTS)] for k in range(POOL_PASSES)]
    return {
        "rounds": rounds,
        "warmup": [one_pass(POOL_PASSES, 5, 5)],
        "replay": [0],
        "trace_rounds": 16,
        "tail_percentile": 75.0,
        "setup_only_runs": 3,
    }


@dataclass
class Outcome:
    tables: dict  # file stem -> SweepTable
    files: dict  # file stem -> path
    error: str | None = None


class Runner:
    """Runs one figure pass per op; checks tables against closed forms."""

    def __init__(self):
        from entmoment import sweep

        self.sweep = sweep

    def execute(self, op: dict) -> Outcome:
        try:
            return self._figures(op)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return Outcome({}, {}, type(exc).__name__)

    def _figures(self, op: dict) -> Outcome:
        sw = self.sweep
        out = op["outdir"]
        werner_grid = sw.SweepGrid(
            family="werner",
            axes=(sw.AxisSpec("x", *op["werner"]),),
            quantities=("concurrence_wootters", "purity", "tr_rho_rhotilde"),
        )
        werner_table = sw.grid_sweep(werner_grid)
        plane = sw.SweepGrid(
            family="schmidt",
            axes=(sw.AxisSpec("x", *op["x"]), sw.AxisSpec("alpha", *op["alpha"])),
            quantities=("concurrence_variant", "d_measure"),
        )
        plane_table = sw.grid_sweep(plane)
        tables = {
            "fig1_werner": werner_table,
            "fig2_concurrence": sw.SweepTable(
                columns=("x", "alpha", "concurrence_variant"), rows=plane_table.rows[:, :3]
            ),
            "fig3_dmeasure": sw.SweepTable(
                columns=("x", "alpha", "d_measure"), rows=plane_table.rows[:, [0, 1, 3]]
            ),
            "fig4_wedge": sw.wedge_field(
                plane, "concurrence_variant", "d_measure", table=plane_table
            ),
        }
        files = {}
        svg_quantity = {"fig1_werner": "concurrence_wootters", "fig4_wedge": "wedge"}
        for stem, table in tables.items():
            files[stem] = os.path.join(out, stem + ".csv")
            sw.write_csv(table, files[stem])
        for stem, table in tables.items():
            files[stem + "_svg"] = os.path.join(out, stem + ".svg")
            sw.write_svg(table, files[stem + "_svg"], svg_quantity.get(stem))
        return Outcome(tables, files)

    @staticmethod
    def output_bytes(outcome: Outcome) -> bytes:
        if outcome.error:
            return outcome.error.encode()
        parts = []
        for stem in sorted(outcome.files):
            with open(outcome.files[stem], "rb") as fh:
                parts.append(stem.encode() + b"\0" + fh.read())
        return b"\0".join(parts)

    @staticmethod
    def check(op: dict, outcome: Outcome) -> list:
        if outcome.error:
            return []
        t = outcome.tables
        problems = []
        werner = t["fig1_werner"]
        x = np.linspace(*op["werner"])
        problems += oracle.compare("werner x", werner.rows[:, 0], x, 0.0)
        for col, ref in oracle.werner_columns(x).items():
            problems += oracle.compare(col, werner.rows[:, werner.columns.index(col)], ref,
                                      oracle.SWEEP_TOL)
        x1, x2 = np.linspace(*op["x"]), np.linspace(*op["alpha"])
        gx, ga = (g.ravel() for g in np.meshgrid(x1, x2, indexing="ij"))
        ref = oracle.schmidt_columns(gx, ga)
        for stem, col in (("fig2_concurrence", "concurrence_variant"), ("fig3_dmeasure", "d_measure")):
            rows = t[stem].rows
            problems += oracle.compare(f"{stem} axes", rows[:, :2], np.stack([gx, ga], axis=1), 0.0)
            problems += oracle.compare(col, rows[:, 2], ref[col], oracle.SWEEP_TOL)
        n1, n2 = len(x1), len(x2)
        fv = t["fig2_concurrence"].rows[:, 2].reshape(n1, n2)
        gv = t["fig3_dmeasure"].rows[:, 2].reshape(n1, n2)
        wedge, seam = oracle.wedge_reference(x1, x2, fv, gv)
        rows = t["fig4_wedge"].rows
        problems += oracle.compare("wedge", rows[:, 2], wedge, 0.0)
        problems += oracle.compare("seam", rows[:, 3], seam, 0.0)
        for stem, table in t.items():
            problems += oracle.check_csv(outcome.files[stem], table.columns, table.rows)
            problems += oracle.check_svg(outcome.files[stem + "_svg"])
        return problems

    @staticmethod
    def points(op: dict) -> int:
        return op["werner"][2] + op["x"][2] * op["alpha"][2]
