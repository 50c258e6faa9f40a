"""Smoke test of the figure script: files written and CSV headers as documented."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

HEADERS = {
    "fig1_werner": "x,concurrence_wootters,purity,tr_rho_rhotilde",
    "fig2_concurrence": "x,alpha,concurrence_variant",
    "fig3_dmeasure": "x,alpha,d_measure",
    "fig4_wedge": "x,alpha,wedge,seam",
}


def test_reproduce_figures_writes_tables_and_svgs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
         "--outdir", str(tmp_path), "--count", "5", "--svg"],
        env=env, check=True, capture_output=True, timeout=120,
    )
    for stem, header in HEADERS.items():
        assert (tmp_path / f"{stem}.csv").read_text().split("\n", 1)[0] == header
        assert (tmp_path / f"{stem}.svg").read_text().startswith("<svg")
