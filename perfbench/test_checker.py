"""The benchmark's checker must flag corrupted results as failed.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import analyze  # noqa: E402
import figures  # noqa: E402
import oracle  # noqa: E402
from worker import Tally  # noqa: E402


@pytest.fixture(scope="module")
def qubit_plan(tmp_path_factory):
    return analyze.make_plan("analyze-qubits", 7, str(tmp_path_factory.mktemp("q")))


def _first(plan, expect, kind=None):
    return next(op for op in plan["rounds"][0]
                if op["expect"] == expect and (kind is None or op["kind"] == kind))


class Corrupting:
    """Wraps a runner and damages every outcome before it is checked."""

    def __init__(self, runner, damage):
        self.runner, self.damage = runner, damage

    def execute(self, op):
        return self.damage(self.runner.execute(op))

    def __getattr__(self, name):
        return getattr(self.runner, name)


def _edit_report(outcome, edit):
    report = json.loads(outcome.stdout)
    edit(report)
    return analyze.Outcome(outcome.code, outcome.error, json.dumps(report), outcome.stderr)


def test_valid_report_passes(qubit_plan):
    runner = analyze.Runner()
    tally = Tally(runner)
    for op in qubit_plan["rounds"][0]:
        if op["kind"] != "non_finite":
            tally.run(op)
    assert tally.failed == 0 and tally.problems == []


@pytest.mark.parametrize("edit", [
    lambda r: r["verdict"]["witnesses"].__setitem__("c_kyfan", r["verdict"]["witnesses"]["c_kyfan"] + 1e-6),
    lambda r: r["L"][0].__setitem__(1, r["L"][0][1] + 1e-3),
    lambda r: r["Omega"][1].__setitem__(0, r["Omega"][1][0] + 1e-3),
    lambda r: r["verdict"].__setitem__(
        "status", "entangled" if r["verdict"]["status"] == "separable" else "separable"),
    lambda r: r.__setitem__("concurrence_wootters", r["concurrence_wootters"] + 1e-4),
], ids=["c_kyfan", "L_symmetry", "Omega_antisymmetry", "verdict", "concurrence"])
def test_corrupted_report_counts_as_failed(qubit_plan, edit):
    op = _first(qubit_plan, 0, "random_full")
    tally = Tally(Corrupting(analyze.Runner(), lambda o: _edit_report(o, edit)))
    tally.run(op)
    assert tally.failed == 1 and len(tally.problems) == 1


def test_wrong_exit_code_counts_as_failed(qubit_plan):
    op = _first(qubit_plan, 3, "trace")
    damage = lambda o: analyze.Outcome(0, None, o.stdout, o.stderr)  # noqa: E731
    tally = Tally(Corrupting(analyze.Runner(), damage))
    tally.run(op)
    assert tally.failed == 1 and tally.problems


def test_non_finite_file_fails_unless_it_exits_3(qubit_plan):
    op = _first(qubit_plan, 3, "non_finite")
    runner = analyze.Runner()
    outcome = runner.execute(op)
    tally = Tally(Corrupting(runner, lambda o: outcome))
    tally.run(op)
    assert tally.failed == (outcome.code != 3)


def test_crash_is_failed_but_not_a_wrong_answer(qubit_plan):
    op = _first(qubit_plan, 0)
    crash = lambda o: analyze.Outcome(None, "ValueError", "", "")  # noqa: E731
    tally = Tally(Corrupting(analyze.Runner(), crash))
    tally.run(op)
    assert tally.failed == 1 and tally.problems == []


def test_corrupted_sweep_counts_as_failed(tmp_path):
    plan = figures.make_plan("sweep-figures", 7, str(tmp_path))
    runner = figures.Runner()
    op = plan["rounds"][0][0]
    tally = Tally(runner)
    tally.run(op)
    assert tally.failed == 0, tally.problems

    def damage(outcome):
        table = outcome.tables["fig3_dmeasure"]
        rows = table.rows.copy()
        rows[5, 2] += 1e-6
        outcome.tables["fig3_dmeasure"] = type(table)(columns=table.columns, rows=rows)
        return outcome

    tally = Tally(Corrupting(runner, damage))
    tally.run(op)
    assert tally.failed == 1
    assert any("d_measure" in p for p in tally.problems)


def test_csv_that_differs_from_its_table_is_flagged(tmp_path):
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "t.csv"
    path.write_text("a,b\n0.1,0.2\n0.3,0.40000000000000002\n")
    assert oracle.check_csv(path, ("a", "b"), rows) == []
    path.write_text("a,b\n0.1,0.2\n0.3,0.4000001\n")
    assert oracle.check_csv(path, ("a", "b"), rows)


def test_layer_list_matches_benchmark_json():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)["per_layer"]
    stripped = [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    assert stripped == bench
    assert all(m["moves"] or m["name"].startswith("bench.") for m in layers)
