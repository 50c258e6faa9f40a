"""Command-line interface: reports, exit codes, file emission."""

import json

import numpy as np
import pytest

from entmoment.cli import run
from entmoment.states import load_state


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_subcommand(capsys):
    code, out, _ = invoke(capsys, "basis", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["sigma"][1][0][1] == [1.0, 0.0]
    assert np.asarray(doc["c"]).shape == (3, 3, 3)


def test_basis_to_file(capsys, tmp_path):
    path = tmp_path / "basis.json"
    code, out, _ = invoke(capsys, "basis", "--n", "3", "--out", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert len(doc["sigma"]) == 9


def test_analyze_werner_report(capsys):
    code, out, err = invoke(capsys, "analyze", "--family", "werner", "--x", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["concurrence_wootters"] == pytest.approx(0.25, abs=1e-12)
    assert report["f2_linear"] == pytest.approx(7.5, abs=1e-12)
    assert report["verdict"]["status"] == "entangled"
    assert "verdict=entangled" in err
    assert len(report["L"]) == 6
    assert len(report["K"][0][0]) == 2


def test_analyze_report_fields_finite(capsys):
    code, out, _ = invoke(capsys, "analyze", "--family", "schmidt", "--x", "0.6", "--alpha", "0.4")
    assert code == 0
    report = json.loads(out)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert np.isfinite(node)

    walk(report)


@pytest.mark.parametrize(
    "family",
    [
        ("--family", "werner", "--x", "0.5"),
        ("--family", "schmidt", "--x", "0.6", "--alpha", "0.4"),
        ("--family", "standard-form", "--d", "0.3,-0.3,0.3"),
    ],
    ids=["werner", "schmidt", "standard-form"],
)
def test_analyze_round_trip_identical_reports(capsys, tmp_path, family):
    path = tmp_path / "state.json"
    code, first, _ = invoke(capsys, "analyze", *family, "--dump-state", str(path))
    assert code == 0
    code, second, _ = invoke(capsys, "analyze", "--state", str(path))
    assert code == 0
    assert first == second


def test_analyze_family_builders(capsys):
    code, out, _ = invoke(capsys, "analyze", "--family", "standard-form", "--d", "0.3,-0.3,0.3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["status"] == "separable"


def test_analyze_matrix_csv(capsys, tmp_path):
    path = tmp_path / "mats.csv"
    code, _, _ = invoke(
        capsys, "analyze", "--family", "werner", "--x", "0.7", "--out", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("# L\n")
    assert "# Omega" in text and "# K_real" in text and "# K_imag" in text


def test_sweep_row_count(capsys):
    code, out, _ = invoke(
        capsys,
        "sweep",
        "--family", "schmidt",
        "--x", "0:1:11",
        "--alpha", "0:1.5708:11",
        "--quantities", "D",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,alpha,d_measure"
    assert len(lines) == 122


def test_sweep_csv_and_svg(capsys, tmp_path):
    csv_path = tmp_path / "werner.csv"
    svg_path = tmp_path / "werner.svg"
    code, out, _ = invoke(
        capsys,
        "sweep",
        "--family", "werner",
        "--x", "0:1:5",
        "--quantities", "concurrence_wootters,purity",
        "--out", str(csv_path),
        "--svg", str(svg_path),
    )
    assert code == 0 and out == ""
    assert csv_path.read_text().splitlines()[0] == "x,concurrence_wootters,purity"
    assert svg_path.read_text().startswith("<svg")


def test_sweep_svg_of_three_axis_table_fails(capsys, tmp_path):
    svg_path = tmp_path / "cube.svg"
    code, out, err = invoke(
        capsys,
        "sweep",
        "--family", "standard-form",
        "--d", "0:0.2:2,0:0.2:2,0:0.2:2",
        "--quantities", "purity",
        "--svg", str(svg_path),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: configuration: SVG rendering needs one or two axis columns")
    assert not svg_path.exists()


def test_wedge_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        "wedge",
        "--family", "schmidt",
        "--x", "0:1:5",
        "--alpha", "0:1.5:5",
        "--quantities", "C,D",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,alpha,wedge,seam"
    assert len(lines) == 10  # 3x3 interior points


def test_standard_form_subcommand(capsys):
    code, out, _ = invoke(capsys, "standard-form", "--d", "0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["octahedron"] == {"separable": True, "l1": 0.0}
    assert report["ppt"]["separable"] is True
    assert report["spectrum"] == [0.25, 0.25, 0.25, 0.25]


def test_standard_form_bell_vertex(capsys):
    code, out, _ = invoke(capsys, "standard-form", "--d", "1,-1,1")
    assert code == 0
    report = json.loads(out)
    assert not report["octahedron"]["separable"]
    assert report["octahedron"]["l1"] == pytest.approx(3.0)
    assert report["ppt"]["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)


def test_selftest_subset(capsys):
    code, out, _ = invoke(capsys, "selftest", "--only", "2,3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("only", ["99", "0", "1,99", "", "1,,2", "x"])
def test_selftest_rejects_unknown_criteria(capsys, only):
    code, out, err = invoke(capsys, "selftest", "--only", only)
    assert code == 64 and out == ""
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]" in err


def test_exit_codes(capsys, tmp_path):
    # unknown flag -> usage error
    code, _, err = invoke(capsys, "analyze", "--nonsense")
    assert code == 64 and err.startswith("error: usage:")
    # malformed JSON -> parse error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = invoke(capsys, "analyze", "--state", str(bad))
    assert code == 2 and err.startswith("error: parse:")
    # structurally wrong document -> parse error
    structural = tmp_path / "structural.json"
    structural.write_text(json.dumps({"dim": 2}))
    code, _, _ = invoke(capsys, "analyze", "--state", str(structural))
    assert code == 2
    # invariant violation -> validation error
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {"dim": 2, "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        )
    )
    code, _, err = invoke(capsys, "analyze", "--state", str(invalid))
    assert code == 3 and err.startswith("error: validation:")
    # non-finite entry -> validation error naming the file
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(
        json.dumps(
            {"dim": 2, "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        )
    )
    code, out, err = invoke(capsys, "analyze", "--state", str(nan_file))
    assert code == 3 and out == ""
    assert err.startswith(f"error: validation: {nan_file}: ")
    # bytes that are not UTF-8 -> parse error naming the file
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(capsys, "analyze", "--state", str(not_utf8))
    assert code == 2 and out == ""
    assert err.startswith(f"error: parse: {not_utf8}: ")
    # nesting deeper than the JSON decoder's recursion limit -> parse error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = invoke(capsys, "analyze", "--state", str(deep))
    assert code == 2 and out == ""
    assert err.startswith(f"error: parse: {deep}: ")
    # domain violation -> nonzero with machine-parsable line
    code, _, err = invoke(capsys, "analyze", "--family", "werner", "--x", "1.5")
    assert code == 1 and err.startswith("error: domain:")
    # missing verb
    code, _, _ = invoke(capsys)
    assert code == 64
    # a tolerance must be a finite number >= 0
    for verb in (
        ("analyze", "--family", "werner", "--x", "0.1"),
        ("standard-form", "--d", "0.1,0.1,0.1"),
    ):
        for tol in ("nan", "inf", "-1", "abc"):
            code, out, err = invoke(capsys, *verb, "--tolerance", tol)
            assert code == 64 and out == "" and err.startswith("error: usage:")
        code, _, _ = invoke(capsys, *verb, "--tolerance", "0")
        assert code == 0


def test_analyze_rejects_oversized_state_before_building_basis(capsys, tmp_path, monkeypatch):
    from entmoment import tensors
    from entmoment.states import DensityOperator, save_state

    path = tmp_path / "dim100.json"
    save_state(DensityOperator.from_matrix(np.eye(100) / 100), path)

    def refuse(n):
        raise AssertionError(f"built the n={n} basis")

    monkeypatch.setattr(tensors, "generate_basis", refuse)
    code, out, err = invoke(capsys, "analyze", "--state", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: dimension:")


@pytest.mark.parametrize("n", ["9", "30", "1000000"])
def test_basis_rejects_oversized_n_before_building_it(capsys, monkeypatch, n):
    from entmoment import cli

    def refuse(n):
        raise AssertionError(f"built the n={n} basis")

    monkeypatch.setattr(cli, "generate_basis", refuse)
    code, out, err = invoke(capsys, "basis", "--n", n)
    assert code == 1 and out == ""
    assert err.startswith("error: dimension:")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "schmidt", "--x", "0.5"),
        ("sweep", "--family", "schmidt", "--x", "0:1:3", "--quantities", "D"),
        ("analyze", "--family", "standard-form", "--d", "0.1"),
        ("analyze", "--family", "standard-form", "--d", "0.1,0.2"),
        ("sweep", "--family", "standard-form", "--d", "0:0.2:2", "--quantities", "D"),
        ("sweep", "--family", "standard-form", "--d", "0:0.2:2,0:0.2:2", "--quantities", "D"),
        ("analyze", "--family", "werner", "--x", "abc"),
        ("analyze", "--family", "nonsense", "--x", "0.5"),
        ("sweep", "--family", "nonsense", "--x", "0:1:3", "--quantities", "D"),
    ],
)
def test_family_flag_usage_errors(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error: usage:")


def test_analyze_family_domain_checks(capsys):
    # analyze applies the state builders' checks only, not the sweep axis domains
    code, _, err = invoke(capsys, "analyze", "--family", "standard-form", "--d", "1,1,1")
    assert code == 1 and err.startswith("error: positivity:")
    code, _, _ = invoke(capsys, "analyze", "--family", "schmidt", "--x", "0.5", "--alpha", "7")
    assert code == 0


def test_dump_state_writes_loadable_file(capsys, tmp_path):
    path = tmp_path / "dump.json"
    code, _, _ = invoke(
        capsys, "analyze", "--family", "schmidt", "--x", "0.3", "--alpha", "0.9",
        "--dump-state", str(path),
    )
    assert code == 0
    rho = load_state(path)
    assert rho.dim == 4
