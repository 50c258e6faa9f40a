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


@pytest.mark.parametrize("svg", [False, True])
def test_wedge_of_a_zero_width_axis_exits_1(capsys, tmp_path, svg):
    argv = ["wedge", "--family", "schmidt", "--x", "0:0:3", "--alpha", "0:1:3"]
    out_path, svg_path = tmp_path / "w.csv", tmp_path / "w.svg"
    argv += ["--out", str(out_path)] + (["--svg", str(svg_path)] if svg else [])
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: resolution: axis 'x' needs at least 3 distinct points")
    assert err.count("\n") == 1
    assert not out_path.exists() and not svg_path.exists()


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
    assert "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]" in err


@pytest.mark.parametrize(
    "spec, message",
    [("0:1", "range for x must be start:stop:count, got '0:1'"),
     ("a:b:3", "malformed range 'a:b:3' for x")],
)
def test_sweep_refuses_a_malformed_range(capsys, spec, message):
    code, out, err = invoke(
        capsys, "sweep", "--family", "werner", "--x", spec, "--quantities", "purity"
    )
    assert code == 64 and out == ""
    assert err == f"error: usage: {message}\n"


def test_analyze_needs_a_state_or_a_family(capsys):
    code, out, err = invoke(capsys, "analyze")
    assert code == 64 and out == ""
    assert err == "error: usage: analyze needs --state or --family\n"


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


@pytest.mark.parametrize(
    "entries, check",
    [
        ([[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], "hermiticity"),
        ([[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]], "trace"),
        ([[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]], "positivity"),
    ],
)
def test_validation_error_names_the_failed_check(capsys, tmp_path, entries, check):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "matrix": entries}))
    code, out, err = invoke(capsys, "analyze", "--state", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: validation: {path}: {check}: ") and err.count("\n") == 1


def test_unwritable_out_is_an_io_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, _, err = invoke(capsys, "analyze", "--family", "werner", "--x", "0.3", "--out", str(target))
    assert code == 1
    assert err.startswith("error: io: ") and err.count("\n") == 1
    assert not target.exists()


def test_two_qubit_analyze_makes_one_kernel_call(capsys, tmp_path, monkeypatch):
    # The Ky Fan norm, both concurrences and the partial transpose share one Jacobi
    # call, whichever criterion decides; n = 3 also makes one (its Ky Fan solve).
    from entmoment import entanglement, linalg
    from entmoment.states import (
        bell_state,
        maximally_mixed,
        random_density,
        save_state,
        schmidt_mix,
        werner,
    )

    kernel = linalg._jacobi
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    # Every module that holds the kernel under its own name.
    for module in (linalg, entanglement):
        monkeypatch.setattr(module, "_jacobi", counted)
    rng = np.random.default_rng(68)
    states = {
        "devicente_necessary": [bell_state(), werner(0.8), random_density(4, rank=1, rng=rng)],
        "devicente_sufficient": [maximally_mixed(4), werner(1 / 3), werner(0.2)],
        "ppt": [
            schmidt_mix(0.4, np.pi / 8),
            random_density(4, rank=2, rng=np.random.default_rng(4)),
        ],
    }
    states["any"] = [random_density(9, rng=rng)]
    for decider, group in states.items():
        for i, state in enumerate(group):
            path = tmp_path / f"{decider}-{i}.json"
            save_state(state, path)
            calls.clear()
            code, out, _ = invoke(capsys, "analyze", "--state", str(path))
            assert code == 0
            assert decider in ("any", json.loads(out)["verdict"]["decided_by"])
            assert len(calls) == 1, calls


def test_analyze_rejects_oversized_state_before_building_basis(capsys, tmp_path, monkeypatch):
    from entmoment import tensors
    from entmoment.states import DensityOperator, save_state

    path = tmp_path / "dim100.json"
    save_state(DensityOperator(np.eye(100) / 100), path)

    def refuse(n):
        raise AssertionError(f"built the n={n} basis")

    monkeypatch.setattr(tensors, "basis_matrices", refuse)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "werner", "--x", "nan"),
        ("analyze", "--family", "schmidt", "--x", "0.5", "--alpha", "nan"),
        ("analyze", "--family", "schmidt", "--x", "0.5", "--alpha", "inf"),
        ("analyze", "--family", "standard-form", "--d", "nan,0,0"),
        ("standard-form", "--d", "0,inf,0"),
        ("sweep", "--family", "werner", "--x", "0:nan:3", "--quantities", "D"),
    ],
)
def test_non_finite_family_values_are_domain_errors(capsys, argv):
    # Exit 3 is kept for state files; a family parameter is checked like a sweep axis.
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: domain:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [("--help",), ("-h",), ("analyze", "--help"), ("analyze", "-h"), ("sweep", "-h")]
)
def test_help_returns_zero(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: entmoment")


@pytest.mark.parametrize(
    "verb, value",
    [
        (("analyze", "--family", "standard-form"), "-0.3,0.2,0.1"),
        (("analyze", "--family", "standard-form"), "-.3,0.2,0.1"),
        (("standard-form",), "-0.3,0.2,0.1"),
        (("sweep", "--family", "standard-form", "--quantities", "D"), "-0.2:0.2:3,0:0.2:2,0:0.1:2"),
    ],
)
def test_negative_comma_separated_value_is_a_value(capsys, verb, value):
    code, out, err = invoke(capsys, *verb, "--d", value)
    assert code == 0, err
    assert invoke(capsys, *verb, f"--d={value}")[:2] == (0, out)


def test_family_flags_follow_the_registry(capsys, monkeypatch):
    from entmoment import cli

    werner_builder = cli.FAMILIES["werner"][1]
    monkeypatch.setitem(cli.FAMILIES, "werner_line", (("y",), werner_builder))
    code, out, _ = invoke(capsys, "analyze", "--family", "werner-line", "--y", "0.5")
    assert code == 0
    assert out == invoke(capsys, "analyze", "--family", "werner", "--x", "0.5")[1]


WERNER_HALF = ("analyze", "--family", "werner", "--x", "0.5")


@pytest.mark.parametrize(
    "before, before_code",
    [
        (WERNER_HALF + ("--tolerance", "0.5"), 0),
        (("analyze", "--help"), 0),
        (WERNER_HALF, 0),
        (("analyze", "--family", "werner", "--no-such-flag"), 64),
    ],
    ids=["tolerance", "help", "same-argv", "usage-error"],
)
def test_reused_parser_keeps_no_state(capsys, before, before_code):
    first = invoke(capsys, *WERNER_HALF)
    assert first[0] == 0 and json.loads(first[1])["verdict"]["status"] == "entangled"
    code, out, _ = invoke(capsys, *before)
    assert code == before_code
    if "--tolerance" in before:
        assert json.loads(out)["verdict"]["status"] == "separable"
    assert invoke(capsys, *WERNER_HALF) == first


def _reference_report(state, tol):
    """The report built element by element with ``float``, as ``_json``'s input must read."""
    from entmoment.entanglement import (
        classify,
        concurrence_variant,
        concurrence_wootters,
        d_measure,
        purity,
        tr_rho_rhotilde,
    )
    from entmoment.states import complex_pairs, local_dimension
    from entmoment.tensors import inner_product, moments, split_sym_antisym

    n = local_dimension(state.dim)
    mom = moments(state)
    l_sym, omega = split_sym_antisym(mom.second)
    k = mom.covariance()
    fano = mom.fano()
    p = purity(state)
    report = {
        "dim": state.dim,
        "n_local": n,
        "purity": p,
        "linear_entropy": 1.0 - p,
        "f2_linear": inner_product(mom.second),
        "f2_covariance": inner_product(k),
    }
    if n == 2:
        report["tr_rho_rhotilde"] = tr_rho_rhotilde(state)
        report["d_measure"] = d_measure(state)
        report["concurrence_wootters"] = concurrence_wootters(state)
        report["concurrence_variant"] = concurrence_variant(state)
    report["bloch_a"] = [float(v) for v in fano.nvec]
    report["bloch_b"] = [float(v) for v in fano.mvec]
    report["correlation"] = [[float(v) for v in row] for row in fano.C]
    report["L"] = [[float(v) for v in row] for row in l_sym]
    report["Omega"] = [[float(v) for v in row] for row in omega]
    report["K"] = complex_pairs(k.values)
    verdict = classify(state, tol=tol)
    report["verdict"] = {
        "status": verdict.status,
        "decided_by": verdict.decided_by,
        "witnesses": {k_: float(v) for k_, v in verdict.witnesses.items()},
    }
    return report


def _reference_matrix_csv(report):
    k = np.asarray(report["K"])
    blocks = [("L", report["L"]), ("Omega", report["Omega"]),
              ("K_real", k[..., 0]), ("K_imag", k[..., 1])]
    text = ""
    for name, rows in blocks:
        line = ",".join(["{:.17g}"] * len(rows[0])) + "\n"
        text += f"# {name}\n" + "".join(line.format(*row) for row in np.asarray(rows).tolist())
    return text


def _random_state(n, rank, seed):
    from entmoment.states import DensityOperator

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * n, rank)) + 1j * rng.standard_normal((n * n, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


@pytest.mark.parametrize(
    "n, rank", [(n, r) for n in (2, 3, 4, 6) for r in (1, 2, n * n)]
)
def test_analyze_report_bytes_equal_reference(capsys, tmp_path, n, rank):
    from entmoment.entanglement import DEFAULT_TOL
    from entmoment.states import save_state

    state = _random_state(n, rank, seed=100 * n + rank)
    path = tmp_path / "state.json"
    save_state(state, path)
    reference = _reference_report(load_state(path), DEFAULT_TOL)
    expected = json.dumps(reference, indent=2, allow_nan=False) + "\n"
    code, out, _ = invoke(capsys, "analyze", "--state", str(path))
    assert code == 0
    assert out.encode() == expected.encode()
    if n <= 3:
        report_path, csv_path = tmp_path / "r.json", tmp_path / "m.csv"
        assert invoke(capsys, "analyze", "--state", str(path), "--out", str(report_path))[:2] \
            == (0, out)
        assert report_path.read_bytes() == expected.encode()
        assert invoke(capsys, "analyze", "--state", str(path), "--out", str(csv_path))[:2] \
            == (0, out)
        assert csv_path.read_bytes() == _reference_matrix_csv(reference).encode()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_report_scalars_are_the_sweep_columns_of_one_evaluation(n):
    # The report reads its scalar fields through the sweep's column readers, from the
    # evaluation of the state as a stack of one: each equals that column and the public
    # per-state function bit for bit, and the verdict is classify's.
    from entmoment.cli import analysis_report
    from entmoment.entanglement import (
        DEFAULT_TOL,
        _Evaluation,
        classify,
        concurrence_variant,
        concurrence_wootters,
        d_measure,
        tr_rho_rhotilde,
    )
    from entmoment import purity
    from entmoment.sweep import QUANTITIES
    from entmoment.tensors import quadratic_invariant

    public = {
        "purity": purity,
        "linear_entropy": lambda rho: 1.0 - purity(rho),
        "f2_linear": lambda rho: quadratic_invariant(rho, "linear"),
        "f2_covariance": lambda rho: quadratic_invariant(rho, "covariance"),
        "tr_rho_rhotilde": tr_rho_rhotilde,
        "d_measure": d_measure,
        "concurrence_wootters": concurrence_wootters,
        "concurrence_variant": concurrence_variant,
    }
    state = _random_state(n, n * n - 1, seed=7 * n)
    report = analysis_report(state, DEFAULT_TOL)
    scalars = [name for name in report if name in QUANTITIES and name != "verdict"]
    assert scalars == list(public)[: 8 if n == 2 else 4]
    ev = _Evaluation(state.matrix[None], scalars + ["verdict"])
    for name in scalars:
        assert type(report[name]) is float
        bits = np.array(report[name]).tobytes()
        assert bits == QUANTITIES[name](ev)[:1].tobytes() == np.array(public[name](state)).tobytes()
    assert report["verdict"] == dict(vars(classify(state)))


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "werner", "--x", "0.5"),
        ("--family", "werner", "--x", "0.5", "--tolerance", "0.5"),
        ("--family", "schmidt", "--x", "0.6", "--alpha", "0.4"),
        ("--family", "standard-form", "--d", "0.3,-0.3,0.3"),
    ],
    ids=["werner", "tolerance", "schmidt", "standard-form"],
)
def test_analyze_family_report_bytes_equal_reference(capsys, tmp_path, argv):
    path = tmp_path / "state.json"
    code, out, _ = invoke(capsys, "analyze", *argv, "--dump-state", str(path))
    assert code == 0
    tol = float(argv[-1]) if "--tolerance" in argv else 1e-9
    reference = _reference_report(load_state(path), tol)
    assert out.encode() == (json.dumps(reference, indent=2, allow_nan=False) + "\n").encode()


def test_standard_form_report_bytes_equal_reference(capsys, tmp_path):
    path = tmp_path / "sf.json"
    code, out, _ = invoke(capsys, "standard-form", "--d", "0.3,-0.4,0.2", "--out", str(path))
    assert code == 0
    # --out writes the document that stdout prints, as analyze --out does.
    assert path.read_bytes() == out.encode()
    report = json.loads(out)
    assert out.encode() == (json.dumps(report, indent=2, allow_nan=False) + "\n").encode()
    assert report["d"] == [0.3, -0.4, 0.2]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        np.empty(0),
        np.empty((3, 0)),
        np.empty((0, 2)),
        {"a": {}, "b": [], "c": np.empty((2, 0, 2))},
        {"a": {"b": {"c": [1, 2.5, None, True, False, "x"]}}, "d": None},
        {"s": "non-ASCII: é–Ω \"q\" \\ \n", "é": 1},
        [-0.0, 5e-324, 1e22, 1e16, 0.1, 2**63, -7],
        (1.0, [2.0, (3.0,)]),
        np.array([-0.0, 5e-324, 1e22, 1e16, 0.1, -2.5e-300]),
        np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0,
        {"m": np.array([[1.0]]), "v": [np.array([0.5, -0.0]), {"w": np.array(3.0)}]},
        -0.0,
        "plain",
        7,
        None,
    ],
)
def test_json_writer_equals_json_dumps(value):
    from entmoment.cli import _json

    def lists(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, dict):
            return {k: lists(x) for k, x in v.items()}
        if isinstance(v, list):
            return [lists(x) for x in v]
        return v

    assert _json(value) == json.dumps(lists(value), indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_writer_rejects_non_finite_values(bad):
    from entmoment.cli import _json

    matrix = np.eye(3)
    matrix[1, 2] = bad
    for value in (matrix, {"a": {"b": matrix}}, bad, {"a": [1.0, bad]}, np.array(bad)):
        with pytest.raises(ValueError, match="Out of range float values"):
            _json(value)


def test_sweep_svg_of_non_finite_column_fails(capsys, tmp_path, monkeypatch):
    from entmoment import sweep

    def with_nan(ev):
        values = ev.purity.copy()
        values[1] = np.nan
        return values

    monkeypatch.setitem(sweep.QUANTITIES, "purity", with_nan)
    csv_path, svg_path = tmp_path / "werner.csv", tmp_path / "werner.svg"
    code, out, err = invoke(
        capsys,
        "sweep",
        "--family", "werner",
        "--x", "0:1:5",
        "--quantities", "purity",
        "--out", str(csv_path),
        "--svg", str(svg_path),
    )
    assert code == 1 and out == ""
    assert err == "error: configuration: cannot draw column 'purity': 1 non-finite value(s)\n"
    assert not csv_path.exists() and not svg_path.exists()


@pytest.mark.parametrize(
    "argv,flags",
    [
        (("analyze", "--family", "werner", "--x", "0.5", "--alpha", "0.3"), "--alpha"),
        (("analyze", "--family", "schmidt", "--x", "0.5", "--alpha", "0.3", "--d", "0,0,0"), "--d"),
        (("analyze", "--family", "standard-form", "--d", "0,0,0", "--x", "0.5"), "--x"),
        (("analyze", "--state", "{state}", "--x", "0.5"), "--x"),
        (("analyze", "--state", "{state}", "--alpha", "0.1", "--d", "0,0,0"), "--alpha, --d"),
        (("sweep", "--family", "werner", "--x", "0:1:3", "--alpha", "0:1:3", "--quantities", "D"),
         "--alpha"),
        (("wedge", "--family", "schmidt", "--x", "0:1:5", "--alpha", "0:1:5", "--d", "0:1:3"),
         "--d"),
    ],
)
def test_family_flag_the_input_does_not_take_is_a_usage_error(capsys, tmp_path, argv, flags):
    state = tmp_path / "state.json"
    assert invoke(capsys, "analyze", "--family", "werner", "--x", "0.5", "--dump-state",
                  str(state))[0] == 0
    code, out, err = invoke(capsys, *(arg.replace("{state}", str(state)) for arg in argv))
    assert code == 64 and out == ""
    assert err.startswith("error: usage: ") and err.rstrip().endswith(f"does not take {flags}")
