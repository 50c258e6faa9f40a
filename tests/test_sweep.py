"""Grid sweeps, wedge fields, CSV/SVG emission, determinism."""

import numpy as np
import pytest

from entmoment import purity, sweep
from entmoment.entanglement import (
    VERDICT_CODE,
    classify,
    concurrence_variant,
    concurrence_wootters,
    d_measure,
    kyfan_norm,
    tr_rho_rhotilde,
)
from entmoment.errors import ConfigurationError, DomainError, ResolutionError
from entmoment.states import DensityOperator, schmidt_mix, standard_form_state, werner
from entmoment.sweep import (
    QUANTITIES,
    AxisSpec,
    SweepGrid,
    format_float,
    grid_sweep,
    wedge_field,
    write_csv,
    write_svg,
)
from entmoment.tensors import moments, quadratic_invariant


def werner_grid(count=3, quantities=("concurrence_wootters",)):
    return SweepGrid(
        family="werner", axes=(AxisSpec("x", 0.0, 1.0, count),), quantities=quantities
    )


def schmidt_grid(nx, na, quantities, x=(0.0, 1.0), alpha=(0.0, np.pi / 2)):
    return SweepGrid(
        family="schmidt",
        axes=(AxisSpec("x", x[0], x[1], nx), AxisSpec("alpha", alpha[0], alpha[1], na)),
        quantities=quantities,
    )


def test_werner_concurrence_column():
    table = grid_sweep(werner_grid())
    assert table.columns == ("x", "concurrence_wootters")
    assert np.allclose(table.rows[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(table.rows[:, 1], [0.0, 0.25, 1.0], atol=1e-12)


def test_werner_purity_endpoint():
    table = grid_sweep(werner_grid(quantities=("purity",)))
    assert table.rows[-1, 1] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_f2_linear_constant_in_alpha():
    table = grid_sweep(schmidt_grid(5, 7, ("f2_linear",)))
    values = table.rows[:, 2].reshape(5, 7)
    xs = np.linspace(0, 1, 5)
    for i, x in enumerate(xs):
        assert np.allclose(values[i], 6 * (x * x + 1), atol=1e-12)


def test_row_order_is_lexicographic():
    table = grid_sweep(schmidt_grid(3, 4, ("purity",)))
    xs = table.rows[:, 0]
    assert np.all(np.diff(xs) >= 0)
    alphas = table.rows[:4, 1]
    assert np.all(np.diff(alphas) > 0)


def test_quantity_aliases():
    grid = SweepGrid(
        family="werner", axes=(AxisSpec("x", 0.0, 1.0, 2),), quantities=("D", "C")
    )
    assert grid.quantities == ("d_measure", "concurrence_variant")


def test_unknown_quantity_rejected():
    with pytest.raises(ConfigurationError):
        werner_grid(quantities=("totally_bogus",))


def test_axis_validation():
    with pytest.raises(ConfigurationError):
        SweepGrid(family="werner", axes=(AxisSpec("x", 0, 1, 1),), quantities=("purity",))
    with pytest.raises(DomainError):
        SweepGrid(family="werner", axes=(AxisSpec("x", 0, 1.5, 3),), quantities=("purity",))
    with pytest.raises(ConfigurationError):
        SweepGrid(family="werner", axes=(AxisSpec("alpha", 0, 1, 3),), quantities=("purity",))
    with pytest.raises(ConfigurationError):
        SweepGrid(family="nonsense", axes=(AxisSpec("x", 0, 1, 3),), quantities=("purity",))


def test_verdict_codes_on_werner():
    table = grid_sweep(
        SweepGrid(
            family="werner", axes=(AxisSpec("x", 0.0, 1.0, 5),), quantities=("verdict",)
        )
    )
    assert np.allclose(table.rows[:, 1], [1.0, 1.0, -1.0, -1.0, -1.0])


def test_wedge_of_identical_quantities_vanishes():
    grid = schmidt_grid(7, 7, ("d_measure",))
    table = wedge_field(grid, "d_measure", "d_measure")
    assert table.columns == ("x", "alpha", "wedge", "seam")
    assert table.rows.shape == (25, 4)
    assert np.max(np.abs(table.rows[:, 2])) == 0.0


def test_wedge_requires_resolution():
    grid = schmidt_grid(7, 7, ("d_measure",))
    bad = SweepGrid(
        family="schmidt",
        axes=(AxisSpec("x", 0, 1, 2), AxisSpec("alpha", 0, 1.5, 7)),
        quantities=("d_measure",),
    )
    with pytest.raises(ResolutionError):
        wedge_field(bad, "d_measure", "purity")
    with pytest.raises(ConfigurationError):
        wedge_field(werner_grid(5), "d_measure", "purity")
    with pytest.raises(ConfigurationError):
        wedge_field(grid, "d_measure", "bogus")


def test_wedge_refuses_a_table_that_lacks_a_quantity():
    grid = schmidt_grid(7, 7, ("d_measure",))
    with pytest.raises(ConfigurationError, match="supplied table lacks quantity 'purity'"):
        wedge_field(grid, "d_measure", "purity", table=grid_sweep(grid))


@pytest.mark.parametrize("axis", [0, 1])
def test_wedge_refuses_a_zero_width_axis_before_evaluating(monkeypatch, axis):
    # A zero spacing would divide every central difference by 0: NaN rows, not an error.
    spans = [(0.0, 1.0), (0.0, 1.0)]
    spans[axis] = (0.5, 0.5)
    grid = SweepGrid(
        family="schmidt",
        axes=(AxisSpec("x", *spans[0], 3), AxisSpec("alpha", *spans[1], 3)),
        quantities=("concurrence_variant", "d_measure"),
    )
    monkeypatch.setattr(sweep, "grid_sweep", lambda grid: pytest.fail("evaluated"))
    match = f"'{('x', 'alpha')[axis]}' needs at least 3 distinct points"
    with np.errstate(all="raise"), pytest.raises(ResolutionError, match=match):
        wedge_field(grid, "C", "D")


def _analytic_wedge(x, a):
    c4, c8 = np.cos(4 * a), np.cos(8 * a)
    s4, s8 = np.sin(4 * a), np.sin(8 * a)
    fx = 8 * c4 * x**3 + 2 * c8 * x**3 + 6 * x**3 - 6 * c4 * x**2 - 6 * x**2 - 4 * c4 * x + 8 * x
    fa = -8 * s4 * x**4 - 4 * s8 * x**4 + 8 * s4 * x**3 + 8 * s4 * x**2
    gx = x * (1 - 2 * c4) / 2
    ga = 2 * x**2 * s4
    return fx * ga - fa * gx


def test_flip_overlap_closed_form_on_family():
    # Analytic anchor used by the convergence test below.
    for x in (0.2, 0.8):
        for a in (0.3, 1.1):
            expected = (1 + x * x - 2 * x * x * np.cos(4 * a)) / 4
            assert tr_rho_rhotilde(schmidt_mix(x, a)) == pytest.approx(expected, abs=1e-12)


def test_central_difference_second_order():
    quantities = ("f2_covariance", "tr_rho_rhotilde")
    span = dict(x=(0.1, 0.9), alpha=(0.1, 1.4))

    def wedge_matrix(count):
        grid = schmidt_grid(count, count, quantities, x=span["x"], alpha=span["alpha"])
        table = wedge_field(grid, *quantities)
        return table.rows[:, 2].reshape(count - 2, count - 2)

    coarse = wedge_matrix(11)
    fine = wedge_matrix(21)
    xs = np.linspace(*span["x"], 11)
    alphas = np.linspace(*span["alpha"], 11)
    exact = np.array(
        [[_analytic_wedge(x, a) for a in alphas[1:-1]] for x in xs[1:-1]]
    )
    # Halving h at the shared points shrinks the error by about h^2 -> 4x.
    fine_at_coarse = fine[1::2, 1::2]
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine_at_coarse - exact))
    assert err_coarse / err_fine >= 3.5


def test_seam_flag_marks_clamp_boundary():
    grid = schmidt_grid(21, 21, ("concurrence_wootters", "purity"))
    table = wedge_field(grid, "concurrence_wootters", "purity")
    seam = table.rows[:, 3]
    assert set(np.unique(seam)) <= {0.0, 1.0}
    assert seam.any()  # the x sin(2a) - (1-x)/2 = 0 seam crosses this grid
    assert not seam.all()


def test_determinism_across_runs_and_threads():
    grid = schmidt_grid(6, 6, ("d_measure", "concurrence_variant"))
    first = grid_sweep(grid)
    second = grid_sweep(grid)
    assert np.array_equal(first.rows, second.rows)
    threaded = grid_sweep(grid)
    assert np.array_equal(first.rows, threaded.rows)
    assert first.columns == threaded.columns


# The public per-state function behind each sweep quantity.
PER_STATE = {
    "purity": purity,
    "linear_entropy": lambda rho: 1.0 - purity(rho),
    "tr_rho_rhotilde": tr_rho_rhotilde,
    "f2_linear": lambda rho: quadratic_invariant(rho, "linear"),
    "f2_covariance": lambda rho: quadratic_invariant(rho, "covariance"),
    "d_measure": d_measure,
    "concurrence_wootters": concurrence_wootters,
    "concurrence_variant": concurrence_variant,
    "kyfan_c": lambda rho: kyfan_norm(moments(rho).correlation_block()),
    "verdict": lambda rho: VERDICT_CODE.get(classify(rho).status, 0.0),
}


@pytest.mark.parametrize(
    "grid, build",
    [
        (schmidt_grid(6, 6, tuple(QUANTITIES)), schmidt_mix),
        (werner_grid(9, tuple(QUANTITIES)), werner),
    ],
)
def test_stacked_quantities_equal_per_state_functions(grid, build):
    assert set(PER_STATE) == set(QUANTITIES)
    table = grid_sweep(grid)
    n_axes = len(grid.axes)
    for row in table.rows:
        rho = build(*row[:n_axes])
        expected = [PER_STATE[q](rho) for q in grid.quantities]
        assert np.array_equal(row[n_axes:], expected)


@pytest.mark.parametrize(
    "family, point",
    [("werner", [0.4]), ("schmidt", [0.7, 0.6]), ("standard_form", [0.1, -0.2, 0.3])],
)
def test_build_states_of_one_point_is_the_stack_row(family, point):
    point = np.array(point)
    one = sweep.build_states(family, point)
    assert isinstance(one, DensityOperator)
    assert np.array_equal(one.matrix, sweep.build_states(family, point[None])[0])


def standard_form_grid(count, quantities):
    # Triples in [-0.5, -0.2]^3 lie inside the state tetrahedron; their l1 norms run
    # from 0.6 (separable) to 1.5 (entangled).
    axes = tuple(AxisSpec(f"d{i}", -0.5, -0.2, count) for i in (1, 2, 3))
    return SweepGrid(family="standard_form", axes=axes, quantities=quantities)


# Requests that run different solves: each column alone, all ten (the verdict's call
# also gives the concurrences), the verdict alone (no concurrence solve) and the
# verdict with both concurrences.
COLUMN_REQUESTS = [(q,) for q in QUANTITIES] + [
    tuple(QUANTITIES),
    ("verdict",),
    ("verdict", "concurrence_wootters", "concurrence_variant"),
]


def test_rows_do_not_depend_on_block_size(monkeypatch):
    grids = [
        (lambda qs: schmidt_grid(6, 5, qs), schmidt_mix),
        (lambda qs: werner_grid(9, qs), werner),
        (lambda qs: standard_form_grid(3, qs), lambda *d: standard_form_state(np.array(d))),
    ]
    for grid_of, build in grids:
        n_axes = len(grid_of(("purity",)).axes)
        points = grid_sweep(grid_of(("purity",))).rows[:, :n_axes]
        states = [build(*point) for point in points]
        expected = {q: np.array([PER_STATE[q](rho) for rho in states]) for q in QUANTITIES}
        for block in (1024, 7):
            monkeypatch.setattr(sweep, "_BLOCK", block)
            for quantities in COLUMN_REQUESTS:
                rows = grid_sweep(grid_of(quantities)).rows
                assert np.array_equal(rows[:, :n_axes], points)
                for col, q in enumerate(quantities, start=n_axes):
                    assert rows[:, col].tobytes() == expected[q].tobytes(), (block, quantities, q)


@pytest.mark.parametrize(
    "quantities, stacks",
    [
        (("verdict",), [(2, 25)]),
        (("verdict", "concurrence_wootters"), [(3, 25)]),
        (tuple(QUANTITIES), [(3, 25), (25,)]),
        (("concurrence_wootters", "concurrence_variant"), [(25,)]),
        (("concurrence_variant", "d_measure"), [(25,)]),
    ],
)
def test_requested_columns_decide_the_jacobi_stacks(monkeypatch, quantities, stacks):
    # One evaluation per block: the verdict alone stacks the Ky Fan Gram and the partial
    # transpose of each state; a concurrence adds tau^H tau to that call; without the
    # verdict the concurrences share one solve of tau^H tau.  All ten also solve the
    # real kyfan_c Grams.  Each call's stack shape is recorded.
    from entmoment import entanglement, linalg

    jacobi, seen = linalg._jacobi, []

    def counting(a, carry=None, size=None):
        seen.append(a.shape[:-2])
        return jacobi(a, carry, size)

    grid = schmidt_grid(5, 5, quantities)
    monkeypatch.setattr(entanglement, "_jacobi", counting)
    monkeypatch.setattr(linalg, "_jacobi", counting)
    grid_sweep(grid)
    assert seen == stacks


def test_grid_size_is_capped_before_building():
    # 10^9 points would need gigabytes; the cap rejects the grid before any allocation.
    with pytest.raises(ConfigurationError, match="points"):
        SweepGrid(family="werner", axes=(AxisSpec("x", 0, 1, 10**9),), quantities=("purity",))
    # A fractional count would reach np.linspace and fail there with a bare TypeError.
    with pytest.raises(ConfigurationError, match="integer count of at least 2 points, got 2.5"):
        SweepGrid(family="werner", axes=(AxisSpec("x", 0, 1, 2.5),), quantities=("purity",))


def test_svg_rejects_three_axis_tables(tmp_path):
    axes = tuple(AxisSpec(f"d{i}", 0.0, 0.2, 2) for i in (1, 2, 3))
    table = grid_sweep(SweepGrid(family="standard_form", axes=axes, quantities=("purity",)))
    path = tmp_path / "cube.svg"
    with pytest.raises(ConfigurationError, match="axis columns"):
        write_svg(table, path)
    assert not path.exists()


def test_csv_format(tmp_path):
    table = grid_sweep(werner_grid())
    path = tmp_path / "sweep.csv"
    write_csv(table, path)
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "x,concurrence_wootters"
    assert len(lines) == 4
    # 17 significant digits round-trip exactly
    for line, row in zip(lines[1:], table.rows):
        for field, value in zip(line.split(","), row):
            assert float(field) == value


def test_format_float_round_trip():
    rng = np.random.default_rng(51)
    for v in rng.standard_normal(50):
        assert float(format_float(v)) == v


def test_format_rows_equals_per_value_join():
    rng = np.random.default_rng(52)
    values = rng.standard_normal((2500, 3)) * 10.0 ** rng.integers(-300, 300, (2500, 3))
    values[0] = [-0.0, 5e-324, 1e308]
    values[1] = [0.0, -5e-324, -1e308]
    expected = "".join(",".join(format_float(v) for v in row) + "\n" for row in values)
    chunks = list(sweep.format_rows(values))
    assert len(chunks) == -(-len(values) // sweep._BLOCK)
    assert "".join(chunks).encode() == expected.encode()


def _reference_rows(rows):
    """Per-row formatter that ``format_rows`` must match byte for byte."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["{:.17g}"] * rows.shape[1]) + "\n"
    return "".join(line.format(*row) for row in rows.tolist())


def _csv_tables():
    rng = np.random.default_rng(54)
    nans = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
        dtype=np.uint64,
    ).view(float)
    special = np.concatenate(
        [[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308], nans]
    )
    mixed = rng.choice(special, size=(2600, 3))
    mixed[:, 1] = rng.standard_normal(2600)  # all distinct
    mixed[:, 2] = 0.25  # constant
    axis = np.repeat(np.linspace(0.0, 1.0, 50), 52)
    return {
        "special": np.column_stack([mixed, axis]),
        "one-column": rng.choice(special, size=(1500, 1)),
        "one-row": special[None, :],
        "plane": np.column_stack([axis, np.tile(np.linspace(0.0, np.pi / 2, 52), 50)]),
        "empty": np.empty((0, 3)),
    }


@pytest.mark.parametrize("name", list(_csv_tables()))
def test_format_rows_equals_per_row_reference(tmp_path, name):
    rows = _csv_tables()[name]
    chunks = list(sweep.format_rows(rows))
    assert len(chunks) == -(-len(rows) // sweep._BLOCK)
    assert "".join(chunks).encode() == _reference_rows(rows).encode()
    columns = tuple(f"c{k}" for k in range(rows.shape[1]))
    path = tmp_path / "t.csv"
    write_csv(sweep.SweepTable(columns, rows), path)
    expected = ",".join(columns) + "\n" + _reference_rows(rows)
    assert path.read_bytes() == expected.encode()


def test_wedge_rows_equal_double_loop_reference():
    quantities = ("concurrence_wootters", "purity")
    grid = schmidt_grid(7, 6, quantities)
    table = grid_sweep(grid)
    f, g = (table.rows[:, k].reshape(7, 6) for k in (2, 3))
    x1, x2 = grid.axes[0].values(), grid.axes[1].values()
    h1, h2 = x1[1] - x1[0], x2[1] - x2[0]

    def central(v, i, j):
        return (v[i + 1, j] - v[i - 1, j]) / (2.0 * h1), (v[i, j + 1] - v[i, j - 1]) / (2.0 * h2)

    def straddles_zero(v, i, j):
        stencil = [v[i, j], v[i + 1, j], v[i - 1, j], v[i, j + 1], v[i, j - 1]]
        return min(stencil) == 0.0 and max(stencil) > 0.0

    expected = []
    for i in range(1, 6):
        for j in range(1, 5):
            (f1, f2), (g1, g2) = central(f, i, j), central(g, i, j)
            seam = straddles_zero(f, i, j) or straddles_zero(g, i, j)
            expected.append([x1[i], x2[j], f1 * g2 - f2 * g1, 1.0 if seam else 0.0])
    expected = np.array(expected)
    assert expected[:, 3].any() and not expected[:, 3].all()
    rows = wedge_field(grid, *quantities, table=table).rows
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_svg_rejects_non_finite_drawn_columns(tmp_path):
    path = tmp_path / "t.svg"
    x = np.linspace(0.0, 1.0, 5)
    line = np.column_stack([x, x, x])
    line[2, 0] = np.nan  # the x column of a line plot is drawn too
    line[[1, 3], 1] = [np.inf, -np.inf]
    table = sweep.SweepTable(("x", "purity", "d_measure"), line)
    with pytest.raises(ConfigurationError, match="column 'x': 1 non-finite value"):
        write_svg(table, path, "d_measure")
    with pytest.raises(ConfigurationError, match="column 'x': 1 non-finite value"):
        write_svg(table, path, "purity")
    line[2, 0] = 0.5
    with pytest.raises(ConfigurationError, match="column 'purity': 2 non-finite values?"):
        write_svg(table, path, "purity")
    assert not path.exists()
    write_svg(table, path, "d_measure")
    assert path.read_bytes() == _reference_svg(table, "d_measure")
    # Both axis columns of a heatmap are checked, not only the drawn one.
    heat = sweep.SweepTable(
        ("x", "alpha", "purity"),
        np.array([[x, a, 0.5] for x in (0.0, 0.5, np.nan) for a in (0.1, 0.2)]),
    )
    heat_path = tmp_path / "heat.svg"
    with pytest.raises(ConfigurationError, match="column 'x': 2 non-finite values?"):
        write_svg(heat, heat_path)
    heat.rows[4:, 0] = 1.0
    heat.rows[0, 1] = np.inf
    with pytest.raises(ConfigurationError, match="column 'alpha': 1 non-finite value"):
        write_svg(heat, heat_path)
    assert not heat_path.exists()


def test_svg_emission(tmp_path):
    table = grid_sweep(schmidt_grid(5, 5, ("d_measure",)))
    path = tmp_path / "map.svg"
    write_svg(table, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "min=" in text and "max=" in text
    line_table = grid_sweep(werner_grid(9, ("purity",)))
    path2 = tmp_path / "line.svg"
    write_svg(line_table, path2)
    assert "polyline" in path2.read_text()


def _reference_color(t):
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(255 * u), int(255 * u), 255
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255, int(255 * (1 - u)), int(255 * (1 - u))
    return f"#{r:02x}{g:02x}{b:02x}"


def _reference_svg(table, quantity=None):
    """Per-cell and per-point loop that ``write_svg`` must match byte for byte."""
    n_axes = max(1, sum(1 for c in table.columns if c in sweep.AXIS_DOMAINS))
    qcols = [c for c in table.columns[n_axes:] if c != "seam"]
    if quantity is None:
        quantity = qcols[0]
    vals = table.rows[:, table.columns.index(quantity)]
    vmin, vmax = float(vals.min()), float(vals.max())
    span = (vmax - vmin) or 1.0
    width, height, margin = 640, 480, 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if n_axes == 2:
        a1 = np.unique(table.rows[:, 0])
        a2 = np.unique(table.rows[:, 1])
        cw = (width - 2 * margin) / len(a1)
        ch = (height - 2 * margin) / len(a2)
        i1 = np.searchsorted(a1, table.rows[:, 0])
        i2 = np.searchsorted(a2, table.rows[:, 1])
        for k in range(table.rows.shape[0]):
            x = margin + i1[k] * cw
            y = height - margin - (i2[k] + 1) * ch
            t = (vals[k] - vmin) / span
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{_reference_color(t)}"/>'
            )
    else:
        xs = table.rows[:, 0]
        xmin, xmax = float(xs.min()), float(xs.max())
        xspan = (xmax - xmin) or 1.0
        pts = []
        for k in range(table.rows.shape[0]):
            px = margin + (xs[k] - xmin) / xspan * (width - 2 * margin)
            py = height - margin - (vals[k] - vmin) / span * (height - 2 * margin)
            pts.append(f"{px:.2f},{py:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#c00" stroke-width="1.5"/>'
        )
    parts.append(
        f'<text x="{margin}" y="20" font-size="13" font-family="monospace">'
        f"{quantity}: min={format_float(vmin)} max={format_float(vmax)}</text>"
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def _random_columns(rng, size):
    """Quantity columns: plain, scaled with +-0.0, constant, with NaN, with +-inf."""
    plain = rng.standard_normal(size)
    scaled = plain * 10.0 ** rng.integers(-8, 8)
    scaled[rng.integers(size)] = 0.0
    scaled[rng.integers(size)] = -0.0
    with_nan = rng.standard_normal(size)
    with_nan[rng.integers(size)] = np.nan
    with_inf = rng.standard_normal(size)
    with_inf[rng.integers(size)] = np.inf
    if rng.integers(2):
        with_inf[rng.integers(size)] = -np.inf
    columns = {
        "plain": plain,
        "scaled": scaled,
        "constant": np.full(size, rng.standard_normal()),
        "nan": with_nan,
        "inf": with_inf,
    }
    return tuple(columns), np.stack(list(columns.values()), axis=1)


def test_svg_bytes_equal_per_cell_reference(tmp_path):
    rng = np.random.default_rng(53)
    path = tmp_path / "t.svg"
    tables = []
    for _ in range(40):
        n1, n2 = rng.integers(2, 41, size=2)
        x = np.sort(rng.uniform(0.0, 1.0, n1))
        alpha = np.linspace(0.0, np.pi / 2, n2)
        p1, p2 = np.meshgrid(x, alpha, indexing="ij")
        names, values = _random_columns(rng, n1 * n2)
        rows = np.column_stack([p1.ravel(), p2.ravel(), values])
        tables.append(sweep.SweepTable(("x", "alpha") + names, rows))
    for _ in range(10):
        n = rng.integers(2, 200)
        names, values = _random_columns(rng, n)
        rows = np.column_stack([np.linspace(0.0, 1.0, n), values])
        tables.append(sweep.SweepTable(("x",) + names, rows))
    plane = schmidt_grid(13, 9, ("concurrence_variant", "d_measure"))
    plane_table = grid_sweep(plane)
    tables += [
        plane_table,
        wedge_field(plane, "concurrence_variant", "d_measure", table=plane_table),
        grid_sweep(werner_grid(65, ("concurrence_wootters", "purity"))),
    ]
    drawn = rejected = 0
    for table in tables:
        quantities = [c for c in table.columns if c not in sweep.AXIS_DOMAINS]
        for quantity in quantities:
            values = table.rows[:, table.columns.index(quantity)]
            bad = np.count_nonzero(~np.isfinite(values))
            if bad:
                path.unlink(missing_ok=True)
                with pytest.raises(ConfigurationError, match=f"'{quantity}': {bad} non-finite"):
                    write_svg(table, path, quantity)
                assert not path.exists()
                rejected += 1
            else:
                write_svg(table, path, quantity)
                assert path.read_bytes() == _reference_svg(table, quantity), quantity
                drawn += 1
    assert (drawn, rejected) == (156, 100)


def test_wedge_refuses_a_table_of_another_grid():
    quantities = ("concurrence_variant", "d_measure")
    grid = schmidt_grid(11, 11, quantities)
    # Same shape, other points: the wedge would be taken with the wrong step and labels.
    narrow = grid_sweep(schmidt_grid(11, 11, quantities, x=(0.0, 0.5)))
    with pytest.raises(ConfigurationError, match="do not hold the points of the 11 x 11 grid"):
        wedge_field(grid, *quantities, table=narrow)
    # Another point count fails before any reshape.
    coarse = grid_sweep(schmidt_grid(9, 11, quantities))
    with pytest.raises(ConfigurationError, match="do not hold the points"):
        wedge_field(grid, *quantities, table=coarse)
    # Axis columns in another order hold other points too.
    swapped = sweep.SweepTable(("alpha", "x") + quantities, grid_sweep(grid).rows)
    with pytest.raises(ConfigurationError, match="do not hold the points"):
        wedge_field(grid, *quantities, table=swapped)
    own = wedge_field(grid, *quantities, table=grid_sweep(grid)).rows
    assert own.tobytes() == wedge_field(grid, *quantities).rows.tobytes()


def test_svg_of_a_missing_column_is_a_configuration_error(tmp_path):
    path = tmp_path / "t.svg"
    table = grid_sweep(werner_grid(5, ("purity",)))
    with pytest.raises(ConfigurationError, match="cannot draw column 'nope'"):
        write_svg(table, path, quantity="nope")
    assert not path.exists()
    axes_only = sweep.SweepTable(("x",), table.rows[:, :1])
    with pytest.raises(ConfigurationError, match="no quantity column to draw"):
        write_svg(axes_only, path)
    assert not path.exists()
