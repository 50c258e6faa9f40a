"""Parameter sweeps over state families and finite-difference wedge fields.

Grid points are built in blocks of state stacks, and each block is
evaluated once for all requested quantities; every quantity computes each
state of a stack exactly as it would alone, so
rows, assembled in lexicographic grid order, are bitwise reproducible
and independent of the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    ENTANGLED,
    SEPARABLE,
    _DECIDERS,
    _Evaluation,
    d_from_covariance_invariant,
    kyfan_norm,
    tr_rho_rhotilde,
)
from .errors import ConfigurationError, DomainError, ResolutionError
from .states import schmidt_mix, standard_form_state, werner
from .tensors import inner_product

VERDICT_CODE = {SEPARABLE: 1.0, ENTANGLED: -1.0}
# The column value of each cascade decider code: VERDICT_CODE of its status, 0 where undecided.
_VERDICT_BY_DECIDER = np.array([VERDICT_CODE.get(status, 0.0) for status, _ in _DECIDERS])

# Each quantity reads its B values from the one evaluation (entanglement._Evaluation)
# of a validated state stack (B, d, d) that all the quantities of a block share.
QUANTITIES = {
    "purity": lambda ev: ev.purity,
    "linear_entropy": lambda ev: 1.0 - ev.purity,
    "tr_rho_rhotilde": lambda ev: tr_rho_rhotilde(ev.rhos),
    "f2_linear": lambda ev: inner_product(ev.moments.second),
    "f2_covariance": lambda ev: ev.f2_covariance,
    "d_measure": lambda ev: d_from_covariance_invariant(ev.f2_covariance),
    "concurrence_wootters": lambda ev: ev.concurrences[0],
    "concurrence_variant": lambda ev: ev.concurrences[1],
    "kyfan_c": lambda ev: kyfan_norm(ev.moments.correlation_block()),
    "verdict": lambda ev: _VERDICT_BY_DECIDER[ev.cascade[0]],
}

# Grid points per evaluated block: bounds the memory of the state stacks.
_BLOCK = 1024
# Total grid points: bounds the output table (and so the CSV) before anything is built.
MAX_GRID_POINTS = 10**6

QUANTITY_ALIASES = {"C": "concurrence_variant", "D": "d_measure"}

# Each family maps to its axis names and to a builder of its states: one point
# (axes,) gives a DensityOperator, points (B, axes) the validated stack (B, 4, 4).
# The lambdas look the builders up here at call time, so wrappers installed on
# them see the calls.
FAMILIES = {
    "werner": (("x",), lambda points: werner(points[..., 0])),
    "schmidt": (("x", "alpha"), lambda points: schmidt_mix(points[..., 0], points[..., 1])),
    "standard_form": (("d1", "d2", "d3"), lambda points: standard_form_state(points)),
}

# (low, high, slack): slack covers rounded endpoints like 1.5708 for pi/2
# on axes whose state builder tolerates them.
AXIS_DOMAINS = {
    "x": (0.0, 1.0, 0.0),
    "alpha": (0.0, np.pi / 2, 1e-3),
    "d1": (-1.0, 1.0, 0.0),
    "d2": (-1.0, 1.0, 0.0),
    "d3": (-1.0, 1.0, 0.0),
}


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linear range start..stop sampled at ``count`` points."""

    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepGrid:
    """A family, its axis ranges, and the quantities to evaluate."""

    family: str
    axes: tuple
    quantities: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; expected one of {sorted(FAMILIES)}"
            )
        expected = FAMILIES[self.family][0]
        names = tuple(a.name for a in self.axes)
        if names != expected:
            raise ConfigurationError(
                f"family {self.family!r} requires axes {expected}, got {names}"
            )
        for axis in self.axes:
            if not (isinstance(axis.count, (int, np.integer)) and axis.count >= 2):
                raise ConfigurationError(
                    f"axis {axis.name!r} needs an integer count of at least 2 points, "
                    f"got {axis.count!r}"
                )
            lo, hi, slack = AXIS_DOMAINS[axis.name]
            lo, hi = lo - slack, hi + slack
            if not (lo <= axis.start <= hi and lo <= axis.stop <= hi):
                raise DomainError(
                    f"axis {axis.name!r} range [{axis.start}, {axis.stop}] "
                    f"outside domain [{lo:.6g}, {hi:.6g}]"
                )
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid has {points} points, more than the maximum {MAX_GRID_POINTS}"
            )
        object.__setattr__(self, "quantities", resolve_quantities(self.quantities))


def resolve_quantities(names) -> tuple:
    resolved = []
    for name in names:
        name = QUANTITY_ALIASES.get(name, name)
        if name not in QUANTITIES:
            raise ConfigurationError(
                f"unknown quantity {name!r}; expected one of "
                f"{sorted(QUANTITIES) + sorted(QUANTITY_ALIASES)}"
            )
        resolved.append(name)
    return tuple(resolved)


def build_states(family: str, points: np.ndarray):
    """A family's state at one point ``(axes,)``, or its validated stack at points ``(B, axes)``."""
    return FAMILIES[family][1](points)


@dataclass(frozen=True)
class SweepTable:
    """Column names plus a dense float row block."""

    columns: tuple
    rows: np.ndarray


def _grid_points(grid: SweepGrid) -> np.ndarray:
    """The grid's points ``(N, axes)``, ordered lexicographically (first axis slowest)."""
    axes = np.meshgrid(*(axis.values() for axis in grid.axes), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def grid_sweep(grid: SweepGrid) -> SweepTable:
    """Evaluate every requested quantity at every grid point.

    Rows are ordered lexicographically over the axes (first axis slowest).
    """
    points = _grid_points(grid)
    readers = [QUANTITIES[q] for q in grid.quantities]
    rows = np.empty((len(points), len(grid.axes) + len(readers)))
    rows[:, : len(grid.axes)] = points
    for start in range(0, len(points), _BLOCK):
        block = slice(start, start + _BLOCK)
        # One evaluation per block: the requested names decide which solves it runs.
        ev = _Evaluation(build_states(grid.family, points[block]), grid.quantities)
        for col, read in enumerate(readers, start=len(grid.axes)):
            rows[block, col] = read(ev)
    columns = tuple(axis.name for axis in grid.axes) + tuple(grid.quantities)
    return SweepTable(columns=columns, rows=rows)


def wedge_field(grid: SweepGrid, f: str, g: str, table: SweepTable | None = None) -> SweepTable:
    """Central-difference wedge df/dx * dg/dy - df/dy * dg/dx on a 2-axis grid.

    Boundary points are omitted.  The ``seam`` column flags rows whose
    five-point stencil straddles an exact-zero clamp boundary of f or g
    (relevant for max(0, .) quantities); wedge values there are reported
    as computed.  An already-evaluated ``table`` holding both quantities
    may be passed to skip re-evaluation; its axis columns must hold exactly
    the grid's points, as :func:`grid_sweep` writes them, or
    :class:`ConfigurationError` is raised.
    """
    if len(grid.axes) != 2:
        raise ConfigurationError(f"wedge field needs exactly 2 axes, got {len(grid.axes)}")
    for axis in grid.axes:
        if axis.count < 3:
            raise ResolutionError(
                f"axis {axis.name!r} needs at least 3 points for central "
                f"differences, got {axis.count}"
            )
    fname, gname = resolve_quantities((f, g))
    names = tuple(axis.name for axis in grid.axes)
    if table is None:
        eval_grid = SweepGrid(
            family=grid.family, axes=grid.axes, quantities=(fname, gname)
        )
        table = grid_sweep(eval_grid)
    elif table.columns[:2] != names or not np.array_equal(table.rows[:, :2], _grid_points(grid)):
        raise ConfigurationError(
            f"supplied table's {', '.join(table.columns[:2])} columns do not hold the "
            f"points of the {' x '.join(str(axis.count) for axis in grid.axes)} grid"
        )
    for name in (fname, gname):
        if name not in table.columns:
            raise ConfigurationError(f"supplied table lacks quantity {name!r}")
    n1, n2 = grid.axes[0].count, grid.axes[1].count
    fv = table.rows[:, table.columns.index(fname)].reshape(n1, n2)
    gv = table.rows[:, table.columns.index(gname)].reshape(n1, n2)
    x1 = grid.axes[0].values()
    x2 = grid.axes[1].values()
    h1 = x1[1] - x1[0]
    h2 = x2[1] - x2[0]
    df1 = (fv[2:, 1:-1] - fv[:-2, 1:-1]) / (2.0 * h1)
    df2 = (fv[1:-1, 2:] - fv[1:-1, :-2]) / (2.0 * h2)
    dg1 = (gv[2:, 1:-1] - gv[:-2, 1:-1]) / (2.0 * h1)
    dg2 = (gv[1:-1, 2:] - gv[1:-1, :-2]) / (2.0 * h2)
    wedge = df1 * dg2 - df2 * dg1
    seam = np.zeros_like(wedge, dtype=bool)
    for v in (fv, gv):
        stencil = np.stack(
            [v[1:-1, 1:-1], v[2:, 1:-1], v[:-2, 1:-1], v[1:-1, 2:], v[1:-1, :-2]]
        )
        seam |= (stencil.min(axis=0) == 0.0) & (stencil.max(axis=0) > 0.0)
    p1, p2 = np.meshgrid(x1[1:-1], x2[1:-1], indexing="ij")
    rows = np.stack([p1.ravel(), p2.ravel(), wedge.ravel(), seam.ravel().astype(float)], axis=1)
    columns = names + ("wedge", "seam")
    return SweepTable(columns=columns, rows=rows)


def format_float(v: float) -> str:
    return f"{v:.17g}"


def format_rows(rows):
    """CSV lines of a 2-D float block, each value as :func:`format_float` writes it.

    Yields one string per block of at most ``_BLOCK`` rows, so a large
    table is never formatted into a single string.  Each distinct bit
    pattern of a block (0.0 and -0.0 differ) is formatted once: axis
    columns and symmetric matrices repeat most of their values.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array([f"{v:.17g}" for v in bits.view(float).tolist()], dtype=object)
        yield (line * len(block)) % tuple(text[inverse.ravel()].tolist())


def write_csv(table: SweepTable, path) -> None:
    """CSV with a header row, 17-significant-digit floats, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(format_rows(table.rows))


# The blue -> white -> red colour map over [0, 1], indexed by
# 256 * (t >= 0.5) + level: blue to white below 0.5, white to red from 0.5.
_COLORS = [f"#{v:02x}{v:02x}ff" for v in range(256)] + [f"#ff{v:02x}{v:02x}" for v in range(256)]


def _color_indices(t: np.ndarray) -> list:
    """Indices into ``_COLORS`` of normalised values ``t``; NaN maps to blue."""
    t = np.minimum(1.0, np.fmax(t, 0.0))
    upper = t >= 0.5
    level = np.where(upper, 255 * (1 - (t - 0.5) / 0.5), 255 * (t / 0.5)).astype(int)
    return (256 * upper + level).tolist()


def write_svg(table: SweepTable, path, quantity: str | None = None) -> None:
    """Minimal SVG rendering of a sweep table.

    Two leading axis columns produce a heatmap, one produces a line plot;
    the value range is annotated.  A table with three axis columns (the
    standard form), with no quantity column when ``quantity`` is not given,
    or with a NaN or infinite value in the drawn column or in an axis
    column, raises :class:`ConfigurationError` before anything
    is written.  The bytes written depend only on the table (and ``quantity``).
    """
    n_axes = sum(1 for c in table.columns if c in AXIS_DOMAINS)
    if n_axes > 2:
        raise ConfigurationError(
            f"SVG rendering needs one or two axis columns, got {n_axes}: "
            f"{', '.join(table.columns[:n_axes])}"
        )
    n_axes = max(1, n_axes)
    qcols = [c for c in table.columns[n_axes:] if c != "seam"]
    if quantity is None:
        if not qcols:
            raise ConfigurationError(
                f"no quantity column to draw: the table has only {', '.join(table.columns)}"
            )
        quantity = qcols[0]
    if quantity not in table.columns:
        raise ConfigurationError(
            f"cannot draw column {quantity!r}: the table has only {', '.join(table.columns)}"
        )
    for name in [*table.columns[:n_axes], quantity]:
        bad = np.count_nonzero(~np.isfinite(table.rows[:, table.columns.index(name)]))
        if bad:
            raise ConfigurationError(f"cannot draw column {name!r}: {bad} non-finite value(s)")
    vals = table.rows[:, table.columns.index(quantity)]
    vmin, vmax = float(vals.min()), float(vals.max())
    span = (vmax - vmin) or 1.0
    width, height, margin = 640, 480, 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if n_axes == 2:
        # Each axis's sorted values and every cell's index into them, in one call (with
        # return_inverse, np.unique also stays clear of its numpy.ma import).
        a1, i1 = np.unique(table.rows[:, 0], return_inverse=True)
        a2, i2 = np.unique(table.rows[:, 1], return_inverse=True)
        cw = (width - 2 * margin) / len(a1)
        ch = (height - 2 * margin) / len(a2)
        # One string per axis index and per colour, not per cell.
        x_parts = [f'<rect x="{margin + i * cw:.2f}" y="' for i in range(len(a1))]
        y_parts = [
            f'{height - margin - (j + 1) * ch:.2f}" width="{cw + 0.5:.2f}" '
            f'height="{ch + 0.5:.2f}" fill="'
            for j in range(len(a2))
        ]
        colors = _color_indices((vals - vmin) / span)
        parts += [
            x_parts[i] + y_parts[j] + _COLORS[c] + '"/>'
            for i, j, c in zip(i1.tolist(), i2.tolist(), colors)
        ]
    else:
        xs = table.rows[:, 0]
        xmin, xmax = float(xs.min()), float(xs.max())
        xspan = (xmax - xmin) or 1.0
        px = margin + (xs - xmin) / xspan * (width - 2 * margin)
        py = height - margin - (vals - vmin) / span * (height - 2 * margin)
        pts = [f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#c00" stroke-width="1.5"/>'
        )
    parts.append(
        f'<text x="{margin}" y="20" font-size="13" font-family="monospace">'
        f"{quantity}: min={format_float(vmin)} max={format_float(vmax)}</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
