"""Command-line front end: basis export, state analysis, sweeps, selftest.

Exit codes: 0 success, 1 validated domain/configuration failure, 2 state
file parse error, 3 state invariant violation on load, 64 usage error.
All failures print a single machine-parsable line ``error: <kind>: <msg>``
to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import acceptance
from .basis import basis_to_dict, generate_basis
from .entanglement import (
    DEFAULT_TOL,
    _cascade,
    _verdict,
    d_from_covariance_invariant,
    octahedron_check,
    ppt_check,
    tr_rho_rhotilde,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FormatError,
    NonFiniteError,
    NormalizationError,
    PositivityError,
    ResolutionError,
    ShapeError,
    SymmetryError,
)
from .linalg import MAX_DIM, hermitian_eigenvalues
from .states import (
    DensityOperator,
    load_state,
    local_dimension,
    purity,
    save_state,
    state_to_dict,
)
from .sweep import (
    FAMILIES,
    AxisSpec,
    SweepGrid,
    SweepTable,
    build_states,
    format_rows,
    grid_sweep,
    wedge_field,
    write_csv,
    write_svg,
)
from .tensors import inner_product, moments, split_sym_antisym

USAGE_EXIT = 64


class _Exit(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only a plain negative number as a value, so "--d -0.3,0.2,0.1"
        # would be a flag; a dash followed by a digit or "." always starts a value here.
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        raise _Exit(USAGE_EXIT, "usage", message)

    def exit(self, status=0, message=None):
        # Reached only by --help, after the usage text went to stdout.
        raise _Exit(status, "usage", message or "")


def _parse_range(spec: str, name: str) -> AxisSpec:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _Exit(USAGE_EXIT, "usage", f"range for {name} must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _Exit(USAGE_EXIT, "usage", f"malformed range {spec!r} for {name}")
    return AxisSpec(name=name, start=start, stop=stop, count=count)


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _Exit(USAGE_EXIT, "usage", f"malformed value {text!r} for {name}")


def _tolerance(text: str) -> float:
    """argparse type of ``--tolerance``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _axis_flag(axis: str) -> str:
    """The flag of a family axis.

    Axes ``x`` and ``alpha`` are their own flags; axes named by a letter and
    a digit (``d1``, ``d2``, ``d3``) are the comma-separated parts of the
    flag named by the letter (``--d``).
    """
    return axis.rstrip("0123456789")


def _family_flags() -> tuple:
    """The family flags of the registry, in order of first appearance."""
    return tuple(dict.fromkeys(_axis_flag(a) for axes, _ in FAMILIES.values() for a in axes))


def _refuse_family_flags(args, taken, owner: str) -> None:
    """Exit 64 naming each family flag given on the command line but not in ``taken``."""
    extra = [
        f"--{flag}"
        for flag in _family_flags()
        if flag not in taken and getattr(args, flag, None) is not None
    ]
    if extra:
        raise _Exit(USAGE_EXIT, "usage", f"{owner} does not take {', '.join(extra)}")


def _family_values(family: str | None, args, parse) -> tuple[str, list]:
    """The registry name of ``family`` and one ``parse(text, axis)`` value per axis."""
    name = (family or "").replace("-", "_")
    if name not in FAMILIES:
        raise _Exit(USAGE_EXIT, "usage", f"unknown or missing family {family!r}")
    flags = {}
    for axis in FAMILIES[name][0]:
        flags.setdefault(_axis_flag(axis), []).append(axis)
    _refuse_family_flags(args, flags, f"family {name!r}")
    values = []
    for flag, axes in flags.items():
        spec = getattr(args, flag)
        if not spec:
            raise _Exit(USAGE_EXIT, "usage", f"family {name!r} requires --{flag}")
        parts = spec.split(",")
        if len(parts) != len(axes):
            raise _Exit(USAGE_EXIT, "usage", f"--{flag} needs {len(axes)} value(s), got {spec!r}")
        values += map(parse, parts, axes)
    return name, values


def _family_state(family: str, values) -> DensityOperator:
    """The validated state of one family point.

    A NaN or infinite parameter is a domain error, as it is for a sweep axis.
    """
    try:
        return build_states(family, np.array(values))
    except NonFiniteError as exc:
        raise _Exit(1, "domain", str(exc))


def _load_checked(path: str) -> DensityOperator:
    try:
        return load_state(path)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, FormatError) as exc:
        raise _Exit(2, "parse", f"{path}: {exc}")
    except NonFiniteError as exc:
        raise _Exit(3, "validation", f"{path}: finiteness: {exc}")
    except SymmetryError as exc:
        raise _Exit(3, "validation", f"{path}: hermiticity: {exc}")
    except NormalizationError as exc:
        raise _Exit(3, "validation", f"{path}: trace: {exc}")
    except PositivityError as exc:
        raise _Exit(3, "validation", f"{path}: positivity: {exc}")
    except OSError as exc:
        raise _Exit(2, "parse", str(exc))


def _check_local_dimension(n: int) -> None:
    """Refuse an n-level system whose n^2 - 1 generators exceed ``MAX_DIM``.

    Called before anything is built: the basis structure constants and the
    moments grow as n^6, and the Ky Fan solve needs an (n^2 - 1)-square
    Gram matrix.
    """
    if n * n - 1 > MAX_DIM:
        raise DimensionError(
            f"local dimension {n} needs a Ky Fan solve of dimension {n * n - 1},"
            f" above the supported maximum {MAX_DIM}"
        )


# Writes scalars and dict keys; without an indent, json runs its C encoder.
_ENCODER = json.JSONEncoder(allow_nan=False)


def _array_template(shape: tuple, pad: str) -> str:
    """A ``%s`` template laid out like ``json.dumps(a.tolist(), indent=2)`` at ``pad``."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    item = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + pad + "]"


def _json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, with float arrays as nested lists.

    ``pad`` is the newline and indent of the line that ``obj`` starts on.
    An array is written in one step: its values fill a ``%s`` template of
    its shape, and the ``str`` of a Python float is its ``repr``, which is
    what ``json`` writes.  Dicts (with string keys) and lists recurse; a
    finite float is its ``repr``, and every other value goes to json's C
    encoder.
    """
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            raise TypeError(f"only float arrays are written, got dtype {obj.dtype}")
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _array_template(obj.shape, pad) % tuple(obj.ravel().tolist())
    if isinstance(obj, dict):
        items = [f"{_ENCODER.encode(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)  # what json writes for a finite float
    return _ENCODER.encode(obj)


def analysis_report(state: DensityOperator, tol: float) -> dict:
    """Full analysis payload for a bipartite state."""
    n = local_dimension(state.dim)
    _check_local_dimension(n)
    # The state as a stack of one: one moment evaluation feeds the report and the
    # cascade, which also gives the two-qubit concurrences.
    rhos = state.matrix[None]
    mom = moments(rhos)
    code, witnesses, concurrence = _cascade(rhos, tol, mom)
    (l_sym,), (omega,) = split_sym_antisym(mom.second)
    k = mom.covariance()
    fano = mom.fano()
    p = purity(state)
    report = {
        "dim": state.dim,
        "n_local": n,
        "purity": p,
        "linear_entropy": 1.0 - p,
        "f2_linear": float(inner_product(mom.second)[0]),
        "f2_covariance": float(inner_product(k)[0]),
    }
    if n == 2:
        report["tr_rho_rhotilde"] = tr_rho_rhotilde(state)
        report["d_measure"] = d_from_covariance_invariant(report["f2_covariance"])
        report["concurrence_wootters"], report["concurrence_variant"] = (
            float(c[0]) for c in concurrence
        )
    report["bloch_a"] = fano.nvec[0]
    report["bloch_b"] = fano.mvec[0]
    report["correlation"] = fano.C[0]
    report["L"] = l_sym
    report["Omega"] = omega
    report["K"] = np.stack([k.values[0].real, k.values[0].imag], axis=-1)
    # The verdict's fields as a dict; its values are plain floats and strings, so no deep copy.
    report["verdict"] = dict(vars(_verdict(code, witnesses)))
    return report


def _write_matrix_csv(report: dict, path: str) -> None:
    blocks = [
        ("L", report["L"]),
        ("Omega", report["Omega"]),
        ("K_real", report["K"][..., 0]),
        ("K_imag", report["K"][..., 1]),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, rows in blocks:
            fh.write(f"# {name}\n")
            fh.writelines(format_rows(rows))


def cmd_basis(args) -> int:
    _check_local_dimension(args.n)
    doc = json.dumps(basis_to_dict(generate_basis(args.n)), allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


def cmd_analyze(args) -> int:
    if args.state and args.family:
        raise _Exit(USAGE_EXIT, "usage", "--state and --family are mutually exclusive")
    if args.state:
        _refuse_family_flags(args, (), "--state")
        rho = _load_checked(args.state)
    elif args.family:
        rho = _family_state(*_family_values(args.family, args, _parse_float))
    else:
        raise _Exit(USAGE_EXIT, "usage", "analyze needs --state or --family")
    if args.dump_state:
        save_state(rho, args.dump_state)
    report = analysis_report(rho, tol=args.tolerance)
    doc = _json(report)
    print(doc)
    if args.out:
        if args.out.endswith(".csv"):
            _write_matrix_csv(report, args.out)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(doc + "\n")
    verdict = report["verdict"]
    print(
        f"dim={report['dim']} purity={report['purity']:.6g} "
        f"verdict={verdict['status']}"
        + (f" ({verdict['decided_by']})" if verdict["decided_by"] else ""),
        file=sys.stderr,
    )
    return 0


def _sweep_grid(args, quantities) -> SweepGrid:
    family, axes = _family_values(args.family, args, _parse_range)
    return SweepGrid(family=family, axes=tuple(axes), quantities=tuple(quantities))


def _emit_table(table: SweepTable, args) -> None:
    # The SVG goes first: a table it rejects then leaves no CSV behind.
    if args.svg:
        write_svg(table, args.svg)
    if args.out:
        write_csv(table, args.out)
    else:
        sys.stdout.write(",".join(table.columns) + "\n")
        sys.stdout.writelines(format_rows(table.rows))


def cmd_sweep(args) -> int:
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    if not quantities:
        raise _Exit(USAGE_EXIT, "usage", "--quantities must name at least one quantity")
    grid = _sweep_grid(args, quantities)
    _emit_table(grid_sweep(grid), args)
    return 0


def cmd_wedge(args) -> int:
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    if len(quantities) != 2:
        raise _Exit(USAGE_EXIT, "usage", "wedge needs exactly two quantities, e.g. C,D")
    grid = _sweep_grid(args, quantities)
    _emit_table(wedge_field(grid, quantities[0], quantities[1]), args)
    return 0


def cmd_standard_form(args) -> int:
    family, d = _family_values("standard_form", args, _parse_float)
    rho = _family_state(family, d)
    octa = octahedron_check(d, tol=args.tolerance)
    ppt = ppt_check(rho, tol=args.tolerance)
    spectrum = [float(v) for v in hermitian_eigenvalues(rho.matrix)]
    report = {
        "d": [float(v) for v in d],
        "state": state_to_dict(rho),
        "spectrum": spectrum,
        "octahedron": octa._asdict(),
        "ppt": ppt._asdict(),
    }
    print(_json(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(report, allow_nan=False) + "\n")
    return 0


def cmd_selftest(args) -> int:
    numbers = None
    if args.only is not None:
        valid = [num for num, _, _ in acceptance.CRITERIA]
        try:
            numbers = [int(v) for v in args.only.split(",")]
        except ValueError:
            numbers = []
        if not numbers or not set(numbers) <= set(valid):
            raise _Exit(
                USAGE_EXIT,
                "usage",
                f"--only takes criterion numbers from {valid}, got {args.only!r}",
            )
    results = acceptance.run_all(numbers)
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.number:2d} {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed", file=sys.stderr)
    return 0 if failures == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="entmoment", description=__doc__)
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)

    p = sub.add_parser("basis", help="emit a generalized Pauli basis as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_basis)

    family_flags = _family_flags()

    p = sub.add_parser("analyze", help="full report for a state (file or family)")
    p.add_argument("--state")
    p.add_argument("--family")
    for flag in family_flags:
        p.add_argument(f"--{flag}")
    p.add_argument("--out")
    p.add_argument("--dump-state", dest="dump_state")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="evaluate quantities over a family grid (CSV)")
    p.add_argument("--family", required=True)
    for flag in family_flags:
        p.add_argument(f"--{flag}")
    p.add_argument("--quantities", required=True)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wedge", help="central-difference wedge of two quantities")
    p.add_argument("--family", required=True)
    for flag in family_flags:
        p.add_argument(f"--{flag}")
    p.add_argument("--quantities", default="C,D")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("standard-form", help="standard-form state report")
    p.add_argument("--d", required=True)
    p.add_argument("--out")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_standard_form)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.lru_cache(maxsize=4)
def _parser(family_flags: tuple) -> _Parser:
    """The parser of a registry with these family flags, built once.

    Parsing leaves no state on the parser, so every call can reuse it.
    """
    return build_parser()


def run(argv) -> int:
    parser = _parser(_family_flags())
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "verb", None):
            parser.error("a subcommand is required")
        return args.func(args)
    except _Exit as exc:
        if exc.code:
            print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.code
    except (
        DomainError,
        DimensionError,
        ShapeError,
        PositivityError,
        ConfigurationError,
        ResolutionError,
    ) as exc:
        print(f"error: {type(exc).__name__.removesuffix('Error').lower()}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
