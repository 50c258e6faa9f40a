"""Fuzz of ``cli.run``: malformed argv and state files exit cleanly.

Property: ``run`` returns one of the documented exit codes, and every
nonzero code comes with exactly one stderr line, ``error: <kind>: <msg>``.
A warning counts as a stderr line, since the command line prints it there.
An exception escaping ``run`` fails the test.

Inputs stay small: grid axes have at most 5 points, ``basis --n`` is at
most 9, bare ``selftest`` (which runs every criterion) is never drawn, and
every output path lies in a fresh directory under ``tmp_path``.  Flags are
drawn from a fixed vocabulary so that no drawn token abbreviates ``--help``
or an output flag.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entmoment.cli import run

EXIT_CODES = {0, 1, 2, 3, 64}
FUZZ_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

numbers = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "-1", "-0.5", "0", "0.1", "0.5", "1", "1.5", "1e308", "abc", ""]
    ),
    st.floats(-2.0, 2.0).map(repr),
)
counts = st.sampled_from(["-1", "0", "1", "2", "3", "5", "2.5", "x", ""])
ranges = st.one_of(
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", numbers, numbers, counts),
    st.sampled_from(["", "0:1", "0:1:3:4", "a:b:c", "::", "0.1:0.9:3"]),
)
families = st.sampled_from(["werner", "schmidt", "standard-form", "standard_form", "nonsense", ""])
_known = ["C", "D", "purity", "kyfan_c", "concurrence_wootters", "verdict"]
quantities = st.one_of(
    st.lists(st.sampled_from(_known), min_size=1, max_size=2),
    st.lists(st.sampled_from(_known + ["bogus", ""]), max_size=3),
).map(",".join)
unknown_flags = st.sampled_from(["--nonsense", "--bogus", "-z", "--quantity-x"])


def _triple(values):
    lists = st.lists(values, min_size=3, max_size=3) | st.lists(values, min_size=1, max_size=4)
    return lists.map(",".join)


VERB_FLAGS = {
    "analyze": {
        "--family": families,
        "--x": numbers,
        "--alpha": numbers,
        "--d": _triple(numbers),
        "--tolerance": numbers,
        "--out": st.sampled_from(["{tmp}/report.json", "{tmp}/report.csv", "{tmp}/no/dir.json"]),
        "--dump-state": st.just("{tmp}/dumped.json"),
        "--state": st.sampled_from(["{tmp}/missing.json", "{tmp}/dumped.json", "{tmp}"]),
    },
    "sweep": {
        "--family": families,
        "--x": ranges,
        "--alpha": ranges,
        "--d": _triple(ranges),
        "--quantities": quantities,
        "--out": st.just("{tmp}/table.csv"),
        "--svg": st.sampled_from(["{tmp}/table.svg", "{tmp}/no/dir.svg"]),
    },
    "standard-form": {
        "--d": _triple(numbers),
        "--tolerance": numbers,
        "--out": st.just("{tmp}/sf.json"),
    },
    "basis": {
        "--n": st.sampled_from(["-3", "0", "1", "2", "3", "9", "2.5", "abc", ""]),
        "--out": st.just("{tmp}/basis.json"),
    },
    # Never bare: every drawn --only names no runnable set of criteria.
    "selftest": {"--only": st.sampled_from(["0", "13", "99", "-1", "1,99", "", "x", ",", "1,,2"])},
}
VERB_FLAGS["wedge"] = VERB_FLAGS["sweep"]
# Flags drawn first, so that most examples get past argparse.
LEADING = {
    "analyze": st.sampled_from([["--family"], ["--state"]]),
    "sweep": st.just(["--family", "--quantities"]),
    "wedge": st.just(["--family", "--quantities"]),
    "standard-form": st.just(["--d"]),
    "basis": st.just(["--n"]),
    "selftest": st.just(["--only"]),
}
# Axis flags drawn right after a --family value.
AXIS_FLAGS = {
    "werner": ["--x"],
    "schmidt": ["--x", "--alpha"],
    "standard-form": ["--d"],
    "standard_form": ["--d"],
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS) + ["nonsense", None]))
    flags = VERB_FLAGS.get(verb, VERB_FLAGS["analyze"])
    names = draw(LEADING.get(verb, st.just([]))) + draw(
        st.lists(st.sampled_from(sorted(flags)), max_size=3)
    )
    argv = [] if verb is None else [verb]
    for name in names:
        value = draw(flags[name])
        # "--d=-1,0,0" form too: argparse reads a separate "-1,0,0" as a flag.
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
        if name == "--family":
            for axis in AXIS_FLAGS.get(value, []):
                argv += [f"{axis}={draw(flags[axis])}"]
    damage = draw(st.sampled_from([None, None, None, "unknown flag", "no value"]))
    if damage == "unknown flag":
        argv.insert(draw(st.integers(0, len(argv))), draw(unknown_flags))
    elif damage == "no value" and len(argv) > 1:
        last = argv.pop()
        if last.startswith("--"):
            argv.append(last.split("=")[0])
    return argv


def _run(argv):
    """Exit code and stderr of ``run(argv)``; each warning counts as a stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = run(argv)
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _check(code, err):
    assert code in EXIT_CODES
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@FUZZ_SETTINGS
@given(argv=argvs())
def test_run_exits_cleanly_on_malformed_argv(tmp_path, argv):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        _check(*_run(argv))


# -- state files --------------------------------------------------------------

scalars = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, True, None, "0.5", 0.25]),
)
entries = st.one_of(
    st.lists(scalars, min_size=2, max_size=2),
    st.lists(scalars, max_size=3),
    scalars,
    st.just({"re": 0.0, "im": 0.0}),
)
matrices = st.one_of(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    ),
    st.lists(st.lists(entries, max_size=4), max_size=4),  # ragged
    scalars,
    st.just({"0": [0.0, 0.0]}),
)
dims = st.one_of(
    st.integers(1, 16),
    st.sampled_from([0, -4, 10**30, 4.0, "4", None, True, [4]]),
)


def _diagonal(dim, weights):
    """A document declaring ``dim`` whose matrix has the diagonal ``weights``."""
    rows = [[[0.0, 0.0] for _ in weights] for _ in weights]
    for i, w in enumerate(weights):
        rows[i][i] = [w, 0.0]
    return {"dim": dim, "matrix": rows}


documents = st.one_of(
    st.fixed_dictionaries({"dim": dims, "matrix": matrices}),
    st.fixed_dictionaries({}, optional={"dim": dims, "matrix": matrices}),
    # Near-valid: a diagonal state, perhaps with a wrong declared dim or a bad entry.
    st.sampled_from([4, 9, 16]).flatmap(
        lambda d: st.builds(
            _diagonal,
            st.sampled_from([d, d + 1, 2]),
            st.just([1.0 / d] * d) | st.lists(scalars, min_size=d, max_size=d),
        )
    ),
    st.lists(scalars, max_size=3),
    scalars,
)
raw_files = st.one_of(
    documents.map(lambda doc: json.dumps(doc).encode()),
    st.sampled_from(
        [
            b"",
            b"\xff\xfe{}",
            b'{"dim": 4, "matrix": [[\x80',
            b'{"dim": 4, "matrix": ',
            b"NaN",
            b"[" * 100_000,
        ]
    ),
    st.binary(max_size=40),
)


@FUZZ_SETTINGS
@given(content=raw_files)
@example(content=b"\xff\xfe{}")
def test_run_exits_cleanly_on_malformed_state_files(tmp_path, content):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        path = f"{tmp}/state.json"
        with open(path, "wb") as fh:
            fh.write(content)
        _check(*_run(["analyze", "--state", path]))
