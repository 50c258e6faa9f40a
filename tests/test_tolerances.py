"""The README's tolerance table agrees with the module constants it names."""

import importlib
import re
from pathlib import Path

import entmoment

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)` \| ([^|]+?) \| `(\w+)` \|", re.MULTILINE)


def _table():
    """(constant, value, module) for each row of the tolerance table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Tolerances and limits", 1)[1].split("\n## ", 1)[0]
    return [(name, float(value), module) for name, value, module in ROW.findall(section)]


def test_each_row_matches_its_module_constant():
    rows = _table()
    assert rows
    for name, value, module in rows:
        assert getattr(importlib.import_module(f"entmoment.{module}"), name) == value, name


def test_every_tolerance_constant_has_a_row():
    documented = {(module, name) for name, _, module in _table()}
    defined = {
        (path.stem, name)
        for path in Path(entmoment.__file__).parent.glob("*.py")
        for name in re.findall(r"^(\w+_TOL) = ", path.read_text(encoding="utf-8"), re.MULTILINE)
    }
    assert defined
    assert defined <= documented, sorted(defined - documented)
