"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

from entmoment import acceptance

IDS = [f"criterion-{num:02d}-{name}" for num, name, _ in acceptance.CRITERIA]


@pytest.mark.parametrize("number,name", [(n, nm) for n, nm, _ in acceptance.CRITERIA], ids=IDS)
def test_acceptance_criterion(number, name):
    result = acceptance.run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {number:2d} {name}: {result.detail}")
    # A numpy bool would match the annotation in value but fail json.dumps.
    assert type(result.passed) is bool
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
