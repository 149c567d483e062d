"""One test per acceptance criterion, each printed as a pass/fail line.

Two criteria compare against reference numbers that turn out to be
inconsistent with their own defining formulas (details in the criterion
detail strings and in the repository notes).  They are implemented exactly
as stated and marked strict-xfail rather than weakened.
"""

import pytest

from pullin import DomainValidationError, acceptance

_XFAIL = {
    "exp_constant_table":
        "the N=7 reference entry is inconsistent with its defining "
        "minimization (digit transposition); the other six entries match to 5e-5",
    "radial_upper_bounds":
        "reference optima 0.49/0.55 are not reproducible from the radial "
        "integral inequality as stated (faithful optima: 0.5216/0.6202)",
}


def _run(name):
    fn = dict(acceptance.CRITERIA)[name]
    passed, detail = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, detail


def _case(name):
    if name in _XFAIL:
        return pytest.param(name, marks=pytest.mark.xfail(
            reason=_XFAIL[name], strict=True))
    return name


@pytest.mark.parametrize("name", [_case(n) for n, _ in acceptance.CRITERIA])
def test_criterion(name):
    _run(name)


def test_an_unknown_criterion_is_refused():
    with pytest.raises(DomainValidationError, match="no_such_check"):
        acceptance.run(["no_such_check"])
