"""End-to-end acceptance battery.

One test item per entry of `verify.FAST_CHECKS` and `verify.SLOW_CHECKS`,
so a check added to either table runs here with no further code. Each
item runs its check through `verify.run_checks` at the scale the check
fixes and prints one PASS/FAIL line (visible with `pytest -s`; the same
lines come from `lightinfer verify --full`). The timing checks of
`SLOW_CHECKS` take minutes and are marked `slow`.
"""

import pytest

from lightinfer import verify

CHECKS = [*verify.FAST_CHECKS,
          *(pytest.param(name, marks=pytest.mark.slow) for name in verify.SLOW_CHECKS)]


@pytest.mark.parametrize("name", CHECKS)
def test_check_passes(name):
    [result] = verify.run_checks(verify.select_checks(names=[name]))
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, result.detail
