"""Acceptance gate: one test per registered criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `kblab verify` for the same battery via the CLI.

The small-noise mean-gap slope band is asserted exactly as specified and is an
expected failure: the measured slope is ~2.0 because the gain difference
between the eps-filter and the zero-noise-gain filter is the covariance gap,
itself O(eps^2). See notes in the repository root and the check's detail line.
"""

import pytest

import kblab.checks as checks
from kblab.checks import CHECKS, run_checks


def _params():
    out = []
    for c in CHECKS:
        marks = []
        if c.known_fail:
            # only the band's AssertionError is expected; a crash fails the suite
            marks.append(pytest.mark.xfail(
                reason="mean-gap slope is quadratic in eps (measured ~2.0); "
                       "the [0.7, 1.3] band is not attainable", raises=AssertionError,
                strict=True))
        out.append(pytest.param(c.name, id=c.name, marks=marks))
    return out


@pytest.mark.parametrize("name", _params())
def test_acceptance_criterion(name):
    results = run_checks(name)
    assert len(results) == 1, f"check {name} not found"
    r = results[0]
    print(f"\n{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    # run_checks drops known_fail from a check that raised
    if not r.known_fail and any(c.known_fail for c in checks.CHECKS if c.name == name):
        raise RuntimeError(f"known-fail check {name} crashed: {r.detail}")
    assert r.passed, r.detail


def test_a_crashed_known_fail_check_is_no_expected_failure(monkeypatch):
    def crash():
        raise FloatingPointError("injected crash")

    monkeypatch.setattr(checks, "CHECKS",
                        CHECKS + [checks.Check("known-fail-crash", crash, known_fail=True)])
    [r] = run_checks("known-fail-crash")
    assert not r.passed and not r.known_fail and r.status == "FAIL"
    with pytest.raises(RuntimeError, match="raised FloatingPointError: injected crash"):
        test_acceptance_criterion("known-fail-crash")


def test_every_criterion_is_registered():
    names = {c.name for c in CHECKS}
    for n in range(1, 10):
        assert any(f"criterion-{n}" in name for name in names), f"criterion {n} missing"
    # unit-level assertions belong in the test modules, not in the registry
    assert all(name.startswith("criterion-") for name in names), sorted(names)
