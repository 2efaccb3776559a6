"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s or in the CLI battery
via `permlab verify`).  Criterion 8's lower-bound threshold is expected to
fail: the demanded exceedance probability of 0.9 at depth n = 40 sits far
above what the statistic attains on any admissible geometric grid at that
depth (the battery measures 0.565, 0.630 and 0.664 at n = 20, 30 and 40;
it crosses 0.9 only near n ~ 160).  The xfail is
strict, so if the criterion ever starts passing the suite flags it.
"""

from types import SimpleNamespace

import pytest

from permlab import verify
from permlab.verify import CRITERIA, SUITES, run_suite

EXPECTED_UNATTAINABLE = {
    8: "lower-bound frequency 0.9 at n=40 exceeds the attainable value "
       "(0.664 measured) for every admissible grid; see the trend data in "
       "the result",
}


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid):
    if cid in EXPECTED_UNATTAINABLE:
        pytest.xfail(EXPECTED_UNATTAINABLE[cid])
    result = CRITERIA[cid]()
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.xfail(strict=True,
                   reason=EXPECTED_UNATTAINABLE[8])
def test_criterion_8_lower_bound_as_stated():
    result = CRITERIA[8]()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_8_attainable_parts():
    # the trend and the upper companion hold even though the lower-bound
    # threshold does not; keep them green independently
    from permlab import GridSpec, brownian_unit_base
    from permlab.sampling import lil_harness, trend_is_nondecreasing
    rows = [r for r in lil_harness(brownian_unit_base(), None, None,
                                   [GridSpec(d=0.0, theta=0.3, n=n, q=0.5)
                                    for n in (20, 30, 40)],
                                   k=1, n_paths=2000, seed=99)
            if r.epsilon == 0.3]
    lower = [r.freq_lower for r in rows]
    print("criterion 8 components: lower", lower,
          "upper", rows[-1].freq_upper)
    assert trend_is_nondecreasing(lower, 2000)
    assert rows[-1].freq_upper >= 0.9


def test_registry_declares_each_criterion_once():
    assert sorted(CRITERIA) == list(range(1, 15))
    assert SUITES["core"] == (1, 2, 3, 4, 5, 6, 9, 10, 13, 14)
    assert SUITES["mc"] == (7, 8, 11, 12)
    assert sorted(SUITES["core"] + SUITES["mc"]) == list(range(1, 15))
    assert SUITES["full"] == tuple(range(1, 15))
    assert sorted(SUITES) == ["core", "full", "mc"]
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("fast")
    with pytest.raises(TypeError):
        run_suite()


def _clock(*ticks):
    it = iter(ticks)
    return SimpleNamespace(perf_counter=lambda: next(it))


def test_a_criterion_past_its_limit_fails_with_its_details(monkeypatch):
    on_time = CRITERIA[1]()
    assert on_time.passed, on_time.line()
    monkeypatch.setattr(verify, "time", _clock(10.0, 11.5))
    late = CRITERIA[1]()
    assert not late.passed
    assert late.elapsed == 1.5
    assert late.details == on_time.details + "; past its 1s limit"
    assert late.line().startswith("[FAIL] criterion  1 (  1.50s)")


def test_a_criterion_without_a_limit_is_not_timed_out(monkeypatch):
    monkeypatch.setattr(verify, "time", _clock(0.0, 1e6))
    result = CRITERIA[5]()
    assert result.passed and result.elapsed == 1e6
    assert "limit" not in result.details
