import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscosolve import (
    ConstantLambda,
    NoPerturbation,
    PowerAlpha,
    ScheduleSpec,
    ScheduleViolationWarning,
    TableAlpha,
    TableLambda,
    UniformSquarePerturbation,
    alpha_at,
    hypothesis_report,
    lambda_at,
    norm,
    perturbation_stream,
)
from viscosolve import schedules
from viscosolve.schedules import ANALYTIC, CONSISTENT, VIOLATED, tabulate


def spec(alpha, lam=None, bounds=(0.1, 0.1)):
    return ScheduleSpec(alpha=alpha, lam=lam or ConstantLambda(0.1), bounds=bounds)


def test_alpha_examples():
    s = spec(PowerAlpha(0.9))
    assert alpha_at(s, 1) == 1.0
    assert alpha_at(spec(PowerAlpha(0.5)), 4) == pytest.approx(0.5, abs=1e-15)
    assert alpha_at(spec(PowerAlpha(1.0)), 10) == pytest.approx(0.1, abs=1e-15)



def counting(monkeypatch, name):
    """Count the calls of ``schedules.<name>`` that the module itself makes."""
    calls = []
    original = getattr(schedules, name)
    monkeypatch.setattr(schedules, name, lambda s, k: calls.append(k) or original(s, k))
    return calls


@pytest.mark.parametrize("n", (1, 7, 6000))
@pytest.mark.parametrize("value, bounds", ((0.1, (0.1, 0.1)), (1 / 3, (0.1, 0.5))))
def test_constant_lambda_table_equals_lambda_at_bit_for_bit(monkeypatch, n, value, bounds):
    s = spec(PowerAlpha(0.7), ConstantLambda(value), bounds)
    want = np.array([lambda_at(s, k) for k in range(1, n + 1)])
    alpha_calls, lambda_calls = counting(monkeypatch, "alpha_at"), counting(monkeypatch, "lambda_at")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas, lams = tabulate(s, n)
    assert lams.dtype == want.dtype and lams.tobytes() == want.tobytes()
    assert alphas.tolist() == [alpha_at(s, k) for k in range(1, n + 1)]
    assert alpha_calls == list(range(1, n + 1)) and lambda_calls == []


def test_table_lambda_schedule_is_tabulated_from_the_table_without_lambda_at(monkeypatch):
    values = np.linspace(0.05, 0.5, 40)
    s = spec(PowerAlpha(0.7), TableLambda(values), (0.05, 0.2))
    lambda_calls = counting(monkeypatch, "lambda_at")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # values outside the bounds warn in lambda_at, not in the table
        _, lams = tabulate(s, 40)
    assert lambda_calls == []
    assert lams.tobytes() == values.tobytes()


def test_alpha_table_and_exhaustion():
    s = spec(TableAlpha([1.0, 0.5, 0.25]))
    assert alpha_at(s, 3) == 0.25
    with pytest.raises(IndexError):
        alpha_at(s, 4)
    with pytest.raises(IndexError):
        alpha_at(s, 0)


def test_lambda_examples():
    s = spec(PowerAlpha(0.9))
    for k in (1, 17, 6000):
        assert lambda_at(s, k) == 0.1
    s2 = spec(PowerAlpha(0.9), TableLambda([0.1, 0.15]), bounds=(0.1, 0.15))
    assert lambda_at(s2, 2) == 0.15
    with pytest.raises(IndexError):
        lambda_at(s2, 3)


def test_lambda_flags_out_of_bounds_values():
    s = spec(PowerAlpha(0.9), TableLambda([0.1, 0.5]), bounds=(0.05, 0.2))
    with pytest.warns(ScheduleViolationWarning):
        assert lambda_at(s, 2) == 0.5


def test_schedule_spec_invariants():
    with pytest.raises(ValueError):
        ScheduleSpec(alpha=PowerAlpha(0.9), lam=ConstantLambda(0.3), bounds=(0.05, 0.2))
    with pytest.raises(ValueError):
        ScheduleSpec(alpha=PowerAlpha(0.9), lam=ConstantLambda(0.1), bounds=(0.2, 0.1))
    with pytest.raises(ValueError):
        PowerAlpha(0.0)
    with pytest.raises(ValueError):
        TableAlpha([0.5, 0.0])


@given(st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=1, max_value=5000))
def test_power_alpha_decreasing_into_unit_interval(theta, k):
    s = spec(PowerAlpha(theta))
    a_k, a_next = alpha_at(s, k), alpha_at(s, k + 1)
    assert 0 < a_next < a_k or k == 0
    assert a_k <= 1.0


def test_perturbation_none_is_zero():
    p = NoPerturbation()
    assert np.array_equal(perturbation_stream(p, 1, 2, 5)[0], np.zeros(2))
    assert np.array_equal(perturbation_stream(p, 10, 3), np.zeros((10, 3)))


def test_perturbation_norm_bound():
    p = UniformSquarePerturbation(seed=123)
    for k in (1, 2, 10, 500):
        assert norm(perturbation_stream(p, 1, 2, k)[0]) <= math.sqrt(2) / k**2


def test_perturbation_determinism():
    p = UniformSquarePerturbation(seed=42)
    a = perturbation_stream(p, 1, 2, 7)[0]
    b = perturbation_stream(p, 1, 2, 7)[0]
    assert np.array_equal(a, b)
    # the stream rows agree bit-exactly with per-index evaluation
    stream = perturbation_stream(p, 20, 2)
    for k in (1, 3, 20):
        assert np.array_equal(stream[k - 1], perturbation_stream(p, 1, 2, k)[0])
    # different seeds give different draws
    assert not np.array_equal(a, perturbation_stream(UniformSquarePerturbation(seed=43), 1, 2, 7)[0])


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_perturbation_at_matches_stream_rows(dim):
    p = UniformSquarePerturbation(seed=2024)
    n = 100_000
    stream = perturbation_stream(p, n, dim)
    for k in (1, 2, 7, 5000, n - 1, n):
        assert np.array_equal(perturbation_stream(p, 1, dim, k)[0], stream[k - 1]), k


def test_perturbation_partial_sum_bound():
    # sum_k ||e_k|| <= sqrt(2) * pi^2 / 6 in dimension 2, for every horizon
    p = UniformSquarePerturbation(seed=9)
    norms = np.linalg.norm(perturbation_stream(p, 100_000, 2), axis=1)
    assert norms.sum() <= math.sqrt(2) * math.pi**2 / 6


def test_hypothesis_report_benchmark_all_satisfied():
    s = spec(PowerAlpha(0.9))
    rep = hypothesis_report(s, UniformSquarePerturbation(seed=1), 2000, nu=0.1)
    assert rep.all_satisfied()
    for key in ("i", "ii", "iii", "iv", "v"):
        assert rep[key].verdict == ANALYTIC


def test_hypothesis_report_power_exponent_above_one_violates_divergence():
    rep = hypothesis_report(spec(PowerAlpha(1.5)), NoPerturbation(), 2000, nu=0.1)
    assert rep["i"].verdict == VIOLATED
    assert not rep.all_satisfied()


def test_hypothesis_report_lambda_at_two_nu_violates():
    s = ScheduleSpec(alpha=PowerAlpha(0.9), lam=ConstantLambda(0.2), bounds=(0.2, 0.2))
    rep = hypothesis_report(s, NoPerturbation(), 2000, nu=0.1)
    assert rep["ii"].verdict == VIOLATED


def test_hypothesis_report_table_verdicts_are_numeric():
    ks = np.arange(1, 501)
    s = ScheduleSpec(
        alpha=TableAlpha(1.0 / ks**0.9),
        lam=TableLambda(0.1 + 0.01 / ks),
        bounds=(0.05, 0.15),
    )
    rep = hypothesis_report(s, NoPerturbation(), 500, nu=0.1)
    assert rep["i"].verdict == CONSISTENT
    assert rep["ii"].verdict == CONSISTENT
    assert rep["iii"].verdict == CONSISTENT
    assert rep["iv"].verdict == CONSISTENT
    assert rep.all_satisfied()


def test_hypothesis_report_evidence_numbers():
    rep = hypothesis_report(spec(PowerAlpha(1.0)), UniformSquarePerturbation(seed=3), 1000, nu=0.1)
    ev = rep["i"].evidence
    # harmonic partial sum over 1000 terms
    assert ev["alpha_partial_sum"] == pytest.approx(sum(1.0 / k for k in range(1, 1001)), rel=1e-12)
    assert rep["v"].evidence["e_norm_sum"] <= math.sqrt(2) * math.pi**2 / 6
