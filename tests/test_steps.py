"""Step-law unit tests: closed forms against truncated-sum oracles.

The ``log_mgf`` tests check the closed-form L(h) of ``oracles``, the
reference that the segment free energy of ``largedev`` is compared with.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdsaw import steps

import oracles


def test_pmf_closed_form():
    law = steps.StepLaw(2.0)
    assert steps.step_pmf(law, 0) == pytest.approx(0.462117, abs=1e-6)
    assert steps.step_pmf(law, 0) == pytest.approx(1.0 / oracles.c_beta(2.0),
                                                   rel=1e-15)


def test_pmf_symmetry():
    law = steps.StepLaw(2.0)
    assert steps.step_pmf(law, 1) == steps.step_pmf(law, -1)


def test_pmf_normalization():
    law = steps.StepLaw(2.0)
    total = sum(steps.step_pmf(law, k) for k in range(-50, 51))
    assert abs(total - 1.0) < 1e-12


@given(st.floats(0.3, 6.0), st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_pmf_tail_bound(beta, K):
    law = steps.StepLaw(beta)
    total = sum(steps.step_pmf(law, k) for k in range(-K, K + 1))
    x = math.exp(-0.5 * beta)
    bound = 2.0 * math.exp(-0.5 * beta * (K + 1)) / (law.c_beta * (1.0 - x))
    # the bound is exactly the tail; allow summation round-off on top
    assert abs(1.0 - total) <= bound * (1.0 + 1e-12) + 1e-12


def test_derived_constants():
    law = steps.StepLaw(2.0)
    x = math.exp(-1.0)
    assert law.c_beta == (1.0 + x) / (1.0 - x)
    assert law.gamma_beta == law.c_beta * math.exp(-2.0)
    assert law.sigma2 > 0


@pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_step_law_names_a_bad_beta(beta):
    with pytest.raises(ValueError, match=f"beta must be positive and finite, got {beta}$"):
        steps.StepLaw(beta)


def test_beta_critical_value():
    assert steps.beta_critical() == pytest.approx(oracles.beta_critical_bisect(),
                                                  abs=1e-8)
    assert steps.beta_critical() == pytest.approx(1.21876, abs=1e-5)


def test_beta_critical_defining_equation():
    law = steps.StepLaw(steps.beta_critical())
    assert abs(law.gamma_beta - 1.0) < 1e-10


def test_gamma_strictly_decreasing():
    grid = np.arange(0.5, 5.01, 0.5)
    vals = [steps.StepLaw(b).gamma_beta for b in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_log_mgf_at_zero():
    assert oracles.log_mgf(steps.StepLaw(2.0), 0.0) == 0.0


def test_log_mgf_symmetry():
    law = steps.StepLaw(2.0)
    assert oracles.log_mgf(law, 0.3) == pytest.approx(
        oracles.log_mgf(law, -0.3), rel=1e-14)


def test_log_mgf_truncated_sum_oracle():
    law = steps.StepLaw(2.0)
    assert oracles.log_mgf(law, 0.5) == pytest.approx(
        oracles.mgf_truncated(2.0, 0.5), abs=1e-10)


def test_log_mgf_domain_error():
    law = steps.StepLaw(2.0)
    with pytest.raises(ValueError):
        oracles.log_mgf(law, 1.0)
    with pytest.raises(ValueError):
        oracles.log_mgf(law, -1.0)


def test_log_mgf_strictly_convex():
    law = steps.StepLaw(2.0)
    rng = np.random.default_rng(5)
    for h in rng.uniform(-0.9, 0.9, size=20):
        eps = 1e-4
        second = (oracles.log_mgf(law, h + eps) - 2.0 * oracles.log_mgf(law, h)
                  + oracles.log_mgf(law, h - eps))
        assert second > 0.0


def test_variance_truncated_sum():
    law = steps.StepLaw(2.0)
    assert law.sigma2 == pytest.approx(oracles.variance_truncated(2.0),
                                       abs=1e-10)


def test_variance_is_mgf_curvature():
    law = steps.StepLaw(2.0)
    second = (oracles.log_mgf(law, 1e-4) - 2.0 * oracles.log_mgf(law, 0.0)
              + oracles.log_mgf(law, -1e-4)) / 1e-8
    assert second == pytest.approx(law.sigma2, rel=1e-6)


def test_variance_decreasing_in_beta():
    vals = [steps.StepLaw(b).sigma2 for b in (1.0, 2.0, 3.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_count_takes_whole_numbers_and_names_the_rest():
    assert steps._count(3, "L") == 3
    assert steps._count(np.int64(3), "L", 1) == 3
    assert type(steps._count(3.0, "L")) is int
    for bad in (2.5, math.nan, math.inf, "3", True, np.True_, None, 1 + 0j):
        with pytest.raises(ValueError, match=f"^L = {re.escape(repr(bad))} must"):
            steps._count(bad, "L")
    with pytest.raises(ValueError, match="^n = 1 must be a whole number >= 2: why$"):
        steps._count(1, "n", 2, "why")
