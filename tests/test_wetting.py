"""Wetting-layer tests: kernel, partition function, free energy, curves."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from ipdsaw import exactz, steps, wetting

import oracles

BETA = 2.0
DT2 = 0.45867514538708193  # -log(1 - e^{-1})


def test_kernel_first_term(kernel2):
    assert kernel2.k[1] == pytest.approx(1.0 / oracles.c_beta(BETA), rel=1e-14)


def test_kernel_total_mass(kernel2):
    target = 1.0 - math.exp(-0.5 * BETA)
    total = kernel2.total_mass()
    assert total <= target + 1e-12
    # the deficit is the t^{-3/2} tail beyond t_max: about 2c/sqrt(t_max)
    c_tail = kernel2.k[kernel2.t_max] * kernel2.t_max ** 1.5
    assert target - total == pytest.approx(2.0 * c_tail / math.sqrt(kernel2.t_max),
                                           rel=0.15)
    assert total == pytest.approx(target, abs=5e-3)


def test_kernel_tail_exponent(kernel2):
    r = (kernel2.k[2000] * 2000 ** 1.5) / (kernel2.k[4000] * 4000 ** 1.5)
    assert r == pytest.approx(1.0, abs=0.03)


@pytest.mark.parametrize("beta, H", [(2.0, 913), (4.0, 664)])
def test_kernel_closed_form_matches_dp_oracle(beta, H):
    t_max = 10 ** 4
    k = wetting.return_kernel(beta, t_max).k
    k_dp = oracles.return_kernel_dp(beta, t_max, H)
    assert np.max(np.abs(k[1:] / k_dp[1:] - 1.0)) < 1e-12


def test_kernel_closed_form_matches_dp_oracle_small_beta():
    # at beta = 0.5 the default DP cutoff (H = 994) loses 6e-8 relative by
    # t = 3000; from H = 1500 on, the DP values no longer move (H = 6000
    # gives the same worst gap, 5.5e-13, at 25x the cost)
    t_max = 3000
    k = wetting.return_kernel(0.5, t_max).k
    k_dp = oracles.return_kernel_dp(0.5, t_max, 2000)
    assert np.max(np.abs(k[1:] / k_dp[1:] - 1.0)) < 1e-12


def test_zwet_base_case():
    assert wetting.zwet(BETA, 0.0, 1) == pytest.approx(
        math.log(1.0 / oracles.c_beta(BETA)), rel=1e-14)


def test_zwet_renewal_equals_direct_dp():
    for delta in (0.0, 0.7, 1.5):
        series = wetting.zwet_series(BETA, delta, 200)
        for n in (1, 5, 25, 100, 200):
            assert series[n] == pytest.approx(
                wetting.zwet_direct(BETA, delta, n), abs=1e-10)


def test_zwet_renewal_equals_direct_dp_at_scale():
    # N = 20000: the direct route's strip has 1762 heights
    assert wetting.zwet(1.0, 1.0, 20000) == pytest.approx(
        wetting.zwet_direct(1.0, 1.0, 20000), rel=1e-12)


def test_zwet_renewal_equals_direct_dp_at_benchmark_point():
    # beta = 2, delta = 1, N = 5000, the point the benchmark checks: the
    # strip has 665 heights, 39 blocks of 17 and one of 2
    assert wetting.zwet(2.0, 1.0, 5000) == pytest.approx(
        wetting.zwet_direct(2.0, 1.0, 5000), rel=1e-12)


# lengths 0..N: N = B - 1 fills one block of the solve, N = B and B + 1
# start a second
@pytest.mark.parametrize("N", [wetting._RENEWAL_BLOCK - 1,
                               wetting._RENEWAL_BLOCK,
                               wetting._RENEWAL_BLOCK + 1])
@pytest.mark.parametrize("beta", [0.1, 2.0, 30.0])
def test_zwet_series_blocked_solve_matches_sequential_loop(beta, N):
    dt = wetting.delta_tilde(beta)
    for delta in (dt - 0.5, dt, dt + 0.5, 710.0, -800.0):
        got = wetting.zwet_series(beta, delta, N)
        want = oracles.zwet_series_loop(beta, delta, N)
        assert got[0] == want[0] == 0.0
        # pytest's absolute floor of 1e-12 serves where log Z is near 0: at
        # beta = 30, delta = delta_tilde, log Z(n) is -3e-7 to -4e-5 and the
        # loop's own error reaches 1.6e-13 (5e-15 for the blocked solve,
        # both against the loop run in long double)
        assert got[1:] == pytest.approx(want[1:], rel=1e-13), delta


def _closed_form_terms(beta, delta):
    """(h, C_wet, 1 - x^2 - e^{-delta}, T*) as ``zwet_series`` forms them."""
    h = wetting.wetting_free_energy(beta, delta)
    return (h, *wetting._localized_terms(beta, delta, h))


def _spy_renewal(monkeypatch):
    """Record the lengths ``zwet_series`` hands to the blocked renewal."""
    calls = []
    renewal = wetting._renewal_series

    def spy(beta, delta, h, N):
        calls.append(N)
        return renewal(beta, delta, h, N)

    monkeypatch.setattr(wetting, "_renewal_series", spy)
    return calls


# N = T* - 1 still runs the renewal, N = T* and T* + 1 the closed form; at
# delta = 710, T* = 1, so N = 0 returns log Z(0) = 0 from the renewal
@pytest.mark.parametrize("beta", [0.1, 2.0, 30.0])
def test_zwet_closed_form_matches_sequential_loop(beta, monkeypatch):
    calls = _spy_renewal(monkeypatch)
    for delta in (wetting.delta_tilde(beta) + 0.5, 710.0):
        T = _closed_form_terms(beta, delta)[3]
        for N in (T - 1, T, T + 1):
            got = wetting.zwet_series(beta, delta, N)
            want = oracles.zwet_series_loop(beta, delta, N)
            assert got[0] == want[0] == 0.0
            assert got[1:] == pytest.approx(want[1:], rel=1e-13), (delta, N)
            assert calls == ([N] if N < T else []), (delta, N)
            calls.clear()


def test_zwet_keeps_the_renewal_below_and_near_delta_tilde(monkeypatch):
    # at or below delta_tilde h = 0; just above it T* > N
    calls = _spy_renewal(monkeypatch)
    dt = wetting.delta_tilde(BETA)
    for delta in (dt - 0.5, dt, dt + 1e-3, dt + 0.05):
        wetting.zwet_series(BETA, delta, 5000)
        assert calls.pop() == 5000, delta
    assert _closed_form_terms(BETA, dt + 0.05)[3] == 7583


# T* at the two wetting runs of the benchmark and at the grid's ends
@pytest.mark.parametrize("beta, delta, T", [
    (2.0, 1.0, 122), (0.5, 2.0, 214), (0.1, 3.5, 263), (30.0, 0.2, 204),
    (2.0, 710.0, 1),
])
def test_kernel_tail_past_t_star_is_below_half_an_ulp(beta, delta, T):
    h, C, _, T_star = _closed_form_terms(beta, delta)
    assert T_star == T
    gap = 1.0 - math.exp(-beta) - math.exp(-delta)
    k = wetting.return_kernel(beta, 20 * T).k
    t = np.arange(T + 1.0, 20 * T + 1)
    dropped = math.fsum(k[T + 1:] * np.exp(-h * t)) / gap
    assert dropped <= 2.0 ** -54 * C
    # T* is the least T >= 1 whose bound holds
    bound = lambda T: math.exp(-h * (T + 1)) / -math.expm1(-h) / gap
    assert bound(T) <= 2.0 ** -54 * C
    assert T == 1 or bound(T - 1) > 2.0 ** -54 * C


@pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 30.0])
def test_zwet_closed_form_matches_mpmath_renewal(beta):
    """The closed form, with the kernel's tail to its own T*, and the
    blocked renewal against a 40-digit renewal on a 40-digit kernel, errors
    in units of max(1, |log Z|).  Everywhere the closed form is within n + 1
    times h's error bound (see the test below) plus 4 eps; where
    ``zwet_series`` takes it (T* <= N), its worst error is no worse than the
    blocked solve's.  Nearer delta_tilde the blocked solve does better,
    since h enters it only as a rebasing."""
    N, dt = 200, wetting.delta_tilde(beta)
    eps = np.finfo(float).eps
    n = np.arange(1.0, N + 1)
    worst = {"closed": 0.0, "blocked": 0.0}
    for delta in (dt + 0.05, dt + 0.2, dt + 0.5, dt + 1.0, dt + 3.0, 10.0,
                  100.0, 710.0):
        want = oracles.zwet_series_mp(beta, delta, N)[1:]
        h, C, gap, T = _closed_form_terms(beta, delta)
        scale = np.maximum(1.0, np.abs(want))
        closed = np.abs(wetting._localized_series(beta, h, C, gap, T, N)[1:]
                        - want)
        blocked = np.abs(wetting._renewal_series(beta, delta, h, N)[1:] - want)
        h_bound = 8.0 * eps * (1.0 + delta / (delta - dt))
        assert np.all(closed <= (n + 1.0) * h * h_bound + 4.0 * eps * scale), delta
        if T <= N:
            worst["closed"] = max(worst["closed"], np.max(closed / scale))
            worst["blocked"] = max(worst["blocked"], np.max(blocked / scale))
    assert worst["closed"] <= worst["blocked"]


# delta_tilde + {1, 3} 10^-k, k = 1..6, and delta = 710, where the old
# form delta + log(1 - y) + 2 log(1 - x) - log(1 - y - x^2) missed the bound
# by up to 2e5 times and the ratio e^h - 1 overflows
@pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 30.0, 300.0])
def test_free_energy_and_cwet_match_mpmath_near_delta_tilde(beta):
    dt = wetting.delta_tilde(beta)
    eps = np.finfo(float).eps
    for delta in [dt + f * 10.0 ** -k for k in range(1, 7) for f in (1, 3)] + [710.0]:
        h, C = oracles.wetting_constants_mp(beta, delta)
        bound = 8.0 * eps * (1.0 + delta / (delta - dt))
        assert wetting.wetting_free_energy(beta, delta) == pytest.approx(
            h, rel=bound, abs=0.0), delta
        assert wetting.cwet_constant(beta, delta) == pytest.approx(
            C, rel=bound, abs=0.0), delta


@pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 4.0, 30.0])
def test_step_apply_matches_dense_product(beta):
    law = steps.StepLaw(beta)
    B = wetting._step_block(2)  # the block length up to 614 heights, 16
    # 1, 2, one block - 1, one block, one block + 1, several blocks, a
    # multiple of the large-n block length (680 = 40 x 17) and three fixed
    # sizes, as far as the dense matrix stays small
    for n in sorted({1, 2, B - 1, B, B + 1, 3 * B + 7, 665, 680, 1999, 2401}):
        M = wetting._step_matrix(law, n - 1)
        V, apply = wetting._step_apply(law, n)
        down = np.logspace(0.0, -300.0, n)
        # a spike at the end of the first block over a 1e-280 floor: from
        # the third block on, its carry through the second block dominates
        spike = np.full(n, 1e-280)
        spike[min(wetting._step_block(n), n) - 1] = 1.0
        for v in (down, down[::-1].copy(), spike, spike[::-1].copy(),
                  np.random.default_rng(n).random(n)):
            V.flat[:n] = v
            got, want = apply().reshape(-1)[:n], M @ v
            big = want > 1e-290
            assert np.all(np.abs(got[big] / want[big] - 1.0) < 1e-14), (n, v[:2])
            assert np.all(got[~big] < 1e-280)


def _dense_log_bridge(beta, log_w, N):
    """log of the weight of the N-step strip walks from 0 back to 0, by the
    dense walk run the whole length."""
    *_, (p, off) = oracles.strip_walk_dense(beta, log_w, N)
    return math.log(p[0]) + log_w[0] + off


def _check_strip_callers(beta, N, delta, **tol):
    """zwet_direct and area_wetting_dp at gamma = 0.5 against the dense walk."""
    gamma = 0.5
    H = math.ceil(12.0 * math.sqrt(N / beta)) + 64
    log_w = np.zeros(H + 1)
    log_w[0] = delta
    assert wetting.zwet_direct(beta, delta, N) == pytest.approx(
        _dense_log_bridge(beta, log_w, N), **tol)
    log_w = -gamma * np.arange(H + 1) / N
    log_w[0] += delta
    assert exactz.area_wetting_dp(N, gamma, beta, delta) == pytest.approx(
        _dense_log_bridge(beta, log_w, N), **tol)


# Strip heights n = H + 1, in blocks of 16 for the step: beta = 2 at
# N = 200 has 185 heights (11 blocks + 9), beta = 4 at N = 2000 has 334
# (20 blocks + 14); beta = 2 at N = 3 (80), beta = 30 at N = 200 (96)
# and beta = 2 at N = 787 (304) are exact multiples of the block length,
# and beta = 2 at N = 794 (305) is one more.  The bridge walks ceil(N/2)
# steps and joins the two halves, so odd and even N (1, 2, 3, 201) check
# the join; N = 1 reads the one step's p(0)
_STRIP_CASES = [(2.0, 1), (2.0, 2), (2.0, 3), (2.0, 200), (2.0, 201),
                (30.0, 200), (4.0, 2000), (2.0, 787), (2.0, 794)]


@pytest.mark.parametrize("beta, N", _STRIP_CASES)
def test_strip_walk_callers_match_dense_oracle(beta, N):
    _check_strip_callers(beta, N, 1.0, abs=1e-12)


# at delta = 710 the log values reach 1.4e6 (beta = 4, N = 2000), where one
# ulp is 2.3e-10, so rel = 1e-15 stands beside abs = 1e-12 (the larger holds)
@pytest.mark.parametrize("delta", [710.0, -800.0])
@pytest.mark.parametrize("beta, N", _STRIP_CASES)
def test_bridge_extreme_delta_matches_dense_oracle(beta, N, delta):
    _check_strip_callers(beta, N, delta, rel=1e-15, abs=1e-12)


# (beta, N, delta) and the range of zwet_direct's renormalization period K
# there: at delta = -800 the weight at height 0 underflows to 0 (K = 1);
# delta = -30 at beta = 2 is a steep weight with a short period; at
# delta = 0, beta = 30 only the two steps the join reads renormalize
# (K >= ceil(N/2) for the area-tilted weights as well)
@pytest.mark.parametrize("beta, N, delta, k_lo, k_hi", [
    (2.0, 201, -800.0, 1, 1),
    (2.0, 200, -30.0, 4, 4),
    (30.0, 2000, 0.0, 1000, math.inf),
], ids=["underflow", "steep", "reads-only"])
def test_bridge_renormalization_cadence_matches_dense_oracle(
        beta, N, delta, k_lo, k_hi):
    log_w = np.zeros(math.ceil(12.0 * math.sqrt(N / beta)) + 65)
    log_w[0] = delta
    K = wetting._renorm_period(steps.StepLaw(beta), np.exp(log_w - log_w.max()))
    assert k_lo <= K <= k_hi
    _check_strip_callers(beta, N, delta, rel=1e-15, abs=1e-12)


def test_bridge_keeps_its_decay_bound(monkeypatch):
    # log w = -700 on every height but the top, which the walk cannot reach
    # at beta = 30 (x^96 = e^-1440 underflows): the max falls by e^-700 a
    # step, so K = 1, and two steps without a rescale underflow to 0
    beta, N = 30.0, 200
    law = steps.StepLaw(beta)
    log_w = np.full(97, -700.0)
    log_w[-1] = 0.0
    assert wetting._renorm_period(law, np.exp(log_w)) == 1
    want = _dense_log_bridge(beta, log_w, N)
    tol = dict(rel=1e-15, abs=1e-12)
    assert wetting._log_bridge(law, log_w, N) == pytest.approx(want, **tol)
    monkeypatch.setattr(wetting, "_renorm_period", lambda law, w: 2)
    with np.errstate(invalid="ignore"):
        assert wetting._log_bridge(law, log_w, N) != pytest.approx(want, **tol)


@pytest.mark.parametrize("beta, w_min", [
    (2.0, 0.0), (2.0, 5e-324), (2.0, math.exp(-700.0)), (2.0, math.exp(-30.0)),
    (2.0, 1.0), (0.1, 1.0), (30.0, 0.5), (30.0, 1.0), (80.0, 1.0),
])
def test_renorm_period_keeps_the_max_above_two_to_minus_f(beta, w_min):
    law = steps.StepLaw(beta)
    w = np.array([1.0, w_min, 1.0])
    K = wetting._renorm_period(law, w)
    rho = w_min / law.c_beta
    bound = 2.0 ** -wetting._DECAY_BITS
    if w_min == 0.0:
        assert K == 1
    elif rho == 1.0:  # c_beta rounds to 1 at beta = 80: nothing decays
        assert K == sys.maxsize
    else:
        # the largest K >= 1 with rho^K >= 2^-F, or 1 where rho alone is below
        assert K == 1 or rho ** K >= bound
        assert rho ** (K + 1) < bound


# values of the bridge pinned as hex when it rescaled every step and its step
# was two products, a spread and an add: the same within 1e-14 relative
@pytest.mark.parametrize("call, pinned", [
    (lambda: wetting.zwet_direct(2.0, 1.0, 5000), "0x1.946bfa05003cap+10"),
    (lambda: wetting.zwet_direct(1.0, 1.0, 20000), "0x1.093b0997834ccp+7"),
    (lambda: exactz.area_wetting_dp(200, 0.5, 2.0, 1.0), "0x1.01b3350f37e30p+6"),
    (lambda: exactz.area_wetting_dp(2000, 0.5, 4.0, 1.0), "0x1.714808701484cp+10"),
], ids=["zwet-2-1-5000", "zwet-1-1-20000", "area-200", "area-2000"])
def test_strip_bridge_values_are_pinned(call, pinned):
    assert call() == pytest.approx(float.fromhex(pinned), rel=1e-14, abs=0.0)


def test_zwet_localized_prefactor():
    # Z e^{-h N} = C_wet is an identity of zwet's closed form, so Z is read
    # from the strip bridge, a route that knows neither h nor C_wet
    h = wetting.wetting_free_energy(BETA, 1.0)
    c = wetting.cwet_constant(BETA, 1.0)
    z = wetting.zwet_direct(BETA, 1.0, 2000)
    assert math.exp(z - h * 2000) / c == pytest.approx(1.0, abs=0.05)


def test_free_energy_zero_below_critical():
    assert wetting.wetting_free_energy(BETA, 0.458675) == 0.0
    assert wetting.wetting_free_energy(BETA, -1.0) == 0.0


def test_free_energy_quadratic_onset():
    # the transition is second order: h(dt + eps) ~ C eps^2
    h4 = wetting.wetting_free_energy(BETA, DT2 + 1e-4)
    h3 = wetting.wetting_free_energy(BETA, DT2 + 1e-3)
    assert h4 > 0.0
    assert h3 / h4 == pytest.approx(100.0, rel=0.02)


def test_free_energy_value():
    h = wetting.wetting_free_energy(BETA, 1.0)
    assert h == pytest.approx(0.3235719511433776, rel=1e-12)
    assert h == pytest.approx(0.3236, abs=5e-4)


def test_free_energy_matches_kernel_root():
    """h solves sum_t K(t) e^{-h t} = e^{-delta}: the sum to T* lies within
    the tail bound below e^{-delta}, at 1e-13 relative."""
    for beta, delta in [(2.0, 1.0), (0.5, 2.0), (0.1, 3.5), (30.0, 0.2),
                        (2.0, 710.0)]:
        h = wetting.wetting_free_energy(beta, delta)
        T = _closed_form_terms(beta, delta)[3]
        k = wetting.return_kernel(beta, T).k
        S = math.fsum(k[1:] * np.exp(-h * np.arange(1.0, T + 1)))
        tail = math.exp(-h * (T + 1)) / -math.expm1(-h)
        y = math.exp(-delta)
        assert (y - tail) * (1.0 - 1e-13) <= S <= y * (1.0 + 1e-13), beta
        assert tail < 1e-15 * y, beta


def test_delta_tilde_closed_form():
    assert wetting.delta_tilde(BETA) == pytest.approx(
        -math.log(1.0 - math.exp(-1.0)), rel=1e-15)


def test_critical_curves_values():
    c = wetting.critical_curves(BETA)
    assert c.delta_tilde == pytest.approx(DT2, rel=1e-12)
    assert c.delta_c == pytest.approx(1.974441955555285, rel=1e-10)
    assert c.delta_c == pytest.approx(1.9744, abs=1e-3)
    assert c.delta_circ == pytest.approx(3.2215384204594801, rel=1e-8)


def test_critical_curve_consistency():
    law = steps.StepLaw(BETA)
    c = wetting.critical_curves(BETA)
    assert abs(math.log(law.gamma_beta)
               + wetting.wetting_free_energy(BETA, c.delta_c)) < 1e-8
    assert abs(2.0 * math.log(law.gamma_beta)
               + wetting.wetting_free_energy(BETA, c.delta_circ)) < 1e-8


def test_curve_ordering_on_grid():
    for beta in np.arange(1.3, 5.01, 0.5):
        c = wetting.critical_curves(float(beta))
        assert c.delta_tilde < c.delta_c < c.delta_circ


def test_critical_curves_match_bisection_and_sinh():
    betas = [1.3, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0, 355.0]
    for beta in betas:
        c = wetting.critical_curves(beta)
        log_gamma = math.log(steps.StepLaw(beta).gamma_beta)
        assert c.delta_c == pytest.approx(
            oracles.delta_at_h_target(beta, -log_gamma), rel=1e-14), beta
        assert c.delta_circ == pytest.approx(
            oracles.delta_at_h_target(beta, -2.0 * log_gamma), rel=1e-14), beta
        assert c.delta_c == pytest.approx(oracles.delta_c_sinh(beta),
                                          rel=1e-14), beta


def test_critical_curves_finite_at_large_beta():
    # sinh^2 beta overflows from beta = 356; the closed form does not
    for beta in (356.0, 1000.0):
        c = wetting.critical_curves(beta)
        assert all(math.isfinite(v) for v in (c.delta_c, c.delta_circ))
        assert c.delta_tilde < c.delta_c < c.delta_circ
    assert wetting.critical_curves(1000.0).delta_circ == pytest.approx(
        2000.0, rel=1e-15)


def test_curves_error_below_beta_critical():
    with pytest.raises(ValueError):
        wetting.critical_curves(1.0)


def test_cwet_positive_and_converged():
    c = wetting.cwet_constant(BETA, 1.0)
    assert c > 0.0
    # closed form: re-evaluating must reproduce the value exactly
    assert wetting.cwet_constant(BETA, 1.0) == c


@pytest.mark.parametrize("beta, delta", [(2.0, 1.0), (0.5, 2.0), (4.0, 0.5)])
def test_cwet_matches_dp_kernel_series(beta, delta):
    """C_wet = [e^delta sum_t t K(t) e^{-h t}]^{-1} with K from the DP oracle."""
    h = wetting.wetting_free_energy(beta, delta)
    t_max = math.ceil(45.0 / h)  # e^{-h t} < 1e-19 beyond
    H = math.ceil(12.0 * math.sqrt(t_max / beta)) + 64
    k_dp = oracles.return_kernel_dp(beta, t_max, H)
    t = np.arange(1, t_max + 1)
    series = float((t * k_dp[1:]) @ np.exp(-h * t))
    assert wetting.cwet_constant(beta, delta) == pytest.approx(
        1.0 / (math.exp(delta) * series), rel=1e-12)


def test_cwet_error_below_critical():
    with pytest.raises(ValueError):
        wetting.cwet_constant(BETA, 0.4)


def test_free_energy_monotone_and_bounded():
    for beta in (1.0, 2.0, 3.5):
        prev = -1.0
        for delta in np.arange(0.0, 3.01, 0.25):
            h = wetting.wetting_free_energy(beta, float(delta))
            assert h >= prev - 1e-14
            assert 0.0 <= h <= delta + 1e-14
            prev = h


def test_subcritical_and_critical_decay():
    series_sub = wetting.zwet_series(BETA, 0.2, 4000)
    r_sub = (math.exp(series_sub[2000]) * 2000 ** 1.5) / (
        math.exp(series_sub[4000]) * 4000 ** 1.5)
    assert r_sub == pytest.approx(1.0, abs=0.10)
    series_crit = wetting.zwet_series(BETA, DT2, 4000)
    r_crit = (math.exp(series_crit[2000]) * 2000 ** 0.5) / (
        math.exp(series_crit[4000]) * 4000 ** 0.5)
    assert r_crit == pytest.approx(1.0, abs=0.10)


def test_large_delta_stays_finite():
    # at delta = 710, e^delta overflows; the walk then stays on the wall,
    # so h -> delta - log c_beta, C_wet -> 1 and Z_wet(N) -> (e^delta/c_beta)^N
    delta, N = 710.0, 50
    limit = delta - math.log(oracles.c_beta(BETA))
    h = wetting.wetting_free_energy(BETA, delta)
    assert h == pytest.approx(limit, rel=1e-15)
    assert wetting.cwet_constant(BETA, delta) == pytest.approx(1.0, rel=1e-15)
    assert wetting.zwet(BETA, delta, N) == pytest.approx(N * limit, rel=1e-14)
    assert wetting.zwet_direct(BETA, delta, N) == pytest.approx(N * limit,
                                                                rel=1e-14)
    assert exactz.area_wetting_dp(N, 0.0, BETA, delta) == \
        pytest.approx(N * limit, rel=1e-14)


def test_very_negative_delta_stays_finite():
    # a single return at the end: Z_wet(N) = e^delta K(N) (1 + O(e^delta))
    delta, N = -800.0, 10
    want = delta + math.log(wetting.return_kernel(BETA, N).k[N])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = wetting.zwet(BETA, delta, N)
        direct = wetting.zwet_direct(BETA, delta, N)
    assert series == pytest.approx(direct, rel=1e-12)
    assert series == pytest.approx(want, rel=1e-12)
    assert direct == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: wetting.wetting_free_energy(math.nan, 1.0),
    lambda: wetting.wetting_free_energy(BETA, math.nan),
    lambda: wetting.return_kernel(math.nan, 10),
    lambda: wetting.zwet(BETA, math.nan, 10),
    lambda: wetting.zwet_direct(BETA, math.nan, 10),
    lambda: wetting.cwet_constant(BETA, math.nan),
    lambda: exactz.area_wetting_dp(10, 0.0, BETA, math.nan),
    lambda: exactz.d_circ(2, 1.0, BETA, math.nan),
    lambda: exactz.d_circ(2, 1.0, BETA, math.inf),
    lambda: exactz.d_circ(2, 1.0, BETA, -math.inf),
    lambda: exactz.z_circ_from_walks(10, BETA, math.nan),
    lambda: exactz.z_circ_from_walks(10, BETA, math.inf),
    lambda: exactz.z_circ_from_walks(10, BETA, -math.inf),
    lambda: exactz.z_constrained_from_walks(10, BETA, math.nan),
    lambda: exactz.z_constrained_from_walks(10, BETA, math.inf),
    lambda: exactz.z_constrained_from_walks(10, BETA, -math.inf),
])
def test_nan_inputs_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        wetting.zwet(BETA, 0.0, -1)
    with pytest.raises(ValueError):
        wetting.zwet_direct(BETA, 0.0, -1)


def test_positive_bridge_zero_steps():
    # zwet_direct at delta = 0 is the positive bridge from 0 back to 0
    assert wetting.zwet_direct(BETA, 0.0, 0) == 0.0


def test_logsumexp_c_matches_mpmath():
    # terms spread over up to +-2000 in log scale, against 50-digit sums;
    # the scaled terms are summed correctly rounded, so the result is off by
    # about one rounding of the log and of m + log(sum)
    rng = np.random.default_rng(7)
    with mpmath.workdps(50):
        for n in (1, 2, 10, 1000):
            for scale in (1.0, 50.0, 700.0):
                terms = rng.normal(0.0, scale, n)
                want = float(mpmath.log(mpmath.fsum(
                    mpmath.exp(mpmath.mpf(float(t))) for t in terms)))
                assert wetting.logsumexp_c(terms) == pytest.approx(
                    want, rel=1e-15, abs=1e-15)
                mixed = np.concatenate((terms, [-math.inf] * 3))
                assert wetting.logsumexp_c(iter(mixed.tolist())) == \
                    pytest.approx(want, rel=1e-15, abs=1e-15)
    assert wetting.logsumexp_c([-math.inf, -math.inf]) == -math.inf
    assert wetting.logsumexp_c(np.full(4, -np.inf)) == -math.inf
    assert wetting.logsumexp_c([]) == -math.inf
    assert wetting.logsumexp_c(np.array([])) == -math.inf


def test_logsumexp_c_refuses_nan_and_keeps_inf():
    with pytest.raises(ValueError, match="term 1 is nan"):
        wetting.logsumexp_c([0.0, math.nan])
    with pytest.raises(ValueError, match="term 0 is nan"):
        wetting.logsumexp_c(np.array([math.nan, -math.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wetting.logsumexp_c([math.inf, 0.0]) == math.inf
        assert wetting.logsumexp_c(iter([-math.inf, math.inf])) == math.inf


@pytest.mark.parametrize("call, named", [
    (lambda: wetting.zwet(2.0, 1.0, 10.5), "N = 10.5"),
    (lambda: wetting.zwet_direct(2.0, 1.0, 10.5), "N = 10.5"),
    (lambda: wetting.return_kernel(2.0, 3.5), "t_max = 3.5"),
], ids=["zwet", "zwet_direct", "return_kernel"])
def test_count_arguments_refuse_what_is_not_a_whole_number(call, named):
    with pytest.raises(ValueError, match=f"^{named} must be a whole number"):
        call()
