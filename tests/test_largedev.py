"""Legendre layer: segment free energy, tilts, rate function, profile."""

import math

import numpy as np
import pytest
import scipy.special

from ipdsaw import largedev, steps, wetting
from ipdsaw.largedev import TiltVector

import oracles

BETA = 2.0
LAW = steps.StepLaw(BETA)


def tv(h0, h1, beta=BETA):
    return TiltVector(h0, h1, beta)


# ---------------------------------------------------------------------------
# segment free energy l_lambda
# ---------------------------------------------------------------------------

def test_l_lambda_zero():
    assert largedev.l_lambda(tv(0.0, 0.0)) == 0.0


def test_l_lambda_constant_integrand():
    for h1 in (-0.7, 0.2, 0.9):
        assert largedev.l_lambda(tv(0.0, h1)) == \
            pytest.approx(oracles.log_mgf(LAW, h1), rel=1e-13)


def test_l_lambda_matches_dense_trapezoid():
    for beta, h0, h1 in ((BETA, 0.6, 0.1), (BETA, 1e-7, 0.5),
                         (0.5, -0.3, 0.2), (7.5, 2.0, 1.0)):
        got = largedev.l_lambda(tv(h0, h1, beta))
        assert got == pytest.approx(
            oracles.trapezoid_l_lambda(beta, h0, h1), abs=1e-9)


def oracle_grid(beta):
    """Tilts for the quadrature oracle: small |h0| on both sides of the
    series switch, and segments ending 1e-3 to 1e-9 from the boundary."""
    b2 = 0.5 * beta
    pts = [(h0, h1)
           for h1 in (0.0, 0.4 * b2, -0.9 * b2, b2 - 1e-3, -(b2 - 1e-6))
           for h0 in (0.0, 1e-12, -1e-9, 1e-7, -1e-5, 3e-5, -1e-3, 0.3, -2.0)]
    for gap in (1e-3, 1e-6, 1e-9):
        pts += [((b2 - gap) - h1, h1) for h1 in (0.0, -0.5 * b2, b2 - 2 * gap)]
        pts.append((0.4 * b2, gap - b2))
    return [(h0, h1) for h0, h1 in pts if tv(h0, h1, beta).in_domain()]


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.5])
def test_l_lambda_matches_quadrature_oracle(beta):
    for h0, h1 in oracle_grid(beta):
        assert largedev.l_lambda(tv(h0, h1, beta)) == pytest.approx(
            oracles.l_lambda_quad(beta, h0, h1), rel=0.0, abs=1e-13), (h0, h1)


def test_dilog_mean_matches_scipy_spence():
    # the primitive is (Li_2(e^b) - Li_2(e^a)) / (b - a), Li_2(z) = spence(1 - z);
    # e^{-800} underflows, so against that end it is Li_2(z) / (log z + 800)
    ws = (1.0 - 1e-12, 1.0 - 1e-6, 0.9, 0.5, 0.41, 0.39, 0.2, 1e-3, 1e-6, 1e-12)
    for w in ws:
        g = math.log1p(-w)
        got = (g + 800.0) * largedev._mean_log_gap(g, -800.0)
        assert got == pytest.approx(scipy.special.spence(w), rel=1e-14), w
    for wa in ws:
        for wb in ws:
            a, b = math.log1p(-wa), math.log1p(-wb)
            if abs(a - b) > 0.1:
                want = (scipy.special.spence(wb) - scipy.special.spence(wa)) / (b - a)
                assert largedev._mean_log_gap(a, b) == pytest.approx(
                    want, rel=1e-13), (wa, wb)


def test_l_lambda_gap_below_double_resolution():
    # the gap at t = 0 is 5.6e-17, so e^{gap} rounds to 1: the reflection
    # branch must not take log1p(-1)
    h = tv(-0.3, math.nextafter(0.25, 0.0), 0.5)
    s0, s1, u0, u1 = largedev._end_gaps(h)
    want = (2.0 * math.log(-math.expm1(-0.25)) + oracles.mean_log_gap_mp(s0, s1)
            + oracles.mean_log_gap_mp(u0, u1))
    assert largedev.l_lambda(h) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("gap", [1e-17, 1e-30, 1e-300])
def test_mean_log_gap_near_gaps_match_mpmath(gap):
    for b in (-1e-3, -0.3, -2.0, -40.0):
        got = largedev._mean_log_gap(-gap, b)
        want = oracles.mean_log_gap_mp(-gap, b)
        assert got == pytest.approx(float(want), rel=1e-13), b


def test_l_lambda_rejects_outside_domain():
    bad = tv(0.3, 0.85)  # |h0 + h1| = 1.15 >= beta/2
    assert not bad.in_domain()
    with pytest.raises(ValueError):
        largedev.l_lambda(bad)


def test_finite_n_domain_is_larger():
    h = tv(0.3, 0.84)  # outside D_beta, inside D_{beta,2}
    assert not h.in_domain()
    assert h.in_domain(2)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_grad_at_zero():
    assert largedev.grad_l_lambda(tv(0.0, 0.0)) == (0.0, 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        h1 = rng.uniform(-0.9, 0.9)
        h0 = rng.uniform(-0.9 - h1, 0.9 - h1)
        if abs(h0) < 5e-3:
            continue
        q, p = largedev.grad_l_lambda(tv(h0, h1))
        fq = oracles.central_diff(
            lambda a: largedev.l_lambda(tv(a, h1)), h0, 1e-6)
        fp = oracles.central_diff(
            lambda a: largedev.l_lambda(tv(h0, a)), h1, 1e-6)
        assert q == pytest.approx(fq, rel=1e-5, abs=1e-8)
        assert p == pytest.approx(fp, rel=1e-5, abs=1e-8)
        checked += 1


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.5])
def test_grad_matches_quadrature_oracle(beta):
    for h0, h1 in oracle_grid(beta):
        got = largedev.grad_l_lambda(tv(h0, h1, beta))
        want = oracles.grad_quad(beta, h0, h1)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-11, abs=1e-11), (h0, h1)


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.5])
def test_hessian_matches_quadrature_oracle(beta):
    for h0, h1 in oracle_grid(beta):
        got = largedev._hessian_l_lambda(tv(h0, h1, beta))
        want = oracles.hessian_quad(beta, h0, h1)
        np.testing.assert_allclose(got, want, rtol=1e-6, err_msg=f"{(h0, h1)}")


def test_grad_h0_zero_branch():
    for h1 in (-0.6, 0.15, 0.8):
        lp = oracles.central_diff(lambda a: oracles.log_mgf(LAW, a), h1, 1e-6)
        q, p = largedev.grad_l_lambda(tv(0.0, h1))
        assert q == pytest.approx(0.5 * lp, rel=1e-8, abs=1e-9)
        assert p == pytest.approx(lp, rel=1e-8, abs=1e-9)


# ---------------------------------------------------------------------------
# inverse tilt and duality
# ---------------------------------------------------------------------------

def test_tilt_inverse_origin():
    got = largedev.tilt_inverse(0.0, 0.0, BETA)
    assert abs(got.h0) < 1e-12 and abs(got.h1) < 1e-12


def test_tilt_inverse_diagonal_forces_h0_zero():
    # p = 2q can be realized with a constant tilt: h0 = 0, L'(h1) = 2q
    for q in (0.2, 0.7, 1.4):
        got = largedev.tilt_inverse(q, 2 * q, BETA)
        assert abs(got.h0) < 1e-8
        lp = oracles.central_diff(
            lambda a: oracles.log_mgf(LAW, a), got.h1, 1e-6)
        assert lp == pytest.approx(2 * q, rel=1e-6)


def test_tilt_inverse_positive_h0_below_diagonal():
    for q in (0.3, 0.8, 1.5, 2.5):
        for p in (2 * q - 0.4, 0.0, -0.8):
            assert largedev.tilt_inverse(q, p, BETA).h0 > 0.0


def test_duality_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(40):
        q, p = rng.uniform(-2.5, 2.5, 2)
        h = largedev.tilt_inverse(q, p, BETA)
        assert h.in_domain()
        got = largedev.grad_l_lambda(h)
        assert got[0] == pytest.approx(q, abs=2e-10)
        assert got[1] == pytest.approx(p, abs=2e-10)


@pytest.mark.parametrize("beta, n, q, p", [
    (0.05, None, 0.5, 0.0),             # nearly flat step law
    (0.05, None, 2.0, -1.0),
    (50.0, None, 0.1, 0.0),             # nearly frozen step law
    (50.0, None, 0.05, 0.1 * (1 - 1e-6)),
    (2.0, None, 1.0, 2.0 * (1 + 1e-6)),  # either side of the diagonal h0 = 0
    (2.0, None, 1.0, 2.0 * (1 - 1e-6)),
    (2.0, None, 0.7, -0.7),
    (2.0, None, 6.9, 0.0),              # gap to the boundary about 3e-7
    (2.0, 2, 0.5, 0.3),                 # fewest steps
    (2.0, 3, -1.0, 0.4),
    (0.5, 1000, 53.25, 0.0),            # only a double a few ulps off the
    (2.0, 100, 53.5, 0.0),              # last Newton iterate meets 1e-10
])
def test_tilt_solver_edges(beta, n, q, p):
    if n is None:
        h = largedev.tilt_inverse(q, p, beta)
        got = largedev.grad_l_lambda(h)
    else:
        h = largedev.finite_tilt(n, q, p, beta)
        got = largedev.grad_finite_l_lambda(n, h)
    assert math.hypot(got[0] - q, got[1] - p) <= 1e-10


@pytest.mark.parametrize("n", [None, 100])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["q", "p"])
def test_tilt_rejects_non_finite_gradient(name, bad, n):
    # Newton on a non-finite target ends in a residual of nan or inf, which
    # would blame the domain boundary; the argument is named instead
    q, p = (bad, 0.0) if name == "q" else (0.5, bad)
    with pytest.raises(ValueError, match=f"finite gradient: {name} = {bad}$"):
        if n is None:
            largedev.tilt_inverse(q, p, BETA)
        else:
            largedev.finite_tilt(n, q, p, BETA)


@pytest.mark.parametrize("solve", [
    lambda beta: largedev.tilt_inverse(0.5, 0.0, beta),
    lambda beta: largedev.finite_tilt(100, 0.5, 0.0, beta),
    lambda beta: largedev.rate_g(0.5, 0.0, beta)],
    ids=["tilt_inverse", "finite_tilt", "rate_g"])
@pytest.mark.parametrize("beta", [math.inf, -2.0, 0.0, math.nan])
def test_tilt_solvers_validate_beta(solve, beta):
    # checked before Newton: not the domain boundary, a math domain error or
    # a TiltVector outside D_beta
    with pytest.raises(ValueError,
                       match=f"beta must be positive and finite, got {beta}$"):
        solve(beta)


def test_tilt_past_double_precision_rejected():
    # the tilt's gap to the boundary is far below what a double resolves
    with pytest.raises(ValueError, match=r"\(q, p\) = \(100, 0\), beta = 2\.0"):
        largedev.tilt_inverse(100, 0, BETA)


# ---------------------------------------------------------------------------
# rate function g
# ---------------------------------------------------------------------------

def test_rate_zero_at_origin():
    assert abs(largedev.rate_g(0.0, 0.0, BETA)) < 1e-12


def test_rate_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(25):
        q, p = rng.uniform(-2.0, 2.0, 2)
        assert largedev.rate_g(q, p, BETA) >= -1e-12


def test_rate_midpoint_convex():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z1 = rng.uniform(-2.0, 2.0, 2)
        z2 = rng.uniform(-2.0, 2.0, 2)
        mid = 0.5 * (z1 + z2)
        g1 = largedev.rate_g(z1[0], z1[1], BETA)
        g2 = largedev.rate_g(z2[0], z2[1], BETA)
        gm = largedev.rate_g(mid[0], mid[1], BETA)
        assert gm <= 0.5 * (g1 + g2) + 1e-10


def test_rate_frozen_value():
    assert largedev.rate_g(0.5, 0.0, BETA) == \
        pytest.approx(0.5435051390781055, rel=1e-10)


# ---------------------------------------------------------------------------
# finite-n tilts
# ---------------------------------------------------------------------------

def test_finite_tilt_origin():
    got = largedev.finite_tilt(64, 0.0, 0.0, BETA)
    assert abs(got.h0) < 1e-12 and abs(got.h1) < 1e-12


def test_finite_tilt_gap_scales_like_inverse_n():
    ht = largedev.tilt_inverse(0.5, 0.0, BETA)
    prods = []
    for n in (50, 100, 200, 400, 800, 1600, 3200):
        hn = largedev.finite_tilt(n, 0.5, 0.0, BETA)
        prods.append(n * math.hypot(hn.h0 - ht.h0, hn.h1 - ht.h1))
    assert max(prods) < 1.0
    assert max(prods) / min(prods) < 1.1


def test_finite_tilt_solves_stationarity():
    for n, q, p in [(50, 0.5, 0.0), (200, 1.2, -0.5), (800, 0.3, 0.4)]:
        hn = largedev.finite_tilt(n, q, p, BETA)
        gq, gp = largedev.grad_finite_l_lambda(n, hn)
        assert gq == pytest.approx(q, abs=1e-10)
        assert gp == pytest.approx(p, abs=1e-10)


def test_finite_l_lambda_rejects_n_below_1():
    h = tv(0.3, 0.1)
    assert largedev.finite_l_lambda(1, h) == pytest.approx(
        oracles.log_mgf(LAW, 0.1), rel=1e-13)  # one step, tilted by h1 only
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"n = {n} "):
            largedev.finite_l_lambda(n, h)


def test_grad_finite_l_lambda_rejects_n_below_1():
    h = tv(0.3, 0.1)
    assert largedev.grad_finite_l_lambda(1, h)[0] == 0.0
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"n = {n} "):
            largedev.grad_finite_l_lambda(n, h)


@pytest.mark.parametrize("call", [
    lambda: largedev.finite_l_lambda(2.5, tv(0.3, 0.1)),
    lambda: largedev.finite_tilt(10.5, 0.5, 0.1, 2.0),
], ids=["finite_l_lambda", "finite_tilt"])
def test_step_counts_refuse_what_is_not_a_whole_number(call):
    # a walk of 2.5 or 10.5 steps has no tilt and no L_Lambda
    with pytest.raises(ValueError, match=r"^n = (2|10)\.5 must be a whole number"):
        call()


def test_finite_tilt_rejects_n_below_2():
    hn = largedev.finite_tilt(2, 0.5, 0.0, BETA)
    assert largedev.grad_finite_l_lambda(2, hn) == pytest.approx((0.5, 0.0),
                                                                abs=1e-10)
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match=f"n = {n} "):
            largedev.finite_tilt(n, 0.5, 0.0, BETA)


# ---------------------------------------------------------------------------
# collapse profile
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile_grid():
    pts = []
    for beta in (1.5, 2.0, 3.0):
        top = wetting.critical_curves(beta).delta_circ
        for frac in (0.0, 0.35, 0.85):
            delta = frac * top
            pts.append(largedev.collapse_profile(beta, delta))
    return pts


def test_profile_stationarity(profile_grid):
    for cp in profile_grid:
        assert abs(oracles.phi_prime(cp.a_tilde, cp.beta, cp.delta)) < 1e-8
        f = lambda a: oracles.phi(a, cp.beta, cp.delta)
        h = 1e-3 * cp.a_tilde
        second = (f(cp.a_tilde + h) - 2 * f(cp.a_tilde)
                  + f(cp.a_tilde - h)) / h ** 2
        assert second < 0.0


def test_profile_matches_oracle_root():
    # closed form against the root of phi' through the numerical tilt solve
    for beta in (1.3, 1.5, 2.0, 3.0, 4.5, 6.0, 7.4):
        top = wetting.critical_curves(beta).delta_circ
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            cp = largedev.collapse_profile(beta, frac * top)
            want = oracles.profile_root(beta, frac * top)
            for got, ref in zip((cp.a_tilde, cp.phi_max, cp.psi), want):
                if ref is None:
                    assert got is None
                else:
                    assert got == pytest.approx(ref, rel=1e-9), (beta, frac)


@pytest.mark.parametrize("beta", [7.5, 12.0, 20.0, 100.0])
def test_profile_matches_mpmath(beta):
    top = wetting.critical_curves(beta).delta_circ
    for delta in (0.0, 0.5 * top, 0.95 * top):
        cp = largedev.collapse_profile(beta, delta)
        want = oracles.profile_mp(beta, delta)
        for got, ref in zip((cp.a_tilde, cp.phi_max, cp.psi), want):
            if ref is None:
                assert got is None
            else:
                assert got == pytest.approx(float(ref), rel=1e-13), delta


def test_profile_negative_and_positive_scale(profile_grid):
    for cp in profile_grid:
        assert cp.phi_max < 0.0
        assert cp.a_tilde > 0.0


def test_profile_h_wet_field(profile_grid):
    for cp in profile_grid:
        assert cp.h_wet == wetting.wetting_free_energy(cp.beta, cp.delta)


def test_profile_psi_only_at_delta_zero(profile_grid):
    for cp in profile_grid:
        if cp.delta == 0.0:
            assert cp.psi is not None and cp.psi < 0.0
        else:
            assert cp.psi is None


def test_profile_frozen_values():
    cp = largedev.collapse_profile(2.0, 1.2)
    assert cp.a_tilde == pytest.approx(0.7771590440433735, rel=1e-8)
    assert cp.phi_max == pytest.approx(-2.397933555200658, rel=1e-8)
    assert cp.h_wet == pytest.approx(0.49790758100394715, rel=1e-12)
    cp0 = largedev.collapse_profile(2.0, 0.0)
    assert cp0.a_tilde == pytest.approx(0.69431333, rel=1e-6)
    assert cp0.phi_max == pytest.approx(-2.76327343, rel=1e-6)
    assert cp0.psi == pytest.approx(-3.109838007875992, rel=1e-8)
    cp13 = largedev.collapse_profile(1.3, 0.0)
    assert cp13.a_tilde == pytest.approx(1.29678991, rel=1e-6)
    assert cp13.phi_max == pytest.approx(-0.50456764, rel=1e-6)
    assert cp13.psi == pytest.approx(-2.5311953815028776, rel=1e-8)
    cp31 = largedev.collapse_profile(3.0, 1.0)
    assert cp31.a_tilde == pytest.approx(0.61246073, rel=1e-6)
    assert cp31.phi_max == pytest.approx(-4.87549068, rel=1e-6)


def test_profile_adsorption_raises_scale():
    base = largedev.collapse_profile(2.0, 0.0).phi_max
    dt = wetting.delta_tilde(2.0)
    for delta in (dt + 0.2, 1.2, 2.4):
        assert largedev.collapse_profile(2.0, delta).phi_max > base


def test_profile_supported_beta_edge():
    # at delta <= delta_tilde the boundary gap is about e^{-2 beta}; it is
    # a normal double up to beta = 354.198, and past that a ValueError
    # names beta, delta and the gap; the step law refuses an infinite beta
    cp = largedev.collapse_profile(354.198, 0.0)
    want = oracles.profile_mp(354.198, 0.0)
    for got, ref in zip((cp.a_tilde, cp.phi_max, cp.psi), want):
        assert got == pytest.approx(float(ref), rel=1e-13)
    for beta, delta in ((354.199, 0.0), (360.0, -5.0), (1e6, 0.0)):
        with pytest.raises(ValueError, match=rf"\({beta}, {delta}\).*gap"):
            largedev.collapse_profile(beta, delta)
    with pytest.raises(ValueError, match="beta must be positive and finite, got inf"):
        largedev.collapse_profile(math.inf, 0.0)
    # a larger delta lifts the gap, so the edge in beta moves out
    cp = largedev.collapse_profile(360.0, 100.0)
    assert math.isfinite(cp.a_tilde) and math.isfinite(cp.phi_max)


def test_profile_outside_collapsed_phase_rejected():
    top = wetting.critical_curves(2.0).delta_circ
    with pytest.raises(ValueError):
        largedev.collapse_profile(2.0, top + 1e-6)
    with pytest.raises(ValueError):
        largedev.collapse_profile(1.0, 0.0)  # below the collapse threshold


def test_phi_matches_expanded_display():
    # a (2 log Gamma + h - g(q,0)) with g expanded through its tilt
    for a in (0.4, 0.7771590440433735, 1.3):
        for delta in (0.0, 1.2):
            q = 0.5 / (a * a)
            h = largedev.tilt_inverse(q, 0.0, BETA)
            c = (2.0 * math.log(LAW.gamma_beta)
                 + wetting.wetting_free_energy(BETA, delta))
            display = a * (c - q * h.h0 + largedev.l_lambda(h))
            assert oracles.phi(a, BETA, delta) == \
                pytest.approx(display, rel=1e-10)


def test_profile_delta_slope_envelope():
    # d Phi / d delta = a_tilde * h'(delta): only the explicit delta
    # dependence survives at the maximizer; the centred difference of Phi
    # is the second route
    cp = largedev.collapse_profile(2.0, 1.2)
    hp = oracles.central_diff(
        lambda d: wetting.wetting_free_energy(2.0, d), 1.2, 1e-5)
    got = largedev.phi_max_ddelta(2.0, 1.2)
    assert got == pytest.approx(cp.a_tilde * hp, rel=1e-4)
    fd = oracles.central_diff(
        lambda d: largedev.collapse_profile(2.0, d).phi_max, 1.2, 1e-4)
    assert got == pytest.approx(fd, rel=1e-8)
    assert got == pytest.approx(0.6967064814, rel=1e-10)
    # no contacts below the wetting transition
    assert largedev.phi_max_ddelta(2.0, 0.5 * wetting.delta_tilde(2.0)) == 0.0


# ---------------------------------------------------------------------------
# Airy constant and meander rate
# ---------------------------------------------------------------------------

def test_airy_zero_value():
    a1 = largedev.airy_first_zero()
    assert a1 == pytest.approx(-2.3381074105, abs=1e-9)
    ref = -scipy.special.ai_zeros(1)[0][0]
    assert a1 == pytest.approx(-abs(ref), abs=1e-11)
    assert abs(scipy.special.airy(a1)[0]) < 1e-10


def test_airy_bracket_sign_change():
    assert scipy.special.airy(-3.0)[0] * scipy.special.airy(-2.0)[0] < 0


def test_meander_rate_values():
    a1 = largedev.airy_first_zero()
    assert largedev.meander_rate(1.0) == \
        pytest.approx(-2.0 ** (-1.0 / 3.0) * abs(a1), rel=1e-12)
    assert largedev.meander_rate(1.0) == pytest.approx(-1.85575, abs=1e-5)
    assert largedev.meander_rate(8.0) / largedev.meander_rate(1.0) == \
        pytest.approx(4.0, rel=1e-12)


def test_meander_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        largedev.meander_rate(0.0)
    with pytest.raises(ValueError):
        largedev.meander_rate(-2.0)
    for gamma in (math.nan, math.inf):  # nan read nan before
        with pytest.raises(ValueError, match="gamma"):
            largedev.meander_rate(gamma)
