"""Large-deviation layer: Legendre transforms, tilted walks, collapse profile.

The cumulant generating function of a single step is L(h) = log E[e^{hX}].
For the area/endpoint pair of an n-step walk, Lambda_n = (A_n/n, X_n), the
scaled generating function converges to the integrated version

    L_Lambda(h0, h1) = int_0^1 L(x h0 + h1) dx,

finite on D_beta = {|h1| < beta/2, |h0 + h1| < beta/2}.  This module
provides L_Lambda, its gradient, the inverse tilt h~(q, p) solving
grad L_Lambda(h~) = (q, p), the rate function g = Legendre transform, the
finite-n analogues (n >= 1 steps, n >= 2 for the finite-n tilt), and on
top of these the collapsed-phase profile: the bead-scale variational
function

    phi(a) = a * (2 log Gamma + h_beta(delta) - g(1/(2 a^2), 0)),

its maximizer a~, the limit free energy Phi = phi(a~), and the subleading
correction constant Psi (delta = 0), which involves the first zero of the
Airy function through the meander rate J(gamma) = -2^{-1/3} |a_1| gamma^{2/3}.

L is a sum of logarithms, so L_Lambda is in closed form: a difference of
dilogarithms divided by h0.  The gradient and the Newton Hessian follow by
parts from L, L' and L_Lambda, with a series in h0 near h0 = 0; no
quadrature is involved (adaptive quadrature is kept as the test oracle).

The inverse tilt minimizes the strictly convex L_Lambda(h) - q h0 - p h1
(or its n-step analogue) by damped Newton from h = 0.  Double precision
bounds its reach: at p = 0 the limit solve fails once the tilt's gap to
the domain boundary falls to about 3e-7 (q near 25, 7, 1.45 and 0.3 at
beta = 0.5, 2, 10 and 50), with a ValueError.

At p = 0 the tilt equation of the profile maximizer is a quadratic, so the
collapse profile is in closed form with no solve (the root of phi' through
the tilt solve is kept as the test oracle).  It is supported for
beta <= 354.198 at every delta of the collapsed phase (see
``collapse_profile``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .steps import StepLaw, _count
from .wetting import _delta_at_h, delta_tilde, wetting_free_energy

__all__ = [
    "TiltVector",
    "CollapseProfile",
    "l_lambda",
    "grad_l_lambda",
    "tilt_inverse",
    "rate_g",
    "finite_l_lambda",
    "grad_finite_l_lambda",
    "finite_tilt",
    "collapse_profile",
    "phi_max_ddelta",
    "airy_first_zero",
    "meander_rate",
]


@dataclass(frozen=True)
class TiltVector:
    """A point (h0, h1) of tilt space attached to its beta.

    The asymptotic domain is D_beta (|h1| < beta/2 and |h0+h1| < beta/2);
    finite-n objects live on the slightly larger D_{beta,n} where the
    second condition is relaxed to |(1-1/n) h0 + h1| < beta/2.
    """

    h0: float
    h1: float
    beta: float

    def in_domain(self, n: int | None = None) -> bool:
        b2 = 0.5 * self.beta
        edge = (1.0 - 1.0 / n) * self.h0 + self.h1 if n else self.h0 + self.h1
        return abs(self.h1) < b2 and abs(edge) < b2


# -- closed forms for L and its derivatives ---------------------------------
#
# With x = e^{-beta/2} the key quantity 1 - x e^{a} equals -expm1(a - beta/2),
# which keeps full relative precision arbitrarily close to the domain
# boundary |a| = beta/2 (direct subtraction loses all digits there).

def _tail_ratio(g):
    """Geometric tail ratio e^g / (1 - e^g) at boundary gap g < 0; vectorized."""
    return np.exp(g) / -np.expm1(g)


def _l_from_gaps(beta: float, s, u):
    """L from boundary gaps s = h - b/2, u = -h - b/2; vectorized."""
    return (2.0 * math.log(-math.expm1(-0.5 * beta))
            - np.log(-np.expm1(s)) - np.log(-np.expm1(u)))


def _l_derivs(s, u) -> tuple:
    """(L', L'', L''', L'''') at boundary gaps (s, u); vectorized."""
    uu, vv = _tail_ratio(s), _tail_ratio(u)
    pu, pv = uu * (1.0 + uu), vv * (1.0 + vv)   # d uu/dh and -d vv/dh
    return (uu - vv, pu + pv, pu * (1.0 + 2.0 * uu) - pv * (1.0 + 2.0 * vv),
            pu * (1.0 + 6.0 * uu * (1.0 + uu)) + pv * (1.0 + 6.0 * vv * (1.0 + vv)))


def _end_gaps(h: TiltVector) -> tuple:
    """Boundary gaps (s0, s1, u0, u1) = (a - beta/2, -a - beta/2) at both
    ends of a(t) = h0 t + h1."""
    b2 = 0.5 * h.beta
    top = h.h0 + h.h1
    # rounding residue of h0 + h1 (TwoSum); the gap at t = 1 can be ~1e-8
    # while the residue is ~1e-16, so it cannot be dropped
    lo = (h.h0 - top) + h.h1 if abs(h.h0) >= abs(h.h1) else (h.h1 - top) + h.h0
    return h.h1 - b2, (top - b2) + lo, -h.h1 - b2, (-top - b2) - lo


def _require_domain(h: TiltVector, n: int | None = None) -> None:
    if not h.in_domain(n):
        raise ValueError(f"{h} outside D_beta" + (f",n for n = {n}" if n else ""))


# power series in a ratio <= 0.6: 72 terms leave < 1e-17
_K = np.arange(1.0, 73.0)
_INV_K2 = 1.0 / (_K * _K)
_SPLIT = math.log(0.6)


def _mean_log_gap(a: float, b: float) -> float:
    """Mean of -log(1 - e^g) over g between a and b (both < 0).

    That is (Li_2(e^b) - Li_2(e^a)) / (b - a), summed termwise without
    cancellation as the endpoints close up: the power series where
    e^g <= 0.6, the reflection Li_2(z) = pi^2/6 - log z log(1 - z)
    - Li_2(1 - z) in w = 1 - e^g above, split at e^g = 0.6.
    """
    if a < b:
        a, b = b, a              # a nearer the boundary, d <= 0
    d = b - a
    if d == 0.0:
        return -math.log(-math.expm1(a))
    if b < _SPLIT < a:
        return ((_SPLIT - a) * _mean_log_gap(a, _SPLIT)
                + (b - _SPLIT) * _mean_log_gap(_SPLIT, b)) / d
    if a <= _SPLIT:
        # sum_k (e^{kb} - e^{ka}) / k^2 = sum_k e^{ka} expm1(k d) / k^2
        return float(math.exp(a) ** _K @ (np.expm1(_K * d) * _INV_K2)) / d
    # -d log w_b + a r + sum_k w_b^k expm1(k r) / k^2 with r = log(w_a / w_b)
    wb = -math.expm1(b)
    r = _log_gap_ratio(b, a, -d)
    tail = float(wb ** _K @ (np.expm1(_K * r) * _INV_K2))
    return -math.log(wb) + (a * r + tail) / d


def l_lambda(h: TiltVector) -> float:
    """L_Lambda(h) = int_0^1 L(x h0 + h1) dx in closed form.

    L(a) = 2 log(1 - x) - log(1 - e^s) - log(1 - e^u) with the boundary
    gaps s, u linear along the segment, so each log term integrates to a
    divided difference of dilogarithms (``_mean_log_gap``).
    """
    _require_domain(h)
    s0, s1, u0, u1 = _end_gaps(h)
    return (2.0 * math.log(-math.expm1(-0.5 * h.beta))
            + _mean_log_gap(s0, s1) + _mean_log_gap(u0, u1))


def _use_series(h: TiltVector, s0: float, u0: float) -> bool:
    """Series in h0 (radius gap = distance of h1 to the boundary, capped at 1)
    while |h0| < 1e-3 gap: by parts loses ~eps gap/|h0|, the series ~(h0/gap)^4."""
    return abs(h.h0) < 1e-3 * min(1.0, -max(s0, u0))


def _log_gap_ratio(g0: float, g1: float, dg: float) -> float:
    """log((1 - e^{g1}) / (1 - e^{g0})) given the exact step dg = g1 - g0:
    log1p of -tail(g0) expm1(dg) while the ratio is above 1/2."""
    y = -_tail_ratio(g0) * math.expm1(dg)
    if y > -0.5:
        return math.log1p(y)
    return math.log(-math.expm1(g1)) - math.log(-math.expm1(g0))


def grad_l_lambda(h: TiltVector) -> tuple:
    """Gradient of L_Lambda; integration by parts, series near h0 = 0.

    For h0 != 0 integration is explicit:
        d/dh0 = (L(h0+h1) - L_Lambda(h)) / h0,
        d/dh1 = (L(h0+h1) - L(h1)) / h0,
    the second written as an exact divided difference of log(1 - e^g).
    """
    _require_domain(h)
    h0 = h.h0
    s0, s1, u0, u1 = _end_gaps(h)
    if _use_series(h, s0, u0):
        l1, l2, l3, l4 = _l_derivs(s0, u0)
        g0 = l1 / 2.0 + h0 * (l2 / 3.0 + h0 * (l3 / 8.0 + h0 * l4 / 30.0))
        g1 = l1 + h0 * (l2 / 2.0 + h0 * (l3 / 6.0 + h0 * l4 / 24.0))
    else:
        g0 = (_l_from_gaps(h.beta, s1, u1) - l_lambda(h)) / h0
        g1 = -(_log_gap_ratio(s0, s1, h0) + _log_gap_ratio(u0, u1, -h0)) / h0
    return float(g0), float(g1)


def _hessian_l_lambda(h: TiltVector, grad=None) -> np.ndarray:
    """Hessian int t^{2-i-j} L''(h0 t + h1) dt, by parts from L', grad."""
    h0 = h.h0
    s0, s1, u0, u1 = _end_gaps(h)
    if _use_series(h, s0, u0):
        _, l2, l3, l4 = _l_derivs(s0, u0)
        h00 = l2 / 3.0 + h0 * (l3 / 4.0 + h0 * l4 / 10.0)
        h01 = l2 / 2.0 + h0 * (l3 / 3.0 + h0 * l4 / 8.0)
        h11 = l2 + h0 * (l3 / 2.0 + h0 * l4 / 6.0)
    else:
        g0, g1 = grad_l_lambda(h) if grad is None else grad
        top = _l_derivs(s1, u1)[0]
        h00 = (top - 2.0 * g0) / h0
        h01 = (top - g1) / h0
        h11 = (top - _l_derivs(s0, u0)[0]) / h0
    return np.array([[h00, h01], [h01, h11]])


# -- inverse tilts ----------------------------------------------------------

_ARMIJO = 1e-4  # share of the predicted decrease of F a damped step must reach


def _solve_tilt(q: float, p: float, beta: float, n: int | None) -> TiltVector:
    """The tilt with gradient (q, p), residual < 1e-10; n = None for the limit.

    Damped Newton from h = 0 on the strictly convex F(h) = L_Lambda(h)
    - q h0 - p h1: each step is halved until the trial is inside the domain
    and F falls by the Armijo share of the predicted decrease, unless that
    share is below the rounding of F, where the full step is taken.  Once
    a step no longer moves h, the tilt is the double of least residual
    within two ulps of h per coordinate; if even that misses the
    tolerance, a ValueError names the point and the residual.  A beta
    that is not positive and finite, or a non-finite q or p, is named
    before Newton starts.
    """
    StepLaw(beta)  # names a beta that is not positive and finite
    for name, x in (("q", q), ("p", p)):
        if not math.isfinite(x):
            raise ValueError(f"tilt inversion needs a finite gradient: "
                             f"{name} = {x}")
    if n is None:
        value, grad, hess = l_lambda, grad_l_lambda, _hessian_l_lambda
    else:
        value, grad, hess = (partial(fn, n) for fn in (
            finite_l_lambda, grad_finite_l_lambda, _finite_hessian))
    # the log terms of L_Lambda, of size |log(1 - x)|, cancel near h = 0
    cancel = -4.0 * math.log(-math.expm1(-0.5 * beta))
    h = TiltVector(0.0, 0.0, beta)
    f, g = value(h), grad(h)
    for _ in range(100):
        res = np.array([g[0] - q, g[1] - p])
        if math.hypot(*res) < 1e-10:
            return h
        try:
            step = np.linalg.solve(hess(h, g), -res)
        except np.linalg.LinAlgError:  # singular in doubles
            break
        if not np.isfinite(step).all():
            break
        drop = _ARMIJO * float(res @ step)  # < 0
        size = cancel + abs(f) + abs(q * h.h0) + abs(p * h.h1)
        plain = -drop < sys.float_info.epsilon * size
        lam = 1.0
        while True:
            trial = TiltVector(h.h0 + lam * step[0], h.h1 + lam * step[1], beta)
            if trial == h or trial.in_domain(n) and (
                    plain or value(trial) - q * trial.h0 - p * trial.h1
                    <= f - q * h.h0 - p * h.h1 + lam * drop):
                break
            lam *= 0.5
        if trial == h:
            break
        h, f, g = trial, value(trial), grad(trial)
    near = (TiltVector(h.h0 + i * math.ulp(h.h0), h.h1 + j * math.ulp(h.h1), beta)
            for i in range(-2, 3) for j in range(-2, 3))
    nr, h = min(((math.hypot(*np.subtract(grad(t), (q, p))), t)
                 for t in near if t.in_domain(n)), key=lambda c: c[0])
    if nr < 1e-10:
        return h
    raise ValueError(
        f"tilt inversion failed at (q, p) = ({q}, {p}), beta = {beta}, "
        f"n = {n or 'inf'}: residual {nr:.2e} above the tolerance 1e-10 "
        "(within about 3e-7 of the domain boundary no double tilt may meet it)")


def tilt_inverse(q: float, p: float, beta: float) -> TiltVector:
    """The tilt h~(q, p) with grad L_Lambda(h~) = (q, p), residual < 1e-10:
    the minimizer of L_Lambda(h) - q h0 - p h1 by damped Newton from h = 0."""
    return _solve_tilt(q, p, beta, None)


def rate_g(q: float, p: float, beta: float) -> float:
    """Rate function g(q, p) = h~.(q, p) - L_Lambda(h~) (Legendre transform)."""
    return _legendre(q, p, tilt_inverse(q, p, beta))[1]


def _legendre(q: float, p: float, h: TiltVector, n: int | None = None) -> tuple:
    """(Lambda(h), q h0 + p h1 - Lambda(h)) at the tilt h of (q, p), with
    Lambda = L_Lambda (n None) or the n-step (1/n) L_{Lambda,n}: the
    value and the Legendre rate of ``rate_g`` and of ``ipdsaw tilt``."""
    value = l_lambda(h) if n is None else finite_l_lambda(n, h)
    return value, q * h.h0 + p * h.h1 - value


# -- finite-n versions ------------------------------------------------------

def _finite_gaps(n: int, h: TiltVector):
    """Per-increment boundary gaps for tilts (1 - k/n) h0 + h1, k = 1..n,
    interpolated between their exact endpoint values."""
    lam = 1.0 - np.arange(1, n + 1) / n
    s0, s1, u0, u1 = _end_gaps(h)
    w = 1.0 - lam
    return s0 * w + s1 * lam, u0 * w + u1 * lam, lam


def finite_l_lambda(n: int, h: TiltVector) -> float:
    """(1/n) sum_{k=1}^n L((1 - k/n) h0 + h1): the n-step analogue of L_Lambda."""
    n = _count(n, "n", 1, "the walk needs a step")
    _require_domain(h, n)
    s, u, _ = _finite_gaps(n, h)
    return float(_l_from_gaps(h.beta, s, u).sum()) / n


def grad_finite_l_lambda(n: int, h: TiltVector) -> tuple:
    n = _count(n, "n", 1, "the walk needs a step")
    _require_domain(h, n)
    s, u, lam = _finite_gaps(n, h)
    l1 = _tail_ratio(s) - _tail_ratio(u)
    return (float((lam * l1).sum()) / n, float(l1.sum()) / n)


def _finite_hessian(n: int, h: TiltVector, grad=None) -> np.ndarray:
    s, u, w = _finite_gaps(n, h)
    l2 = _l_derivs(s, u)[1]
    return np.array([[float((w * w * l2).sum()), float((w * l2).sum())],
                     [float((w * l2).sum()), float(l2.sum())]]) / n


def finite_tilt(n: int, q: float, p: float, beta: float) -> TiltVector:
    """Inverse of the n-step gradient: grad (1/n) L_{Lambda,n}(h) = (q, p),
    by the damped Newton of ``tilt_inverse`` on D_{beta,n}."""
    n = _count(n, "n", 2, "at n = 1 the gradient's q component is 0 for every h")
    return _solve_tilt(q, p, beta, n)


# -- collapse profile -------------------------------------------------------

@dataclass(frozen=True)
class CollapseProfile:
    """phi maximizer and limit constants at one (beta, delta)."""

    beta: float
    delta: float
    a_tilde: float
    phi_max: float
    psi: float | None
    h_wet: float


def collapse_profile(beta: float, delta: float) -> CollapseProfile:
    """Maximize phi over a > 0, in closed form, inside the collapsed phase.

    At p = 0 the tilt is h = (h0, -h0/2), and by parts q h0 + L_Lambda(h)
    = L(h0/2), so phi'(a) = c + L(h0/2) with c = 2 log Gamma_beta +
    h_beta(delta), and the maximizer's tilt solves L(theta) = -c,
    theta = h0/2.  That is a quadratic in e^theta: its near boundary gap
    s = theta - beta/2 is s = log1p(-w), where w = 1 - e^s is the small
    root of w^2 - (1 - x^2 + r) w + r = 0, r = (1 - x)^2 e^c.  That is the
    quadratic of h_beta = -c, so w = e^{-delta*} with delta* the closed
    form ``wetting._delta_at_h(beta, -c)``.  Everything follows from s,
    held exactly: h0 = beta + 2 s, L_Lambda = 2 log(1 - x)
    + 2 mean_log_gap(s, -beta - s), q = (-c - L_Lambda) / h0,
    a~ = (2 q)^{-1/2} and Phi = phi(a~) = 2 a~ (c + L_Lambda).  The
    numerical route (a root of phi' through the tilt solve) is the test
    oracle.

    The collapsed phase is c < 0, that is delta < delta_circ; no delta
    qualifies when beta <= beta_c.  Supported region: every such point
    whose gap -s is a normal double.  The gap is smallest, about
    e^{-2 beta}, at delta <= delta_tilde, so the region holds
    beta <= 354.198 at every delta of the collapsed phase, and larger beta
    as delta grows towards delta_circ.  Past it a ValueError names beta,
    delta and the gap.
    """
    law = StepLaw(beta)
    h_wet = wetting_free_energy(beta, delta)
    c = 2.0 * (math.log(law.c_beta) - beta) + h_wet
    if not c < 0.0:
        raise ValueError(
            f"(beta, delta) = ({beta}, {delta}) outside the collapsed phase "
            f"(2 log Gamma + h_beta(delta) = {c:.6g} >= 0)")
    s = math.log1p(-math.exp(-_delta_at_h(beta, -c)))
    if not -s >= sys.float_info.min:
        raise ValueError(
            f"collapse profile at (beta, delta) = ({beta}, {delta}) is outside "
            f"the supported region: its boundary gap {-s:.3g} is below the "
            f"smallest normal double")
    h0 = beta + 2.0 * s
    l_lam = 2.0 * math.log1p(-law.x) + 2.0 * _mean_log_gap(s, -beta - s)
    a_tilde = (2.0 * (-c - l_lam) / h0) ** -0.5
    psi = None
    if delta == 0.0:
        psi = -abs(airy_first_zero()) * (
            a_tilde * law.sigma2 * h0 * h0 / 2.0) ** (1.0 / 3.0)
    return CollapseProfile(beta, delta, a_tilde, 2.0 * a_tilde * (c + l_lam),
                           psi, h_wet)


def phi_max_ddelta(beta: float, delta: float) -> float:
    """d Phi / d delta = a~ h'_beta(delta), the contact-density limit.

    By the envelope theorem only the explicit delta dependence of phi
    survives at its maximizer.  With y = e^{-delta},
    h' = 1/(1 - y) - y/(1 - y - x^2) = (1 - y - x)(1 - y + x)
    / ((1 - y)(1 - y - x^2)) above delta_tilde, and h' = 0 below.
    """
    a_tilde = collapse_profile(beta, delta).a_tilde
    if delta <= delta_tilde(beta):
        return 0.0
    x = math.exp(-0.5 * beta)
    one_m_y = -math.expm1(-delta)
    return (a_tilde * (one_m_y - x) * (one_m_y + x)
            / (one_m_y * (one_m_y - x * x)))


# -- Airy constants ---------------------------------------------------------

@lru_cache(maxsize=1)
def airy_first_zero() -> float:
    """First (smallest in absolute value) zero a_1 of Ai, by series + bisection."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)

    def ai(z: float) -> float:
        f, g = 1.0, z
        sf, sg = f, g
        z3 = z ** 3
        k = 0
        while abs(f) + abs(g) > 1e-20 * (abs(sf) + abs(sg) + 1.0):
            f *= z3 / ((3 * k + 2) * (3 * k + 3))
            g *= z3 / ((3 * k + 3) * (3 * k + 4))
            sf += f
            sg += g
            k += 1
        return c1 * sf - c2 * sg

    lo, hi = -2.5, -2.0          # Ai(-2.5) < 0 < Ai(-2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ai(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def meander_rate(gamma: float) -> float:
    """J(gamma) = -2^{-1/3} |a_1| gamma^{2/3} for finite gamma > 0."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return -(2.0 ** (-1.0 / 3.0)) * abs(airy_first_zero()) * gamma ** (2.0 / 3.0)
