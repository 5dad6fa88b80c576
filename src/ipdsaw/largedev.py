"""Large-deviation layer: Legendre transforms, tilted walks, collapse profile.

The cumulant generating function of a single step is L(h) = log E[e^{hX}].
For the area/endpoint pair of an n-step walk, Lambda_n = (A_n/n, X_n), the
scaled generating function converges to the integrated version

    L_Lambda(h0, h1) = int_0^1 L(x h0 + h1) dx,

finite on D_beta = {|h1| < beta/2, |h0 + h1| < beta/2}.  This module
provides L_Lambda, its gradient, the inverse tilt h~(q, p) solving
grad L_Lambda(h~) = (q, p), the rate function g = Legendre transform, the
finite-n analogues, exact sampling of tilted walks, and on top of these the
collapsed-phase profile: the bead-scale variational function

    phi(a) = a * (2 log Gamma + h_beta(delta) - g(1/(2 a^2), 0)),

its maximizer a~, the limit free energy Phi = phi(a~), and the subleading
correction constant Psi (delta = 0), which involves the first zero of the
Airy function through the meander rate J(gamma) = -2^{-1/3} |a_1| gamma^{2/3}.

L is a sum of logarithms, so L_Lambda is in closed form: a difference of
dilogarithms divided by h0.  The gradient and the Newton Hessian follow by
parts from L, L' and L_Lambda, with a series in h0 near h0 = 0; no
quadrature is involved (adaptive quadrature is kept as the test oracle).
The collapse profile is supported for beta <= 7.4 at every delta of the
collapsed phase (see ``collapse_profile``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .steps import StepLaw

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
    "tilted_sample",
    "phi",
    "phi_prime",
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
    ea = math.exp(a)
    if a <= _SPLIT:
        # sum_k (e^{kb} - e^{ka}) / k^2 = sum_k e^{ka} expm1(k d) / k^2
        return float(ea ** _K @ (np.expm1(_K * d) * _INV_K2)) / d
    # -d log w_b + a r + sum_k w_b^k expm1(k r) / k^2 with r = log(w_a / w_b)
    wb = -math.expm1(b)
    r = math.log1p(ea * math.expm1(d) / wb)
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

def _feasible_lambda(cur: TiltVector, step, b2: float, edge: float) -> float:
    """Largest step fraction (capped at 1) keeping the trial strictly inside.

    Boundaries are |h1| < b2 and |edge_coeff . h| < b2; the step is clamped
    to 95% of the nearest crossing so Newton can slide along a boundary-
    hugging path instead of overshooting and halving blindly.
    """
    lam = 1.0
    for c0, dc in ((cur.h1, step[1]),
                   (edge * cur.h0 + cur.h1, edge * step[0] + step[1])):
        if dc > 0.0:
            cross = (b2 - c0) / dc
        elif dc < 0.0:
            cross = (-b2 - c0) / dc
        else:
            continue
        lam = min(lam, 0.95 * cross)
    return lam


def _damped_newton(grad, hess, cur: TiltVector, target, n: int | None):
    """Damped Newton for grad(h) = target from cur; returns (h, residual).
    ``hess(h, g)`` gets the gradient g Newton already holds at h."""
    edge = 1.0 - 1.0 / n if n else 1.0
    g = grad(cur)
    res = np.asarray(g) - target
    nr = float(np.hypot(*res))
    stall = 0
    for _ in range(80):
        if nr < 1e-10:
            break
        prev = nr
        step = np.linalg.solve(hess(cur, g), -res)
        lam = _feasible_lambda(cur, step, 0.5 * cur.beta, edge)
        while lam >= 1e-14:
            trial = TiltVector(cur.h0 + lam * step[0], cur.h1 + lam * step[1], cur.beta)
            if trial.in_domain(n):
                tg = grad(trial)
                tres = np.asarray(tg) - target
                tnr = float(np.hypot(*tres))
                if tnr <= nr * (1.0 - 1e-4 * lam) or tnr < 1e-10:
                    cur, g, res, nr = trial, tg, tres, tnr
                    break
            lam *= 0.5
        else:
            break
        # bail out once decrease has flattened (numerical noise floor)
        stall = stall + 1 if nr > 0.7 * prev else 0
        if stall >= 3:
            break
    return cur, nr


def _continuation_solve(q: float, p: float, beta: float, n: int | None) -> TiltVector:
    """The tilt with gradient (q, p), residual < 1e-10; n = None for the limit.

    A residual above 1e-6 is divergence, not a representability floor, and
    restarts the continuation with 64 steps.
    """
    if n is None:
        grad, hess = grad_l_lambda, _hessian_l_lambda
    else:
        grad, hess = partial(grad_finite_l_lambda, n), partial(_finite_hessian, n)
    for steps in (8, 64):
        h = TiltVector(0.0, 0.0, beta)
        for j in range(1, steps + 1):
            h, nr = _damped_newton(grad, hess, h, np.array([q, p]) * (j / steps), n)
        if nr < 1e-10:
            return h
        if nr < 1e-6:
            break
    at = f"(q, p) = ({q}, {p}), beta = {beta}" + (f", n = {n}" if n else "")
    raise RuntimeError(
        f"tilt inversion failed at {at}; residual {nr:.2e} (tilts hugging "
        "the domain boundary closer than ~1e-6 cannot meet the residual "
        "tolerance 1e-10 in double precision)")


def tilt_inverse(q: float, p: float, beta: float) -> TiltVector:
    """The tilt h~(q, p) with grad L_Lambda(h~) = (q, p), residual < 1e-10.

    Solved by damped Newton with continuation along t (q, p), t = 1/8..1;
    on failure the continuation is restarted with 64 steps.
    """
    return _continuation_solve(q, p, beta, None)


def rate_g(q: float, p: float, beta: float) -> float:
    """Rate function g(q, p) = h~.(q, p) - L_Lambda(h~) (Legendre transform)."""
    h = tilt_inverse(q, p, beta)
    return h.h0 * q + h.h1 * p - l_lambda(h)


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
    _require_domain(h, n)
    s, u, _ = _finite_gaps(n, h)
    return float(_l_from_gaps(h.beta, s, u).sum()) / n


def grad_finite_l_lambda(n: int, h: TiltVector) -> tuple:
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
    """Inverse of the n-step gradient: grad (1/n) L_{Lambda,n}(h) = (q, p)."""
    return _continuation_solve(q, p, beta, n)


def tilted_sample(n: int, h: TiltVector, rng) -> np.ndarray:
    """One exact path X_0..X_n of the h-tilted walk (increment k tilted by
    (1 - k/n) h0 + h1), drawn by closed-form inverse CDF."""
    _require_domain(h, n)
    logrp, logrm, _ = _finite_gaps(n, h)   # log tail ratios log(x e^{+-a_k})
    mp, mm = _tail_ratio(logrp), _tail_ratio(logrm)
    tot = 1.0 + mp + mm
    u = rng.random(n) * tot
    steps = np.zeros(n, dtype=np.int64)
    pos = (u > 1.0) & (u <= 1.0 + mp)
    neg = u > 1.0 + mp
    fp = (u[pos] - 1.0) / mp[pos]
    steps[pos] = np.floor(np.log1p(-fp) / logrp[pos]).astype(np.int64) + 1
    fm = (u[neg] - 1.0 - mp[neg]) / mm[neg]
    steps[neg] = -(np.floor(np.log1p(-fm) / logrm[neg]).astype(np.int64) + 1)
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(steps, out=out[1:])
    return out


# -- collapse profile -------------------------------------------------------

def phi(a: float, beta: float, delta: float) -> float:
    """Bead-scale variational function a (2 log Gamma + h - g(1/(2a^2), 0))."""
    from .wetting import wetting_free_energy
    law = StepLaw(beta)
    c = 2.0 * math.log(law.gamma_beta) + wetting_free_energy(beta, delta)
    return a * (c - rate_g(0.5 / (a * a), 0.0, beta))


def phi_prime(a: float, beta: float, delta: float) -> float:
    """d phi / d a = 2 log Gamma + h + q h~0 + L_Lambda(h~) at q = 1/(2a^2)."""
    from .wetting import wetting_free_energy
    law = StepLaw(beta)
    c = 2.0 * math.log(law.gamma_beta) + wetting_free_energy(beta, delta)
    q = 0.5 / (a * a)
    tv = tilt_inverse(q, 0.0, beta)
    return c + q * tv.h0 + l_lambda(tv)


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
    """Maximize phi over a > 0; defined strictly inside the collapsed phase.

    Root of phi' by safeguarded Newton (finite-difference slope, bisection
    fallback) inside an automatically bracketed interval.

    Supported region: beta_c < beta <= 7.4 at every delta < delta_circ.
    Beyond it the small-delta end fails (beta = 7.5 at delta = 0, beta = 12
    up to delta = 0.35 delta_circ): the maximizer's tilt comes within ~3e-7
    of the domain boundary, where one ulp of (h0, h1) moves the gradient by
    more than the 1e-10 tilt residual, and a ValueError names beta, delta,
    q and the residual.
    """
    from .wetting import critical_curves, wetting_free_energy
    curves = critical_curves(beta)   # raises below beta_c
    if delta >= curves.delta_circ:
        raise ValueError(
            f"(beta, delta) = ({beta}, {delta}) outside the collapsed phase "
            f"(delta_circ = {curves.delta_circ:.6f})"
        )

    def f(a: float) -> float:
        try:
            return phi_prime(a, beta, delta)
        except RuntimeError as exc:
            raise ValueError(
                f"collapse profile at (beta, delta) = ({beta}, {delta}) is "
                f"outside the supported region (beta <= 7.4): {exc}") from exc

    def f_below(a: float) -> float:
        # phi' -> +inf as a -> 0; if the tilt solve hits its double-precision
        # envelope at the implied large q, the sign there is already positive
        try:
            return f(a)
        except ValueError:
            return 1.0

    lo = 1.0
    for _ in range(20):
        if f_below(lo) > 0.0:
            break
        lo *= 0.5
        if lo < 1e-3:
            raise RuntimeError("failed to bracket the phi maximizer from below")
    hi = max(2.0 * lo, 2.0)
    while f(hi) >= 0.0:
        hi *= 2.0
        if hi > 200.0:
            raise RuntimeError("failed to bracket the phi maximizer from above")

    x = 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(100):
        if abs(fx) < 1e-11 and hi - lo < 1e-9:
            break
        eps = 1e-6 * max(abs(x), 1.0)
        slope = (f(x + eps) - f(x - eps)) / (2.0 * eps)
        xn = x - fx / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        fn = f(xn)
        if fn > 0.0:
            lo = xn
        else:
            hi = xn
        x, fx = xn, fn
        if hi - lo < 1e-14 * max(1.0, abs(x)):
            break

    a_tilde = x
    phi_max = phi(a_tilde, beta, delta)
    psi = None
    if delta == 0.0:
        law = StepLaw(beta)
        h0 = tilt_inverse(0.5 / (a_tilde * a_tilde), 0.0, beta).h0
        psi = -abs(airy_first_zero()) * (a_tilde * law.sigma2 * h0 * h0 / 2.0) ** (1.0 / 3.0)
    return CollapseProfile(beta, delta, a_tilde, phi_max, psi,
                           wetting_free_energy(beta, delta))


def phi_max_ddelta(beta: float, delta: float, step: float = 1e-4) -> float:
    """Centered finite difference of Phi in delta (contact-density limit)."""
    up = collapse_profile(beta, delta + step).phi_max
    dn = collapse_profile(beta, delta - step).phi_max
    return (up - dn) / (2.0 * step)


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
    """J(gamma) = -2^{-1/3} |a_1| gamma^{2/3} for gamma > 0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return -(2.0 ** (-1.0 / 3.0)) * abs(airy_first_zero()) * gamma ** (2.0 / 3.0)
