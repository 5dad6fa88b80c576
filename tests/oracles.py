"""Independent oracle implementations used to check the package.

Everything here is written from the defining formulas with deliberately
different algorithms than the package (truncated sums instead of closed
forms, counting DPs instead of enumeration, dense-grid quadrature and
adaptive Gauss-Legendre panels instead of the dilogarithm closed form of
the segment free energy, the forward first-exceedance sum instead of the
backward truncation bound of ``dp_Z``, each level of the completion
majorant summed term by term in long double instead of by two geometric
sweeps, a log-space transfer recursion instead of its rescaled linear
one, the dense table of every height pair instead of its reachable
blocks, the kept column range of each row instead of the closed-form
diagonal lengths of a slice, the dense strip step matrix instead of
the two geometric sweeps of the strip walk, the wetting renewal one dot
per length instead of its blocked Toeplitz solve, the renewal (40 digits) and the
defining forms of h and C_wet (60 digits) in mpmath instead of the closed
form of Z_wet and the factored forms, the sampler's weights
built afresh for every draw instead of once per distinct state,
root-finding through the
numerical tilt solve and bisection instead of the quadratics behind the
collapse profile and the critical curves, 40-digit mpmath instead of double
precision, per-configuration loops and ``json.dumps`` instead of array
observables and a record template) so that agreement is evidence, not
tautology.

``log_mgf``, the step law's cumulant generating function L(h) as a sum of
three log1p terms, has no caller in the package: ``largedev`` computes the
same L(h) from boundary gaps, and the tests compare the two.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import product

import mpmath
import numpy as np
import scipy.optimize
from numpy.polynomial.legendre import leggauss

from ipdsaw import exactz, largedev, steps, wetting
from ipdsaw.polymer import StretchConfig, Variant, wedge


# -- step-law oracles -------------------------------------------------------

def c_beta(beta: float) -> float:
    x = math.exp(-0.5 * beta)
    return (1.0 + x) / (1.0 - x)


def pmf(beta: float, k: int) -> float:
    return math.exp(-0.5 * beta * abs(k)) / c_beta(beta)


def truncation_K(beta: float) -> int:
    return math.ceil(80.0 / beta) + 200


def mgf_truncated(beta: float, h: float) -> float:
    """log E[e^{hX}] by direct truncated summation."""
    K = truncation_K(beta)
    ks = np.arange(-K, K + 1)
    return float(np.log(np.sum(np.exp(h * ks - 0.5 * beta * np.abs(ks)))
                        / c_beta(beta)))


def log_mgf(law: steps.StepLaw, h: float) -> float:
    """log E[e^{hX}], finite exactly on |h| < beta/2.

    Closed form: 2 log(1-x) - log(1 - x e^h) - log(1 - x e^{-h}).
    """
    if abs(h) >= 0.5 * law.beta:
        raise ValueError(
            f"h={h!r} outside the open domain |h| < beta/2 = {0.5 * law.beta!r}"
        )
    x = law.x
    return (
        2.0 * math.log1p(-x)
        - math.log1p(-x * math.exp(h))
        - math.log1p(-x * math.exp(-h))
    )


def variance_truncated(beta: float) -> float:
    K = truncation_K(beta)
    ks = np.arange(-K, K + 1)
    w = np.exp(-0.5 * beta * np.abs(ks)) / c_beta(beta)
    return float(np.sum(ks * ks * w))


def beta_critical_bisect() -> float:
    """beta_c via bisection on x^3 + x^2 + x - 1 over (0, 1), x = e^{-beta/2}."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 + mid ** 2 + mid < 1.0:
            lo = mid
        else:
            hi = mid
    return -2.0 * math.log(0.5 * (lo + hi))


# -- wetting-kernel oracle ---------------------------------------------------

def return_kernel_dp(beta: float, t_max: int, H: int) -> np.ndarray:
    """K(t), t = 1..t_max (index 0 unused), by height-resolved survival DP.

    The walk is kept strictly positive on heights 1..H; stepping to exactly
    0 harvests K(t).  Mass that jumps above H is lost, so this is a lower
    bound that tightens as H grows.
    """
    c = c_beta(beta)
    y = np.arange(1, H + 1)
    pmf_y = np.exp(-0.5 * beta * y) / c          # P(X = y) = P(X = -y)
    M = np.exp(-0.5 * beta * np.abs(y[:, None] - y[None, :])) / c

    k = np.zeros(t_max + 1)
    k[1] = 1.0 / c
    f = pmf_y.copy()                              # survival mass after 1 step
    for t in range(2, t_max + 1):
        k[t] = float(f @ pmf_y)
        f = M @ f
    return k


def strip_walk_dense(beta: float, log_w: np.ndarray, steps: int):
    """The weighted strip walk of ``wetting._log_bridge``, run the whole
    length with the step applied as the dense (H+1) x (H+1) product M v,
    M[i, j] = P(X = i - j): yields (p, log_off) for k = 1..steps, with the
    same renormalization, here at every step (the bridge skips it where
    its decay bound allows, and never at the two steps it reads)."""
    h = np.arange(len(log_w))
    M = np.exp(-0.5 * beta * np.abs(h[:, None] - h[None, :])) / c_beta(beta)
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    v = np.zeros(len(log_w))
    v[0] = 1.0
    exps = 0
    for k in range(steps):
        if k:
            v = w * p
            e = math.frexp(v.max())[1]
            v = np.ldexp(v, -e)
            exps += e
        p = M @ v
        yield p, exps * math.log(2.0) + k * shift


def zwet_series_loop(beta: float, delta: float, N: int) -> np.ndarray:
    """log Z_wet(n), n = 0..N, by the renewal recursion run one length at a
    time: y(n) = a(n) + sum_{t < n} krb(t) y(n - t), one dot per n, on the
    rebasing of ``wetting.zwet_series`` (y(n) = Z(n) e^{-delta - h (n-1)},
    krb(t) = K(t) e^{delta - h t}), in place of its blocked solve."""
    h = wetting.wetting_free_energy(beta, delta)
    k = wetting.return_kernel(beta, max(N, 1)).k
    t = np.arange(1, N + 1)
    krb = k[1:N + 1] * np.exp(delta - h * t)
    y = np.concatenate(([0.0], k[1:N + 1] * np.exp(-h * (t - 1.0))))
    for n in range(2, N + 1):
        y[n] += float(krb[:n - 1] @ y[n - 1:0:-1])
    return np.concatenate(([0.0], np.log(y[1:]) + delta + h * (t - 1.0)))


def wetting_constants_mp(beta: float, delta: float, dps: int = 60) -> tuple:
    """(h, C_wet) at delta > delta_tilde in mpmath at ``dps`` digits, from
    the defining forms e^h = (1 - y)(1 - x)^2 / (y (1 - y - x^2)) and
    C = (b - 2y) / (a (1 - y) e^{delta - h}), b = c + a e^{-h}, which cancel
    near delta_tilde (the precision absorbs it), in place of the package's
    factored forms."""
    with mpmath.workdps(dps):
        x = mpmath.exp(-mpmath.mpf(beta) / 2)
        y = mpmath.exp(-mpmath.mpf(delta))
        a, c = (1 - x) ** 2, 1 - x * x
        h = mpmath.log((1 - y) * a / (y * (1 - y - x * x)))
        C = (c + a * mpmath.exp(-h) - 2 * y) / (
            a * (1 - y) * mpmath.exp(mpmath.mpf(delta) - h))
        return float(h), float(C)


def zwet_series_mp(beta: float, delta: float, N: int, dps: int = 40) -> np.ndarray:
    """log Z_wet(n), n = 0..N, by the renewal Z(n) = sum_t e^delta K(t)
    Z(n - t) in mpmath at ``dps`` digits, with K(t) the s^t coefficients of
    F(s) = [c + a s - c sqrt(1 - s) sqrt(1 - s/s2)] / 2 formed in mpmath
    as well, in place of the package's double kernel and its closed form
    or blocked solve."""
    with mpmath.workdps(dps):
        x = mpmath.exp(-mpmath.mpf(beta) / 2)
        a, c = (1 - x) ** 2, 1 - x * x
        s2 = (c / a) ** 2
        root = [mpmath.mpf(1)]  # coefficients of sqrt(1 - s)
        for n in range(1, N + 1):
            root.append(root[-1] * (2 * n - 3) / (2 * n))
        root2 = [r / s2 ** n for n, r in enumerate(root)]
        k = [-c / 2 * mpmath.fsum(root[i] * root2[t - i] for i in range(t + 1))
             for t in range(N + 1)]
        k[1] += a / 2
        ek = [mpmath.exp(mpmath.mpf(delta)) * kt for kt in k]
        z = [mpmath.mpf(1)]
        for n in range(1, N + 1):
            z.append(mpmath.fsum(ek[t] * z[n - t] for t in range(1, n + 1)))
        return np.array([0.0] + [float(mpmath.log(v)) for v in z[1:]])


# -- segment quadrature oracle ----------------------------------------------

def log_mgf_dense(beta: float, h) -> np.ndarray:
    """Vectorized closed-form log-mgf from the two geometric series."""
    x = math.exp(-0.5 * beta)
    h = np.asarray(h, dtype=float)
    val = (1.0 / (1.0 - x * np.exp(h))
           + x * np.exp(-h) / (1.0 - x * np.exp(-h))) / c_beta(beta)
    return np.log(val)


def trapezoid_l_lambda(beta: float, h0: float, h1: float,
                       points: int = 10 ** 6) -> float:
    """Dense trapezoid rule for the segment average of the log-mgf."""
    x = np.linspace(0.0, 1.0, points + 1)
    return float(np.trapezoid(log_mgf_dense(beta, h0 * x + h1), x))


@lru_cache(maxsize=8)
def _gauss_nodes(order: int):
    return leggauss(order)


def _quad01(f, tol: float, rel: float = 0.0) -> float:
    """Adaptive Gauss-Legendre quadrature of f over [0, 1].

    Each panel is integrated with 16- and 32-point rules; panels whose two
    estimates disagree (against a length-prorated share of the absolute
    tolerance) are bisected.  Refinement concentrates near integrand spikes,
    so near-singular tilts at the edge of the domain stay cheap.
    """
    t16, w16 = _gauss_nodes(16)
    t32, w32 = _gauss_nodes(32)
    total = 0.0
    stack = [(0.0, 1.0)]
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > 4096:
            raise RuntimeError("quadrature did not reach the requested tolerance")
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        coarse = half * float(w16 @ f(mid + half * t16))
        fine = half * float(w32 @ f(mid + half * t32))
        if (abs(fine - coarse) < tol * max(b - a, 1e-3) + rel * abs(fine)
                or (b - a) < 1e-12):
            total += fine
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return total


def _segment_quad(beta: float, h0: float, h1: float, f, tol: float,
                  rel: float = 0.0) -> float:
    """int_0^1 f(t, s(t), u(t)) dt along a(t) = h0 t + h1 by ``_quad01``.

    s = a - beta/2 and u = -a - beta/2 are the boundary gaps.  Each half of
    the segment is parametrized from its own end, whose gaps are correctly
    rounded sums (math.fsum), so a gap of 1e-9 at either end keeps its
    digits instead of drowning in the rounding of t.
    """
    b2 = 0.5 * beta
    s0, s1 = math.fsum((h1, -b2)), math.fsum((h0, h1, -b2))
    u0, u1 = math.fsum((-h1, -b2)), math.fsum((-h0, -h1, -b2))
    lower = _quad01(lambda x: f(0.5 * x, s0 + (s1 - s0) * (0.5 * x),
                                u0 + (u1 - u0) * (0.5 * x)), tol, rel)
    upper = _quad01(lambda x: f(1.0 - 0.5 * x, s1 + (s0 - s1) * (0.5 * x),
                                u1 + (u0 - u1) * (0.5 * x)), tol, rel)
    return 0.5 * (lower + upper)


def _tail(g):
    return np.exp(g) / -np.expm1(g)


def l_lambda_quad(beta: float, h0: float, h1: float) -> float:
    """int_0^1 L(h0 t + h1) dt by adaptive quadrature, 1e-13 absolute."""
    const = 2.0 * math.log(-math.expm1(-0.5 * beta))
    return _segment_quad(
        beta, h0, h1,
        lambda t, s, u: const - np.log(-np.expm1(s)) - np.log(-np.expm1(u)),
        1e-13)


def grad_quad(beta: float, h0: float, h1: float) -> tuple:
    """(int t L'(a(t)) dt, int L'(a(t)) dt) by adaptive quadrature."""
    return tuple(_segment_quad(
        beta, h0, h1, lambda t, s, u, k=k: t ** k * (_tail(s) - _tail(u)),
        1e-13, rel=1e-13) for k in (1, 0))


def hessian_quad(beta: float, h0: float, h1: float) -> np.ndarray:
    """[[int t^2 L'', int t L''], [int t L'', int L'']] along a(t)."""
    def entry(k):
        return _segment_quad(
            beta, h0, h1,
            lambda t, s, u: t ** k * (_tail(s) * (1.0 + _tail(s))
                                      + _tail(u) * (1.0 + _tail(u))),
            1e-11, rel=1e-10)

    off = entry(1)
    return np.array([[entry(2), off], [off, entry(0)]])


def central_diff(f, x: float, eps: float) -> float:
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


# -- critical-curve and collapse-profile oracles ----------------------------

def delta_at_h_target(beta: float, target: float) -> float:
    """Solve h_beta(delta) = target (target >= 0) for delta, by bisection."""
    dt = wetting.delta_tilde(beta)
    lo = dt + 1e-9
    hi = dt + 50.0
    if wetting.wetting_free_energy(beta, lo) >= target:
        return lo
    while wetting.wetting_free_energy(beta, hi) < target:
        hi += 50.0
        if hi > dt + 1000.0:
            raise RuntimeError("failed to bracket the critical curve")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if wetting.wetting_free_energy(beta, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delta_c_sinh(beta: float) -> float:
    """delta_c = log[(sinh beta + sqrt(sinh^2 beta + 1 - e^beta))
    / (1 - e^{-beta})]; sinh^2 overflows from beta = 356."""
    sh = math.sinh(beta)
    disc = max(sh * sh + 1.0 - math.exp(beta), 0.0)
    return math.log(sh + math.sqrt(disc)) - math.log1p(-math.exp(-beta))


def _profile_c(beta: float, delta: float) -> float:
    law = steps.StepLaw(beta)
    return 2.0 * math.log(law.gamma_beta) + wetting.wetting_free_energy(beta, delta)


def phi(a: float, beta: float, delta: float) -> float:
    """Bead-scale variational function a (2 log Gamma + h - g(1/(2a^2), 0)),
    with g from the numerical tilt solve."""
    return a * (_profile_c(beta, delta) - largedev.rate_g(0.5 / (a * a), 0.0, beta))


def phi_prime(a: float, beta: float, delta: float) -> float:
    """d phi / d a = 2 log Gamma + h + q h~0 + L_Lambda(h~) at q = 1/(2a^2)."""
    q = 0.5 / (a * a)
    tv = largedev.tilt_inverse(q, 0.0, beta)
    return _profile_c(beta, delta) + q * tv.h0 + largedev.l_lambda(tv)


def profile_root(beta: float, delta: float) -> tuple:
    """(a~, Phi, Psi or None) with a~ the root of ``phi_prime``.

    phi' > 0 as a -> 0 and phi' -> c < 0 as a -> inf: the root is bracketed
    by halving and doubling from a = 1, then found by Brent's method, and
    Psi = -|a_1| (a~ sigma^2 h0^2 / 2)^{1/3} takes h0 from the tilt solve.
    """
    f = lambda a: phi_prime(a, beta, delta)
    lo = 1.0
    while f(lo) <= 0.0:
        lo *= 0.5
    hi = 2.0 * lo
    while f(hi) >= 0.0:
        hi *= 2.0
    a = scipy.optimize.brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)
    psi = None
    if delta == 0.0:
        h0 = largedev.tilt_inverse(0.5 / (a * a), 0.0, beta).h0
        psi = -abs(largedev.airy_first_zero()) * (
            a * steps.StepLaw(beta).sigma2 * h0 * h0 / 2.0) ** (1.0 / 3.0)
    return a, phi(a, beta, delta), psi


def mean_log_gap_mp(a: float, b: float, dps: int = 40):
    """(Li_2(e^b) - Li_2(e^a)) / (b - a), the mean of -log(1 - e^g) over
    g between a and b, in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return (mpmath.polylog(2, mpmath.exp(b))
                - mpmath.polylog(2, mpmath.exp(a))) / (b - a)


def profile_mp(beta: float, delta: float, dps: int = 40) -> tuple:
    """(a~, Phi, Psi or None) in mpmath at ``dps`` digits.

    The near boundary gap s of the maximizer's tilt theta = beta/2 + s
    solves L(theta) = -c: here by bisection in u = log(-s), so that a gap
    of 1e-87 is found as easily as one of 0.1.
    L_Lambda = 2 log(1 - x) + (Li_2(x e^theta) - Li_2(x e^{-theta})) / theta,
    q = (-c - L_Lambda) / (2 theta), a~ = (2q)^{-1/2}, Phi = 2 a~ (c + L_Lambda).
    """
    mp = mpmath
    with mp.workdps(dps):
        b = mp.mpf(beta)
        x = mp.exp(-b / 2)
        c = 2 * (mp.log((1 + x) / (1 - x)) - b)      # 2 log Gamma_beta
        d = mp.mpf(delta)
        if d > -mp.log(1 - x):
            y = mp.exp(-d)
            c += d + mp.log(1 - y) + 2 * mp.log(1 - x) - mp.log(1 - y - x * x)

        def f(u):      # L(theta) + c with theta = beta/2 + s, s = -e^u
            s = -mp.exp(u)
            return (2 * mp.log(1 - x) - mp.log(-mp.expm1(s))
                    - mp.log(1 - x * x * mp.exp(-s)) + c)

        lo, hi = -3 * b - 10, mp.log(b / 2)     # f(lo) > 0 > f(hi) = c
        for _ in range(250):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        s = -mp.exp((lo + hi) / 2)
        theta = b / 2 + s
        l_lam = 2 * mp.log(1 - x) + (mp.polylog(2, mp.exp(s))
                                     - mp.polylog(2, x * x * mp.exp(-s))) / theta
        a = (2 * (-c - l_lam) / (2 * theta)) ** mp.mpf(-0.5)
        psi = None
        if delta == 0.0:
            sigma2 = 2 * x / (1 - x) ** 2
            psi = -abs(mp.airyaizero(1)) * mp.cbrt(a * sigma2 * (2 * theta) ** 2 / 2)
        return a, 2 * a * (c + l_lam), psi


# -- transfer-DP truncation oracle ------------------------------------------

def log_majorant(L: int, beta: float, delta: float) -> np.ndarray:
    """log Ĝ_r(d), r + d <= L - 1, d >= 0, in a long-double (L, L) array.

    The definition, one logsumexp over all |i| <= r - 1 per entry, O(L^3):
    Ĝ_0(d) = x^{|d|} and Ĝ_r(d) = sum_i e^{max(delta,0) - beta} x^{|i + d|}
    Ĝ_{r-1-|i|}(|i|), x = e^{-beta/2}.  No margin: long double (64-bit
    mantissa on x86-64) keeps its rounding far below the package's.
    """
    half = np.longdouble(0.5) * np.longdouble(beta)
    log_e = np.longdouble(max(delta, 0.0)) - np.longdouble(beta)
    out = np.full((L, L), -np.inf, dtype=np.longdouble)
    out[0] = -half * np.arange(L)
    for r in range(1, L):
        i = np.arange(1 - r, r)
        d = np.arange(L - r)
        terms = (log_e - half * np.abs(i[None, :] + d[:, None])
                 + out[r - 1 - np.abs(i), np.abs(i)][None, :])
        top = terms.max(axis=1)
        out[r, :L - r] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return out


def _truncation_tail(L, beta, delta, variant, H, K, rew) -> float:
    """Rigorous bound on the reduced weight lost above height H.

    Forward first-exceedance accounting: every lost configuration is counted
    once, at the first stretch whose top height w exceeds H, with the exact
    weight accumulated so far, the factor of the crossing stretch, and the
    wall-free completion majorant Ĝ of ``log_majorant`` for the rest.  The
    returning variants count no crossing from a height v > L - m - 1 after
    m units: from there no configuration gets back to 0, so none is lost.
    """
    n = H + 1
    G = np.exp(log_majorant(L, beta, delta).astype(float))
    single = variant is Variant.SINGLE_BEAD
    vv = np.arange(n)
    mask = (vv[None, :] > vv[:, None]) if single else np.ones((n, n), bool)
    mask_dn = (vv[None, :] < vv[:, None])
    diag_idx = [np.nonzero(np.abs(vv[:, None] - vv[None, :]).T == d) for d in range(n)]
    # diag_idx[d] gives (v, w) pairs with |w - v| = d  (transposed so rows=v)

    F = np.zeros((L, n, n))
    Fd = np.zeros((L, n, n)) if single else None
    F[0, 0, 0] = 1.0
    tail = 0.0
    with np.errstate(over="ignore"):
        for m in range(L):
            A = F[m]
            if A.any():
                # loss: transitions from (u, v) to w > H
                R1 = L - m - 1
                t_suffix = np.zeros(R1 + 2)
                for j in range(R1, 0, -1):
                    t_suffix[j] = t_suffix[j + 1] + math.exp(-0.5 * beta * j) * G[R1 - j, j]
                g = (np.exp(0.5 * beta * vv) @ A) * np.exp(-0.5 * beta * vv)
                jmin = np.maximum(H + 1 - vv, 1)
                pick = np.where(jmin <= R1, t_suffix[np.minimum(jmin, R1 + 1)], 0.0)
                if variant is not Variant.FREE:
                    pick[vv > R1] = 0.0
                tail += math.exp(-beta) * float(g @ pick)
                # in-box transitions
                B = (A.T @ K) * rew[None, :] * mask
                tgt = Fd if single else F
                for d in range(min(n, L - m - 1)):
                    vi, wi = diag_idx[d]
                    mp = m + 1 + d
                    tgt[mp][vi, wi] += B[vi, wi]
            if single and Fd[m].any() and m > 0:
                B = (Fd[m].T @ K) * rew[None, :] * mask_dn  # downward: never exceeds H
                for d in range(1, min(n, L - m - 1)):
                    vi, wi = diag_idx[d]
                    F[m + 1 + d][vi, wi] += B[vi, wi]
    return tail


def truncation_tail(L: int, beta: float, delta: float, variant, H: int) -> float:
    """``_truncation_tail`` with the stretch matrix K[u, w] = e^{-beta}
    e^{-(beta/2)|w - u|} and the site rewards built from the definitions."""
    hh = np.arange(H + 1)
    K = np.exp(-beta - 0.5 * beta * np.abs(hh[:, None] - hh[None, :]))
    rew = np.ones(H + 1)
    rew[0] = math.exp(delta)
    return _truncation_tail(L, beta, delta, Variant(variant), H, K, rew)


def dp_log_space(L: int, beta: float, delta: float, variant) -> float:
    """log Z by the height-pair transfer recursion carried out in log space.

    Every completion weight is a log and every sum over the next height is
    a logsumexp, so nothing underflows however large beta or |delta| is;
    the cost is an (n, n, n) array per step, fine for L up to about 60.
    """
    variant = Variant(variant)
    single = variant is Variant.SINGLE_BEAD
    H = L - 1 if variant is Variant.FREE else max((L - 2) // 2, 0)
    h = np.arange(H + 1)
    pair = -0.5 * beta * np.abs(h[:, None] - h[None, :])   # [u, w]
    site = np.where(h == 0, delta, 0.0)
    up, down = h[None, :] > h[:, None], h[None, :] < h[:, None]   # [v, w]
    moves = [(up, 1), (down, 0)] if single else [(np.ones_like(up), 0)]
    G = np.full((len(moves), L + 1, H + 1, H + 1), -np.inf)  # [k, R, u, v]
    if variant is Variant.FREE:
        G[0, 0] = pair
    else:
        G[0, 0][:, 0] = pair[:, 0]
    V, W = np.meshgrid(h, h, indexing="ij")
    for R in range(1, L + 1):
        rest = R - 1 - np.abs(W - V)
        for k, (allowed, src) in enumerate(moves):
            ok = allowed & (rest >= 0)
            nxt = np.where(ok, G[src][np.where(ok, rest, 0), V, W], -np.inf)
            terms = (-beta + pair)[:, None, :] + (site + nxt)[None, :, :]
            top = terms.max(axis=2)
            base = np.where(np.isfinite(top), top, 0.0)
            with np.errstate(divide="ignore"):
                G[k, R] = base + np.log(np.exp(terms - base[:, :, None]).sum(axis=2))
    return beta * L + float(G[0, L, 0, 0])


def dp_dense_table(L: int, beta: float, delta: float, variant,
                   height_cutoff: int | None = None) -> tuple:
    """(log Z, log_weights, truncation bound) of the transfer DP on the
    dense (L + 1) x n x n slab of every stack, n = H + 1.

    The same rescaled backward step as ``exactz.dp_Z``, but computed on
    every height pair, reachable or not, with the slice max of all n x n
    entries as the scale, a reference that is the largest source offset,
    and a start weight below 1e-150 of the largest completion at m = 0
    refused.  ``log_weights[m][u, v]`` (a pair of stacks for SingleBead) is
    the entry the block layout of ``dp_Z`` must reproduce where u < b(m),
    v < c(m).  As in ``_truncation_tail``, the returning variants have no
    first-exceedance source at a height v > L - m - 1.
    """
    variant = Variant(variant)
    headroom = 1e-150
    exact_H = L - 1 if variant is Variant.FREE else max((L - 2) // 2, 0)
    H = exact_H if height_cutoff is None else int(height_cutoff)
    n = H + 1
    law = steps.StepLaw(beta)
    X = law.c_beta * wetting._step_matrix(law, H)  # X[u, w] = x^{|w - u|}
    heights = np.arange(n)[:, None]
    gaps = np.abs(heights - heights.T)
    up = heights.T > heights
    dirs = (((up, 1), (up.T, 0)) if variant is Variant.SINGLE_BEAD
            else ((None, 0),))
    lift = max(delta, 0.0) - beta
    log_site = (min(delta, 0.0), -max(delta, 0.0))

    def gather(stack, m):  # stack[m + 1 + |w - v|, v, w], 0 past the end
        w = heights.T
        nxt = m + 1 + np.abs(w - heights)
        out = stack.reshape(-1).take((nxt * n + heights) * n + w, mode="clip")
        out[nxt >= len(stack)] = 0.0
        return out

    def step(stack, k, m, fac):
        mask, src = dirs[k]
        C = gather(stack[src], m)
        C *= fac if mask is None else fac * mask
        np.matmul(X, C.T, out=stack[k, m])

    S = np.zeros((len(dirs), L + 1, n, n))
    if variant is Variant.FREE:
        S[0, L] = X
    else:
        S[0, L][:, 0] = X[:, 0]
    off = np.full((len(dirs), L + 1), -np.inf)
    off[0, L] = 0.0
    B = np.zeros_like(S) if H < exact_H else None
    if B is not None:
        with np.errstate(over="ignore"):
            site_b = np.exp(np.where(heights.T == 0, delta, 0.0) - beta)
        log_g = log_majorant(L, beta, delta).astype(float)
        uv = 0.5 * beta * (heights - heights.T) - beta
    for m in range(L - 1, -1, -1):
        for k, (_, src) in enumerate(dirs):
            prior = off[src, m + 1:m + 1 + n]
            ref = prior.max()
            if ref == -np.inf:
                continue
            for _ in range(2):
                lf = np.full(n, -np.inf)
                lf[:prior.size] = prior - ref
                fac = np.exp(lf + log_site[1]).take(gaps)
                fac[:, 0] = np.exp(lf + log_site[0])
                step(S, k, m, fac)
                top = S[k, m].max()
                if top >= headroom:
                    break
                ref += max(math.log(top), -700.0) if top > 0.0 else -700.0
            if top > 0.0:
                S[k, m] /= top
                off[k, m] = ref + lift + math.log(top)
        if B is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(len(dirs)):
                    step(B, k, m, site_b)
                R = L - m
                j = np.arange(1, R)
                log_t = np.full(R + n, -np.inf)
                log_t[1:R] = np.logaddexp.accumulate(
                    (log_g[R - 1 - j, j] - 0.5 * beta * j)[::-1])[::-1]
                src = np.exp(uv + log_t[H + 1 - heights.T])
                if variant is not Variant.FREE:  # no way back to 0 from v
                    src[:, heights[:, 0] > R - 1] = 0.0
                B[0, m] += src

    root = float(S[0, 0, 0, 0])
    empty = variant is Variant.SINGLE_BEAD and not (
        L >= 4 and L % 2 == 0 and (H >= 2 or L % 4 == 0))
    if root < headroom and not (root == 0.0 and empty):
        raise ValueError(f"dense DP at beta={beta}, L={L}: start weight {root:.1e}")
    log_z = beta * L + (float(off[0, 0]) + math.log(root) if root > 0.0 else -math.inf)
    bound = 0.0 if B is None else float(np.nan_to_num(B[0, 0, 0, 0], nan=np.inf))
    with np.errstate(divide="ignore"):
        np.log(S, out=S)
    S += off[:, :, None, None]
    lw = (S[0], S[1]) if variant is Variant.SINGLE_BEAD else S[0]
    return log_z, lw, bound


def blocks(L: int, H: int, variant) -> tuple:
    """(rows, cols, lo, hi): the block of every consumed length m and, in
    it, the kept column range [lo, hi) of every row u, row by row as
    ``exactz._diagonal_lengths`` derives them: row u >= 1 keeps v in
    [max(0, 2u - m + 2), c(m)), row 0 all of [0, c(m)), and rows
    u >= b(m) and the sentinel slice L + 1 none.  lo and hi are
    (L + 2, H + 1), lo <= hi; ``_Plan``'s diagonal lengths and places are
    checked against them."""
    rows, cols = exactz._extents(L, H, Variant(variant))
    consumed = np.arange(L + 2)
    heights = np.arange(H + 1)
    lo = np.where(heights >= 1, np.maximum(2 * heights - consumed[:, None] + 2, 0), 0)
    hi = np.where(heights < rows[:, None], cols[:, None], 0)
    hi[L + 1] = 0
    return rows, cols, np.minimum(lo, hi), hi


def backward_sample_per_draw(table, count: int, rng) -> tuple:
    """(stretches, sizes) of ``exactz.backward_sample`` on the same table,
    with every draw's candidate weights and CDF built for that draw alone,
    and the gather plan and the leave weights of a closed Free table built
    afresh from the table's parameters.  It takes one uniform per draw in
    the same order, so the bytes must agree."""
    L, beta, H = table.L, table.beta, table.height_cutoff
    n = H + 1
    plan = exactz._Plan(L, H, table.variant)
    heights = np.arange(n)
    log_rew = np.where(heights == 0, table.delta, 0.0)
    rows = max(1, exactz._SAMPLE_BLOCK // n)
    rows_free = max(1, exactz._SAMPLE_BLOCK // L)
    log_w = table.log_wall_free
    if log_w is not None:  # the log weight of leaving the table, by (m, v)
        leave = exactz._exceed_sources(log_w, beta, L, H, plan.cols)
    m, u, v, sizes = (np.zeros(count, dtype=np.int64) for _ in range(4))
    free = np.zeros(count, dtype=bool)
    lowest = np.full(count, -L)
    stretches = np.zeros((count, L), dtype=np.min_scalar_type(-L))
    live = np.arange(count)
    k = 0

    def pick(lp):
        cdf = np.cumsum(np.exp(lp - lp.max(axis=1, keepdims=True)), axis=1)
        return (cdf <= (rng.random(len(lp)) * cdf[:, -1])[:, None]).sum(axis=1)

    def record(i, step):
        stretches[i, k] = step
        m[i] += 1 + np.abs(step)
        u[i], v[i] = v[i], v[i] + step

    while live.size:
        inside = live[~free[live]]
        for a in range(0, inside.size, rows):
            i = inside[a:a + rows]
            vi, mi = v[i], m[i]
            idx = plan.reads(mi, vi, n, plan.dirs[k % len(plan.dirs)])
            lp = table.log_weights.take(idx, mode="clip")
            lp += log_rew - 0.5 * beta * np.abs(heights - u[i, None])
            if log_w is not None:
                lp = np.column_stack((lp, leave[mi, vi] + 0.5 * beta * (u[i] - vi)))
            w = pick(lp)
            stay = w < n
            if not stay.all():
                free[i[~stay]] = True
                lowest[i[~stay]] = H + 1 - vi[~stay]
                i, vi, w = i[stay], vi[stay], w[stay]
            record(i, w - vi)
        outside = live[free[live]]
        for a in range(0, outside.size, rows_free):
            i = outside[a:a + rows_free]
            R, d = L - m[i], v[i] - u[i]
            j = np.arange(max(lowest[i].min(), 1 - R.max()), R.max())
            r = R[:, None] - 1 - np.abs(j)
            lp = log_w[np.clip(r, 0, len(log_w) - 1), np.abs(j)]
            lp -= 0.5 * beta * np.abs(d[:, None] + j)
            lp[(r < 0) | (j < lowest[i, None])] = -np.inf
            lowest[i] = -L
            record(i, j[pick(lp)])
        sizes[live] += 1
        live = live[m[live] < L]
        k += 1
    return stretches, sizes


# -- per-configuration observables and sample records ------------------------

def configs(batch) -> list:
    """One checked ``StretchConfig`` per row of ``batch``, in row order."""
    return [StretchConfig(tuple(row[:n]), batch.L, batch.variant)
            for row, n in zip(batch.stretches.tolist(), batch.sizes.tolist())]


def beads(cfg: StretchConfig) -> tuple:
    """Maximal runs of mutually overlapping stretches, as 1-based index ranges.

    A bead ends after stretch i whenever the overlap with stretch i+1
    vanishes (with l_{N+1} = 0, so the final bead always closes at N).
    """
    l = cfg.stretches + (0,)
    out = []
    start = 1
    for i in range(1, len(cfg.stretches) + 1):
        if wedge(l[i - 1], l[i]) == 0:
            out.append((start, i))
            start = i + 1
    return tuple(out)


def observables(cfg: StretchConfig) -> dict:
    """``polymer.batch_observables`` of one configuration from its prefix
    heights and bead list, one Python loop each, instead of array
    reductions."""
    t = cfg.prefix_heights()
    return {
        "horizontal_extension": len(cfg.stretches),
        "contacts": sum(1 for v in t[1:] if v == 0),
        "bead_count": len(beads(cfg)),
        "max_height": max(t),
        "signed_area": sum(t),
    }


def sample_record_lines(batch) -> list:
    """The ``sample`` record of every draw of ``batch``: one StretchConfig
    per draw, a dict from its heights, and ``json.dumps(sort_keys=True)``
    instead of the text template over observable arrays."""
    lines = []
    for cfg in configs(batch):
        heights = cfg.prefix_heights()[1:]
        lines.append(json.dumps({
            "stretches": list(cfg.stretches),
            "horizontal_extension": len(cfg.stretches),
            "contacts": sum(1 for t in heights if t == 0),
            "max_height": max(heights),
            "area": sum(heights),
        }, sort_keys=True))
    return lines


def draw_counts(batch, cfgs) -> np.ndarray:
    """How often each configuration of ``cfgs`` occurs in ``batch``: one
    np.unique over the rows, each row viewed as one opaque record (sorting
    1e6 such rows takes 0.3 s where np.unique(axis=0) takes 6 s)."""
    L = batch.L
    rows = np.ascontiguousarray(batch.stretches)
    keys, freq = np.unique(rows.view(np.dtype((np.void, rows.itemsize * L))).ravel(),
                           return_counts=True)
    index = {c.stretches + (0,) * (L - len(c.stretches)): i for i, c in enumerate(cfgs)}
    counts = np.zeros(len(cfgs))
    counts[[index[tuple(r)] for r in keys.view(rows.dtype).reshape(-1, L).tolist()]] = freq
    return counts


# -- configuration-count oracles --------------------------------------------

def count_free_configs(L: int) -> int:
    """|Omega_L^+| by a counting DP over (remaining length, height)."""
    total = 0
    # reach[h] = number of partial vectors with given used budget and height
    for n_stretches in range(1, L + 1):
        # DP over stretches: state = (vertical budget used, height)
        state = {(0, 0): 1}
        for _ in range(n_stretches):
            nxt: dict = {}
            for (used, h), cnt in state.items():
                room = L - n_stretches - used
                for v in range(-h, room + 1):
                    key = (used + abs(v), h + v)
                    nxt[key] = nxt.get(key, 0) + cnt
            state = nxt
        total += sum(cnt for (used, h), cnt in state.items()
                     if used == L - n_stretches)
    return total


def count_single_bead_configs(L: int) -> int:
    """|Omega_L^{o,+}| by the same style of counting DP."""
    total = 0
    for pairs in range(1, L // 2 + 1):
        n_stretches = 2 * pairs
        state = {(0, 0): 1}
        for i in range(n_stretches):
            up = i % 2 == 0
            nxt: dict = {}
            for (used, h), cnt in state.items():
                room = L - n_stretches - used
                rng = range(1, room + 1) if up else range(-min(h, room), 0)
                for v in rng:
                    key = (used + abs(v), h + v)
                    nxt[key] = nxt.get(key, 0) + cnt
            state = nxt
        total += sum(cnt for (used, h), cnt in state.items()
                     if used == L - n_stretches and h == 0)
    return total


# -- FKG suite ---------------------------------------------------------------

def fkg_violations(N: int, beta: float, n_pairs: int, seed: int,
                   support: int = 3, tol: float = 1e-12) -> int:
    """Exhaustive FKG check on walks with truncated, renormalized steps.

    Walk heights (X_1..X_N) with i.i.d. increments on {-support..support};
    conditioning events are lattice-closed (coordinatewise min/max stable):
    the positive bridge and random height boxes.  Test functions are random
    products of indicators 1{X_i <= t}, which are non-increasing for the
    coordinatewise partial order.  Returns the number of conditional pairs
    with E[fg|A] < E[f|A] E[g|A] - tol.
    """
    incs = np.array(list(product(range(-support, support + 1), repeat=N)))
    heights = np.cumsum(incs, axis=1)
    w = np.exp(-0.5 * beta * np.abs(incs).sum(axis=1))
    w /= w.sum()

    bridge = (heights >= 0).all(axis=1) & (heights[:, -1] == 0)
    rng = np.random.default_rng(seed)

    def random_event():
        for _ in range(100):
            mask = np.ones(len(heights), dtype=bool)
            for i in range(N):
                if rng.random() < 0.4:
                    lo = rng.integers(-2 * support, 0)
                    hi = rng.integers(0, 2 * support)
                    mask &= (heights[:, i] >= lo) & (heights[:, i] <= hi)
            if w[mask].sum() > 1e-6:
                return mask
        return np.ones(len(heights), dtype=bool)

    def random_decreasing():
        f = np.ones(len(heights))
        for i in range(N):
            if rng.random() < 0.5:
                t = rng.integers(-support, 2 * support)
                f = f * (heights[:, i] <= t)
        return f

    events = [bridge] + [random_event() for _ in range(4)]
    violations = 0
    for pair_idx in range(n_pairs):
        a = events[pair_idx % len(events)]
        wa = w[a] / w[a].sum()
        f, g = random_decreasing()[a], random_decreasing()[a]
        if float(wa @ (f * g)) < float(wa @ f) * float(wa @ g) - tol:
            violations += 1
    return violations
