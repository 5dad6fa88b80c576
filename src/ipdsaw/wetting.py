"""Pinned walk above a hard wall: return kernel, partition function, curves.

The building block is the first-return kernel of the step walk,

    K(t) = P(tau = t, X_tau = 0),    tau = first hitting time of (-inf, 0].

The step law is two-sided geometric, so its generating function is
algebraic and ``return_kernel`` reads K(t) off it in closed form (the
height-resolved DP it displaces is kept as a test oracle).  On top of it
sit the pinned partition function Z_wet, the closed-form localization free
energy h_beta(delta) and prefactor C_wet, and the three critical curves
delta_tilde < delta_c < delta_circ of the phase diagram.

log Z_wet has two independent routes, each with no Python step per unit
of length.  ``zwet_series`` solves the renewal equation in blocks: a
Toeplitz inverse on one block, then one convolution per block into every
later length (the one-dot-per-length recursion is the test oracle).
``zwet_direct`` sums the strip walks directly, through the pinned strip
bridge below.

The pinned strip bridge, the weight of the N-step walks on the strip
[0, H] from 0 back to 0 with a site weight per height, has one private
primitive, ``_log_bridge``; ``zwet_direct`` (e^delta at height 0) and the
area-tilted ``exactz.area_wetting_dp`` (e^{-gamma h / N} on top) only
choose the weights.  It walks half the length and joins the two halves by
time reversal, since the step matrix is symmetric.  Its step matrix
x^{|i-j|} / c_beta is semiseparable (the coupling of two blocks of heights
has rank one), so ``_step_apply`` applies it as a blocked product, three
small matmuls with no sequential sweep; the dense product is the test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .steps import StepLaw, _count, beta_critical, step_pmf

__all__ = [
    "ReturnKernel",
    "CriticalCurves",
    "return_kernel",
    "zwet",
    "zwet_series",
    "zwet_direct",
    "wetting_free_energy",
    "delta_tilde",
    "critical_curves",
    "cwet_constant",
    "logsumexp_c",
]


def logsumexp_c(values) -> float:
    """log(sum exp(values)), the sum of the scaled terms correctly rounded
    (``math.fsum``).

    Accepts any iterable; -inf entries are skipped.  Used wherever sums of
    wildly different log-magnitudes are combined.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    arr = arr[arr > -np.inf]
    if arr.size == 0:
        return -math.inf
    m = float(arr.max())
    return m + math.log(math.fsum(np.exp(arr - m)))


def _check_delta(delta: float) -> None:
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")


def _strip_top(n: float, beta: float) -> int:
    """Top height H of the strip for a walk of ~n steps started at 0, a
    generous multiple of sqrt(n/beta)."""
    return math.ceil(12.0 * math.sqrt(max(n, 1.0) / beta)) + 64


def _step_matrix(law: StepLaw, H: int) -> np.ndarray:
    """M[i, j] = P(X = i - j) for heights i, j in 0..H."""
    y = np.arange(H + 1)
    return step_pmf(law, np.subtract.outer(y, y))


def _step_block(n: int) -> int:
    """Block length of ``_step_apply`` on n heights: 16, or 2 n^{1/3} once
    that is larger, which balances the in-block product (about n bs
    terms) against the carry across blocks (4 n^2 / bs^2)."""
    return max(16, int(2.0 * n ** (1.0 / 3.0)))


def _step_apply(law: StepLaw, n: int):
    """The step v -> M v, M[i, j] = x^{|i - j|} / c_beta on heights 0..n-1,
    as a blocked semiseparable product with no sequential sweep.

    Returns (v, apply): v is a length-n view of a zero-padded (r, bs)
    block buffer, bs = ``_step_block(n)``, and apply() returns M v for the
    present contents of v as a new array.

    M (the Kac-Murdock-Szego matrix) couples two blocks by a rank-one
    term: for i in block b and j in block b' < b (offsets within the
    block), x^{i - j} = x^{i+1} X^{b-b'-1} x^{bs-1-j} with X = x^bs, and
    symmetrically above the diagonal.  So one matmul V @ [T | E] / c_beta
    of the buffer gives the in-block products (T[i, j] = x^{|i - j|}) and
    each block's forward and backward geometric sums F_b and G_b (the
    columns of E are x^{bs-1-j} and x^j); one (2r x 2r) matmul carries them across
    blocks, L_b = sum_{b' < b} X^{b-b'-1} F_b' and R_b = sum_{b' > b}
    X^{b'-b-1} G_b'; and one (r x 2)(2 x bs) product spreads them back
    with x^{i+1} and x^{bs-i}.  Every entry is formed as e^{-a k},
    a = beta/2, with a split a_hi + a_lo that keeps a_hi k exact (x ** k
    from the rounded x drifts to 3e-14 relative by k ~ 600).  Every term
    is positive, so nothing cancels.
    """
    bs = _step_block(n)
    r = -(-n // bs)
    a = 0.5 * law.beta
    a_hi = round(a * 2.0 ** 20) / 2.0 ** 20  # 20 fractional bits

    def power(k):
        return np.exp(-a_hi * k) * np.exp((a_hi - a) * k)

    t = np.arange(bs)
    TE = np.empty((bs, bs + 2))
    TE[:, :bs] = power(np.abs(np.subtract.outer(t, t)))
    TE[:, bs] = power(bs - 1 - t)
    TE[:, bs + 1] = power(t)
    TE /= law.c_beta
    gap = np.subtract.outer(np.arange(r), np.arange(r)) - 1  # b - b' - 1
    low = np.tril(power(bs * np.abs(gap)), -1)
    K = np.zeros((r, 2, r, 2))  # acts on [F_0, G_0, F_1, G_1, ...]
    K[:, 0, :, 0] = low
    K[:, 1, :, 1] = low.T
    K = K.reshape(2 * r, 2 * r)
    S = np.stack((power(t + 1), power(bs - t)))
    V = np.zeros((r, bs))

    def apply():
        Y = V @ TE
        LR = K @ Y[:, bs:].ravel()
        return (Y[:, :bs] + LR.reshape(r, 2) @ S).reshape(-1)[:n]

    return V.reshape(-1)[:n], apply


def _log_bridge(law: StepLaw, log_w: np.ndarray, N: int) -> float:
    """log of the total weight of the N-step walks on the strip [0, H],
    H = len(log_w) - 1, from 0 back to 0 (N >= 1), with the site weight
    e^{log_w(h)} at each of T_1..T_N.

    The step matrix is symmetric, so a path read backwards from its end is
    a walk from 0 as well.  Splitting each path at step j = ceil(N/2), with
    k = N - j, the weight is

        e^{log_w(0)} sum_h e^{log_w(h)} p_j(h) p_k(h) e^{off_j + off_k},

    where e^{log_w} p_i e^{off_i} is the weight of the i-step walks from 0
    ending at each height: p = M v is the step applied to the (i-1)-step
    vector v before the site weights, so log_w is added in log space and a
    very negative log weight never underflows.  Only j steps are walked,
    and the join is one sum in log space; at N = 1 (k = 0) it is
    e^{log_w(0)} p_1(0).  Between steps v <- e^{log_w - max log_w} p is
    renormalized by the power of two that brings its max into [1/2, 1),
    so the rescale is exact and off_i is (sum of the exponents) log 2 +
    (i - 1) max log_w, rounded a fixed number of times however many steps
    are taken.  v lives in the block buffer of ``_step_apply``, so the
    site weight and the rescale are written into it in place and each step
    is the blocked semiseparable product; the dense product it replaces is
    the test oracle ``oracles.strip_walk_dense``.
    """
    v, apply = _step_apply(law, len(log_w))
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    v[0] = 1.0
    exps = 0  # the rescales so far divided by 2^exps in all
    j, k = -(-N // 2), N // 2
    for step in range(j):
        if step:
            np.multiply(w, p, out=v)
            e = math.frexp(v.max())[1]
            np.ldexp(v, -e, out=v)
            exps += e
        p = apply()
        log_off = exps * math.log(2.0) + step * shift
        if step + 1 == k:
            p_k, off_k = p, log_off
    if k == 0:
        return float(log_w[0]) + log_off + math.log(p[0])
    with np.errstate(divide="ignore"):
        terms = log_w + np.log(p) + np.log(p_k)
    top = float(terms.max())
    return (float(log_w[0]) + log_off + off_k + top
            + math.log(float(np.exp(terms - top).sum())))


def _kernel_constants(law: StepLaw) -> tuple:
    """(c, s2) = (1 - x^2, (c/a)^2) with a = (1 - x)^2, x = e^{-beta/2}."""
    c = 1.0 - law.x * law.x
    return c, (c / (1.0 - law.x) ** 2) ** 2


@dataclass(frozen=True)
class ReturnKernel:
    """First-return kernel table K(t), t = 1..t_max.

    ``k[t]`` is P(tau = t, X_tau = 0), index 0 unused.  The table comes from
    a closed form, so ``height_cutoff`` is 0, meaning no cutoff.
    """

    beta: float
    t_max: int
    height_cutoff: int
    k: np.ndarray

    def total_mass(self) -> float:
        return float(self.k[1:].sum())


def return_kernel(beta: float, t_max: int) -> ReturnKernel:
    """K(t) for t = 1..t_max from its algebraic generating function.

    With x = e^{-beta/2}, a = (1-x)^2, c = 1-x^2 and s2 = (c/a)^2, the
    generating function F(s) = sum_t K(t) s^t is the small root of
    y^2 - (c + a s) y + a s = 0,

        F(s) = [c + a s - c sqrt(1 - s) sqrt(1 - s/s2)] / 2,

    so K(1) = 1/c_beta and, for t >= 2, K(t) is -c/2 times the s^t
    coefficient of the product of the two binomial series.  Both series
    fall in magnitude, and s2 > 1, so the second one's terms are nonzero up
    to where they underflow and exactly 0 after; only that prefix enters
    the convolution (at beta = 2, its first 476 terms).
    """
    t_max = _count(t_max, "t_max", 1)
    law = StepLaw(beta)
    c, s2 = _kernel_constants(law)
    n = np.arange(1, t_max + 1)
    sqrt_1ms = np.concatenate(([1.0], np.cumprod((2.0 * n - 3.0) / (2.0 * n))))
    sqrt_1ms2 = sqrt_1ms * s2 ** -np.arange(t_max + 1.0)
    sqrt_1ms2 = sqrt_1ms2[:np.count_nonzero(sqrt_1ms2)]
    k = -0.5 * c * np.convolve(sqrt_1ms, sqrt_1ms2)[:t_max + 1]
    k[0] = 0.0
    k[1] = 1.0 / law.c_beta
    return ReturnKernel(beta, t_max, 0, k)


def delta_tilde(beta: float) -> float:
    """Critical pinning strength of the wetting transition, -log(1 - e^{-beta/2})."""
    law = StepLaw(beta)
    return -math.log1p(-law.x)


def wetting_free_energy(beta: float, delta: float) -> float:
    """Localized free energy h_beta(delta); identically 0 for delta <= delta_tilde.

    h = delta + log(1 - e^{-delta}) + 2 log(1 - x) - log(1 - e^{-delta} - x^2),
    written without e^{delta} so that it stays finite at any finite delta.
    """
    _check_delta(delta)
    if delta <= delta_tilde(beta):
        return 0.0
    x = math.exp(-0.5 * beta)
    one_m_y = -math.expm1(-delta)
    return (delta + math.log(one_m_y) + 2.0 * math.log1p(-x)
            - math.log(one_m_y - x * x))


_RENEWAL_BLOCK = 128  # lengths per block of the renewal solve


def zwet_series(beta: float, delta: float, N: int) -> np.ndarray:
    """log Z_wet(n) for n = 0..N via the renewal recursion.

    The recursion is run on the exponentially rebased sequence
    Z(n) e^{-h n} (bounded in every phase, so plain double sums are safe)
    with one factor e^{delta - h} taken out for n >= 1, so that a very
    negative delta cannot underflow it; logs are recovered at the end.

    The rebased sequence solves (I - T) y = a with T the lower-triangular
    Toeplitz matrix of the rebased kernel krb(t) = K(t) e^{delta - h t}.
    It is solved in blocks of ``_RENEWAL_BLOCK`` lengths: the inverse of
    (I - T) on one block is the lower-triangular Toeplitz matrix of the
    renewal sequence of krb, built once with a dot per length, and each
    solved block adds its share to every later length with one
    convolution.  Every term is positive, so nothing cancels.  The
    sequential recursion it replaces, one dot per length, is the test
    oracle ``oracles.zwet_series_loop``.
    """
    N = _count(N, "N")
    h = wetting_free_energy(beta, delta)
    kernel = return_kernel(beta, max(N, 1))
    t = np.arange(1, N + 1)
    krb = np.concatenate(([0.0], kernel.k[1:N + 1] * np.exp(delta - h * t)))
    # y(n) = Z(n) e^{-delta - h (n-1)}: the excursion straight to n, plus
    # a first return at t < n followed by Z(n - t); y(0) = 0
    y = np.concatenate(([0.0], kernel.k[1:N + 1] * np.exp(-h * (t - 1.0))))
    B = min(_RENEWAL_BLOCK, N + 1)
    r = np.zeros(B)  # renewal sequence of krb: (I - T)^{-1} on one block
    r[0] = 1.0
    for n in range(1, B):
        r[n] = float(krb[n:0:-1] @ r[:n])
    inv = np.tril(r[np.abs(np.subtract.outer(np.arange(B), np.arange(B)))])
    for s in range(0, N + 1, B):
        e = min(s + B, N + 1)
        y[s:e] = inv[:e - s, :e - s] @ y[s:e]
        if e <= N:
            y[e:] += np.convolve(y[s:e], krb[:N + 1 - s])[e - s:N + 1 - s]
    return np.concatenate(([0.0], np.log(y[1:]) + delta + h * (t - 1.0)))


def zwet(beta: float, delta: float, N: int) -> float:
    """log Z_wet(N): pinned positive walk, reward e^delta per return to 0."""
    return float(zwet_series(beta, delta, N)[-1])


def zwet_direct(beta: float, delta: float, N: int) -> float:
    """log Z_wet(N) by direct height DP (independent cross-check of the renewal).

    The pinned bridge ``_log_bridge`` with the site weight e^delta at
    height 0 and 1 above it.
    """
    N = _count(N, "N")
    _check_delta(delta)
    law = StepLaw(beta)
    H = _strip_top(N, beta)
    if N == 0:
        return 0.0
    log_w = np.zeros(H + 1)
    log_w[0] = delta
    return _log_bridge(law, log_w, N)


@dataclass(frozen=True)
class CriticalCurves:
    """The three transition lines evaluated at one beta."""

    beta: float
    delta_tilde: float
    delta_c: float
    delta_circ: float


def _delta_at_h(beta: float, target: float) -> float:
    """The delta >= delta_tilde with h_beta(delta) = target >= 0, in closed form.

    With y = e^{-delta}, e^h = (1 - y)(1 - x)^2 / (y (1 - y - x^2)), so
    h = T is the quadratic y^2 - b y + r = 0 with r = (1 - x)^2 e^{-T} and
    b = 1 - x^2 + r, divided through by e^T so that nothing overflows;
    delta is -log of its small root 2r / (b + sqrt(b^2 - 4r)).  The
    discriminant is the product (1 - x - sqrt r)(1 + x - sqrt r)
    ((1 + sqrt r)^2 - x^2) with 1 - x - sqrt r = (1 - x)(1 - e^{-T/2}), so
    it keeps its digits as T -> 0 (the double root y = 1 - x at
    delta_tilde), and delta is formed from log r, so it stays finite when
    r underflows.
    """
    x = math.exp(-0.5 * beta)
    log_r = 2.0 * math.log1p(-x) - target
    rt = math.exp(0.5 * log_r)
    disc = ((1.0 - x) * -math.expm1(-0.5 * target) * (1.0 + x - rt)
            * ((1.0 + rt) ** 2 - x * x))
    return (math.log(1.0 - x * x + rt * rt + math.sqrt(disc))
            - math.log(2.0) - log_r)


def critical_curves(beta: float) -> CriticalCurves:
    """delta_tilde, delta_c, delta_circ at inverse temperature beta.

    delta_c solves log Gamma_beta + h_beta(delta) = 0 and delta_circ solves
    2 log Gamma_beta + h_beta(delta) = 0, so both are the closed form
    ``_delta_at_h`` at T = -log Gamma_beta and T = -2 log Gamma_beta, finite
    at every beta >= beta_c.  Both collapse curves only exist for
    beta >= beta_c (Gamma_beta <= 1).
    """
    if beta < beta_critical():
        raise ValueError(
            f"collapse curves require beta >= beta_c = {beta_critical():.6f}"
        )
    # log Gamma_beta <= 0 here; rounding can leave it just above 0 at beta_c
    log_gamma = min(math.log(StepLaw(beta).c_beta) - beta, 0.0)
    return CriticalCurves(beta, delta_tilde(beta), _delta_at_h(beta, -log_gamma),
                          _delta_at_h(beta, -2.0 * log_gamma))


def cwet_constant(beta: float, delta: float) -> float:
    """Prefactor C such that Z_wet(N) ~ C e^{h N} in the localized phase.

    C = [e^delta s F'(s)]^{-1} at s = e^{-h}.  Differentiating the quadratic
    that defines F gives, with y = e^{-delta} and b = c + a s,

        C = (b - 2y) / (a (1 - y) e^{delta - h})
          = c sqrt(1 - s) sqrt(1 - s/s2) / (1 - y - x^2),

    using b - 2y = c sqrt(1 - s) sqrt(1 - s/s2) and the closed form of h for
    e^{delta - h}; the second line has no cancellation near delta_tilde and
    no overflow at large delta.
    """
    if delta <= delta_tilde(beta):
        raise ValueError("cwet_constant is defined only for delta > delta_tilde")
    h = wetting_free_energy(beta, delta)
    law = StepLaw(beta)
    c, s2 = _kernel_constants(law)
    s = math.exp(-h)
    return (c * math.sqrt(-math.expm1(-h) * (1.0 - s / s2))
            / (-math.expm1(-delta) - law.x * law.x))
