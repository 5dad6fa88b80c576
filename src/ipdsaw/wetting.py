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
of length.  ``zwet_series`` reads it off the generating function
1 / (1 - e^delta F(s)): in the localized phase (delta > delta_tilde),
Z_wet(n) = e^{h n} [C_wet + (1 - x^2 - e^{-delta})^{-1} sum_{t > n} K(t)
e^{-h t}], with the kernel's tail summed to the T* past which it is below
half an ulp of C_wet.  Where T* exceeds the length (near delta_tilde), and
at delta <= delta_tilde, it solves the renewal equation in blocks: a
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
has rank one), so each step is the site weight written into one block
buffer and three small products on it (``_step_apply``), with no
sequential sweep; the dense product is the test oracle.  The walk's vector
is renormalized by a power of two only every K steps
(``_renorm_period``), as often as the largest decay the site weights
allow requires.
"""

from __future__ import annotations

import math
import sys
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

    Accepts any iterable; -inf entries are skipped, a +inf entry makes the
    sum +inf and a NaN entry is refused (ValueError).  Used wherever sums
    of wildly different log-magnitudes are combined.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    nan = np.flatnonzero(np.isnan(arr))
    if nan.size:
        raise ValueError(f"logsumexp_c: term {nan[0]} is nan")
    arr = arr[arr > -np.inf]
    if arr.size == 0:
        return -math.inf
    m = float(arr.max())
    if m == math.inf:
        return m
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

    Returns (V, apply).  V is the (r, bs) view of the V columns of a
    zero-padded (r, bs + 2) block buffer [V | L | R], bs =
    ``_step_block(n)``, and holds v in its first n entries in row order.
    apply() returns M v for the present contents of V as a new (r, bs)
    array, again in its first n entries in row order.

    M (the Kac-Murdock-Szego matrix) couples two blocks by a rank-one
    term: for i in block b and j in block b' < b (offsets within the
    block), x^{i - j} = x^{i+1} X^{b-b'-1} x^{bs-1-j} with X = x^bs, and
    symmetrically above the diagonal.  So apply() is three products: the
    block sums FG = V @ E / c_beta, each block's forward and backward
    geometric sums F_b and G_b (the columns of E are x^{bs-1-j} and x^j);
    the carry across blocks, L_b = sum_{b' < b} X^{b-b'-1} F_b' and R_b =
    sum_{b' > b} X^{b'-b-1} G_b', one stacked (2, r, r) product written
    straight into the L and R columns; and [V | L | R] @ [T / c_beta; S],
    which adds the in-block products (T[i, j] = x^{|i - j|}) to the carry
    spread back with S, whose rows are x^{i+1} and x^{bs-i}.  Every entry
    is formed as e^{-a k}, a = beta/2, with a split a_hi + a_lo that keeps
    a_hi k exact (x ** k from the rounded x drifts to 3e-14 relative by
    k ~ 600).  Every term is positive, so nothing cancels.
    """
    bs = _step_block(n)
    r = -(-n // bs)
    a = 0.5 * law.beta
    a_hi = round(a * 2.0 ** 20) / 2.0 ** 20  # 20 fractional bits

    def power(k):
        return np.exp(-a_hi * k) * np.exp((a_hi - a) * k)

    t = np.arange(bs)
    E = power(np.stack((bs - 1 - t, t), axis=1)) / law.c_beta
    TS = np.concatenate((power(np.abs(np.subtract.outer(t, t))) / law.c_beta,
                         power(np.stack((t + 1, bs - t)))))
    gap = np.subtract.outer(np.arange(r), np.arange(r)) - 1  # b - b' - 1
    low = np.tril(power(bs * np.abs(gap)), -1)
    carry = np.stack((low, low.T))
    buf = np.zeros((r, bs + 2))
    V = buf[:, :bs]
    LR = buf[:, bs:].T[:, :, None]  # (2, r, 1) view of the L and R columns
    FG = np.empty((2, r, 1))
    FG_cols = FG[:, :, 0].T  # (r, 2) view

    def apply():
        np.matmul(V, E, out=FG_cols)
        np.matmul(carry, FG, out=LR)
        return buf @ TS

    return V, apply


# F: between two renormalizations of the bridge the max of its vector falls
# by at most 2^-F, so it stays >= 2^-(F+1) and every entry down to 2^-821 of
# it is a normal double (2^-(F+1) 2^-821 = 2^-1022)
_DECAY_BITS = 200


def _renorm_period(law: StepLaw, w: np.ndarray) -> int:
    """K = max(1, floor(F ln 2 / -ln rho)), rho = min(w) / c_beta, F =
    ``_DECAY_BITS``: the steps the bridge may take between two
    renormalizations for the weights w <= 1 of the real heights.

    The step's diagonal is 1/c_beta, so max(w M v) >= rho max v, and its
    row sums are <= 1, so the max never grows: K steps take it down by at
    most rho^K >= 2^-F.  K = 1 when a weight underflows to 0.
    """
    rho = float(w.min()) / law.c_beta
    if rho == 0.0:
        return 1
    if rho == 1.0:  # c_beta rounds to 1 and no weight is below 1
        return sys.maxsize
    return max(1, math.floor(_DECAY_BITS * math.log(2.0) / -math.log(rho)))


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
    e^{log_w(0)} p_1(0).

    Between steps v <- w p with w = e^{log_w - max log_w} <= 1.  Every K
    steps (``_renorm_period``), and always before the two steps whose p the
    join reads, v is renormalized by the power of two that brings its max
    into [1/2, 1), so the rescale is exact and off_i is (sum of the
    exponents) log 2 + (i - 1) max log_w, rounded a fixed number of times
    however many steps are taken.  The max falls by at most a factor rho =
    min(w) / c_beta a step and never grows, so between two rescales it
    stays above 2^-(F+1) with F = ``_DECAY_BITS`` and every entry down to
    2^-821 of it stays a normal double; the two read steps are rescaled,
    so the join sees the vectors a rescale every step would give.
    v lives in the V columns of the block buffer of ``_step_apply``, so
    the site weight and the rescale are written into it in place and each
    step is the blocked semiseparable product; the dense product it
    replaces is the test oracle ``oracles.strip_walk_dense``.
    """
    n = len(log_w)
    V, apply = _step_apply(law, n)
    shift = float(np.max(log_w))
    w = np.zeros(V.size)
    w[:n] = np.exp(log_w - shift)
    K = _renorm_period(law, w[:n])
    w = w.reshape(V.shape)
    V[0, 0] = 1.0
    exps = 0  # the rescales so far divided by 2^exps in all
    j, k = -(-N // 2), N // 2
    for step in range(j):
        if step:
            np.multiply(w, P, out=V)
            if step % K == 0 or step + 1 == k or step + 1 == j:
                e = math.frexp(V.max())[1]
                np.ldexp(V, -e, out=V)
                exps += e
        P = apply()
        if step + 1 == k:
            P_k, off_k = P, exps * math.log(2.0) + step * shift
    log_off = exps * math.log(2.0) + (j - 1) * shift
    p = P.reshape(-1)[:n]
    if k == 0:
        return float(log_w[0]) + log_off + math.log(p[0])
    with np.errstate(divide="ignore"):
        terms = log_w + np.log(p) + np.log(P_k.reshape(-1)[:n])
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


def _log_growth(x: float, e: float) -> float:
    """h at delta = delta_tilde + e, e > 0, x = e^{-beta/2}.

    With y = e^{-delta}, e^h = (1 - y)(1 - x)^2 / (y (1 - x^2 - y)), and

        e^h - 1 = (1 - x - y)^2 / (y (1 - x^2 - y))

    (the numerator is a perfect square: h vanishes to second order at
    delta_tilde).  Since 1 - x = e^{-delta_tilde}, y = (1 - x) e^{-e}, so
    1 - x - y = y (e^e - 1) and 1 - x^2 - y = (1 - x)(x + m) with
    m = 1 - e^{-e}: e^h - 1 = (e^e - 1) m / (x + m), a product and a
    quotient of positive terms, each accurate at any e.  Its log1p is h;
    from e = 709 on (e^e overflows past 709.78), h = e + log(m^2 / (x + m)
    + e^{-e}), the same identity divided by e^e.
    """
    m = -math.expm1(-e)
    if e < 709.0:
        return math.log1p(math.expm1(e) * m / (x + m))
    return e + math.log(m * m / (x + m) + math.exp(-e))


def wetting_free_energy(beta: float, delta: float) -> float:
    """Localized free energy h_beta(delta); identically 0 for delta <= delta_tilde.

    h is the log of the root 1/s of 1 = e^delta F(s), F the return kernel's
    generating function, which is

        h = delta + log(1 - e^{-delta}) + 2 log(1 - x) - log(1 - e^{-delta} - x^2);

    it is evaluated as ``_log_growth`` of delta - delta_tilde, which keeps
    its digits as delta -> delta_tilde (where the form above cancels) and
    stays finite at any finite delta.  Its relative error is within
    8 eps (1 + delta / (delta - delta_tilde)), the second term the
    conditioning of h at the second-order onset.  The closed form of
    ``zwet_series`` multiplies h by the length n, so an error in h reaches
    log Z_wet(n) n times over.
    """
    _check_delta(delta)
    e = delta - delta_tilde(beta)
    if e <= 0.0:
        return 0.0
    return _log_growth(math.exp(-0.5 * beta), e)


def _prefactor(beta: float, delta: float, h: float) -> float:
    """C_wet at delta > delta_tilde, given h = h_beta(delta); see
    ``cwet_constant``."""
    x = math.exp(-0.5 * beta)
    m = -math.expm1(delta_tilde(beta) - delta)
    q = -math.expm1(-h)
    return (1.0 + x) / (x + m) * math.sqrt(q * (q + (1.0 - q) * 4.0 * x
                                                / (1.0 + x) ** 2))


# the closed form drops the kernel's tail past T* once that tail is below
# 2^-54 C_wet, half an ulp of C_wet and so of every Z(n) e^{-h n}
_TAIL_BITS = 54


def _localized_terms(beta: float, delta: float, h: float) -> tuple:
    """(C_wet, gap, T*) for the closed form of ``zwet_series``, h =
    h_beta(delta) > 0: gap = 1 - x^2 - e^{-delta} = (1 - x)(x + m), m = 1 -
    e^{-(delta - delta_tilde)}, and T* the least T >= 1 with

        e^{-h(T+1)} / ((1 - e^{-h}) gap) <= 2^-54 C_wet.

    K(t) <= 1, so sum_{t > T} K(t) e^{-h t} <= e^{-h(T+1)} / (1 - e^{-h}),
    and the condition is h (T + 1) >= 54 log 2 - log(C_wet gap (1 - e^{-h})).
    T* is capped at ``sys.maxsize`` where h is so small that it overflows.
    """
    C = _prefactor(beta, delta, h)
    x = math.exp(-0.5 * beta)
    gap = -math.expm1(-0.5 * beta) * (x - math.expm1(delta_tilde(beta) - delta))
    v = (_TAIL_BITS * math.log(2.0) - math.log(C * gap * -math.expm1(-h))) / h
    return C, gap, max(1, math.ceil(min(v, float(sys.maxsize))) - 1)


_RENEWAL_BLOCK = 128  # lengths per block of the renewal solve


def zwet_series(beta: float, delta: float, N: int) -> np.ndarray:
    """log Z_wet(n) for n = 0..N: in closed form in the localized phase
    when the kernel's tail is short, by the renewal recursion otherwise.

    Z(s) = sum_n Z(n) s^n = 1 / (1 - e^delta F(s)), and F^2 = (c + a s) F
    - a s (``return_kernel``) gives, on multiplying by 1 - e^delta G with
    G = c + a s - F the other root,

        Z(s) = (1 - e^delta (c + a s) + e^delta F(s)) / D(s),
        D(s) = 1 - e^delta c + e^delta a (e^delta - 1) s.

    D is linear and, above delta_tilde, vanishes at s = e^{-h}.  The s^n
    coefficients of D Z give, for n >= 2,

        (1 - e^delta c) Z(n) + e^delta a (e^delta - 1) Z(n - 1) = e^delta K(n),

    that is, with u(n) = Z(n) e^{-h n} and e^h = e^delta a (e^delta - 1) /
    (e^delta c - 1), u(n) - u(n - 1) = -K(n) e^{-h n} / (c - e^{-delta}).
    Summed from n + 1 to infinity, u tends to C_wet, so for n >= 1

        Z(n) = e^{h n} [C_wet + (1 - x^2 - e^{-delta})^{-1} sum_{t > n} K(t) e^{-h t}],

    every term positive.  The tail past T* (``_localized_terms``) is below
    2^-54 C_wet <= Z(n) e^{-h n}: K(t) <= 1 bounds it by e^{-h(T+1)} /
    (1 - e^{-h}), and T* is the least T >= 1 where that, over 1 - x^2 -
    e^{-delta}, is at most 2^-54 C_wet.  So only K(1..T*) is read, with one
    reversed cumulative sum and one log (T* = 122 at beta = 2, delta = 1,
    and 214 at beta = 0.5, delta = 2).

    The closed form is taken when h > 0 and T* <= N.  At delta <=
    delta_tilde the root of D is removable and the same first-order
    recursion has a spurious growing mode, and near delta_tilde T* (about
    37 / h) exceeds N; there ``_renewal_series`` runs.
    """
    N = _count(N, "N")
    h = wetting_free_energy(beta, delta)
    if h > 0.0:
        C, gap, T = _localized_terms(beta, delta, h)
        if T <= N:
            return _localized_series(beta, h, C, gap, T, N)
    return _renewal_series(beta, delta, h, N)


def _localized_series(beta: float, h: float, C: float, gap: float, T: int,
                      N: int) -> np.ndarray:
    """log Z_wet(n), n = 0..N, by the closed form of ``zwet_series`` with
    the kernel's tail summed to T (any T >= 1) and dropped past it."""
    w = return_kernel(beta, T).k[1:] * np.exp(-h * np.arange(1.0, T + 1))
    u = np.full(N + 1, C)
    n = min(T, N + 1)
    u[1:n] += np.cumsum(w[::-1])[::-1][1:n] / gap  # sum_{t > n} of w(t)
    log_z = h * np.arange(N + 1.0) + np.log(u)
    log_z[0] = 0.0
    return log_z


def _renewal_series(beta: float, delta: float, h: float, N: int) -> np.ndarray:
    """log Z_wet(n), n = 0..N, by the renewal recursion, h = h_beta(delta).

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
    e^{delta - h}.  With q = 1 - s, m = 1 - e^{-(delta - delta_tilde)},
    1 - y - x^2 = (1 - x)(x + m) and 1 - s/s2 = q + (1 - q) 4x / (1 + x)^2,

        C = (1 + x) / (x + m) sqrt(q (q + (1 - q) 4x / (1 + x)^2)),

    all terms positive: no cancellation near delta_tilde and no overflow at
    large delta.  ``zwet_series`` reads the same private ``_prefactor``.
    """
    if delta <= delta_tilde(beta):
        raise ValueError("cwet_constant is defined only for delta > delta_tilde")
    return _prefactor(beta, delta, wetting_free_energy(beta, delta))
