"""Pinned walk above a hard wall: return kernel, partition function, curves.

The building block is the first-return kernel of the step walk,

    K(t) = P(tau = t, X_tau = 0),    tau = first hitting time of (-inf, 0].

The step law is two-sided geometric, so its generating function is
algebraic and ``return_kernel`` reads K(t) off it in closed form (the
height-resolved DP it displaces is kept as a test oracle).  On top of it
sit the pinned partition function (renewal recursion, cross-checked by a
direct positive-walk DP), the closed-form localization free energy
h_beta(delta) and prefactor C_wet, and the three critical curves
delta_tilde < delta_c < delta_circ of the phase diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .steps import StepLaw, beta_critical, step_pmf

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
    "positive_bridge_logprob",
    "logsumexp_c",
]


def logsumexp_c(values) -> float:
    """log(sum exp(values)) with Neumaier-compensated accumulation.

    Accepts any iterable; -inf entries are skipped.  Used wherever sums of
    wildly different log-magnitudes are combined.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    arr = arr[arr > -np.inf]
    if arr.size == 0:
        return -math.inf
    m = float(arr.max())
    s = 0.0
    comp = 0.0
    for e in np.exp(arr - m):
        t = s + e
        if abs(s) >= abs(e):
            comp += (s - t) + e
        else:
            comp += (e - t) + s
        s = t
    return m + math.log(s + comp)


def _default_cutoff(n: float, beta: float) -> int:
    """Height cutoff for DPs over ~n steps: generous multiple of sqrt(n/beta)."""
    return math.ceil(12.0 * math.sqrt(max(n, 1.0) / beta)) + 64


def _check_delta(delta: float) -> None:
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")


def _step_matrix(law: StepLaw, H: int) -> np.ndarray:
    """M[i, j] = P(X = i - j) for heights i, j in 0..H."""
    y = np.arange(H + 1)
    return step_pmf(law, np.subtract.outer(y, y))


def _strip_walk(law: StepLaw, log_w: np.ndarray, start: int, steps: int):
    """The weighted step walk on the strip [0, H], H = len(log_w) - 1.

    Starting from the unit vector at ``start``, yields (p, log_off) for
    k = 1..steps, where e^{log_w} p e^{log_off} is the weight of the k-step
    paths ending at each height: p = M v is the walk's step applied to the
    (k-1)-step vector v before the site weights, so a consumer adds log_w in
    log space and a very negative log weight never underflows.  Between
    steps v <- e^{log_w - max log_w} p is renormalized to max 1.
    """
    M = _step_matrix(law, len(log_w) - 1)
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    v = np.zeros(len(log_w))
    v[start] = 1.0
    log_off = 0.0
    for k in range(steps):
        if k:
            v = w * p
            s = v.max()
            v /= s
            log_off += math.log(s) + shift
        p = M @ v
        yield p, log_off


def _strip_walk_log_end(law: StepLaw, log_w: np.ndarray, start: int,
                        steps: int) -> float:
    """log of the ``_strip_walk`` weight at height 0 after ``steps`` steps."""
    if steps == 0:
        return 0.0 if start == 0 else -math.inf
    for p, log_off in _strip_walk(law, log_w, start, steps):
        pass
    last = float(p[0])
    return float(log_w[0]) + log_off + (math.log(last) if last > 0.0 else -math.inf)


def _kernel_constants(law: StepLaw) -> tuple:
    """(c, s2) = (1 - x^2, (c/a)^2) with a = (1 - x)^2, x = e^{-beta/2}."""
    c = 1.0 - law.x * law.x
    return c, (c / (1.0 - law.x) ** 2) ** 2


@dataclass(frozen=True)
class ReturnKernel:
    """First-return kernel table K(t), t = 1..t_max.

    ``k[t]`` is P(tau = t, X_tau = 0), index 0 unused.  The table comes from
    a closed form, so ``truncation_bound`` is 0.0 and ``height_cutoff`` is 0,
    meaning no cutoff.
    """

    beta: float
    t_max: int
    height_cutoff: int
    k: np.ndarray
    truncation_bound: float

    def total_mass(self) -> float:
        return float(self.k[1:].sum())


def return_kernel(beta: float, t_max: int) -> ReturnKernel:
    """K(t) for t = 1..t_max from its algebraic generating function.

    With x = e^{-beta/2}, a = (1-x)^2, c = 1-x^2 and s2 = (c/a)^2, the
    generating function F(s) = sum_t K(t) s^t is the small root of
    y^2 - (c + a s) y + a s = 0,

        F(s) = [c + a s - c sqrt(1 - s) sqrt(1 - s/s2)] / 2,

    so K(1) = 1/c_beta and, for t >= 2, K(t) is -c/2 times the s^t
    coefficient of the product of the two binomial series.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    law = StepLaw(beta)
    c, s2 = _kernel_constants(law)
    n = np.arange(1, t_max + 1)
    sqrt_1ms = np.concatenate(([1.0], np.cumprod((2.0 * n - 3.0) / (2.0 * n))))
    sqrt_1ms2 = sqrt_1ms * s2 ** -np.arange(t_max + 1.0)
    k = -0.5 * c * np.convolve(sqrt_1ms, sqrt_1ms2)[:t_max + 1]
    k[0] = 0.0
    k[1] = 1.0 / law.c_beta
    return ReturnKernel(beta, t_max, 0, k, 0.0)


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


def zwet_series(beta: float, delta: float, N: int,
                kernel: ReturnKernel | None = None) -> np.ndarray:
    """log Z_wet(n) for n = 0..N via the renewal recursion.

    The recursion is run on the exponentially rebased sequence
    Z(n) e^{-h n} (bounded in every phase, so plain double dots are safe)
    with one factor e^{delta - h} taken out for n >= 1, so that a very
    negative delta cannot underflow it; logs are recovered at the end.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    h = wetting_free_energy(beta, delta)
    if kernel is None:
        kernel = return_kernel(beta, max(N, 1))
    if kernel.t_max < N:
        raise ValueError("kernel table shorter than requested N")
    if abs(kernel.beta - beta) > 1e-12:
        raise ValueError("kernel was built for a different beta")
    t = np.arange(1, N + 1)
    krb = kernel.k[1:N + 1] * np.exp(delta - h * t)
    # y(n) = Z(n) e^{-delta - h (n-1)}: the excursion straight to n, plus
    # a first return at t < n followed by Z(n - t)
    y = np.concatenate(([0.0], kernel.k[1:N + 1] * np.exp(-h * (t - 1.0))))
    for n in range(2, N + 1):
        y[n] += float(krb[:n - 1] @ y[n - 1:0:-1])
    return np.concatenate(([0.0], np.log(y[1:]) + delta + h * (t - 1.0)))


def zwet(beta: float, delta: float, N: int,
         kernel: ReturnKernel | None = None) -> float:
    """log Z_wet(N): pinned positive walk, reward e^delta per return to 0."""
    return float(zwet_series(beta, delta, N, kernel)[N])


def zwet_direct(beta: float, delta: float, N: int,
                height_cutoff: int | None = None) -> float:
    """log Z_wet(N) by direct height DP (independent cross-check of the renewal)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    _check_delta(delta)
    law = StepLaw(beta)
    H = height_cutoff if height_cutoff is not None else _default_cutoff(N, beta)
    log_w = np.zeros(H + 1)
    log_w[0] = delta
    return _strip_walk_log_end(law, log_w, 0, N)


def positive_bridge_logprob(beta: float, n: int, x0: int = 0,
                            height_cutoff: int | None = None) -> float:
    """log P(X_k >= 0 for k <= n, X_n = 0 | X_0 = x0) for the step walk."""
    if x0 < 0:
        raise ValueError("start must be above the wall")
    if n < 0:
        raise ValueError("n must be >= 0")
    law = StepLaw(beta)
    H = (height_cutoff if height_cutoff is not None
         else _default_cutoff(n, beta) + x0)
    return _strip_walk_log_end(law, np.zeros(H + 1), x0, n)


@dataclass(frozen=True)
class CriticalCurves:
    """The three transition lines evaluated at one beta."""

    beta: float
    delta_tilde: float
    delta_c: float
    delta_circ: float


def _delta_at_h_target(beta: float, target: float) -> float:
    """Solve h_beta(delta) = target (target >= 0) for delta, by bisection."""
    dt = delta_tilde(beta)
    lo = dt + 1e-9
    hi = dt + 50.0
    if wetting_free_energy(beta, lo) >= target:
        return lo
    while wetting_free_energy(beta, hi) < target:
        hi += 50.0
        if hi > dt + 1000.0:  # pragma: no cover - defensive
            raise RuntimeError("failed to bracket the critical curve")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if wetting_free_energy(beta, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_curves(beta: float) -> CriticalCurves:
    """delta_tilde, delta_c, delta_circ at inverse temperature beta.

    delta_c comes in closed form,

        delta_c = log[(sinh beta + sqrt(sinh^2 beta + 1 - e^beta)) / (1 - e^{-beta})],

    and is cross-checked against the root of log Gamma_beta + h_beta(delta) = 0;
    delta_circ is the root of 2 log Gamma_beta + h_beta(delta) = 0.  Both
    collapse curves only exist for beta >= beta_c (Gamma_beta <= 1).
    """
    if beta < beta_critical():
        raise ValueError(
            f"collapse curves require beta >= beta_c = {beta_critical():.6f}"
        )
    law = StepLaw(beta)
    dt = delta_tilde(beta)
    sh = math.sinh(beta)
    disc = max(sh * sh + 1.0 - math.exp(beta), 0.0)
    dc = math.log(sh + math.sqrt(disc)) - math.log1p(-math.exp(-beta))
    log_gamma = math.log(law.gamma_beta)
    dc_root = _delta_at_h_target(beta, -log_gamma)
    if abs(dc - dc_root) > 1e-7:  # pragma: no cover - internal consistency
        raise RuntimeError("closed-form and root-solved delta_c disagree")
    dcirc = _delta_at_h_target(beta, -2.0 * log_gamma)
    return CriticalCurves(beta, dt, dc, dcirc)


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
