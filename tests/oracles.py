"""Independent oracle implementations used to check the package.

Everything here is written from the defining formulas with deliberately
different algorithms than the package (truncated sums instead of closed
forms, counting DPs instead of enumeration, dense-grid quadrature and
adaptive Gauss-Legendre panels instead of the dilogarithm closed form of
the segment free energy, the forward first-exceedance sum instead of the
backward truncation bound of ``dp_Z``, a log-space transfer recursion
instead of its rescaled linear one) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from ipdsaw.polymer import Variant


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


# -- transfer-DP truncation oracle ------------------------------------------

def _truncation_tail(L, beta, delta, variant, H, K, rew) -> float:
    """Rigorous bound on the reduced weight lost above height H.

    Forward first-exceedance accounting: every lost configuration is counted
    once, at the first stretch whose top height w exceeds H, with the exact
    weight accumulated so far, a geometric bound on the crossing stretch,
    and a crude combinatorial bound (1 + 2 e^{max(delta,0)-beta})^{R} on the
    remaining weight (number of sign/length completions times the best
    per-stretch factor; the pair factors are <= 1).
    """
    n = H + 1
    x = math.exp(-0.5 * beta)
    E = math.exp(max(delta, 0.0) - beta)

    def U(R):  # completion bound for R remaining length units
        return 1.0 if R <= 0 else 2.0 * E * (1.0 + 2.0 * E) ** (R - 1)

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
                    t_suffix[j] = t_suffix[j + 1] + math.exp(-0.5 * beta * j) * U(R1 - j)
                g = (np.exp(0.5 * beta * vv) @ A) * np.exp(-0.5 * beta * vv)
                jmin = np.maximum(H + 1 - vv, 1)
                pick = np.where(jmin <= R1, t_suffix[np.minimum(jmin, R1 + 1)], 0.0)
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
