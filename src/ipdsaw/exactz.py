"""Exact partition functions: brute force, transfer DP, walk identities.

Writing T_k for the prefix heights of the stretch vector, the Boltzmann
weight factorizes over *pairs of heights two apart*:

    e^{H(l)} = e^{beta L} * prod_{i=1}^{N} [ e^{-beta} e^{-(beta/2)|T_i - T_{i-2}|}
                                             e^{delta 1{T_i = 0}} ]
                         * e^{-(beta/2)|T_N - T_{N-1}|},

(with T_{-1} = T_0 = 0), which is what both the enumeration bookkeeping and
the transfer DP below exploit.  The module provides

* ``brute_force_Z``    exhaustive enumeration (the oracle, L <= 24);
* ``dp_Z``             transfer DP over (consumed length, prev height,
                       cur height), exact at the default cutoff, with a
                       rigorous truncation bound otherwise;
* ``backward_sample``  exact polymer-measure samples drawn backward
                       through a DP table;
* ``d_circ``           joint upper/lower-envelope DP at a prescribed
                       enclosed-area difference;
* ``e_circ`` / ``e_n_gamma``   area-tilted pinned-bridge partition values;
* ``z_circ_from_walks`` / ``z_constrained_from_walks``   the random-walk
  representations of the single-bead and end-constrained models, used to
  cross-validate the direct enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import largedev
from .polymer import StretchConfig, Variant, as_variant
from .steps import StepLaw
from .wetting import (_check_delta, _default_cutoff, _step_matrix, _strip_walk,
                      logsumexp_c)

__all__ = [
    "DPTable",
    "AreaWettingDP",
    "brute_force_Z",
    "enumerate_configs",
    "feature_histogram",
    "dp_Z",
    "backward_sample",
    "d_circ",
    "area_wetting_dp",
    "e_circ",
    "e_n_gamma",
    "z_circ_from_walks",
    "z_constrained_from_walks",
]

_BRUTE_MAX_L = 24


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_configs(L: int, variant=Variant.FREE):
    """Yield every stretch vector in the chosen configuration set (slow path).

    Plain recursive generation, exponential in L; used for hand-sized cross
    checks and to expose configurations individually.  ``feature_histogram``
    is the fast aggregated route.
    """
    variant = as_variant(variant)
    if L < 1:
        return

    def rec(budget, height, prev, acc):
        if variant is Variant.SINGLE_BEAD:
            up = prev <= 0
            if up:
                cands = range(1, budget)
            else:
                cands = range(-min(height, budget - 1), 0)
        else:
            cands = range(-min(height, budget - 1), budget)
        for v in cands:
            b2 = budget - 1 - abs(v)
            h2 = height + v
            acc.append(v)
            if b2 == 0:
                if variant is Variant.FREE or h2 == 0:
                    if variant is not Variant.SINGLE_BEAD or v < 0:
                        yield tuple(acc)
            else:
                yield from rec(b2, h2, v, acc)
            acc.pop()

    yield from rec(L, 0, 0, [])


_HIST_CACHE: dict = {}


def feature_histogram(L: int, variant=Variant.FREE) -> dict:
    """{(total overlap, contacts): multiplicity} over the configuration set.

    The Boltzmann weight of a configuration depends only on these two
    features, so one enumeration serves every (beta, delta).  Enumeration is
    done as a vectorized frontier sweep: each row of the frontier is one
    distinct partial configuration (no state merging), so this is still an
    exhaustive walk of the tree, just batched.
    """
    variant = as_variant(variant)
    key = (L, variant.value)
    if key in _HIST_CACHE:
        return _HIST_CACHE[key]
    if L < 1:
        raise ValueError("L must be >= 1")

    hist: dict = {}

    def harvest(w, c):
        if w.size:
            keys = w.astype(np.int64) * (L + 1) + c
            uk, cnt = np.unique(keys, return_counts=True)
            for k, n in zip(uk.tolist(), cnt.tolist()):
                wc = divmod(k, L + 1)
                hist[wc] = hist.get(wc, 0) + n

    def expand(b, h, p, w, c, lo, hi):
        """All children with stretch value in [lo, hi] per row."""
        m = hi - lo + 1
        keep = m > 0
        b, h, p, w, c, lo, m = (a[keep] for a in (b, h, p, w, c, lo, m))
        if b.size == 0:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(5))
        tot = int(m.sum())
        idx = np.repeat(np.arange(b.size), m)
        starts = np.cumsum(m) - m
        v = lo[idx] + (np.arange(tot) - starts[idx])
        pr = p[idx]
        nb = b[idx] - 1 - np.abs(v)
        nh = h[idx] + v
        nw = w[idx] + (np.abs(pr) + np.abs(v) - np.abs(pr + v)) // 2
        nc = c[idx] + (nh == 0)
        return nb, nh, v, nw, nc

    z = np.zeros(1, dtype=np.int64)
    frontier = (np.full(1, L, dtype=np.int64), z, z, z.copy(), z.copy())
    while frontier[0].size:
        b, h, p, w, c = frontier
        if variant is Variant.SINGLE_BEAD:
            up = p <= 0
            parts = []
            # upward stretches must leave room for the matching descent
            ub, uh, upr, uw, uc = (a[up] for a in (b, h, p, w, c))
            hi = np.minimum(ub - 1, (ub - 2 - uh) // 2)
            parts.append(expand(ub, uh, upr, uw, uc, np.ones_like(ub), hi))
            db, dh, dpr, dw, dc = (a[~up] for a in (b, h, p, w, c))
            parts.append(expand(db, dh, dpr, dw, dc,
                                -np.minimum(dh, db - 1), -np.ones_like(db)))
            nb, nh, nv, nw, nc = (np.concatenate(t) for t in zip(*parts))
            leaf = (nb == 0) & (nh == 0) & (nv < 0)
            harvest(nw[leaf], nc[leaf])
            go = (~leaf) & np.where(nv > 0, nh <= nb - 1, nb >= nh + 4)
        else:
            lo = -np.minimum(h, b - 1)
            nb, nh, nv, nw, nc = expand(b, h, p, w, c, lo, b - 1)
            if variant is Variant.FREE:
                leaf = nb == 0
                go = ~leaf
            else:
                leaf = (nb == 0) & (nh == 0)
                go = (nb >= 1) & (nh <= nb - 1)  # must still be able to return
            harvest(nw[leaf], nc[leaf])
        frontier = (nb[go], nh[go], nv[go], nw[go], nc[go])

    _HIST_CACHE[key] = hist
    return hist


def brute_force_Z(L: int, beta: float, delta: float, variant=Variant.FREE) -> float:
    """log Z by exhaustive enumeration; the oracle every DP is checked against."""
    if L > _BRUTE_MAX_L:
        raise ValueError(f"L={L} too large for enumeration (max {_BRUTE_MAX_L})")
    hist = feature_histogram(L, variant)
    if not hist:
        return -math.inf
    terms = [math.log(n) + beta * w + delta * c for (w, c), n in hist.items()]
    return logsumexp_c(terms)


# ---------------------------------------------------------------------------
# transfer DP
# ---------------------------------------------------------------------------

def _exact_cutoff(L: int, variant: Variant) -> int:
    """Smallest height cutoff that provably loses nothing.

    A prefix height h needs h vertical bonds to reach; the returning
    variants need h more to come back, and at least one horizontal bond is
    consumed, hence h <= (L-2)/2 there and h <= L-1 for Free.
    """
    if variant is Variant.FREE:
        return max(L - 1, 0)
    return max((L - 2) // 2, 0)


@dataclass
class DPTable:
    """Backward completion table of the transfer DP.

    ``log_weights[m][u, v]`` is the log of the total reduced weight (the
    e^{beta L} prefactor stripped) of all ways to finish a configuration
    given that m length units are consumed and the last two prefix heights
    are (u, v).  For SingleBead it is a pair of such stacks, indexed by the
    direction of the next stretch (up, down).  ``normalization`` is log Z.
    ``truncation_bound`` bounds the reduced weight lost to the height
    cutoff; 0.0 means the table is exact.
    """

    variant: Variant
    L: int
    beta: float
    delta: float
    height_cutoff: int
    log_weights: object
    normalization: float
    truncation_bound: float

    def completion(self, consumed: int, next_up: bool = True) -> np.ndarray:
        if self.variant is Variant.SINGLE_BEAD:
            return self.log_weights[0 if next_up else 1][consumed]
        return self.log_weights[consumed]

    def save(self, path) -> None:
        import json
        meta = json.dumps({
            "variant": self.variant.value, "L": self.L, "beta": self.beta,
            "delta": self.delta, "cutoff": self.height_cutoff,
            "normalization": self.normalization,
            "truncation_bound": self.truncation_bound,
        })
        if self.variant is Variant.SINGLE_BEAD:
            np.savez_compressed(path, meta=meta, up=self.log_weights[0],
                                down=self.log_weights[1])
        else:
            np.savez_compressed(path, meta=meta, table=self.log_weights)

    @classmethod
    def load(cls, path) -> "DPTable":
        import json
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            variant = Variant(meta["variant"])
            lw = ((z["up"], z["down"]) if variant is Variant.SINGLE_BEAD
                  else z["table"])
        return cls(variant, meta["L"], meta["beta"], meta["delta"],
                   meta["cutoff"], lw, meta["normalization"],
                   meta["truncation_bound"])


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


def dp_Z(L: int, beta: float, delta: float, variant=Variant.FREE,
         height_cutoff: int | None = None) -> tuple:
    """(log Z, DPTable) by backward transfer over height pairs.

    With the default cutoff the DP is exact (see ``_exact_cutoff``); a
    smaller user cutoff yields a lower bound on Z together with a rigorous
    bound on the missing reduced weight.
    """
    variant = as_variant(variant)
    if L < 1:
        raise ValueError("L must be >= 1")
    exact_H = _exact_cutoff(L, variant)
    if height_cutoff is None:
        H = exact_H
    else:
        if height_cutoff < 1:
            raise ValueError("height_cutoff must be >= 1")
        H = int(height_cutoff)
    n = H + 1
    law = StepLaw(beta)
    M = _step_matrix(law, H)
    # K[u, w] = e^{-beta} e^{-(beta/2)|w - u|}: one stretch's reduced weight
    K = math.exp(-beta) * law.c_beta * M
    rew = np.ones(n)
    rew[0] = math.exp(delta)
    vv = np.arange(n)
    Vg, Wg = np.indices((n, n))
    cons = 1 + np.abs(Wg - Vg)  # length units consumed by the stretch v -> w

    def gather(stack, R):
        Rp = R - cons
        ok = Rp >= 0
        out = stack[np.where(ok, Rp, 0), Vg, Wg]
        out[~ok] = 0.0
        return out

    if variant is Variant.SINGLE_BEAD:
        up_mask = Wg > Vg
        dn_mask = Wg < Vg
        Gu = np.zeros((L + 1, n, n))
        Gd = np.zeros((L + 1, n, n))
        Gu[0][:, 0] = np.exp(-0.5 * beta * vv)  # closed: last stretch was down
        for R in range(1, L + 1):
            Cu = rew[None, :] * gather(Gd, R)
            Cu[~up_mask] = 0.0
            Gu[R] = K @ Cu.T
            Cd = rew[None, :] * gather(Gu, R)
            Cd[~dn_mask] = 0.0
            Gd[R] = K @ Cd.T
        root = Gu[L][0, 0]
        stacks = (Gu, Gd)
    else:
        G = np.zeros((L + 1, n, n))
        if variant is Variant.FREE:
            G[0] = law.c_beta * M
        else:
            G[0][:, 0] = np.exp(-0.5 * beta * vv)
        for R in range(1, L + 1):
            C = rew[None, :] * gather(G, R)
            G[R] = K @ C.T
        root = G[L][0, 0]
        stacks = (G,)

    log_z = beta * L + (math.log(root) if root > 0.0 else -math.inf)
    bound = 0.0
    if H < exact_H:
        bound = _truncation_tail(L, beta, delta, variant, H, K, rew)

    with np.errstate(divide="ignore"):
        for s in stacks:
            np.log(s, out=s)  # in place: the linear values are no longer needed
    logs = tuple(s[::-1] for s in stacks)  # reindex by consumed length m
    lw = logs if variant is Variant.SINGLE_BEAD else logs[0]
    table = DPTable(variant, L, beta, delta, H, lw, log_z, bound)
    return log_z, table


def backward_sample(table: DPTable, count: int, rng) -> list:
    """Draw ``count`` exact samples from the polymer measure of ``table``.

    Walks forward through the configuration while reading completion
    weights backward from the table; every transition is sampled from its
    exact conditional, so the draws are i.i.d. from e^{H} / Z.
    """
    if not table.truncation_bound < 1e-9:
        raise ValueError("table is truncated; refuse to sample from a biased law")
    if not np.isfinite(table.normalization):
        raise ValueError("the configuration set is empty at these parameters")
    L, H, beta, delta = table.L, table.height_cutoff, table.beta, table.delta
    n = H + 1
    vv = np.arange(n)
    log_rew = np.zeros(n)
    log_rew[0] = delta
    single = table.variant is Variant.SINGLE_BEAD
    cache: dict = {} if L <= 64 else None

    def conditional(m, u, v, up):
        """(values w, cdf) of the next height given state and consumed m."""
        if single:
            # after an up-stretch the walk must come down, and vice versa
            stack = table.log_weights[1] if up else table.log_weights[0]
        else:
            stack = table.log_weights
        cons = 1 + np.abs(vv - v)
        mfut = m + cons
        ok = mfut <= L
        lp = np.full(n, -np.inf)
        idx = np.nonzero(ok)[0]
        lp[idx] = (-beta - 0.5 * beta * np.abs(idx - u) + log_rew[idx]
                   + stack[mfut[idx], v, idx])
        if single:
            lp[vv <= v if up else vv >= v] = -np.inf
        good = np.isfinite(lp)
        w = np.nonzero(good)[0]
        pe = np.exp(lp[good] - lp[good].max())
        return w, np.cumsum(pe)

    out = []
    for _ in range(count):
        m, u, v, up = 0, 0, 0, True
        stretches = []
        while m < L:
            key = (m, u, v, up)
            if cache is not None:
                hit = cache.get(key)
                if hit is None:
                    hit = conditional(m, u, v, up)
                    cache[key] = hit
            else:
                hit = conditional(m, u, v, up)
            w_vals, cdf = hit
            r = rng.random() * cdf[-1]
            w = int(w_vals[np.searchsorted(cdf, r, side="right")])
            stretches.append(w - v)
            m += 1 + abs(w - v)
            u, v, up = v, w, not up
        out.append(StretchConfig(tuple(stretches), L, table.variant))
    return out


# ---------------------------------------------------------------------------
# envelope-pair DPs and walk representations
# ---------------------------------------------------------------------------

def d_circ(N: int, q, beta: float, delta: float,
           height_cutoff: int | None = None) -> float:
    """Joint ordered-envelope probability at a pinned enclosed-area difference.

    Expectation over two independent step walks S (N+1 steps, S_{N+1} = 0)
    and I (N steps, I_N = 0), both >= 0, strictly ordered (S_k > I_k and
    S_k > I_{k-1}), carrying e^{delta} per zero of I, on the event that the
    signed-area difference A_{N+1}(S) - A_N(I) equals q N^2.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    j2 = 2.0 * q * N * N
    j2r = round(j2)
    if j2r < 1 or abs(j2 - j2r) > 1e-9 * max(1.0, abs(j2)):
        raise ValueError(f"q={q!r} is not a positive multiple of 1/(2 N^2)")
    if j2r % 2:
        return 0.0  # half-integer area target: no lattice configuration
    a = j2r // 2
    if a < N:
        return 0.0  # the ordering forces an area gain of at least 1 per step
    L_eff = 2 * N + 2 * a
    H = (height_cutoff if height_cutoff is not None
         else math.ceil(10.0 * math.sqrt(L_eff)) + 8)
    n = H + 1
    law = StepLaw(beta)
    P = _step_matrix(law, H)
    ss = np.arange(n)
    strict = ss[:, None] > ss[None, :]  # [s', i]: s' > i
    ed = math.exp(delta)
    gap = ss[:, None] - ss[None, :]
    shifts = [np.nonzero(gap == sig) for sig in range(min(n, a + 1))]
    T = np.zeros((n, n, a + 1))
    T[0, 0, 0] = 1.0
    for _ in range(N):
        B = np.tensordot(P, T, axes=(1, 0))       # S-move: [s', i, d]
        B *= strict[:, :, None]                   # S_k > I_{k-1}
        C = np.tensordot(B, P, axes=([1], [1]))   # I-move: [s', d, i']
        C = np.ascontiguousarray(np.moveaxis(C, 1, 2))  # [s', i', d]
        C *= strict[:, :, None]                   # S_k > I_k
        C[:, 0, :] *= ed                          # pinning reward on I_k = 0
        out = np.zeros_like(C)
        for sig in range(1, len(shifts)):
            si, ii = shifts[sig]
            out[si, ii, sig:] = C[si, ii, :a + 1 - sig]
        T = out
    # final bridge step of S to zero; I is already pinned by the last reward
    close = np.exp(-0.5 * beta * ss) / law.c_beta
    return float(close @ T[:, 0, a])


def z_circ_from_walks(L: int, beta: float, delta: float) -> float:
    """Single-bead partition value Z°_L / (c_beta e^{beta L}) via envelope walks."""
    law = StepLaw(beta)
    total = 0.0
    for N in range(1, (L - 2) // 2 + 1):
        qq = (L - 2 * N) / (2.0 * N * N)
        total += law.gamma_beta ** (2 * N) * d_circ(N, qq, beta, delta)
    return total


def z_constrained_from_walks(L: int, beta: float, delta: float) -> float:
    """End-constrained partition value Z^{+,c}_L / (c_beta e^{beta L}).

    Interleaves the two envelope walks into one chain T_1, ..., T_{N+1}
    whose steps go two indices back, tracks the accumulated vertical bond
    count g, rewards contacts on the real prefixes T_1..T_N only, and sums
    Gamma^N over the section at g = L - N, T_N = T_{N+1} = 0.
    """
    law = StepLaw(beta)
    H = L // 2 + 1
    n = H + 1
    P = _step_matrix(law, H)
    ed = math.exp(delta)
    absdiff = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    shifts = [np.nonzero(absdiff == d) for d in range(n)]
    total = 0.0
    for N in range(1, L + 1):
        g_max = L - N
        D = np.zeros((n, n, g_max + 1))
        D[0, 0, 0] = 1.0  # state (T_{j-1}, T_j), started at (0, 0)
        for j in range(1, N + 2):
            B = np.tensordot(P, D, axes=(1, 0))   # [w, v, g]: step from T_{j-2}
            if j <= N:
                B[0] *= ed
            out = np.zeros_like(B)
            for d in range(min(n, g_max + 1)):
                wi, vi = shifts[d]
                out[wi, vi, d:] = B[wi, vi, :g_max + 1 - d]
            # reorder to state (T_{j-1}, T_j) = (v, w)
            D = np.ascontiguousarray(np.swapaxes(out, 0, 1))
        total += law.gamma_beta ** N * float(D[0, 0, g_max])
    return total


# ---------------------------------------------------------------------------
# area-tilted pinned bridges
# ---------------------------------------------------------------------------

@dataclass
class AreaWettingDP:
    """Forward DP for E[e^{-gamma A_N(I)/N} e^{delta #zeros} 1{I in B^{0,+}_N}].

    ``log_table[k, y]`` is the log partition value of the k-step prefix
    ending at height y; ``log_value`` is the (N, 0) entry.
    """

    N: int
    beta: float
    delta: float
    gamma: float
    height_cutoff: int
    log_table: np.ndarray
    log_value: float

    def log_column_sums(self) -> np.ndarray:
        """log of the column totals (partial partition values per step)."""
        m = self.log_table.max(axis=1)
        with np.errstate(invalid="ignore"):
            s = m + np.log(np.exp(self.log_table - m[:, None]).sum(axis=1))
        return s


def area_wetting_dp(N: int, gamma: float, beta: float, delta: float,
                    height_cutoff: int | None = None) -> AreaWettingDP:
    """Build the area-tilted pinned-bridge DP (gamma >= 0)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    _check_delta(delta)
    law = StepLaw(beta)
    H = height_cutoff if height_cutoff is not None else _default_cutoff(N, beta)
    log_w = -gamma * np.arange(H + 1) / N
    log_w[0] += delta
    table = np.empty((N + 1, H + 1))
    with np.errstate(divide="ignore"):
        for k, (v, off) in enumerate(_strip_walk(law, log_w, 0, N)):
            table[k] = np.log(v) + off
    return AreaWettingDP(N, beta, delta, gamma, H, table, float(table[N, 0]))


def e_circ(N: int, q: float, beta: float, delta: float) -> float:
    """log of the area-tilted pinned bridge with tilt coefficient d/dq g(q, 0)."""
    if q <= 0:
        raise ValueError("q must be positive")
    gamma = largedev.tilt_inverse(q, 0.0, beta).h0
    return area_wetting_dp(N, gamma, beta, delta).log_value


def e_n_gamma(N: int, gamma: float, beta: float) -> float:
    """log E_N(gamma): area-tilted positive bridge without pinning."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return area_wetting_dp(N, gamma, beta, 0.0).log_value
