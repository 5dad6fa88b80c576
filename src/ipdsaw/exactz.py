"""Exact partition functions: brute force, transfer DP, walk identities.

Writing T_k for the prefix heights of the stretch vector, the Boltzmann
weight factorizes over *pairs of heights two apart*:

    e^{H(l)} = e^{beta L} * prod_{i=1}^{N} [ e^{-beta} e^{-(beta/2)|T_i - T_{i-2}|}
                                             e^{delta 1{T_i = 0}} ]
                         * e^{-(beta/2)|T_N - T_{N-1}|},

(with T_{-1} = T_0 = 0), which is what both the enumeration bookkeeping and
the transfer DP below exploit.  The module provides

* ``brute_force_Z``    exhaustive enumeration (the oracle, L <= 24);
* ``dp_Z``             rescaled transfer DP over (consumed length, prev
                       height, cur height) on one backward step for all
                       variants, exact at the default cutoff, otherwise
                       with a rigorous truncation bound on the same step;
* ``backward_sample``  exact samples, all draws advanced together, one
                       stretch per round, on that step;
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


def _gather(stack, m, v, fill) -> np.ndarray:
    """stack[m + 1 + |w - v|, v, w], the completion after v -> w from consumed
    length m, for every w (``fill`` past the end): the DP's (v, w) slice for
    scalar m and a column v, sampler rows for m and v of shape (k, 1).  A flat
    ``take`` is about 1.5 times faster than three index arrays."""
    n = stack.shape[-1]
    w = np.arange(n)
    nxt = m + 1 + np.abs(w - v)
    out = stack.reshape(-1).take((nxt * n + v) * n + w, mode="clip")
    out[nxt >= len(stack)] = fill
    return out


def _directions(variant: Variant, n: int) -> tuple:
    """(mask on (v, w) or None, source stack) per stretch direction; stretch
    k takes direction k mod len, and its completion is read from the stack
    of the direction that follows.  Single beads alternate up and down."""
    if variant is not Variant.SINGLE_BEAD:
        return ((None, 0),)
    up = np.arange(n)[None, :] > np.arange(n)[:, None]
    return ((up, 1), (up.T, 0))


_HEADROOM = 1e-150  # smallest slice max and start weight taken as exact


def dp_Z(L: int, beta: float, delta: float, variant=Variant.FREE,
         height_cutoff: int | None = None) -> tuple:
    """(log Z, DPTable) by backward transfer over height pairs.

    The completion weight after m consumed units and prefix heights (u, v)
    obeys one step for every variant, x = e^{-beta/2}:

        G_k[m][u, v] = sum_w e^{-beta} x^{|w - u|} e^{delta 1{w = 0}}
                       1_k(v, w) G_{k'}[m + 1 + |w - v|][v, w]

    over the stretch directions k of ``_directions``.  Each slice is kept
    at max 1 with a log offset off[k, m]; the offsets of the gathered slices
    and the site weights enter as one exponent per gap |w - v|, and a slice
    below ``_HEADROOM`` of its sources is redone rescaled.  With the default
    cutoff the DP is exact (``_exact_cutoff``); a smaller cutoff gives a
    lower bound on Z and a rigorous bound on the missing reduced weight, from
    the same step run on a second stack with a first-exceedance source.

    Supported region: beta > 0, finite delta, and a start weight at least
    ``_HEADROOM`` of the largest completion of length L, else ValueError
    (at delta = 0.5: beta up to about 138 at L = 18, 77 at L = 60, 57 at
    L = 120 and 34 at L = 300).
    """
    variant = as_variant(variant)
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_delta(delta)
    if height_cutoff is not None and height_cutoff < 1:
        raise ValueError("height_cutoff must be >= 1")
    exact_H = _exact_cutoff(L, variant)
    H = exact_H if height_cutoff is None else int(height_cutoff)
    n = H + 1
    law = StepLaw(beta)
    X = law.c_beta * _step_matrix(law, H)  # X[u, w] = x^{|w - u|}
    dirs = _directions(variant, n)
    lift = max(delta, 0.0) - beta          # per-stretch factor kept in off
    log_site = (min(delta, 0.0), -max(delta, 0.0))  # at w = 0 and at w > 0
    heights = np.arange(n)[:, None]
    gaps = np.abs(heights - heights.T)

    def step(stack, k, m, fac):
        mask, src = dirs[k]
        C = _gather(stack[src], m, heights, 0.0)
        C *= fac if mask is None else fac * mask
        np.matmul(X, C.T, out=stack[k, m])

    S = np.zeros((len(dirs), L + 1, n, n))
    if variant is Variant.FREE:
        S[0, L] = X
    else:
        S[0, L][:, 0] = X[:, 0]  # closed at height 0
    off = np.full((len(dirs), L + 1), -np.inf)
    off[0, L] = 0.0
    B = np.zeros_like(S) if H < exact_H else None
    if B is not None:
        with np.errstate(over="ignore"):
            site_b = np.exp(np.where(heights.T == 0, delta, 0.0) - beta)
        # log U(r): U(0) = 1 and U(r) = 2E (1 + 2E)^{r-1}, E = e^{lift},
        # bounds the completions of r units
        log_u = np.concatenate(([0.0], math.log(2.0) + lift + np.arange(L)
                                * np.logaddexp(0.0, math.log(2.0) + lift)))
        uv = 0.5 * beta * (heights - heights.T) - beta  # log e^{-beta} x^{v - u}
    for m in range(L - 1, -1, -1):
        for k, (_, src) in enumerate(dirs):
            prior = off[src, m + 1:m + 1 + n]  # the slices at gaps 0, 1, ...
            ref = prior.max()
            if ref == -np.inf:
                continue  # every source slice is empty
            for _ in range(2):
                lf = np.full(n, -np.inf)
                lf[:prior.size] = prior - ref
                fac = np.exp(lf + log_site[1]).take(gaps)
                fac[:, 0] = np.exp(lf + log_site[0])  # w = 0: gap v
                step(S, k, m, fac)
                top = S[k, m].max()
                if top >= _HEADROOM:
                    break
                ref += max(math.log(top), -700.0) if top > 0.0 else -700.0
            if top > 0.0:
                S[k, m] /= top
                off[k, m] = ref + lift + math.log(top)
        if B is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(len(dirs)):
                    step(B, k, m, site_b)
                # first exceedance from (u, v) with R units left: a stretch
                # of length j >= H + 1 - v, then U(R - 1 - j); log_t sums j
                R = L - m
                j = np.arange(1, R)
                log_t = np.full(R + n, -np.inf)
                log_t[1:R] = np.logaddexp.accumulate(
                    (log_u[R - 1 - j] - 0.5 * beta * j)[::-1])[::-1]
                B[0, m] += np.exp(uv + log_t[H + 1 - heights.T])

    root = float(S[0, 0, 0, 0])
    # flat vectors fit any cutoff; beads (1, -1) and (2, -2) take 4 and 6
    empty = variant is Variant.SINGLE_BEAD and not (
        L >= 4 and L % 2 == 0 and (H >= 2 or L % 4 == 0))
    if root < _HEADROOM and not (root == 0.0 and empty):
        raise ValueError(
            f"dp_Z at beta={beta}, L={L}: the start weight is {root:.1e} of "
            f"the largest completion weight, below the supported {_HEADROOM:.0e}"
            " (double-precision underflow near the start state)")
    log_z = beta * L + (float(off[0, 0]) + math.log(root) if root > 0.0 else -math.inf)
    # an overflowed bound meets zero weights as inf * 0: report inf
    bound = 0.0 if B is None else float(np.nan_to_num(B[0, 0, 0, 0], nan=np.inf))

    with np.errstate(divide="ignore"):
        np.log(S, out=S)  # in place: the linear values are no longer needed
    S += off[:, :, None, None]
    lw = (S[0], S[1]) if variant is Variant.SINGLE_BEAD else S[0]
    return log_z, DPTable(variant, L, beta, delta, H, lw, log_z, bound)


_SAMPLE_BLOCK = 1 << 15  # (draws x heights) entries per block of live draws


def backward_sample(table: DPTable, count: int, rng) -> list:
    """Draw ``count`` exact samples from the polymer measure of ``table``.

    All draws advance together, one stretch per round, on the step of
    ``dp_Z``: a draw at (m, u, v) weighs each next height w by x^{|w - u|}
    e^{delta 1{w = 0}} times the table's completion of (v, w) and picks w by
    inverse CDF with one uniform, so the draws are i.i.d. from e^{H} / Z.
    Live draws go in blocks of ``_SAMPLE_BLOCK`` table entries.
    """
    if not table.truncation_bound < 1e-9:
        raise ValueError("table is truncated; refuse to sample from a biased law")
    if not np.isfinite(table.normalization):
        raise ValueError("the configuration set is empty at these parameters")
    L, beta, n = table.L, table.beta, table.height_cutoff + 1
    lw = table.log_weights
    stacks = lw if isinstance(lw, tuple) else (lw,)
    dirs = _directions(table.variant, n)
    log_rew = np.where(np.arange(n) == 0, table.delta, 0.0)
    rows = max(1, _SAMPLE_BLOCK // n)
    m, u, v, sizes = (np.zeros(count, dtype=np.int64) for _ in range(4))
    stretches = np.zeros((count, L), dtype=np.min_scalar_type(-L))
    live = np.arange(count)
    k = 0
    while live.size:
        mask, src = dirs[k % len(dirs)]
        for a in range(0, live.size, rows):
            i = live[a:a + rows]
            vi = v[i]
            lp = _gather(stacks[src], m[i, None], vi[:, None], -np.inf)
            lp += log_rew - 0.5 * beta * np.abs(np.arange(n) - u[i, None])
            if mask is not None:
                lp[~mask[vi]] = -np.inf
            cdf = np.cumsum(np.exp(lp - lp.max(axis=1, keepdims=True)), axis=1)
            w = (cdf <= (rng.random(i.size) * cdf[:, -1])[:, None]).sum(axis=1)
            stretches[i, k] = w - vi
            m[i] += 1 + np.abs(w - vi)
            u[i], v[i] = vi, w
        sizes[live] += 1
        live = live[m[live] < L]
        k += 1
    out = []
    for a in range(0, count, rows):
        out += [StretchConfig(tuple(row[:size]), L, table.variant) for row, size
                in zip(stretches[a:a + rows].tolist(), sizes[a:a + rows].tolist())]
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
    table = np.full((N + 1, H + 1), -np.inf)
    table[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        for k, (p, off) in enumerate(_strip_walk(law, log_w, 0, N), start=1):
            table[k] = np.log(p) + log_w + off
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
