"""Exact partition functions: brute force, transfer DP, walk identities.

Writing T_k for the prefix heights of the stretch vector, the Boltzmann
weight factorizes over *pairs of heights two apart*:

    e^{H(l)} = e^{beta L} * prod_{i=1}^{N} [ e^{-beta} e^{-(beta/2)|T_i - T_{i-2}|}
                                             e^{delta 1{T_i = 0}} ]
                         * e^{-(beta/2)|T_N - T_{N-1}|},

(with T_{-1} = T_0 = 0), which is what both the enumeration bookkeeping and
the transfer DP below exploit.  The module provides

* ``brute_force_Z``    exhaustive enumeration (the oracle, L <= 24);
* ``enumerate_configs`` the same configurations one at a time (slow
                       path; ``feature_histogram`` aggregates them fast);
* ``dp_Z``             rescaled transfer DP over (consumed length, prev
                       height, cur height) on one backward step for all
                       variants, stepping only the height pairs that are
                       reachable and can still finish and storing, per row,
                       only the closed-form range of them that some step
                       reads, in one table for every variant (a single
                       bead goes up next where v < u, else down; its
                       diagonal is stored, never read), every read
                       through one precomputed gather plan; exact at
                       the default cutoff (L - 2)/2, where the Free table
                       is closed by the exact wall-free completion,
                       otherwise with a rigorous truncation bound (kept
                       as a log) on the same step, from a wall-free
                       completion majorant; the whole table is kept for
                       the sampler;
* ``certified_dp_Z``   ``dp_Z`` at the smallest searched cutoff whose bound
                       is below 1e-13 of Z, the exact table failing that;
* ``dp_log_Z`` / ``certified_dp_log_Z``   the same log Z, cutoff and bound,
                       bit for bit, as a ``LogZ`` without the table: the DP
                       runs on a ring that holds only the slices some later
                       step still reads, about H + 1 of the L + 2;
* ``backward_sample``  exact samples, all draws advanced together, one
                       stretch per round, on that step and through that
                       plan, the weights built once per distinct state of
                       a round, a Free draw leaving the table into the
                       wall-free completion, returned as one checked
                       ``StretchBatch`` of arrays;
* ``d_circ``           ordered upper/lower-envelope walks at a prescribed
                       enclosed-area difference, at its exact height
                       cutoff, the terms of ``z_circ_from_walks``;
* ``area_wetting_dp``  log of the area-tilted pinned bridge, the strip
                       bridge ``wetting._log_bridge`` with an extra
                       e^{-gamma h / N} per height h;
* ``e_circ`` / ``e_n_gamma``   its values at the tilts of the paper;
* ``z_circ_from_walks`` / ``z_constrained_from_walks``   the random-walk
  representations of the single-bead and end-constrained models, each one
  pass over N at the exact height cutoff, every N's term read on the way:
  the second route to ``dp_Z`` for the returning variants, also at
  lengths where ``certified_dp_Z`` cuts the table.  They and ``d_circ``
  run one envelope chain, which interleaves the two envelope walks and
  differs between them only in its direction tables and reads.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import largedev
from .polymer import StretchBatch, Variant, as_variant
from .steps import StepLaw
from .wetting import (_check_delta, _log_bridge, _step_matrix, _strip_top,
                      logsumexp_c)

__all__ = [
    "DPTable",
    "brute_force_Z",
    "enumerate_configs",
    "feature_histogram",
    "LogZ",
    "dp_Z",
    "certified_dp_Z",
    "dp_log_Z",
    "certified_dp_log_Z",
    "backward_sample",
    "d_circ",
    "area_wetting_dp",
    "e_circ",
    "e_n_gamma",
    "z_circ_from_walks",
    "z_constrained_from_walks",
]

_BRUTE_MAX_L = 24
_ENUM_BLOCK = 1 << 16  # children a frontier sweep expands at a time


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


def feature_histogram(L: int, variant=Variant.FREE) -> dict:
    """{(total overlap, contacts): multiplicity} over the configuration set.

    The Boltzmann weight of a configuration depends only on these two
    features, so one enumeration serves every (beta, delta).  Enumeration is
    done as a vectorized frontier sweep: each row of the frontier is one
    distinct partial configuration (no state merging), so this is still an
    exhaustive walk of the tree, just batched.  The result is a copy of the
    cached enumeration, so a caller may change it freely.
    """
    return dict(_histogram(L, as_variant(variant)))


@lru_cache(maxsize=64)
def _histogram(L: int, variant: Variant) -> dict:
    """The enumeration behind ``feature_histogram``, cached per (L, variant);
    never handed out, so no caller can change a cached entry.

    The frontier (budget, height, last stretch, overlap, contacts) is int16,
    a quarter of the memory of int64: each is at most L in size (the
    overlap, a sum of min(|l_i|, |l_{i+1}|), is at most sum |l_i| < L) and
    every intermediate at most 2L, far inside int16 at the enumerable
    L <= 24.  Index and count arrays stay int64, and so do the histogram
    keys.  A level's rows are expanded in blocks of about ``_ENUM_BLOCK``
    children, so the int64 temporaries stay bounded (one level of Free at
    L = 18 has 406390 children), and its leaves are counted in one dense
    array over the keys w (L + 1) + c, which enter the histogram level by
    level in ascending order.
    """
    if L < 1:
        raise ValueError("L must be >= 1")

    hist: dict = {}

    def harvest(counts):
        keys = np.flatnonzero(counts)
        for k, n in zip(keys.tolist(), counts[keys].tolist()):
            wc = divmod(k, L + 1)
            hist[wc] = hist.get(wc, 0) + n

    def expand(b, h, p, w, c, lo, hi):
        """All children with stretch value in [lo, hi] per row."""
        m = hi - lo + 1
        keep = m > 0
        b, h, p, w, c, lo, m = (a[keep] for a in (b, h, p, w, c, lo, m))
        if b.size == 0:
            return tuple(np.empty(0, dtype=np.int16) for _ in range(5))
        tot = int(m.sum())
        idx = np.repeat(np.arange(b.size), m)
        starts = np.cumsum(m, dtype=np.int64) - m
        v = (lo[idx] + (np.arange(tot) - starts[idx])).astype(np.int16)
        pr = p[idx]
        nb = b[idx] - 1 - np.abs(v)
        nh = h[idx] + v
        nw = w[idx] + (np.abs(pr) + np.abs(v) - np.abs(pr + v)) // 2
        nc = c[idx] + (nh == 0)
        return nb, nh, v, nw, nc

    z = np.zeros(1, dtype=np.int16)
    frontier = (np.full(1, L, dtype=np.int16), z, z, z.copy(), z.copy())
    while frontier[0].size:
        b, h, p, w, c = frontier
        lo, hi = -np.minimum(h, b - 1), b - 1
        if variant is Variant.SINGLE_BEAD:
            # up next after a down stretch and at the start, leaving room
            # for the matching descent; down otherwise
            up = p <= 0
            lo = np.where(up, 1, lo)
            hi = np.where(up, np.minimum(hi, (b - 2 - h) // 2), -1)
        ends = np.cumsum(np.maximum(hi - lo + 1, 0))  # children up to each row
        cuts = np.searchsorted(ends, np.arange(_ENUM_BLOCK, ends[-1], _ENUM_BLOCK))
        counts = np.zeros((L + 1) ** 2, dtype=np.int64)
        kids = []
        for a, e in itertools.pairwise([0, *cuts.tolist(), b.size]):
            nb, nh, nv, nw, nc = expand(*(x[a:e] for x in (b, h, p, w, c, lo, hi)))
            if variant is Variant.FREE:
                leaf = nb == 0
                go = ~leaf
            elif variant is Variant.CONSTRAINED_END:
                leaf = (nb == 0) & (nh == 0)
                go = (nb >= 1) & (nh <= nb - 1)  # must still be able to return
            else:
                leaf = (nb == 0) & (nh == 0) & (nv < 0)
                go = (~leaf) & np.where(nv > 0, nh <= nb - 1, nb >= nh + 4)
            counts += np.bincount(nw[leaf].astype(np.int64) * (L + 1) + nc[leaf],
                                  minlength=counts.size)
            kids.append((nb[go], nh[go], nv[go], nw[go], nc[go]))
        harvest(counts)
        frontier = tuple(np.concatenate(col) for col in zip(*kids))

    return hist


def brute_force_Z(L: int, beta: float, delta: float, variant=Variant.FREE) -> float:
    """log Z by exhaustive enumeration; the oracle every DP is checked against."""
    if L > _BRUTE_MAX_L:
        raise ValueError(f"L={L} too large for enumeration (max {_BRUTE_MAX_L})")
    hist = _histogram(L, as_variant(variant))
    if not hist:
        return -math.inf
    terms = [math.log(n) + beta * w + delta * c for (w, c), n in hist.items()]
    return logsumexp_c(terms)


# ---------------------------------------------------------------------------
# transfer DP
# ---------------------------------------------------------------------------

def _exact_cutoff(L: int) -> int:
    """Smallest height cutoff that provably loses nothing: (L - 2)/2.

    The returning variants: a prefix height h takes h vertical bonds to
    reach and h more to come back, and at least one horizontal bond is
    consumed, so h <= (L - 2)/2.

    Free: heights above (L - 2)/2 occur, but the table need not hold them.
    Take a state with a prefix height h >= (L - 1)/2.  Reaching h took at
    least h + 1 units, so at most L - h - 1 <= h remain, and touching the
    wall from h needs h + 1 of them.  So the rest of the walk never meets
    the wall and earns no contact: its completion is the wall-free one, W
    of ``_log_completion``, and ``dp_Z`` closes the table above the cutoff
    with it.
    """
    return max((L - 2) // 2, 0)


def _blocks(L: int, H: int, variant: Variant) -> tuple:
    """(rows, cols, lo, hi): the block of every consumed length m and, in
    it, the stored column range [lo, hi) of every row u.

    After m >= 1 units the last two prefix heights satisfy u + |v - u| <=
    m - 1, so u, v < b(m) = min(m, H + 1); before the first stretch the
    state is (0, 0), b(0) = 1.  The returning variants must also get back
    to 0 from v in the L - m units left, which takes at least v + 1 of them
    while any are left, so only v < c(m) = min(b(m), max(L - m, 1)) can
    finish; Free keeps c = b.

    Of that b(m) x c(m) block only a band is stored.  A row u >= 1 needs two
    or more stretches: reaching u costs u + 1 units and the next stretch
    |v - u| + 1, so u + |v - u| <= m - 2 and row u keeps v in
    [max(0, 2u - m + 2), c(m)); row 0 keeps all of [0, c(m)), as the first
    stretch can end at m - 1, and rows u >= m - 1 are empty.  A single
    bead's stretches alternate and never keep the height, so its state
    (u, v) tells the next direction: up if v < u (the last went down) and
    at the start (0, 0), down if v > u.  Its one table keeps both sides in
    the same band; the diagonal v = u, never reached after the start, is
    stored but never read.

    Every read of the step and the sampler that can finish lands in these
    ranges, every other on the trailing zero (``_Plan.reads``).  Block r reads
    row v < c(r) of slice m = r + 1 + |w - v| at a w < c(m) that can still
    finish, and a draw at a stored (r, u, v) reads the same, with v <= r - 1
    there; for v >= 1, w >= 2v - m + 2 holds at every w exactly when
    v <= r - 1, and c(r) <= r.  A single bead's up stretch to w > v reads
    the entry (v, w) with w > v, whose next stretch goes down, and a down
    stretch the entry with w < v, whose next goes up.  Past m = 2H + 1
    every row is whole, so cut tables keep plain blocks there.  lo and hi
    are (L + 2, H + 1), lo <= hi, with an empty range at every row
    u >= b(m) and in the sentinel slice L + 1.
    """
    consumed = np.arange(L + 2)
    rows = np.minimum(np.maximum(consumed, 1), H + 1)
    cols = rows
    if variant is not Variant.FREE:
        cols = np.minimum(rows, np.maximum(L - consumed, 1))
    heights = np.arange(H + 1)
    lo = np.where(heights >= 1, np.maximum(2 * heights - consumed[:, None] + 2, 0), 0)
    hi = np.where(heights < rows[:, None], cols[:, None], 0)
    hi[L + 1] = 0
    return rows, cols, np.minimum(lo, hi).astype(np.int32), hi.astype(np.int32)


class _Plan:
    """Where every read of the transfer step lands in the flat band stack.

    The stack stores the ranges [lo, hi) of ``_blocks`` row after row,
    slice after slice; slice m holds ``size[m]`` entries from start[m].
    One trailing zero (-inf once the table is in logs) sits at start[L + 1],
    the end of the stack.  Row u of slice m starts at rowbase[m, u] + lo[m, u],
    so the step from (m, u, v) to w reads G[m'][v, w], m' = m + 1 + |w - v|,
    at entry rowbase[m', v] + w.  ``pair[v, w] = |w - v| n + v`` indexes the
    flattened rowbase from row m + 1.  ``reads`` builds every such index, for
    the DP and the sampler alike, with each read that cannot finish on the
    trailing zero.  ``band[u, w] = w - 2u`` (row 0 whole) picks a partial
    row's stored columns, w - 2u >= 2 - m, for ``store``.

    The table placement puts the slices back to back, slice 0 first, as
    the sampler reads them.  The ring placement (``ring``) keeps only the
    slices the DP still reads, for log Z alone.  Block m reads slices m + 1
    to m + 1 + H and is gathered before slice m is stored, so when slice m
    is stored the slices m + 1 ... m + H must be intact: its live window is
    slices m ... m + H.  The DP stores slice L first, then L - 1, ..., and
    each goes on at the end of the one before it, or at 0 if it does not
    fit below the capacity C (the tail is left unused).  With C at least the
    largest window plus the largest slice, no slice is written over one of
    its window: a window starts less than C back, because between two
    slices placed at 0 lie more than C minus one slice, more than the
    window, so it holds at most one wrap and that wrap skips less than one
    slice.  C is that sum, capped at the table's size, where no slice ever
    wraps.  The trailing zero stays at C.

    ``need[v, w]`` is the fewest units the stretch v -> w and the way back
    to 0 take, for the returning variants w + |w - v| + 2 (|w - v| + 1 to
    w = 0), so a read from consumed length m with need > L - m cannot
    finish; a single bead's stretch must change the height, so its
    diagonal is L + 1.  Free keeps None, as its only reads that cannot
    finish are those past the end.  ``dirs[k]`` is the need of stretch
    direction k: stretch k takes direction k mod len(dirs), single beads
    alternating up and down with need L + 1 against the direction, which
    the sampler reads one stretch at a time; the DP reads ``need`` and
    splits the terms by direction itself.
    """

    def __init__(self, L: int, H: int, variant: Variant, ring: bool = False):
        self.L, self.variant = L, variant
        self.rows, self.cols, self.lo, self.hi = _blocks(L, H, variant)
        n = H + 1
        heights = np.arange(n)
        gaps = np.abs(heights - heights[:, None])
        lengths = self.hi - self.lo
        within = np.cumsum(lengths, axis=1, dtype=np.int64)  # row ends in a slice
        self.size = within[:, -1].copy()
        within -= lengths  # row starts
        if ring:
            self.start = _ring_starts(self.size, H)
        else:
            self.start = np.cumsum(self.size) - self.size
        self.rowbase = (self.start[:, None] + within - self.lo).ravel()
        self.whole = ((self.lo == 0) & (heights < self.rows[:, None])).sum(axis=1).tolist()
        self.pair = gaps * n + heights[:, None]
        self.band = (heights - 2 * heights[:, None]).astype(np.int32)
        self.band[0] = n
        if variant is Variant.FREE:
            self.need, self.dirs = None, (None,)
            return
        need = gaps + 1
        need[:, 1:] += heights[1:] + 1
        self.need, self.dirs = need, (need,)
        if variant is Variant.SINGLE_BEAD:
            up = heights > heights[:, None]
            self.dirs = (np.where(up, need, L + 1), np.where(up.T, need, L + 1))
            self.need = np.where(gaps == 0, L + 1, need)

    def nbytes(self, stacks: int) -> int:
        """Bytes of ``stacks`` float64 stacks on this placement, each with
        its trailing zero."""
        return 8 * stacks * (int(self.start[-1]) + 1)

    def reads(self, m, v, columns: int, need) -> np.ndarray:
        """Flat index of the reads G[m + 1 + |w - v|][v, w] at every
        w < ``columns``, for a scalar m and rows v (the DP) or one m and v
        per draw (the sampler).  A read past the end or with ``need`` above
        the L - m units left is the trailing zero."""
        n = len(self.pair)
        if np.ndim(m):
            m = m[:, None]
            idx = self.rowbase.take(self.pair[v, :columns] + (m + 1) * n,
                                    mode="clip")
        else:  # rowbase from row m + 1 on: no index copy
            idx = self.rowbase[(m + 1) * n:].take(self.pair[v, :columns],
                                                  mode="clip")
        idx += np.arange(columns)
        end = self.start[-1]  # the trailing zero
        if need is None:
            np.minimum(idx, end, out=idx)
        else:  # need > L - m past the end too: need >= |w - v| + 1
            np.putmask(idx, need[v, :columns] > self.L - m, end)
        return idx

    def store(self, stack, m: int, block: np.ndarray) -> None:
        """Write the ranges of slice m from its whole (b, c) block: the
        leading ``whole[m]`` rows (lo = 0) in one copy, the rest by one
        compare on ``band``."""
        b, c = block.shape
        whole = self.whole[m]
        at = self.start[m]
        out = stack[at:at + self.size[m]]
        out[:whole * c] = block[:whole].ravel()
        if whole < b:
            out[whole * c:] = block[whole:][self.band[whole:b, :c] >= 2 - m]


def _ring_starts(size: np.ndarray, H: int) -> np.ndarray:
    """start[m] of every slice of the ring placement of ``_Plan``, from the
    entries ``size`` of slices 0 ... L + 1; start[L + 1] is the capacity."""
    L = len(size) - 2
    total = np.concatenate(([0], np.cumsum(size[:L + 1])))
    m = np.arange(L + 1)
    window = total[np.minimum(m + H, L) + 1] - total[m]  # slices m ... m + H
    capacity = min(int(window.max() + size.max()), int(total[-1]))
    start = np.empty(L + 2, dtype=np.int64)
    start[L + 1] = capacity
    at = 0
    for m, entries in zip(range(L, -1, -1), size[L::-1].tolist()):
        if at + entries > capacity:
            at = 0
        start[m] = at
        at += entries
    return start


@dataclass
class DPTable:
    """Backward completion table of the transfer DP.

    Its entry (m, u, v) is the log of the total reduced weight (the
    e^{beta L} prefactor stripped) of all ways to finish a configuration
    given that m length units are consumed and the last two prefix heights
    are (u, v).  It is stored for the rows u < b(m) = min(max(m, 1), H + 1)
    and, in row u, for the heights v in the range [lo, hi) of ``_blocks``
    only: those that some configuration reaches and some step reads.
    ``log_weights`` holds these ranges back to back, row after row and
    slice after slice, at the offsets of ``plan`` (the table's ``_Plan``),
    in one flat array ending in one -inf, where the reads that cannot
    finish land.  A single bead's entry is the completion whose next
    stretch goes up where v < u and at the start (0, 0), down elsewhere;
    its diagonal v = u is stored but never read.  ``normalization`` is
    log Z.  ``log_truncation_bound`` is the log of a bound on the weight
    lost to the cutoff, -inf if exact; ``truncation_bound`` is its value
    as a double, raised to the smallest normal double when it is below
    that and not exact.  A Free table at or above the exact cutoff is
    closed above it: ``log_wall_free`` is the log of the wall-free
    completion W (``_log_completion``) that the DP and the sampler read
    there, and ``log_leave`` the first-exceedance source on it
    (``_exceed_sources``), the log weight of leaving the table by (m, v);
    both are None for every other table.
    """

    variant: Variant
    L: int
    beta: float
    delta: float
    height_cutoff: int
    log_weights: object
    normalization: float
    truncation_bound: float
    log_truncation_bound: float
    log_wall_free: object
    log_leave: object
    plan: object


class LogZ(NamedTuple):
    """log Z of the transfer DP without its table (``dp_log_Z``,
    ``certified_dp_log_Z``), with the height cutoff and the truncation
    bound as ``DPTable`` holds them: its log, -inf if exact, and its value
    as a double, 0.0 if exact and at least the smallest normal double
    otherwise."""

    log_z: float
    height_cutoff: int
    log_truncation_bound: float
    truncation_bound: float


_TINY = np.finfo(float).tiny  # the smallest normal double
_EPS = np.finfo(float).eps
_RESCALE = 1e-100  # a step whose largest term is below this is redone in logs
_MAX_UNDERFLOW = 1e-14  # largest move of log Z from raising lost factors,
# relative to max(1, |log reduced Z|): a few ulps of rounding are not a move
_CERTIFIED_REL = 1e-13  # truncation bound, relative to Z, that certifies a cutoff


def _log_majorant(L: int, beta: float, delta: float) -> np.ndarray:
    """log Ĝ_r(d) for r + d <= L - 1, d >= 0, in a (L, L) array [r, d]:
    ``_log_completion`` with every stretch weighted e^{max(delta, 0) - beta}
    and each level raised.

    The wall only removes configurations and each contact factor is at most
    e^{max(delta, 0)}, so Ĝ_{L-m}(v - u) bounds the completion of every
    variant from (m, u, v), with the end constraint and bead alternation
    dropped.
    """
    return _log_completion(L, L, beta, max(delta, 0.0) - beta, True)


def _log_completion(L: int, levels: int, beta: float, log_e: float,
                    raised: bool) -> np.ndarray:
    """log of the wall-free completion C_r(d), r < levels, r + d <= L - 1,
    d >= 0, in a (levels, L) array [r, d].

    C is the weight of r remaining units after a last height step d in the
    wall-free model with no contacts, every stretch weighted e^{log_e},
    x = e^{-beta/2}:

        C_0(d) = x^{|d|},
        C_r(d) = sum_{|i| <= r-1} e^{log_e} x^{|i + d|} C_{r-1-|i|}(i).

    C_r is even in d.  With log_e = -beta it is the exact completion W of a
    Free walk that can no longer reach the wall (``_exact_cutoff``); with
    log_e = max(delta, 0) - beta it is the majorant Ĝ.  With g_k =
    C_{r-1-|k|}(k), level r is e^{log_e} sum_k x^{|d - k|} g_k: two
    log-space geometric sweeps, of g_k + (beta/2) k over k <= d and of
    g_k - (beta/2) k over k > d, O(L) per level.  If ``raised``, each level
    is raised by eps times the largest magnitude its sweeps handle, so that
    rounding the shifted sums cannot push a bound below its true value: at
    L <= 300, without the raise, the logs fell up to 4.5e-14 below a
    long-double recursion, several times less than the raise of one level.
    """
    half = 0.5 * beta
    out = np.full((levels, L), -np.inf)
    out[0] = -half * np.arange(L)
    for r in range(1, levels):
        k = np.arange(1 - r, r)
        g = out[r - 1 - np.abs(k), np.abs(k)]
        d = np.arange(L - r)
        rise, fall = g + half * k, g - half * k
        left = np.logaddexp.accumulate(rise)[np.minimum(d, r - 1) + r - 1] - half * d
        right = np.full(L - r, -np.inf)
        inner = d < r - 1  # k > d exists
        right[inner] = (np.logaddexp.accumulate(fall[::-1])[::-1][d[inner] + r]
                        + half * d[inner])
        out[r, :L - r] = np.logaddexp(left, right) + log_e
        if raised:
            scale = max(np.abs(rise).max(), np.abs(fall).max()) + half * L + abs(log_e)
            out[r, :L - r] += _EPS * (1.0 + scale)
    return out


def _exceed_sources(log_c: np.ndarray, beta: float, L: int, H: int,
                    cols: np.ndarray) -> np.ndarray:
    """(L + 1, H + 1) array [m, v] of the log first-exceedance weight

        sum_{j >= H + 1 - v} x^j C_{L-m-1-j}(j),   x = e^{-beta/2},

    for v < cols[m], -inf elsewhere: the stretches up from height v, with
    L - m units left, that first leave [0, H], each followed by the
    completion log_c[r, d] = log C_r(d) of ``_log_completion``.  From
    (m, u, v) such a stretch to w = v + j has the factor e^{-beta} x^{w - u}
    = e^{-beta} x^{v - u} x^j and no contact reward.  Only rows
    r <= L - H - 2 of log_c are read: from v <= max(m - 1, 0) such a
    stretch ends at a consumed length of at least m + H + 2 - v >= H + 2.
    """
    out = np.full((L + 1, H + 1), -np.inf)
    for m in range(L):
        R, c = L - m, cols[m]
        j = np.arange(H + 2 - c, R)  # the stretches from the top row v = c - 1
        # tail[t] sums the t + 1 longest; row v = c - 1 - i drops the i
        # shortest, so it reads tail[j.size - 1 - i]
        tail = np.logaddexp.accumulate((log_c[R - 1 - j, j] - 0.5 * beta * j)[::-1])
        k = min(c, tail.size)
        out[m, c - k:c] = tail[tail.size - k:]
    return out


def dp_Z(L: int, beta: float, delta: float, variant=Variant.FREE,
         height_cutoff: int | None = None) -> tuple:
    """(log Z, DPTable) by backward transfer over height pairs.

    The completion weight after m consumed units and prefix heights (u, v)
    obeys one step for every variant, x = e^{-beta/2}:

        G_k[m][u, v] = sum_w e^{-beta} x^{|w - u|} e^{delta 1{w = 0}}
                       1_k(v, w) G_{k'}[m + 1 + |w - v|][v, w]

    over the stretch directions k of ``_Plan``, on the block of ``_blocks``
    only (``_transfer``): the heights u < b(m) reachable after m units,
    and of the v < b(m) those from which the returning variants can still
    get back to 0; of each block the table keeps only the row ranges that
    some step reads.  With the default cutoff, (L - 2)/2 for every
    variant, the DP is exact (``_exact_cutoff``).  A Free walk can pass
    above it, but from there it never meets the wall again, so its table is
    closed there: every stretch that first leaves [0, H] adds its weight
    times the exact wall-free completion W (``_exceed_sources`` on
    ``_log_completion``) to the completion it starts from.  Any
    H >= (L - 2)/2 is exact in the same way, and the source is empty from
    H = L - 1 on.  A smaller cutoff gives a lower bound on Z and a rigorous
    bound on the missing reduced weight, from the same step run on a second
    stack with the same first-exceedance source, the wall-free completion
    majorant Ĝ of ``_log_majorant`` in place of W.  ``certified_dp_Z``
    picks the smallest cutoff whose bound is negligible against Z.

    The table keeps every slice, for ``backward_sample``.  So does the bound
    stack B of a cut table, of which only its log scale at m = 0 is read:
    it shares the table's read index, and a ring of its own would need a
    second ``_Plan.reads`` per step.  ``dp_log_Z`` is the same DP on the
    ring placement of ``_Plan``, for log Z and the bound alone.  Before the
    stacks are allocated, a run whose stacks (``_Plan.nbytes``) exceed
    physical memory raises ValueError naming L, H, the variant and the
    bytes.

    Guard: the step multiplies by x^{|w - u|} in double precision, so a
    factor below the smallest normal double (x^H < 2.2e-308, beta > 1417/H)
    is lost.  Then the DP first runs with such factors raised to that
    double, which can only increase Z, on a ring, as only its log Z is read;
    if log Z moves by more than ``_MAX_UNDERFLOW`` relative, or the start
    weight underflows to zero, dp_Z raises ValueError.  At delta = 0.5 it
    raises from beta = 284 at L = 18 (343 for the returning variants), 153
    at L = 60 (158), 115 at L = 120 and 72 at L = 300 (69 for Free at the
    full height 299); every smaller beta checked against the log-space
    recursion agrees with it.
    """
    z, table = _at_cutoff(L, beta, delta, variant, height_cutoff, True)
    return z.log_z, table


def dp_log_Z(L: int, beta: float, delta: float, variant=Variant.FREE,
             height_cutoff: int | None = None) -> LogZ:
    """``LogZ`` of ``dp_Z``, bit for bit, without the table: the DP runs on
    the ring placement of ``_Plan``, which holds only the slices some later
    step still reads, about H + 1 of them, for S and for the bound stack B
    alike.  At H = 200 that is about 65 MB per stack at any L past 2H,
    where the table takes about 8 (H + 1)^2 bytes per unit of L."""
    return _at_cutoff(L, beta, delta, variant, height_cutoff, False)[0]


def _at_cutoff(L, beta, delta, variant, height_cutoff, keep) -> tuple:
    """``_dp`` at ``height_cutoff``, the exact cutoff if it is None."""
    variant = as_variant(variant)
    _check_dp_args(L, beta, delta)
    if height_cutoff is not None and height_cutoff < 1:
        raise ValueError("height_cutoff must be >= 1")
    exact_H = _exact_cutoff(L)
    H = exact_H if height_cutoff is None else int(height_cutoff)
    log_g = _log_majorant(L, beta, delta) if H < exact_H else None
    return _dp(L, beta, delta, variant, H, log_g, keep)


def certified_dp_Z(L: int, beta: float, delta: float, variant=Variant.FREE) -> tuple:
    """(log Z, DPTable) of ``dp_Z`` at the smallest searched height cutoff
    whose log truncation bound is below log ``_CERTIFIED_REL`` plus the
    table's log reduced Z, so that a bound or a Z below the double range
    still certifies.

    In the collapsed phase the polymer stays about sqrt(L) high, so such a
    cutoff is O(sqrt L) where the exact one, (L - 2)/2, is O(L).  The
    search starts at ceil(2 sqrt L), takes one x1.25 step, then secant
    steps on log(bound / reduced Z) against H^2, each plus one height of
    margin: that log falls
    about linearly in H^2 (at L = 300, beta = 1, delta = 0 it is -3.8,
    -12.1, -29.9 at H = 35, 60, 95), where a secant in H overshoots.  Once
    a predicted H reaches half the exact cutoff, or the bound stops falling
    or reads inf or nan, it returns the exact table of ``dp_Z``.  The
    majorant Ĝ is built once for all trials.  The table is the sampler's;
    ``certified_dp_log_Z`` runs the same search on rings.
    """
    z, table = _certified(L, beta, delta, variant, True)
    return z.log_z, table


def certified_dp_log_Z(L: int, beta: float, delta: float,
                       variant=Variant.FREE) -> LogZ:
    """``LogZ`` of ``certified_dp_Z``, bit for bit, from the same search
    with every trial on the ring of ``dp_log_Z``."""
    return _certified(L, beta, delta, variant, False)[0]


def _certified(L, beta, delta, variant, keep) -> tuple:
    """(LogZ, table) of the search of ``certified_dp_Z``, ``keep`` as in
    ``_dp``."""
    variant = as_variant(variant)
    _check_dp_args(L, beta, delta)
    exact_H = _exact_cutoff(L)
    target = math.log(_CERTIFIED_REL)
    H = math.ceil(2.0 * math.sqrt(L))
    log_g = _log_majorant(L, beta, delta)
    tried = []  # (H, log(bound / reduced Z)) of each refused trial
    while 2 * H < exact_H:
        z, table = _dp(L, beta, delta, variant, H, log_g, keep)
        gap = z.log_truncation_bound - (z.log_z - beta * L)
        if math.isfinite(z.log_z) and gap < target:
            return z, table
        del table  # one table alive at a time
        if not (math.isfinite(z.log_z) and gap < math.inf):
            break
        tried.append((H, gap))
        if len(tried) == 1:
            predicted = math.ceil(1.25 * H)
        else:
            (h0, g0), (h1, g1) = tried[-2:]
            slope = (g1 - g0) / (h1 * h1 - h0 * h0)
            if not slope < 0.0:
                break
            predicted = math.ceil(math.sqrt(h1 * h1 + (target - g1) / slope)) + 1
        H = max(predicted, H + 1)
    del log_g  # the exact table needs no majorant
    return _dp(L, beta, delta, variant, exact_H, None, keep)


def _check_dp_args(L: int, beta: float, delta: float) -> None:
    if L < 1:
        raise ValueError("L must be >= 1")
    StepLaw(beta)  # names a beta that is not positive and finite
    _check_delta(delta)


def _physical_memory() -> int | None:
    """Bytes of physical memory, None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _dp(L, beta, delta, variant, H, log_g, keep) -> tuple:
    """(LogZ, DPTable) of ``dp_Z`` at cutoff H if ``keep``, else (LogZ,
    None) from the ring placement of ``_Plan``; the bound stack runs with
    the majorant ``log_g`` of ``_log_majorant``, or not at all if it is
    None.  A Free table at or above the exact cutoff is closed by the
    wall-free completion W, of which only the levels r <= L - H - 2 are
    read."""
    law = StepLaw(beta)
    X = law.c_beta * _step_matrix(law, H)  # X[u, w] = x^{|w - u|}
    raised = -np.inf
    plan = _Plan(L, H, variant, ring=not keep)
    need, memory = plan.nbytes(1 if log_g is None else 2), _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(f"dp_Z at L={L}, H={H}, {variant.value}: its stacks"
                         f" take {need} bytes, more than the {memory} bytes"
                         " of physical memory")
    log_w = closing = bounding = None
    if variant is Variant.FREE and H >= _exact_cutoff(L):
        log_w = _log_completion(L, max(L - H - 1, 1), beta, -beta, False)
        closing = _exceed_sources(log_w, beta, L, H, plan.cols)
    if log_g is not None:
        bounding = _exceed_sources(log_g, beta, L, H, plan.cols)
    if X[0, H] < _TINY:  # the raised run first, on a ring: only off[0] is read
        ring = _Plan(L, H, variant, ring=True) if keep else plan
        raised = _transfer(L, beta, delta, ring, np.maximum(X, _TINY),
                           closing, None)[2][0]
    S, _, off, log_bound = _transfer(L, beta, delta, plan, X, closing, bounding)
    # flat vectors fit any cutoff; beads (1, -1) and (2, -2) take 4 and 6
    empty = variant is Variant.SINGLE_BEAD and not (
        L >= 4 and L % 2 == 0 and (H >= 2 or L % 4 == 0))
    if off[0] == -np.inf:
        if not empty:
            raise ValueError(f"dp_Z at beta={beta}, L={L}: the start weight "
                             "underflowed to zero (double-precision underflow)")
    elif raised - off[0] > _MAX_UNDERFLOW * max(1.0, abs(off[0])):
        raise ValueError(
            f"dp_Z at beta={beta}, L={L}: raising the transition factors below"
            f" {_TINY:.1e} to it moves log Z by {raised - off[0]:.1e}, above"
            f" the supported {_MAX_UNDERFLOW:.0e} (double-precision underflow)")
    log_z = beta * L + float(off[0])
    bound = 0.0
    if log_g is not None:  # a bound below the smallest normal double still
        with np.errstate(over="ignore"):  # bounds the loss as that double
            bound = max(float(np.exp(log_bound)), _TINY)
    z = LogZ(log_z, H, log_bound, bound)
    if not keep:
        return z, None
    with np.errstate(divide="ignore"):
        np.log(S, out=S)  # in place: the linear values are done
    start, size = plan.start, plan.size
    for m in range(L + 1):  # slice by slice: no table-sized offsets array
        S[start[m]:start[m] + size[m]] += off[m]
    return z, DPTable(variant, L, beta, delta, H, S, log_z, bound, log_bound,
                      log_w, closing, plan)


def _toeplitz(vec: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) view T[v, w] = vec[|w - v|] of an n-vector, rows
    and cols at most n, on a copy of vec."""
    both = np.concatenate((vec[:0:-1], vec))  # both[n - 1 + j] = vec[|j|]
    size = both.itemsize
    return np.ndarray((rows, cols), both.dtype, buffer=both,
                      offset=(len(vec) - 1) * size, strides=(-size, size))


def _transfer(L, beta, delta, plan, X, closing, bounding) -> tuple:
    """(S, B, off, log truncation bound) of the backward transfer of ``dp_Z``
    with the step matrix X; slice m of the stack S times e^{off[m]} is G[m]
    on the stored heights of ``plan``, while the placement keeps it (a ring
    holds only the slices still read).  ``closing`` and ``bounding`` are
    first-exceedance sources of ``_exceed_sources``, or None: row m of
    ``closing`` (on W) times e^{-beta} x^{v - u} joins block m of S, which
    closes a Free table above its cutoff, and with ``bounding`` (on Ĝ) the
    bound stack B runs on the same step with its own scales, fed the same
    way; without it the log bound is -inf.  A source enters as the rank-one
    term e^{(beta/2) u} e^{source[m, v] - (beta/2) v - beta}, on up
    stretches only.  The returning variants step no height that cannot
    finish, so B has no source there: the true loss from such a state is 0.

    Every read goes through ``_Plan.reads``, once per m for S and B.  The
    terms of block m are G[m + 1 + |w - v|][v, w] for its rows v < c(m)
    and every w < n, and for the returning variants only w <
    max(L - m - 1, 1), the columns from which some v can finish; a read
    that cannot finish is the stack's trailing zero.  For u < b,
    x^{|w - u|} = x^{max(0, w + 1 - b)} x^{|min(w, b - 1) - u|}: the first
    factor joins the term, and the second makes every column w >= b the
    same, so a step is a b x min(b, columns) product plus a rank-one term.
    A term's log scale is its slice offset, by gap, plus the site weight
    and that decay, by column, so it is the product of an n-vector over
    gaps (seen through a Toeplitz view) and an n-vector over w, each at max
    1.  The gathered terms are scaled in place and normalized to a largest
    of 1; a step whose largest term is below ``_RESCALE`` gathers them
    again and is redone from their logs.  A single bead gathers once for
    both directions and takes two products, with the terms' strict upper
    triangle (up stretches, w > v; the tail w >= b and the source are
    theirs alone) and strict lower one (down, w < v), and keeps the up
    product where v < u and at the start.  Each block is kept at max 1, so
    B neither underflows nor overflows however small or large the lost
    weight is.  The step computes the whole b x c block in one scratch
    buffer and normalizes it by its max over all b x c entries; only then
    does ``_Plan.store`` keep the stored ranges.  A block with no weight is
    not stored and keeps log scale -inf.  On a ring its slot may still hold
    an older slice, entries finite in [0, 1]: its gap scale e^{-inf} = 0
    makes them 0 on the scaled path and their log plus -inf is -inf on the
    redo, exactly what the table's zeros give.
    """
    n = len(X)
    variant, rows, cols = plan.variant, plan.rows, plan.cols
    bead = variant is Variant.SINGLE_BEAD
    scratch = np.empty((1 + bead, n * n))
    lift = max(delta, 0.0) - beta          # per-stretch factor kept in off
    half = 0.5 * beta
    heights = np.arange(n)
    site = np.where(heights == 0, min(delta, 0.0), -max(delta, 0.0))
    if bead:
        upper = (heights > heights[:, None]).astype(float)  # [v, w]: up to w > v
        below = upper.T > 0.0  # [u, v]: v < u, the next stretch goes up

    def step(out, m, C):
        """Block ``out`` of length m from the terms C[v, w], decay included."""
        b, ne = rows[m], C.shape[1]
        head = min(b, ne)
        np.matmul(X[:b, :head], C[:, :head].T, out=out)
        if head < ne:
            out += X[:b, b - 1, None] * C[:, b:].sum(axis=1)

    def advance(Y, off_y, m, columns, idx, log_src):
        """Block m of Y at max 1 and its log scale off_y[m]: the step from
        the later blocks through ``idx`` of ``_Plan.reads``, plus the
        rank-one source e^{log_src[0][u] + log_src[1][v]} if given.
        ``columns`` is (log weight, its max, e^{weight - max}) of the site
        weight and decay of every column w the step reads."""
        log_col, top_col, col_scale = columns
        b, c, ne = rows[m], cols[m], len(log_col)
        prior = off_y[m + 1:m + 1 + n]  # the slices at gaps 0, 1, ...
        if bead:  # every stretch changes the height
            prior = np.concatenate(([-np.inf], prior[1:]))
        top_gap = prior.max()
        ref = top_gap + top_col  # -inf: every source slice is empty
        if ref > -np.inf:
            C = Y.take(idx, mode="clip")  # 0 where a read cannot finish
            C *= _toeplitz(np.exp(prior - top_gap), c, ne)
            C *= col_scale
            top = C.max()
            if top < _RESCALE:
                # redo from logs: a term that is 0 by structure (cannot
                # finish, off its columns, an exact 0 of the stack) is -inf
                with np.errstate(divide="ignore"):
                    C = np.log(Y.take(idx, mode="clip"))
                C += _toeplitz(prior, c, ne)
                C += log_col
                ref = C.max()
                if ref > -np.inf:
                    C -= ref
                    np.exp(C, out=C)
            else:  # the largest term at 1 keeps products out of subnormals
                C /= top
                ref += math.log(top)
        out = up = scratch[0, :b * c].reshape(b, c)
        if bead:
            up = scratch[1, :b * c].reshape(b, c)
        if ref > -np.inf:
            if bead:
                terms = C * upper[:c, :ne]
                C -= terms  # the down stretches: a diagonal read is 0
                low = min(c, ne)  # a down stretch from v < c ends below c
                np.matmul(X[:b, :low], C[:, :low].T, out=out)
                C = terms
            step(up, m, C)
            ref += lift
        else:
            out.fill(0.0)
            up.fill(0.0)
        if log_src is not None:
            rise, log_v = log_src
            scale = max(ref, rise[-1] + log_v.max())
            if scale > ref > -np.inf:
                out *= math.exp(ref - scale)
                if bead:
                    up *= math.exp(ref - scale)
            up += np.multiply.outer(np.exp(rise - rise[-1]),
                                    np.exp(log_v + (rise[-1] - scale)))
            ref = scale
        if bead:
            np.copyto(out, up, where=below[:b, :c] if m else True)
        top = out.max()
        if top == 0.0:  # no weight: the block stays 0, its scale -inf
            return
        out /= top
        off_y[m] = ref + math.log(top)
        plan.store(Y, m, out)

    def source(sources, m):
        """(log by row, log by column) of the first-exceedance source of
        block m, or None if it is empty."""
        if sources is None:
            return None
        c = cols[m]
        log_v = sources[m, :c] - shift[:c]
        if log_v.max() == -np.inf:
            return None
        return half * heights[:rows[m]], log_v

    shift = half * heights + beta  # log e^{-beta} x^{v - u} = (beta/2) u - shift[v]
    S = np.zeros(plan.start[-1] + 1)  # + the trailing zero
    last = np.zeros((rows[L], cols[L]))
    if variant is Variant.FREE:
        last[:] = X[:rows[L], :rows[L]]
    else:
        last[:, 0] = X[:rows[L], 0]  # closed at height 0
        if bead:  # by a down stretch, so never at (0, 0)
            last[0, 0] = 0.0
    plan.store(S, L, last)
    off = np.full(L + 1 + n, -np.inf)  # -inf past the end
    off[L] = 0.0
    B = None if bounding is None else np.zeros_like(S)
    off_b = np.full_like(off, -np.inf)  # B[L] = 0: no units left to lose
    for m in range(L - 1, -1, -1):
        # the returning variants read only the columns some v can finish from
        ne = n if variant is Variant.FREE else min(n, max(L - m - 1, 1))
        log_col = (site - half * np.maximum(heights + 1 - rows[m], 0))[:ne]
        top_col = log_col.max()
        columns = (log_col, top_col, np.exp(log_col - top_col))
        idx = plan.reads(m, slice(cols[m]), ne, plan.need)
        advance(S, off, m, columns, idx, source(closing, m))
        if B is not None:
            advance(B, off_b, m, columns, idx, source(bounding, m))
    # block 0 of B is 1 x 1 at max 1, so its log scale is the log bound
    return S, B, off, float(off_b[0])


_SAMPLE_BLOCK = 1 << 15  # (draws x heights) entries per block of live draws
_SAMPLE_REL_BOUND = 1e-9  # largest truncation bound, relative to Z, sampled from


def backward_sample(table: DPTable, count: int, rng) -> StretchBatch:
    """Draw ``count`` exact samples from the polymer measure of ``table``.

    All draws advance together, one stretch per round, on the step of
    ``dp_Z``: a draw at (m, u, v) weighs each next height w by x^{|w - u|}
    e^{delta 1{w = 0}} times the table's completion of (v, w), read through
    the table's ``_Plan.reads`` as the DP reads it, one direction at a time
    (a single bead's up stretch reads the entries w > v, whose next stretch
    goes down, and its down stretch those w < v), -inf where it cannot
    finish, and picks w by inverse CDF with one uniform, so the draws are
    i.i.d. from e^{H} / Z.  Live draws go in blocks of ``_SAMPLE_BLOCK``
    entries; as every draw of a round takes the same direction, a block's
    weights and CDF are built once per distinct state (m, u, v), one
    ``np.unique`` on a packed key, and each draw still takes its own
    uniform in draw order, so grouping changes no byte.  A
    negative or non-integer ``count`` raises ValueError, and so does a
    table whose log truncation bound is not below log ``_SAMPLE_REL_BOUND``
    plus its log reduced Z.  That bound counts every configuration that
    leaves a cut table's heights with the wall-free majorant Ĝ of its
    completion, so a certified cut table (``certified_dp_Z``) draws from a
    law within its bound of the exact one; no draw leaves a cut table.

    On a Free table closed above its cutoff (``DPTable.log_wall_free``) a
    draw has one more candidate, leaving the table, weighed by the DP's
    first-exceedance source (``DPTable.log_leave``).  A draw that leaves
    picks its stretch j >= H + 1 - v with weight x^j W_{R-1-j}(j), R units
    left, and from then on is wall-free: after a stretch d it picks the
    next stretch i with weight x^{|d + i|} W_{R-1-|i|}(|i|), in the same
    rounds, in blocks of ``_SAMPLE_BLOCK`` candidate entries.

    The draws come back as one ``StretchBatch``: the (count, L) stretch
    matrix, draw i in the first ``sizes[i]`` entries of row i, and the
    sizes.  Its construction checks every row at once with array
    operations; no draw becomes a per-draw object.
    """
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    log_bound = table.log_truncation_bound
    log_reduced_z = table.normalization - table.beta * table.L
    if not (log_bound == -math.inf  # exact, or nan: refused
            or log_bound < math.log(_SAMPLE_REL_BOUND) + log_reduced_z):
        raise ValueError(
            f"table is truncated: the bound {table.truncation_bound:.1e} on the"
            f" lost weight is not below {_SAMPLE_REL_BOUND:.0e} of the reduced Z"
            f" (log {log_reduced_z:.2f}); refuse to sample from a biased law")
    if not np.isfinite(table.normalization):
        raise ValueError("the configuration set is empty at these parameters")
    L, beta, H, plan = table.L, table.beta, table.height_cutoff, table.plan
    n = H + 1
    half = 0.5 * beta
    heights = np.arange(n)
    log_rew = np.where(heights == 0, table.delta, 0.0)
    rows = max(1, _SAMPLE_BLOCK // n)
    rows_free = max(1, _SAMPLE_BLOCK // L)  # about L candidates per free draw
    log_w, leave = table.log_wall_free, table.log_leave
    m, u, v, sizes = (np.zeros(count, dtype=np.int64) for _ in range(4))
    free = np.zeros(count, dtype=bool)  # above the table once: wall-free
    lowest = np.full(count, -L)  # shortest next stretch of a free draw
    stretches = np.zeros((count, L), dtype=np.min_scalar_type(-L))
    live = np.arange(count)
    k = 0

    def pick(lp, inv=None):
        """Column of each draw by inverse CDF, one uniform each, from the
        rows of log weights lp, draw j reading row inv[j] if given."""
        cdf = np.cumsum(np.exp(lp - lp.max(axis=1, keepdims=True)), axis=1)
        if inv is not None:
            cdf = cdf[inv]
        return (cdf <= (rng.random(len(cdf)) * cdf[:, -1])[:, None]).sum(axis=1)

    def record(i, step):
        stretches[i, k] = step
        m[i] += 1 + np.abs(step)
        u[i], v[i] = v[i], v[i] + step

    while live.size:
        inside = live[~free[live]]
        need = plan.dirs[k % len(plan.dirs)]
        for a in range(0, inside.size, rows):
            i = inside[a:a + rows]
            vi = v[i]
            # one row of weights per distinct state (m, u, v) of the block
            _, first, inv = np.unique((m[i] * n + u[i]) * n + vi,
                                      return_index=True, return_inverse=True)
            ms, us, vs = m[i[first]], u[i[first]], vi[first]
            lp = table.log_weights.take(plan.reads(ms, vs, n, need),
                                        mode="clip")  # -inf where it cannot finish
            lp += log_rew - half * np.abs(heights - us[:, None])
            if leave is not None:  # candidate n leaves: x^{v - u} times the source
                lp = np.column_stack((lp, leave[ms, vs] + half * (us - vs)))
            w = pick(lp, inv)
            stay = w < n
            if not stay.all():
                free[i[~stay]] = True
                lowest[i[~stay]] = H + 1 - vi[~stay]
                i, vi, w = i[stay], vi[stay], w[stay]
            record(i, w - vi)
        outside = live[free[live]]
        for a in range(0, outside.size, rows_free):
            # a wall-free stretch j from R units left after a step d weighs
            # x^{|d + j|} W_{R-1-|j|}(|j|); on leaving, only j >= H + 1 - v
            i = outside[a:a + rows_free]
            R, d = L - m[i], v[i] - u[i]
            j = np.arange(max(lowest[i].min(), 1 - R.max()), R.max())
            r = R[:, None] - 1 - np.abs(j)
            lp = log_w[np.clip(r, 0, len(log_w) - 1), np.abs(j)]
            lp -= half * np.abs(d[:, None] + j)
            lp[(r < 0) | (j < lowest[i, None])] = -np.inf
            lowest[i] = -L
            record(i, j[pick(lp)])
        sizes[live] += 1
        live = live[m[live] < L]
        k += 1
    return StretchBatch(stretches, sizes, L, table.variant)


# ---------------------------------------------------------------------------
# envelope-pair DPs and walk representations
# ---------------------------------------------------------------------------

def _envelope_chain(law: StepLaw, delta: float, H: int, incs: tuple, reads):
    """Yield, after each N = 1, ..., len(reads) stretches of the interleaved
    envelope chain T_1, T_2, ... on heights 0..H, its weight closed at
    T_N = T_{N+1} = 0 with counter reads[N - 1].

    The state is (T_{N-1}, T_N, counter), started at (0, 0, 0).  Each step
    draws T_{N+1} from T_{N-1}, two indices back, by the step matrix, so
    the odd and even entries are two independent walks; it puts e^delta on
    T_{N+1} = 0 and adds ``incs[N % len(incs)][T_{N+1}, T_N]`` to the
    counter, an entry of -1 forbidding that stretch.  Read N is taken on
    the step to T_{N+1} before its reward and increment, so the closing
    step is a bridge step with no contact reward.  Reads must never rise:
    counters never fall, so after each read the counter axis keeps only
    the counters up to the next one.
    """
    n = H + 1
    P = _step_matrix(law, H)
    shifts = [[np.nonzero(inc == d) for d in range(inc.max() + 1)]
              for inc in incs]
    D = np.zeros((n, n, reads[0] + 1))
    D[0, 0, 0] = 1.0
    for N in range(len(reads) + 1):
        # [w, v, c]: T_{N+1} = w drawn from T_{N-1}, with T_N = v
        B = np.tensordot(P, D, axes=(1, 0))
        if N:
            yield float(B[0, 0, reads[N - 1]])
            if N == len(reads):
                return
            B = B[:, :, :reads[N] + 1]
        B[0] *= math.exp(delta)
        G = B.shape[2]
        out = np.zeros_like(B)
        for d, (wi, vi) in enumerate(shifts[N % len(incs)][:G]):
            out[wi, vi, d:] = B[wi, vi, :G - d]
        # reorder to state (T_N, T_{N+1}) = (v, w)
        D = np.ascontiguousarray(np.swapaxes(out, 0, 1))


def _bead_incs(H: int) -> tuple:
    """Direction tables of a single bead: stretches alternate up (w > v),
    adding 0, and down (w < v), adding the area S_k - I_k = v - w."""
    heights = np.arange(H + 1)
    drop = heights - heights[:, None]  # [w, v]: v - w
    return np.where(drop < 0, 0, -1), np.where(drop > 0, drop, -1)


def d_circ(N: int, q, beta: float, delta: float) -> float:
    """Joint ordered-envelope probability at a pinned enclosed-area difference.

    Expectation over two independent step walks S (N+1 steps, S_{N+1} = 0)
    and I (N steps, I_N = 0), both >= 0, strictly ordered (S_k > I_k and
    S_k > I_{k-1}), carrying e^{delta} per zero of I, on the event that the
    signed-area difference A_{N+1}(S) - A_N(I) equals q N^2 = a.  It is
    the envelope chain S_1, I_1, ..., S_N, I_N with the single-bead
    direction tables, the down stretch S_k -> I_k counting S_k - I_k of
    area, read once after 2N stretches at area a.

    The height cutoff a - N + 1 is exact: step k adds S_k - I_k >= 1 to
    the area, and from S_k = h the steps k..N add at least h + N - k (by
    induction back from I_N = 0, as S_{k+1} >= I_k + 1), so a walk through
    S_k = h has area at least (k - 1) + h + N - k and h <= a - N + 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_delta(delta)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    j2 = 2.0 * q * N * N
    j2r = round(j2)
    if j2r < 1 or abs(j2 - j2r) > 1e-9 * max(1.0, abs(j2)):
        raise ValueError(f"q={q!r} is not a positive multiple of 1/(2 N^2)")
    if j2r % 2:
        return 0.0  # half-integer area target: no lattice configuration
    a = j2r // 2
    if a < N:
        return 0.0  # the ordering forces an area gain of at least 1 per step
    H = a - N + 1
    closings = _envelope_chain(StepLaw(beta), delta, H, _bead_incs(H),
                               [a] * (2 * N))
    return next(itertools.islice(closings, 2 * N - 1, None))


def z_circ_from_walks(L: int, beta: float, delta: float) -> float:
    """Single-bead partition value Z°_L / (c_beta e^{beta L}) via envelope walks:
    the sum over N <= L/4 of Gamma^{2N} ``d_circ`` at area L/2 - N, read
    off one pass of the envelope chain; 0.0 for odd L.

    A bead of k stretches has sum |l_i| = L - k = 2(A(S) - A(I)), so its
    down stretches add up to (L - k)/2, the read after k stretches, and k
    <= L/2; term k is Gamma^k times that read, and an odd k ends on an up
    stretch and closes to exactly 0.  One pass serves every N at the
    height cutoff of N = 1, (L - 2)/2, the largest of the exact cutoffs
    L/2 - 2N + 1 of ``d_circ``.
    """
    _check_dp_args(L, beta, delta)
    if L % 2 or L < 4:
        return 0.0  # the smallest bead, stretches (1, -1), has length 4
    law = StepLaw(beta)
    H = _exact_cutoff(L)
    closings = _envelope_chain(law, delta, H, _bead_incs(H),
                               [(L - k) // 2 for k in range(1, L // 2 + 1)])
    return float(sum(law.gamma_beta ** k * closed
                     for k, closed in enumerate(closings, 1)))


def z_constrained_from_walks(L: int, beta: float, delta: float) -> float:
    """End-constrained partition value Z^{+,c}_L / (c_beta e^{beta L}).

    The envelope chain with one direction table, the vertical bond count
    |w - v| of a stretch, summing Gamma^N times its read at g = L - N,
    T_N = T_{N+1} = 0: contacts are rewarded on the real prefixes
    T_1..T_N only.

    The height cutoff (L - 2)/2 of ``_exact_cutoff`` is exact: the T_j are
    prefix heights of a returning polymer with g = L - N vertical bonds, so
    a height h > 0 takes 2h <= L - N of them and N >= 2 stretches.
    """
    _check_dp_args(L, beta, delta)
    law = StepLaw(beta)
    H = _exact_cutoff(L)
    heights = np.arange(H + 1)
    closings = _envelope_chain(law, delta, H,
                               (np.abs(heights - heights[:, None]),),
                               range(L - 1, -1, -1))
    return float(sum(law.gamma_beta ** N * closed
                     for N, closed in enumerate(closings, 1)))


# ---------------------------------------------------------------------------
# area-tilted pinned bridges
# ---------------------------------------------------------------------------

def area_wetting_dp(N: int, gamma: float, beta: float, delta: float) -> float:
    """log E[e^{-gamma A_N(I)/N} e^{delta #zeros} 1{I in B^{0,+}_N}] (gamma >= 0):
    the pinned bridge ``wetting._log_bridge`` with the site weight
    e^{delta 1{h = 0} - gamma h / N}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma!r}")
    _check_delta(delta)
    law = StepLaw(beta)
    H = _strip_top(N, beta)
    log_w = -gamma * np.arange(H + 1) / N
    log_w[0] += delta
    return _log_bridge(law, log_w, N)


def e_circ(N: int, q: float, beta: float, delta: float) -> float:
    """log of the area-tilted pinned bridge with tilt coefficient d/dq g(q, 0)."""
    if q <= 0:
        raise ValueError("q must be positive")
    gamma = largedev.tilt_inverse(q, 0.0, beta).h0
    return area_wetting_dp(N, gamma, beta, delta)


def e_n_gamma(N: int, gamma: float, beta: float) -> float:
    """log E_N(gamma): area-tilted positive bridge without pinning."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return area_wetting_dp(N, gamma, beta, 0.0)
