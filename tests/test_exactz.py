"""Exact partition functions, envelope building blocks, backward sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ipdsaw import exactz, largedev, wetting
from ipdsaw.polymer import StretchConfig, Variant, hamiltonian
from ipdsaw.steps import StepLaw

import oracles

VARIANTS = (Variant.FREE, Variant.CONSTRAINED_END, Variant.SINGLE_BEAD)


def logsumexp(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_free_l2_closed_form():
    # Omega_2 = {(1), (0,0)} with energies 0 and 2*delta
    for beta, delta in [(1.0, 0.0), (2.0, 0.5), (0.7, 2.0)]:
        got = exactz.brute_force_Z(2, beta, delta, Variant.FREE)
        assert got == pytest.approx(math.log(1 + math.exp(2 * delta)),
                                    rel=1e-14)


def test_brute_free_l4_counts_at_zero_coupling():
    got = exactz.brute_force_Z(4, 0.0, 0.0, Variant.FREE)
    assert got == pytest.approx(math.log(oracles.count_free_configs(4)),
                                rel=1e-14)


def test_brute_single_bead_hand_sums():
    # Hand enumeration: the single-bead sets at small length are
    #   L=4: {(1,-1)};  L=6: {(2,-2)};  L=8: {(1,-1,1,-1), (3,-3)}
    assert list(exactz.enumerate_configs(4, Variant.SINGLE_BEAD)) == [(1, -1)]
    assert list(exactz.enumerate_configs(6, Variant.SINGLE_BEAD)) == [(2, -2)]
    assert sorted(exactz.enumerate_configs(8, Variant.SINGLE_BEAD)) == [
        (1, -1, 1, -1), (3, -3)]
    beta, delta = 1.1, 0.6
    assert exactz.brute_force_Z(6, beta, delta, Variant.SINGLE_BEAD) == \
        pytest.approx(2 * beta + delta, rel=1e-14)
    hand = logsumexp([3 * beta + 2 * delta, 3 * beta + delta])
    assert exactz.brute_force_Z(8, beta, delta, Variant.SINGLE_BEAD) == \
        pytest.approx(hand, rel=1e-14)


def test_brute_rejects_large_l():
    with pytest.raises(ValueError):
        exactz.brute_force_Z(25, 1.0, 0.0, Variant.FREE)


def test_feature_histogram_copy_protects_cache():
    want = exactz.brute_force_Z(10, 2.0, 0.5, Variant.FREE)
    hist = exactz.feature_histogram(10, Variant.FREE)
    hist[(0, 0)] = 10 ** 9
    hist.pop(next(iter(hist)))
    assert exactz.feature_histogram(10, Variant.FREE) != hist
    assert exactz.brute_force_Z(10, 2.0, 0.5, Variant.FREE) == want


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_feature_histogram_matches_recursive_enumeration(variant):
    # the frontier sweep against the recursive generator, each configuration
    # scored by the Hamiltonian at (beta, delta) = (1, 0) and (0, 1)
    for L in range(1, 15):
        want = {}
        for l in exactz.enumerate_configs(L, variant):
            cfg = StretchConfig(l, L, variant)
            key = (round(hamiltonian(cfg, 1.0, 0.0)), round(hamiltonian(cfg, 0.0, 1.0)))
            want[key] = want.get(key, 0) + 1
        assert exactz.feature_histogram(L, variant) == want, L


def test_feature_histogram_does_not_depend_on_the_block_size(monkeypatch):
    # each level is expanded in blocks of about _ENUM_BLOCK children: small
    # blocks give the same counts with the keys in the same order, which is
    # the order brute_force_Z sums its terms in
    enumerate_levels = exactz._histogram.__wrapped__  # past the cache
    want = {(v, L): list(enumerate_levels(L, v).items())
            for v in VARIANTS for L in range(1, 13)}
    monkeypatch.setattr(exactz, "_ENUM_BLOCK", 97)
    for (v, L), items in want.items():
        assert list(enumerate_levels(L, v).items()) == items, (v, L)


# ---------------------------------------------------------------------------
# transfer DP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_dp_matches_brute_small_grid(variant):
    for L in (5, 9, 12):
        for beta, delta in [(1.0, 0.0), (2.0, 0.7)]:
            brute = exactz.brute_force_Z(L, beta, delta, variant)
            dp, table = exactz.dp_Z(L, beta, delta, variant)
            if math.isinf(brute):
                assert math.isinf(dp)
            else:
                assert dp == pytest.approx(brute, rel=1e-12)
            assert table.normalization == dp
            assert table.truncation_bound == 0.0


def test_dp_l2_closed_form():
    for delta in (0.0, 0.8, 2.0):
        dp, _ = exactz.dp_Z(2, 1.7, delta, Variant.FREE)
        assert dp == pytest.approx(math.log(1 + math.exp(2 * delta)),
                                   rel=1e-13)


def test_free_walk_above_the_exact_cutoff_never_meets_the_wall():
    # the lemma of _exact_cutoff, configuration by configuration: after a
    # prefix height above (L - 2)/2, every later prefix height is positive
    crossed = 0
    for L in range(1, 15):
        H = exactz._exact_cutoff(L)
        for l in exactz.enumerate_configs(L, Variant.FREE):
            T = np.cumsum(l)
            above = np.flatnonzero(T > H)
            if above.size:
                crossed += 1
                assert 2 * T[above[0]] >= L - 1
                assert np.all(T[above[0]:] > 0), l
    assert crossed > 1000


def test_closed_free_table_matches_the_full_height_route():
    # the exact cutoff (L - 2)/2 with the wall-free closure against the
    # table at height L - 1, which holds every height a Free walk reaches;
    # at L = 300 not at beta = 0.3 and 20, which take 2.6 s more
    grid = ((0.05, 0.7), (0.3, 2.0), (20.0, 0.5), (2.0, -5.0))
    for L in (*range(1, 25), 40, 60, 61, 100, 150, 300):
        for beta, delta in grid[::3] if L == 300 else grid:
            got, table = exactz.dp_Z(L, beta, delta, Variant.FREE)
            want, full = exactz.dp_Z(L, beta, delta, Variant.FREE,
                                     height_cutoff=max(L - 1, 1))
            assert table.height_cutoff == max((L - 2) // 2, 0)
            assert table.log_truncation_bound == full.log_truncation_bound == -math.inf
            assert got == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf, 0.0])
def test_dp_and_walk_routes_name_a_bad_beta(beta):
    for route in (exactz.dp_Z, exactz.certified_dp_Z, exactz.z_circ_from_walks,
                  exactz.z_constrained_from_walks):
        with pytest.raises(ValueError,
                           match=f"beta must be positive and finite, got {beta}$"):
            route(10, beta, 0.5)


def _lost_weight(lz, exact, beta, L):
    """Reduced weight a cut table misses: e^{exact - beta L} (1 - e^{lz - exact})."""
    return math.exp(exact - beta * L) * -math.expm1(lz - exact)


def test_dp_truncation_bound_controls_error_and_decreases():
    exact, _ = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE)
    bounds = []
    for cutoff in (6, 10, 16, 30):
        lz, tab = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE, height_cutoff=cutoff)
        assert _lost_weight(lz, exact, 2.0, 60) <= tab.truncation_bound
        assert lz <= exact + 1e-12  # truncation only removes mass
        bounds.append(tab.truncation_bound)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # halving the cutoff from L to L/2 stays within the reported bound
    lz, tab = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE, height_cutoff=30)
    assert _lost_weight(lz, exact, 2.0, 60) <= tab.truncation_bound < 1e-9


@pytest.mark.parametrize("beta, delta", [(2.0, 0.5), (1.0, 1.2), (3.0, -0.5),
                                         (20.0, 0.0), (2.0, 700.0), (2.0, -800.0)])
def test_majorant_sweeps_match_termwise_sum(beta, delta):
    L = 50
    got = exactz._log_majorant(L, beta, delta)
    want = oracles.log_majorant(L, beta, delta)
    tri = np.add.outer(np.arange(L), np.arange(L)) <= L - 1
    assert np.all(np.isneginf(got[~tri]))
    diff = got[tri] - want[tri].astype(float)
    scale = np.maximum(1.0, np.abs(want[tri].astype(float)))
    assert np.all(diff >= 0.0)  # the margin keeps the sweeps above the sum
    assert np.all(diff <= 1e-12 * scale)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_truncation_bound_covers_lost_weight(variant):
    # wherever the loss is resolvable in double precision
    checked = 0
    for L in (30, 60):
        for beta, delta in ((1.0, 0.0), (2.0, 1.2), (3.0, -1.0), (1.5, 0.5)):
            exact, _ = exactz.dp_Z(L, beta, delta, variant)
            for H in (2, 4, 7, 11):
                if H >= exactz._exact_cutoff(L):
                    continue
                lz, table = exactz.dp_Z(L, beta, delta, variant, height_cutoff=H)
                if not exact - lz > 1e-8:
                    continue
                assert _lost_weight(lz, exact, beta, L) <= table.truncation_bound
                checked += 1
    assert checked >= 15


@pytest.mark.parametrize("L, beta, delta, variant", [
    (300, 2.0, 1.2, Variant.FREE),
    (300, 1.0, 0.0, Variant.FREE),
    (120, 2.0, 0.2, Variant.SINGLE_BEAD),
])
def test_certified_dp_z_is_within_its_bound(L, beta, delta, variant):
    lz, table = exactz.certified_dp_Z(L, beta, delta, variant)
    exact, _ = exactz.dp_Z(L, beta, delta, variant)
    assert table.normalization == lz
    rel = table.truncation_bound / math.exp(lz - beta * L)
    assert rel < exactz._CERTIFIED_REL
    # log Z is below the exact value by at most rel, up to its own rounding
    ulps = 4 * np.finfo(float).eps * abs(exact)
    assert -ulps <= exact - lz <= rel + ulps
    if variant is Variant.FREE and beta == 2.0:  # cut far below the exact height
        assert 2 * table.height_cutoff < exactz._exact_cutoff(L)
    if beta == 1.0:  # the bound first certifies near H = 95, above half the
        # exact 149, so the search returns the exact table
        assert table.height_cutoff == exactz._exact_cutoff(L) == 149
        assert table.log_truncation_bound == -math.inf


def test_dp_input_validation():
    with pytest.raises(ValueError):
        exactz.dp_Z(0, 1.0, 0.0, Variant.FREE)
    with pytest.raises(ValueError):
        exactz.dp_Z(10, 1.0, 0.0, Variant.FREE, height_cutoff=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta"):
            exactz.dp_Z(10, 2.0, bad, Variant.FREE)


@pytest.mark.parametrize("beta, delta, variant", [
    (2.0, 30.0, Variant.FREE),
    (2.0, 700.0, Variant.FREE),
    (2.0, 700.0, Variant.CONSTRAINED_END),
    (2.0, 700.0, Variant.SINGLE_BEAD),
    (2.0, -800.0, Variant.FREE),
    (2.0, -800.0, Variant.CONSTRAINED_END),
    (2.0, -800.0, Variant.SINGLE_BEAD),
    (10.0, 0.5, Variant.FREE),
    (40.0, 0.5, Variant.CONSTRAINED_END),
    (100.0, 0.5, Variant.SINGLE_BEAD),
], ids=lambda p: getattr(p, "value", str(p)))
def test_dp_finite_at_extreme_parameters(beta, delta, variant):
    # the per-slice offsets keep log Z finite where linear weights overflow
    # (delta = 30, 700) or underflow (delta = -800, beta = 100)
    got, _ = exactz.dp_Z(18, beta, delta, variant)
    assert isinstance(got, float)
    assert got == pytest.approx(exactz.brute_force_Z(18, beta, delta, variant),
                                rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_dp_large_beta_matches_log_space_or_raises(variant):
    # on a grid through the supported edge, dp_Z either agrees with the
    # log-space recursion or raises ValueError; it never returns a wrong or
    # infinite value silently
    grid = [(L, beta) for L, betas in ((18, (60, 120, 135, 150, 180, 245, 300, 400)),
                                       (30, (40, 100, 145, 160, 175, 300)),
                                       (60, (20, 60, 76, 80, 100, 200)))
            for beta in betas]
    raised = 0
    for L, beta in grid:
        want = oracles.dp_log_space(L, beta, 0.5, variant)
        try:
            got, _ = exactz.dp_Z(L, beta, 0.5, variant)
        except ValueError as exc:
            assert f"beta={beta}" in str(exc) and f"L={L}" in str(exc)
            raised += 1
            continue
        assert got == pytest.approx(want, rel=1e-12)
    assert 0 < raised < len(grid)  # the grid straddles the limit


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_dp_large_beta_supported_floor(variant):
    # points inside the supported region at delta = 0.5: dp_Z must answer,
    # and answer exactly, not raise; after the first two, the last
    # supported beta at L = 18, 60, 120 (and 300 for Free) that dp_Z's
    # docstring states, one below where it raises
    free = variant is Variant.FREE
    for L, beta in ((18, 135.0), (60, 76.0), (18, 283.0 if free else 342.0),
                    (60, 152.0 if free else 157.0), (120, 114.0)):
        got, _ = exactz.dp_Z(L, beta, 0.5, variant)
        if free and L == 120:  # the oracle takes 4 s here
            assert math.isfinite(got)
            continue
        assert got == pytest.approx(oracles.dp_log_space(L, beta, 0.5, variant),
                                    rel=1e-12)
    if free:
        assert math.isfinite(exactz.dp_Z(300, 71.0, 0.5, variant)[0])


def test_dp_empty_single_bead_set_is_minus_inf():
    for L in (2, 3, 5, 7):
        assert exactz.dp_Z(L, 2.0, 0.5, Variant.SINGLE_BEAD)[0] == -math.inf
    # heights <= 1 leave only (1, -1) beads, 4 units each
    assert exactz.dp_Z(10, 2.0, 0.5, Variant.SINGLE_BEAD,
                       height_cutoff=1)[0] == -math.inf
    assert math.isfinite(exactz.dp_Z(12, 2.0, 0.5, Variant.SINGLE_BEAD,
                                     height_cutoff=1)[0])


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_truncation_bound_matches_forward_oracle(variant):
    # the backward bound is the forward first-exceedance sum, reordered
    for L, H in ((18, 3), (30, 4), (40, 20), (60, 6), (60, 10)):
        for beta, delta in ((2.0, 0.5), (1.0, 1.2), (3.0, -0.5)):
            _, table = exactz.dp_Z(L, beta, delta, variant, height_cutoff=H)
            if H >= exactz._exact_cutoff(L):
                assert table.truncation_bound == 0.0
                continue
            want = oracles.truncation_tail(L, beta, delta, variant, H)
            assert table.truncation_bound == pytest.approx(want, rel=1e-12)


def _stored_rows(plan):
    """(m, u, lo, hi, offset) of every nonempty stored row."""
    lo, hi = plan.lo, plan.hi
    base = plan.rowbase.reshape(lo.shape)
    for m, u in zip(*np.nonzero(hi > lo)):
        yield m, u, lo[m, u], hi[m, u], base[m, u] + lo[m, u]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_dp_blocks_match_dense_table(variant):
    # every stored row range equals the dense slab there, the table stores
    # those ranges only, back to back, then one trailing -inf, and every
    # column that cannot finish is exactly -inf in the dense slab
    # (a Free table at the exact cutoff (L - 2)/2 against the dense one at
    # L - 1: the closure above the cutoff leaves every stored entry exact);
    # a single bead's entry is the dense up stack where v < u and at the
    # start (0, 0, 0), the down stack elsewhere
    for L, cutoff in ((18, None), (31, None), (40, 12)):
        for beta, delta in ((2.0, 1.2), (1.0, -0.5)):
            lz, table = exactz.dp_Z(L, beta, delta, variant, height_cutoff=cutoff)
            want_z, dense, bound = oracles.dp_dense_table(L, beta, delta, variant,
                                                          height_cutoff=cutoff)
            assert lz == pytest.approx(want_z, rel=1e-12)
            assert table.truncation_bound == pytest.approx(bound, rel=1e-12, abs=0)
            plan = table.plan
            stacks = dense if isinstance(dense, tuple) else (dense,)
            if variant is Variant.SINGLE_BEAD:
                up, down = dense
                heights = np.arange(up.shape[-1])
                dense = np.where(heights < heights[:, None], up, down)
                dense[0, 0, 0] = up[0, 0, 0]
            got_stack = table.log_weights
            assert got_stack.nbytes == 8 * (int((plan.hi - plan.lo).sum()) + 1)
            assert got_stack[-1] == -np.inf
            end = 0
            for m, u, lo, hi, at in _stored_rows(plan):
                assert at == end  # rows back to back, in (m, u) order
                end = at + hi - lo
                got, want = got_stack[at:end], dense[m, u, lo:hi]
                np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
                fin = np.isfinite(want)
                assert np.all(np.abs(got[fin] - want[fin])
                              <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))
            assert end == got_stack.size - 1
            for m in range(L + 1):  # no dropped height can still finish
                b, c = plan.rows[m], plan.cols[m]
                for stack in stacks:
                    assert np.all(stack[m, :b, c:b] == -np.inf)


def _states(l):
    """(stretch index k, consumed m, (T_{k-1}, T_k)) before every stretch
    of the stretch vector l and after the last."""
    T, m = [0, 0], 0
    for k, step in enumerate(l):
        yield k, m, T[-2], T[-1]
        m += 1 + abs(step)
        T.append(T[-1] + step)
    yield len(l), m, T[-2], T[-1]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_enumerated_states_lie_in_stored_ranges(variant):
    # every state a configuration passes through, at heights the table
    # keeps, lies in its row's range; after the start a single bead's next
    # stretch goes up exactly when v < u, the rule its one table keys on
    for L in range(1, 13):
        exact_H = exactz._exact_cutoff(L)
        for H in sorted({max(exact_H, 1), 1, 2, 3}):
            plan = exactz._Plan(L, H, variant)
            for l in exactz.enumerate_configs(L, variant):
                for k, m, u, v in _states(l):
                    if variant is Variant.SINGLE_BEAD and m:
                        assert (v < u) == (k % 2 == 0), (l, m)
                    if u <= H and v <= H:
                        assert u < plan.rows[m] and v < plan.cols[m]
                        assert plan.lo[m, u] <= v < plan.hi[m, u], (l, m)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_plan_reads_land_in_stored_ranges(variant):
    # ``_Plan.reads`` in the DP's call shape (scalar m, rows v < c(m), both
    # directions at once through ``need``) and the sampler's (one m and v
    # per draw, at every stored state, one direction of ``dirs`` at a
    # time): a read past the end or over its need is the trailing zero, and
    # every other read is the entry (v, w) of its row's stored range, with
    # the row offsets counted afresh from the ranges
    for L, H in ((12, None), (31, None), (40, 6), (60, 20)):
        H = exactz._exact_cutoff(L) if H is None else H
        n = H + 1
        plan = exactz._Plan(L, H, variant)
        heights = np.arange(n)
        gaps = np.abs(heights - heights[:, None])
        lengths = (plan.hi - plan.lo).ravel()
        first = (np.cumsum(lengths) - lengths).reshape(plan.hi.shape)
        if variant is not Variant.FREE:  # |w - v| + 1, and w + 1 back from w
            need = gaps + 1 + np.where(heights > 0, heights + 1, 0)
            dirs = (need,)
            if variant is Variant.SINGLE_BEAD:  # no stretch keeps the height
                up = heights > heights[:, None]
                dirs = (np.where(up, need, L + 1), np.where(up.T, need, L + 1))
                need = np.where(gaps > 0, need, L + 1)
            np.testing.assert_array_equal(plan.need, need)
            assert len(plan.dirs) == len(dirs)
            for got, want in zip(plan.dirs, dirs):
                np.testing.assert_array_equal(got, want)
        else:  # only reads past the end cannot finish
            assert plan.need is None and plan.dirs == (None,)

        def check(need, m, v, columns, idx):
            assert idx.shape == (len(v), columns)
            w = heights[:columns]
            later = m[:, None] + 1 + gaps[v, :columns]
            stop = later > L
            if need is not None:
                stop |= need[v, :columns] > L - m[:, None]
            assert np.all(idx[stop] == plan.start[-1]), L
            at = (np.minimum(later, L + 1), v[:, None])
            lo, hi = plan.lo[at], plan.hi[at]
            inside = (lo <= w) & (w < hi) & (idx == first[at] + w - lo)
            assert np.all(inside | stop), L

        for m in range(L):
            c = plan.cols[m]
            ne = n if variant is Variant.FREE else min(n, max(L - m - 1, 1))
            check(plan.need, np.full(c, m), np.arange(c), ne,
                  plan.reads(m, slice(c), ne, plan.need))
        stored = ((heights >= plan.lo[:L, :, None])
                  & (heights < plan.hi[:L, :, None]))  # [m, u, v]
        m, _, v = np.nonzero(stored)
        for need in plan.dirs:
            check(need, m, v, n, plan.reads(m, v, n, need))


def test_stored_bytes_at_l300():
    # the layout's sizes from the plan alone, without running the DP: the
    # whole b x c blocks took 72.4 / 22.5 / 45.0 MB at L = 300, and Free's
    # table at the full height 299 takes 54.1 MB; the single bead's one
    # table has the end-constrained layout, its never-read diagonal
    # included (its two one-sided stacks took 17.7 MB)
    want = {(Variant.FREE, 149): 31.5, (Variant.FREE, 299): 54.1,
            (Variant.CONSTRAINED_END, 149): 17.9, (Variant.SINGLE_BEAD, 149): 17.9}
    assert exactz._exact_cutoff(300) == 149
    for (variant, H), mb in want.items():
        plan = exactz._Plan(300, H, variant)
        assert plan.start[-1] == (plan.hi - plan.lo).sum()
        assert round(8 * int(plan.start[-1]) / 1e6, 1) == mb
    # past m = 2H + 1 every row of a cut table is whole
    plan = exactz._Plan(300, 46, Variant.FREE)
    assert round(8 * int(plan.start[-1]) / 1e6, 2) == 4.61
    assert np.all(plan.lo[2 * 46 + 2:] == 0)
    assert np.all(plan.hi[2 * 46 + 2:-1] == 47)


# ---------------------------------------------------------------------------
# log Z on a ring of slices
# ---------------------------------------------------------------------------

def _hex(*values):
    return tuple(float(x).hex() for x in values)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_ring_log_z_matches_table_bit_for_bit(variant):
    # exact and cut cutoffs, the underflow guard's raised run (x^H below the
    # smallest normal double: beta = 76 at L = 60, H = 29 and beta = 50 at
    # L = 80, H = 30, cut) and the certified search, whose trials all run
    # on rings
    cases = [(L, 2.0, 1.2, H) for L in (1, 2, 7, 18, 31, 60) for H in (None, 1, 6)]
    cases += [(60, 1.0, -0.5, 20), (60, 76.0, 0.5, None), (80, 50.0, 0.5, 30),
              (300, 2.0, 1.2, None), (300, 2.0, 1.2, 46)]
    searches = ((120, 2.0, 0.2), (200, 2.0, 1.2), (300, 1.0, 0.0))
    runs = [(exactz.dp_Z(L, beta, delta, variant, height_cutoff=H),
             exactz.dp_log_Z(L, beta, delta, variant, height_cutoff=H))
            for L, beta, delta, H in cases]
    runs += [(exactz.certified_dp_Z(L, beta, delta, variant),
              exactz.certified_dp_log_Z(L, beta, delta, variant))
             for L, beta, delta in searches]
    for ((log_z, table), z), case in zip(runs, cases + list(searches)):
        assert z.height_cutoff == table.height_cutoff, case
        assert _hex(z.log_z, z.log_truncation_bound, z.truncation_bound) == _hex(
            log_z, table.log_truncation_bound, table.truncation_bound), case


def _spy_transfer(monkeypatch):
    """Record (plan, bytes of the stacks, off) of every ``_transfer`` run."""
    runs = []
    transfer = exactz._transfer

    def spy(*args):
        S, B, off, log_bound = transfer(*args)
        runs.append((args[3], S.nbytes + (0 if B is None else B.nbytes), off))
        return S, B, off, log_bound

    monkeypatch.setattr(exactz, "_transfer", spy)
    return runs


def _stale_reads(plan, off):
    """Slices never stored (log scale -inf) whose ring slot an earlier,
    stored slice wrote: the DP reads an older slice's numbers there."""
    start, size, L = plan.start, plan.size, plan.L
    return [m for m in range(L) if off[m] == -np.inf and size[m] and any(
        off[k] > -np.inf and start[k] < start[m] + size[m]
        and start[m] < start[k] + size[k] for k in range(m + 1, L + 1))]


def test_ring_stale_slots_read_as_zero(monkeypatch):
    # a block with no weight is never stored, so its ring slot keeps an
    # older slice; its scale -inf makes those numbers 0 on the scaled path
    # and -inf on the log redo, so log Z is the table's bit for bit.  The
    # redo-heavy cases (200, 30, 0.5) and (80, 50, 0.5) and the empty
    # single-bead lengths all read such slots
    runs = _spy_transfer(monkeypatch)
    cases = [(200, 30.0, 0.5, None), (80, 50.0, 0.5, None),
             *((L, 2.0, 0.5, None) for L in (2, 3, 5, 7)), (10, 2.0, 0.5, 1)]
    for L, beta, delta, H in cases:
        log_z, table = exactz.dp_Z(L, beta, delta, Variant.SINGLE_BEAD,
                                   height_cutoff=H)
        runs.clear()
        z = exactz.dp_log_Z(L, beta, delta, Variant.SINGLE_BEAD, height_cutoff=H)
        assert float(z.log_z).hex() == float(log_z).hex(), L
        assert (L > 12) == math.isfinite(log_z)
        assert all(_stale_reads(plan, off) for plan, _, off in runs), L


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_ring_placement_keeps_every_slice_until_read(variant):
    # from _Plan alone: when slice m is stored, block m - 1 still reads
    # slices m ... m + H, so slice m overlaps none of m + 1 ... m + H; each
    # slice keeps the table's layout inside it, and the capacity is at most
    # the largest such window plus one slice
    for L in range(1, 65):
        for H in sorted({1, 2, 3, 7, max(exactz._exact_cutoff(L), 1), L + 1}):
            ring = exactz._Plan(L, H, variant, ring=True)
            table = exactz._Plan(L, H, variant)
            np.testing.assert_array_equal(ring.size, table.size)
            size, start, cap = table.size, ring.start, ring.start[-1]
            layout = [p.rowbase.reshape(L + 2, H + 1) - p.start[:, None]
                      for p in (ring, table)]
            np.testing.assert_array_equal(*layout)
            assert cap <= table.start[-1]
            assert np.all((start >= 0) & (start + size <= cap))
            window = max(int(size[m:m + H + 1].sum()) for m in range(L + 1))
            assert cap <= window + size.max()
            for m in range(L):
                live = np.arange(m + 1, min(m + H, L) + 1)
                apart = ((start[m] + size[m] <= start[live])
                         | (start[live] + size[live] <= start[m]))
                assert size[m] == 0 or np.all(apart | (size[live] == 0)), (L, H, m)


def test_stack_bytes_are_counted_before_allocation(monkeypatch):
    # _Plan.nbytes equals what the DP allocates: S, plus B when cut, on a
    # table or a ring, and the raised run's ring of the underflow guard
    runs = _spy_transfer(monkeypatch)
    for variant in VARIANTS:
        for L, beta, H in ((18, 2.0, None), (40, 2.0, 6), (60, 76.0, None)):
            for route in (exactz.dp_Z, exactz.dp_log_Z):
                runs.clear()
                route(L, beta, 0.5, variant, height_cutoff=H)
                assert len(runs) == 1 + (beta > 50)  # the raised run first
                *raised, (plan, nbytes, _) = runs
                assert nbytes == plan.nbytes(1 if H is None else 2)
                assert all(b == p.nbytes(1) for p, b, _ in raised)
    _, table = exactz.dp_Z(30, 2.0, 0.5, Variant.FREE)
    assert table.log_weights.nbytes == table.plan.nbytes(1)


def test_dp_refuses_stacks_beyond_physical_memory(monkeypatch):
    # the check reads os.sysconf through _physical_memory; set low, it
    # refuses before any stack is allocated, naming L, H, variant and bytes
    runs = _spy_transfer(monkeypatch)
    table = exactz._Plan(40, 19, Variant.FREE).nbytes(1)
    ring = exactz._Plan(40, 6, Variant.CONSTRAINED_END, ring=True).nbytes(2)
    monkeypatch.setattr(exactz, "_physical_memory", lambda: 1000)
    with pytest.raises(ValueError, match=f"L=40, H=19, Free: .* {table} bytes"):
        exactz.dp_Z(40, 2.0, 0.5, Variant.FREE)
    with pytest.raises(ValueError, match=f"L=40, H=6, ConstrainedEnd: .* {ring} bytes"):
        exactz.dp_log_Z(40, 2.0, 0.5, Variant.CONSTRAINED_END, height_cutoff=6)
    assert not runs
    monkeypatch.setattr(exactz, "_physical_memory", lambda: table)
    exactz.dp_Z(40, 2.0, 0.5, Variant.FREE)  # exactly enough passes
    monkeypatch.setattr(exactz, "_physical_memory", lambda: None)
    exactz.dp_log_Z(40, 2.0, 0.5, Variant.FREE)  # memory unknown: no check
    assert len(runs) == 2


def test_ring_at_l6400_stays_small():
    # the long-L property, from _Plan alone (no stack is allocated): the
    # single-bead ring at L = 6400, H = 200 holds about H + 1 whole slices
    ring = exactz._Plan(6400, 200, Variant.SINGLE_BEAD, ring=True).nbytes(1)
    table = exactz._Plan(6400, 200, Variant.SINGLE_BEAD).nbytes(1)
    assert ring <= 70e6
    assert 25 * ring <= table


# ---------------------------------------------------------------------------
# d_circ
# ---------------------------------------------------------------------------

def test_d_circ_n1_hand_value():
    # N = 1, q = 1: S = (0, 1, 0) forced, I = (0, 0); weight
    # pmf(1)^2 * pmf(0) * e^delta = e^{delta - beta} / c_beta^3
    for beta, delta in [(2.0, 0.5), (1.3, 0.0), (1.0, 1.1)]:
        law = StepLaw(beta)
        hand = math.exp(delta - beta) / law.c_beta ** 3
        assert exactz.d_circ(1, 1.0, beta, delta) == pytest.approx(hand,
                                                                   rel=1e-12)


def test_d_circ_half_integer_area_is_empty():
    # q = 0.5 at N = 1 targets area 1/2: no lattice configuration
    assert exactz.d_circ(1, 0.5, 2.0, 0.5) == 0.0


def test_d_circ_minimum_area_per_step():
    # the strict ordering forces at least one unit of area per step
    assert exactz.d_circ(3, 1.0 / 9.0, 2.0, 0.5) == 0.0


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_d_circ_names_a_non_finite_q(q):
    with pytest.raises(ValueError, match=f"q must be finite, got {q}$"):
        exactz.d_circ(2, q, 2.0, 0.5)


def test_d_circ_off_lattice_q_rejected():
    with pytest.raises(ValueError):
        exactz.d_circ(2, 0.3, 2.0, 0.5)
    with pytest.raises(ValueError):
        exactz.d_circ(0, 1.0, 2.0, 0.5)
    for walks in (exactz.z_circ_from_walks, exactz.z_constrained_from_walks):
        for L in (0, -1):
            with pytest.raises(ValueError):
                walks(L, 2.0, 0.5)


def test_envelope_representation_identity_single_bead():
    # sum over bead sizes of Gamma^{2N} d_circ recovers the single-bead
    # partition value (reduced by c_beta e^{beta L})
    beta, delta = 1.5, 0.7
    law = StepLaw(beta)
    for L in (6, 8, 10, 12, 14):
        lhs, _ = exactz.dp_Z(L, beta, delta, Variant.SINGLE_BEAD)
        rhs = math.log(law.c_beta) + beta * L + \
            math.log(exactz.z_circ_from_walks(L, beta, delta))
        assert rhs == pytest.approx(lhs, rel=1e-9)
    # each d_circ at its own cutoff a - N + 1 against the one pass at (L - 2)/2
    for beta in (0.05, 2.0):
        law = StepLaw(beta)
        for L in range(4, 21, 2):
            terms = sum(law.gamma_beta ** (2 * N)
                        * exactz.d_circ(N, (L - 2 * N) / (2.0 * N * N), beta, delta)
                        for N in range(1, (L - 2) // 2 + 1))
            assert terms == pytest.approx(
                exactz.z_circ_from_walks(L, beta, delta), rel=1e-13)


def test_envelope_representation_identity_constrained():
    beta, delta = 1.5, 0.7
    law = StepLaw(beta)
    for L in (4, 7, 10):
        lhs, _ = exactz.dp_Z(L, beta, delta, Variant.CONSTRAINED_END)
        rhs = math.log(law.c_beta) + beta * L + \
            math.log(exactz.z_constrained_from_walks(L, beta, delta))
        assert rhs == pytest.approx(lhs, rel=1e-9)


def test_walk_routes_check_a_cut_table():
    # the walk routes run at the exact height cutoff (L - 2)/2 = 79, so they
    # are a second route to tables that certified_dp_Z cuts far below it
    beta, delta, L = 2.0, 0.5, 160
    c_beta = StepLaw(beta).c_beta
    for variant, walks in ((Variant.SINGLE_BEAD, exactz.z_circ_from_walks),
                           (Variant.CONSTRAINED_END,
                            exactz.z_constrained_from_walks)):
        log_z, table = exactz.certified_dp_Z(L, beta, delta, variant)
        assert table.height_cutoff < 79
        want = math.exp(log_z - beta * L) / c_beta
        assert walks(L, beta, delta) == pytest.approx(want, rel=1e-12)


def test_d_circ_e_circ_band():
    # N^2 d_circ e^{N g(q,0)} / e_circ stays within a bounded band
    beta, delta, q = 2.0, 1.2, 0.5
    g = largedev.rate_g(q, 0.0, beta)
    ratios = []
    for N in (2, 4, 6, 8, 10, 12):
        d = exactz.d_circ(N, q, beta, delta)
        e = exactz.e_circ(N, q, beta, delta)
        ratios.append(N * N * d * math.exp(N * g - e))
    assert all(r > 0 and math.isfinite(r) for r in ratios)
    assert max(ratios) / min(ratios) <= 2.0


# ---------------------------------------------------------------------------
# e_circ / e_n_gamma
# ---------------------------------------------------------------------------

def test_e_circ_all_zero_lower_bound():
    beta, delta = 2.0, 1.0
    law = StepLaw(beta)
    for N in (20, 100):
        assert exactz.e_circ(N, 0.5, beta, delta) >= \
            N * (delta - math.log(law.c_beta))


def test_area_dp_very_negative_delta_stays_finite():
    # the site weight e^{-800} is added in log space, as in zwet_direct
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exactz.area_wetting_dp(10, 0.0, 2.0, -800.0)
    assert got == pytest.approx(wetting.zwet(2.0, -800.0, 10), rel=1e-12)


def test_zero_tilt_reduces_to_pinned_walk():
    for N in (10, 100):
        for delta in (0.0, 0.9):
            got = exactz.area_wetting_dp(N, 0.0, 2.0, delta)
            assert got == pytest.approx(wetting.zwet(2.0, delta, N), abs=1e-11)


def test_e_circ_requires_positive_q():
    with pytest.raises(ValueError):
        exactz.e_circ(10, 0.0, 2.0, 1.0)


def test_e_n_gamma_monotone_in_gamma():
    vals = [exactz.e_n_gamma(64, g, 2.0) for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_e_n_gamma_small_tilt_recovers_positive_bridge():
    for N in (50, 400):
        got = exactz.e_n_gamma(N, 1e-13, 2.0)
        assert got == pytest.approx(wetting.zwet(2.0, 0.0, N), abs=1e-10)


def test_positive_bridge_n_minus_three_halves_shape():
    scaled = [math.exp(exactz.e_n_gamma(N, 1e-13, 2.0)) * N ** 1.5
              for N in (200, 800)]
    assert scaled[1] / scaled[0] == pytest.approx(1.0, abs=0.1)


def test_e_n_gamma_meander_gap_shrinks():
    beta, gamma = 2.0, 1.0
    law = StepLaw(beta)
    target = largedev.meander_rate(math.sqrt(law.sigma2) * gamma)
    gaps = [abs(exactz.e_n_gamma(N, gamma, beta) / N ** (1.0 / 3.0) - target)
            for N in (256, 4096)]
    assert gaps[1] < gaps[0]


def test_e_n_gamma_requires_positive_gamma():
    with pytest.raises(ValueError):
        exactz.e_n_gamma(10, 0.0, 2.0)
    with pytest.raises(ValueError):
        exactz.e_n_gamma(10, -1.0, 2.0)
    for gamma in (math.nan, math.inf):  # these read nan before
        with pytest.raises(ValueError, match="gamma"):
            exactz.e_n_gamma(10, gamma, 2.0)


def test_area_dp_validation():
    with pytest.raises(ValueError):
        exactz.area_wetting_dp(0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        exactz.area_wetting_dp(5, -0.1, 2.0, 0.0)
    # these read nan before (at inf, -inf * 0 at height 0), although the
    # value at the largest finite gammas, the gamma -> inf one, is finite
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gamma"):
            exactz.area_wetting_dp(10, gamma, 2.0, 0.5)
    want = exactz.area_wetting_dp(10, 1e6, 2.0, 0.5)
    assert math.isfinite(want)
    assert exactz.area_wetting_dp(10, 1e300, 2.0, 0.5) == pytest.approx(want, rel=1e-12)


def test_area_dp_column_sums_match_plain_recursion():
    # independent reimplementation: dict-based forward pass in plain floats
    N, H, beta, delta, gamma = 6, 85, 2.0, 0.5, 0.7
    assert H == wetting._strip_top(N, beta)  # the strip the DP walks on
    law = StepLaw(beta)
    dp = exactz.area_wetting_dp(N, gamma, beta, delta)
    probs = {y: math.exp(-0.5 * beta * y) / law.c_beta * (2 if y else 1)
             for y in range(H + 1)}  # |step| law, used via explicit pairs
    cur = {0: 1.0}
    for k in range(1, N + 1):
        nxt = {}
        for y, w in cur.items():
            for y2 in range(H + 1):
                jump = math.exp(-0.5 * beta * abs(y2 - y)) / law.c_beta
                fac = math.exp(-gamma * y2 / N)
                if y2 == 0:
                    fac *= math.exp(delta)
                nxt[y2] = nxt.get(y2, 0.0) + w * jump * fac
        cur = nxt
    assert probs[0] == pytest.approx(1.0 / law.c_beta, rel=1e-15)
    assert dp == pytest.approx(math.log(cur[0]), rel=1e-13)


# ---------------------------------------------------------------------------
# backward sampling
# ---------------------------------------------------------------------------

def test_backward_sample_deterministic():
    _, table = exactz.dp_Z(30, 2.0, 1.0, Variant.SINGLE_BEAD)
    a = exactz.backward_sample(table, 200, np.random.default_rng(42))
    b = exactz.backward_sample(table, 200, np.random.default_rng(42))
    assert ([c.stretches for c in oracles.configs(a)]
            == [c.stretches for c in oracles.configs(b)])
    c = exactz.backward_sample(table, 200, np.random.default_rng(43))
    assert ([x.stretches for x in oracles.configs(a)]
            != [x.stretches for x in oracles.configs(c)])


def test_backward_sample_refuses_truncated_table():
    _, table = exactz.dp_Z(40, 2.0, 0.5, Variant.FREE, height_cutoff=6)
    assert table.truncation_bound > 1e-9
    with pytest.raises(ValueError):
        exactz.backward_sample(table, 10, np.random.default_rng(0))
    table.log_truncation_bound = math.nan  # a nan bound is not read as exact
    with pytest.raises(ValueError, match="truncated"):
        exactz.backward_sample(table, 10, np.random.default_rng(0))


def test_backward_sample_gate_is_relative_to_z():
    # the bound (4.2e-128) is tiny but so is the reduced Z (6.3e-130): the
    # table misses 89 % of the weight
    lz, table = exactz.dp_Z(60, 20.0, 0.5, Variant.FREE, height_cutoff=5)
    exact, _ = exactz.dp_Z(60, 20.0, 0.5, Variant.FREE)
    assert table.truncation_bound < 1e-40
    assert exact - lz > 2.0
    with pytest.raises(ValueError, match="reduced Z"):
        exactz.backward_sample(table, 10, np.random.default_rng(0))


def test_cut_bound_below_double_range_is_not_read_as_exact():
    # reduced Z is e^{-1314}: the lost weight (e^{57} times the cut table's
    # Z) is far below the smallest double, and a bound of 0.0 would mean exact
    lz, table = exactz.dp_Z(120, 60.0, 0.5, Variant.FREE, height_cutoff=8)
    exact, _ = exactz.dp_Z(120, 60.0, 0.5, Variant.FREE)
    assert exact - lz > 50.0
    assert table.truncation_bound == np.finfo(float).tiny
    with pytest.raises(ValueError, match="reduced Z"):
        exactz.backward_sample(table, 10, np.random.default_rng(0))
    # the log bound certifies a cut far below the exact cutoff all the same
    log_z, certified = exactz.certified_dp_Z(120, 60.0, 0.5, Variant.FREE)
    log_bound = certified.log_truncation_bound
    assert 2 * certified.height_cutoff < exactz._exact_cutoff(120)
    assert log_bound < math.log(1e-13) + log_z - 60.0 * 120
    assert 0.0 <= exact - log_z <= math.exp(log_bound - (log_z - 60.0 * 120))
    assert len(exactz.backward_sample(certified, 10, np.random.default_rng(0))) == 10


def test_backward_sample_validates_count():
    _, table = exactz.dp_Z(12, 2.0, 1.2, Variant.FREE)
    for bad in (-1, 2.5, "3", True):
        with pytest.raises(ValueError, match="count"):
            exactz.backward_sample(table, bad, np.random.default_rng(0))
    assert len(exactz.backward_sample(table, 0, np.random.default_rng(0))) == 0


def test_backward_sample_refuses_empty_set():
    lz, table = exactz.dp_Z(2, 2.0, 0.5, Variant.SINGLE_BEAD)
    assert math.isinf(lz)
    with pytest.raises(ValueError):
        exactz.backward_sample(table, 1, np.random.default_rng(0))


def test_backward_sample_yields_valid_configs():
    for variant in VARIANTS:
        _, table = exactz.dp_Z(20, 1.4, 0.6, variant)
        for cfg in oracles.configs(exactz.backward_sample(
                table, 100, np.random.default_rng(7))):
            assert isinstance(cfg, StretchConfig)
            assert cfg.variant is variant
            assert cfg.total_length == 20  # validated on construction


def _sampled_law(L, beta, delta, variant, count=2 * 10 ** 5):
    """(configurations, exact law, counts of ``count`` draws from the exact
    table), after checking the draws' total variation distance."""
    _, table = exactz.dp_Z(L, beta, delta, variant)
    cfgs = [StretchConfig(c, L, variant)
            for c in exactz.enumerate_configs(L, variant)]
    w = np.array([hamiltonian(c, beta, delta) for c in cfgs])
    p = np.exp(w - w.max())
    p /= p.sum()
    counts = oracles.draw_counts(
        exactz.backward_sample(table, count, np.random.default_rng(11)), cfgs)
    emp = counts / counts.sum()
    # an exact sampler's TV at this count is the multinomial noise floor:
    # ~0.001 for the 8 single-bead configurations, but ~0.009 for the 673
    # end-constrained and ~0.020 for the 6636 free ones
    ref = np.random.default_rng(0)
    noise = np.median([0.5 * np.abs(ref.multinomial(count, p) / count - p).sum()
                       for _ in range(5)])
    assert 0.5 * np.abs(emp - p).sum() < max(0.01, 1.2 * noise)
    return cfgs, p, counts


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_backward_sample_mini_total_variation(variant):
    # scaled-down version of the headline check: exact law at L = 12
    _sampled_law(12, 2.0, 1.2, variant)


def test_backward_sample_leaves_the_closed_free_table_by_law():
    # at beta = 0.3, delta = -1, 23.5 % of the law lies above the exact
    # cutoff 5, where the draws leave the table into the wall-free region
    cfgs, p, counts = _sampled_law(12, 0.3, -1.0, Variant.FREE)
    above = np.array([max(c.prefix_heights()) > 5 for c in cfgs])
    share = p[above].sum()
    assert share == pytest.approx(0.2347, abs=1e-4)
    assert abs(counts[above].sum() / counts.sum() - share) < 5 * math.sqrt(
        share * (1 - share) / counts.sum())
    # the draws above the cutoff against the exact law there: chi-square
    # over the cells expecting at least 5 draws, the rest pooled, level 1e-6
    seen = counts[above]
    want = p[above] / share * seen.sum()
    big = want >= 5
    seen = np.append(seen[big], seen[~big].sum())
    want = np.append(want[big], want[~big].sum())
    chi2 = ((seen - want) ** 2 / want).sum()
    assert stats.chi2.sf(chi2, len(want) - 1) > 1e-6


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("L, beta, delta, cutoff", [
    (12, 2.0, 1.2, None),  # exact
    (40, 0.3, -1.0, None),  # exact; Free is closed at 19 and draws leave it
    (60, 4.0, 1.2, 20),  # cut, with a bound below the certifying 1e-13 of Z
], ids=["exact", "closed", "cut"])
def test_backward_sample_matches_per_draw_oracle(L, beta, delta, cutoff, variant):
    # the sampler builds each block's weights once per distinct state
    # (m, u, v); building them for every draw gives the same bytes
    log_z, table = exactz.dp_Z(L, beta, delta, variant, height_cutoff=cutoff)
    if cutoff is not None:
        assert (table.log_truncation_bound
                < math.log(exactz._CERTIFIED_REL) + log_z - beta * L)
    for seed in (1, 2, 3):
        for count in (0, 1, 2000):
            got = exactz.backward_sample(table, count, np.random.default_rng(seed))
            stretches, sizes = oracles.backward_sample_per_draw(
                table, count, np.random.default_rng(seed))
            assert got.stretches.tobytes() == stretches.tobytes()
            assert got.sizes.tobytes() == sizes.tobytes()
    if table.log_wall_free is not None:  # some draws left the table
        assert np.cumsum(got.stretches, axis=1).max() > table.height_cutoff


# ---------------------------------------------------------------------------
# order-positivity (FKG) on truncated-support walks
# ---------------------------------------------------------------------------

def test_conditional_positive_correlations_small():
    assert oracles.fkg_violations(3, 2.0, 10, seed=5) == 0
    assert oracles.fkg_violations(4, 1.0, 10, seed=6) == 0
