"""Exact partition functions, envelope building blocks, backward sampling."""

import math
import warnings

import numpy as np
import pytest

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


def test_dp_truncation_bound_controls_error_and_decreases():
    exact, _ = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE)
    bounds = []
    for cutoff in (6, 10, 16, 30):
        lz, tab = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE, height_cutoff=cutoff)
        assert abs(lz - exact) <= tab.truncation_bound
        assert lz <= exact + 1e-12  # truncation only removes mass
        bounds.append(tab.truncation_bound)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # halving the cutoff from L to L/2 stays within the reported bound
    lz, tab = exactz.dp_Z(60, 2.0, 0.5, Variant.FREE, height_cutoff=30)
    assert abs(lz - exact) <= tab.truncation_bound < 1e-9


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
    grid = [(L, beta) for L, betas in ((18, (60, 120, 135, 150, 180, 245, 300)),
                                       (30, (40, 100, 145, 160, 175)),
                                       (60, (20, 60, 76, 80, 100)))
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
            if H >= exactz._exact_cutoff(L, variant):
                assert table.truncation_bound == 0.0
                continue
            want = oracles.truncation_tail(L, beta, delta, variant, H)
            assert table.truncation_bound == pytest.approx(want, rel=1e-12)


def test_dp_table_save_load_roundtrip(tmp_path):
    for variant in (Variant.FREE, Variant.SINGLE_BEAD):
        lz, table = exactz.dp_Z(14, 1.5, 0.8, variant)
        path = tmp_path / f"{variant.value}.npz"
        table.save(path)
        back = exactz.DPTable.load(path)
        assert back.variant is variant
        assert (back.L, back.beta, back.delta) == (14, 1.5, 0.8)
        assert back.height_cutoff == table.height_cutoff
        assert back.normalization == lz
        assert back.truncation_bound == table.truncation_bound
        for consumed in (0, 3, 7):
            for up in (True, False):
                np.testing.assert_array_equal(
                    back.completion(consumed, up),
                    table.completion(consumed, up))


def test_loaded_table_samples_identically(tmp_path):
    _, table = exactz.dp_Z(16, 2.0, 1.0, Variant.FREE)
    table.save(tmp_path / "t.npz")
    back = exactz.DPTable.load(tmp_path / "t.npz")
    a = exactz.backward_sample(table, 50, np.random.default_rng(3))
    b = exactz.backward_sample(back, 50, np.random.default_rng(3))
    assert [c.stretches for c in a] == [c.stretches for c in b]


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


def test_d_circ_infeasible_at_cutoff():
    # area target far above what the height cutoff allows
    assert exactz.d_circ(2, 2.5, 2.0, 0.5, height_cutoff=2) == 0.0


def test_d_circ_off_lattice_q_rejected():
    with pytest.raises(ValueError):
        exactz.d_circ(2, 0.3, 2.0, 0.5)
    with pytest.raises(ValueError):
        exactz.d_circ(0, 1.0, 2.0, 0.5)


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


def test_envelope_representation_identity_constrained():
    beta, delta = 1.5, 0.7
    law = StepLaw(beta)
    for L in (4, 7, 10):
        lhs, _ = exactz.dp_Z(L, beta, delta, Variant.CONSTRAINED_END)
        rhs = math.log(law.c_beta) + beta * L + \
            math.log(exactz.z_constrained_from_walks(L, beta, delta))
        assert rhs == pytest.approx(lhs, rel=1e-9)


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
        got = exactz.area_wetting_dp(10, 0.0, 2.0, -800.0).log_value
    assert got == pytest.approx(wetting.zwet(2.0, -800.0, 10), rel=1e-12)


def test_zero_tilt_reduces_to_pinned_walk():
    for N in (10, 100):
        for delta in (0.0, 0.9):
            dp = exactz.area_wetting_dp(N, 0.0, 2.0, delta)
            assert dp.log_value == pytest.approx(wetting.zwet(2.0, delta, N),
                                                 abs=1e-11)


def test_e_circ_requires_positive_q():
    with pytest.raises(ValueError):
        exactz.e_circ(10, 0.0, 2.0, 1.0)


def test_e_n_gamma_monotone_in_gamma():
    vals = [exactz.e_n_gamma(64, g, 2.0) for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_e_n_gamma_small_tilt_recovers_positive_bridge():
    for N in (50, 400):
        got = exactz.e_n_gamma(N, 1e-13, 2.0)
        assert got == pytest.approx(wetting.positive_bridge_logprob(2.0, N),
                                    abs=1e-10)
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


def test_area_dp_validation():
    with pytest.raises(ValueError):
        exactz.area_wetting_dp(0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        exactz.area_wetting_dp(5, -0.1, 2.0, 0.0)


def test_area_dp_column_sums_match_plain_recursion():
    # independent reimplementation: dict-based forward pass in plain floats
    N, H, beta, delta, gamma = 6, 30, 2.0, 0.5, 0.7
    law = StepLaw(beta)
    dp = exactz.area_wetting_dp(N, gamma, beta, delta, height_cutoff=H)
    probs = {y: math.exp(-0.5 * beta * y) / law.c_beta * (2 if y else 1)
             for y in range(H + 1)}  # |step| law, used via explicit pairs
    cur = {0: 1.0}
    partials = [1.0]
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
        partials.append(sum(cur.values()))
    assert probs[0] == pytest.approx(1.0 / law.c_beta, rel=1e-15)
    got = np.exp(dp.log_column_sums())
    np.testing.assert_allclose(got, partials, rtol=5e-13)
    assert dp.log_value == pytest.approx(math.log(cur[0]), rel=1e-13)


# ---------------------------------------------------------------------------
# backward sampling
# ---------------------------------------------------------------------------

def test_backward_sample_deterministic():
    _, table = exactz.dp_Z(30, 2.0, 1.0, Variant.SINGLE_BEAD)
    a = exactz.backward_sample(table, 200, np.random.default_rng(42))
    b = exactz.backward_sample(table, 200, np.random.default_rng(42))
    assert [c.stretches for c in a] == [c.stretches for c in b]
    c = exactz.backward_sample(table, 200, np.random.default_rng(43))
    assert [x.stretches for x in a] != [x.stretches for x in c]


def test_backward_sample_refuses_truncated_table():
    _, table = exactz.dp_Z(40, 2.0, 0.5, Variant.FREE, height_cutoff=6)
    assert table.truncation_bound > 1e-9
    with pytest.raises(ValueError):
        exactz.backward_sample(table, 10, np.random.default_rng(0))


def test_backward_sample_refuses_empty_set():
    lz, table = exactz.dp_Z(2, 2.0, 0.5, Variant.SINGLE_BEAD)
    assert math.isinf(lz)
    with pytest.raises(ValueError):
        exactz.backward_sample(table, 1, np.random.default_rng(0))


def test_backward_sample_yields_valid_configs():
    for variant in VARIANTS:
        _, table = exactz.dp_Z(20, 1.4, 0.6, variant)
        for cfg in exactz.backward_sample(table, 100,
                                          np.random.default_rng(7)):
            assert isinstance(cfg, StretchConfig)
            assert cfg.variant is variant
            assert cfg.total_length == 20  # validated on construction


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_backward_sample_mini_total_variation(variant):
    # scaled-down version of the headline check: exact law at L = 12
    L, beta, delta = 12, 2.0, 1.2
    _, table = exactz.dp_Z(L, beta, delta, variant)
    cfgs = [StretchConfig(c, L, variant)
            for c in exactz.enumerate_configs(L, variant)]
    w = np.array([hamiltonian(c, beta, delta) for c in cfgs])
    p = np.exp(w - w.max())
    p /= p.sum()
    idx = {c.stretches: i for i, c in enumerate(cfgs)}
    count = 2 * 10 ** 5
    counts = np.zeros(len(cfgs))
    for draw in exactz.backward_sample(table, count,
                                       np.random.default_rng(11)):
        counts[idx[draw.stretches]] += 1
    emp = counts / counts.sum()
    # an exact sampler's TV at this count is the multinomial noise floor:
    # ~0.001 for the 8 single-bead configurations, but ~0.009 for the 673
    # end-constrained and ~0.020 for the 6636 free ones
    ref = np.random.default_rng(0)
    noise = np.median([0.5 * np.abs(ref.multinomial(count, p) / count - p).sum()
                       for _ in range(5)])
    assert 0.5 * np.abs(emp - p).sum() < max(0.01, 1.2 * noise)


# ---------------------------------------------------------------------------
# order-positivity (FKG) on truncated-support walks
# ---------------------------------------------------------------------------

def test_conditional_positive_correlations_small():
    assert oracles.fkg_violations(3, 2.0, 10, seed=5) == 0
    assert oracles.fkg_violations(4, 1.0, 10, seed=6) == 0
