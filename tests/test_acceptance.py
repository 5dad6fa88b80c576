"""Acceptance suite: eleven headline checks, one pass/fail line each.

Each test prints a single summary line (visible with ``pytest -rA`` or on
failure) and enforces the stated tolerance with a plain assert.
"""

import math

import numpy as np
import pytest
import scipy.special

from ipdsaw import exactz, largedev, steps, wetting
from ipdsaw.polymer import Variant, batch_observables, hamiltonian, StretchConfig

import oracles


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# -- 1: transfer DP against exhaustive enumeration --------------------------

def test_c01_dp_matches_brute_force_everywhere():
    worst = 0.0
    for L in range(2, 19):
        for variant in Variant:
            for beta in (1.0, 2.0):
                for delta in (0.0, 0.5, 2.0):
                    brute = exactz.brute_force_Z(L, beta, delta, variant)
                    dp, _ = exactz.dp_Z(L, beta, delta, variant)
                    if math.isinf(brute):
                        assert math.isinf(dp) and dp < 0
                        continue
                    worst = max(worst,
                                abs(dp - brute) / max(abs(brute), 1.0))
    _report(1, worst <= 1e-10,
            f"dp vs enumeration, L<=18, all variants: max rel err "
            f"{worst:.2e} (tol 1e-10)")


# -- 2: envelope-walk representation identities -----------------------------

def test_c02_envelope_representation_identities():
    # at beta = 0.05 the walks spread wide enough that one height less than
    # the exact cutoff loses weight far above the tolerance
    worst_sb = 0.0
    for beta, delta in ((2.0, 0.5), (1.3, 1.0), (0.5, -1.0), (0.05, 0.7)):
        law = steps.StepLaw(beta)
        for L in range(4, 21, 2):
            lhs = exactz.brute_force_Z(L, beta, delta, Variant.SINGLE_BEAD)
            rhs = math.log(law.c_beta) + beta * L + \
                math.log(exactz.z_circ_from_walks(L, beta, delta))
            worst_sb = max(worst_sb, abs(rhs - lhs) / max(abs(lhs), 1.0))
    worst_c = 0.0
    for beta, delta in ((2.0, 0.5), (1.3, 1.0), (0.5, -1.0), (0.05, 0.7)):
        law = steps.StepLaw(beta)
        for L in range(2, 17):
            lhs = exactz.brute_force_Z(L, beta, delta,
                                       Variant.CONSTRAINED_END)
            rhs = math.log(law.c_beta) + beta * L + \
                math.log(exactz.z_constrained_from_walks(L, beta, delta))
            worst_c = max(worst_c, abs(rhs - lhs) / max(abs(lhs), 1.0))
    ok = worst_sb <= 1e-9 and worst_c <= 1e-9
    _report(2, ok,
            f"single-bead identity L<=20 rel err {worst_sb:.2e}, "
            f"constrained identity L<=16 rel err {worst_c:.2e} (tol 1e-9)")


# -- 3: critical-curve consistency ------------------------------------------

def test_c03_critical_curve_consistency():
    bc = steps.beta_critical()
    worst = 0.0
    b = bc + 0.05
    while b <= 5.0 + 1e-9:
        law = steps.StepLaw(b)
        dc = wetting.critical_curves(b).delta_c
        worst = max(worst, abs(math.log(law.gamma_beta)
                               + wetting.wetting_free_energy(b, dc)))
        b += 0.05
    root_err = abs(bc - oracles.beta_critical_bisect())
    display_err = abs(bc - 1.21876)
    ok = worst <= 1e-8 and root_err <= 1e-6 and display_err <= 5e-6
    _report(3, ok,
            f"log Gamma + h(delta_c) residual {worst:.2e} (tol 1e-8); "
            f"beta_c={bc:.10f} oracle gap {root_err:.1e}, "
            f"display gap {display_err:.1e}")


# -- 4: pinned-walk asymptotics ---------------------------------------------

def test_c04_wetting_asymptotics():
    series10 = wetting.zwet_series(2.0, 1.0, 2000)
    h = wetting.wetting_free_energy(2.0, 1.0)
    c = wetting.cwet_constant(2.0, 1.0)
    localized = math.exp(series10[2000] - h * 2000) / c

    def scaled_ratio(delta, power):
        s = wetting.zwet_series(2.0, delta, 4000)
        return math.exp(s[2000] - s[4000]) * (2000.0 / 4000.0) ** power

    sub = scaled_ratio(0.2, 1.5)
    crit = scaled_ratio(wetting.delta_tilde(2.0), 0.5)
    ok = 0.95 <= localized <= 1.05 and 0.9 <= sub <= 1.1 \
        and 0.9 <= crit <= 1.1
    _report(4, ok,
            f"localized prefactor {localized:.4f} in [0.95,1.05]; "
            f"N^3/2 ratio {sub:.4f}, critical N^1/2 ratio {crit:.4f} "
            f"in [0.9,1.1]")


# -- 5: Legendre layer -------------------------------------------------------

def test_c05_legendre_layer():
    beta = 2.0
    rng = np.random.default_rng(2024)

    worst_fd = 0.0
    for _ in range(50):
        q, p = rng.uniform(-2.5, 2.5, 2)
        h = largedev.tilt_inverse(q, p, beta)
        eps = 1e-5
        fd0 = (largedev.rate_g(q + eps, p, beta)
               - largedev.rate_g(q - eps, p, beta)) / (2 * eps)
        fd1 = (largedev.rate_g(q, p + eps, beta)
               - largedev.rate_g(q, p - eps, beta)) / (2 * eps)
        err = math.hypot(fd0 - h.h0, fd1 - h.h1) / max(
            math.hypot(h.h0, h.h1), 1e-6)
        worst_fd = max(worst_fd, err)

    zero = abs(largedev.rate_g(0.0, 0.0, beta))

    convex_ok = True
    for _ in range(100):
        z1 = rng.uniform(-2.0, 2.0, 2)
        z2 = rng.uniform(-2.0, 2.0, 2)
        gm = largedev.rate_g(*(0.5 * (z1 + z2)), beta)
        if gm > 0.5 * (largedev.rate_g(*z1, beta)
                       + largedev.rate_g(*z2, beta)) + 1e-10:
            convex_ok = False

    ht = largedev.tilt_inverse(0.5, 0.0, beta)
    prods = []
    n = 50
    while n <= 3200:
        hn = largedev.finite_tilt(n, 0.5, 0.0, beta)
        prods.append(n * math.hypot(hn.h0 - ht.h0, hn.h1 - ht.h1))
        n *= 2
    bounded = max(prods) < 1.0 and max(prods) / min(prods) < 1.2

    ok = worst_fd <= 1e-4 and zero <= 1e-10 and convex_ok and bounded
    _report(5, ok,
            f"grad vs FD max rel err {worst_fd:.2e} (tol 1e-4); g(0,0)="
            f"{zero:.1e}; midpoint convexity {'ok' if convex_ok else 'BAD'}; "
            f"n*||h_n - h~|| in [{min(prods):.3f},{max(prods):.3f}]")


# -- 6: meander rate trend ---------------------------------------------------

def test_c06_meander_rate_gap_decreases():
    beta, gamma = 2.0, 1.0
    law = steps.StepLaw(beta)
    target = largedev.meander_rate(math.sqrt(law.sigma2) * gamma)
    gaps = [abs(exactz.e_n_gamma(N, gamma, beta) / N ** (1.0 / 3.0) - target)
            for N in (256, 1024, 4096)]
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(6, ok,
            "meander gap at N=256,1024,4096: "
            + ", ".join(f"{g:.4f}" for g in gaps)
            + (" strictly decreasing" if ok else " NOT decreasing"))


# -- 7: tilted pinned-bridge growth rate ------------------------------------

def test_c07_e_circ_growth_rate():
    rate = exactz.e_circ(2000, 0.5, 2.0, 1.0) / 2000.0
    target = wetting.wetting_free_energy(2.0, 1.0)
    rel = abs(rate - target) / target
    _report(7, rel <= 0.02,
            f"(1/N) log e_circ = {rate:.6f} vs h(1) = {target:.6f} "
            f"(rel {rel:.4f}, tol 0.02)")


# -- 8: sampling correctness -------------------------------------------------

EXTENSION_WINDOW = (0.60, 3.50)  # horizontal extension over sqrt(L)


def test_c08_sampling_law_and_extension_window(free_table_400):
    # total variation against the exact law on the full configuration set
    L, beta, delta = 12, 3.0, 1.2
    _, table = exactz.dp_Z(L, beta, delta, Variant.FREE)
    cfgs = [StretchConfig(c, L, Variant.FREE)
            for c in exactz.enumerate_configs(L, Variant.FREE)]
    w = np.array([hamiltonian(c, beta, delta) for c in cfgs])
    p = np.exp(w - w.max())
    p /= p.sum()
    counts = oracles.draw_counts(
        exactz.backward_sample(table, 10 ** 6, np.random.default_rng(808)), cfgs)
    tval = 0.5 * np.abs(counts / counts.sum() - p).sum()

    # horizontal-extension window deep in the collapsed phase
    lo, hi = EXTENSION_WINDOW
    freqs = {}
    for L, table in ((100, None), (200, None), (400, free_table_400)):
        if table is None:
            _, table = exactz.dp_Z(L, 2.0, 1.2, Variant.FREE)
        draws = exactz.backward_sample(table, 4000,
                                       np.random.default_rng(1000 + L))
        scaled = draws.sizes / math.sqrt(L)
        freqs[L] = float(((scaled >= lo) & (scaled <= hi)).mean())

    ok = tval < 0.01 and all(f >= 0.99 for f in freqs.values())
    _report(8, ok,
            f"TV at L=12 over 1e6 draws = {tval:.4f} (tol 0.01); window "
            f"frequency " + ", ".join(f"L={L}: {f:.4f}"
                                      for L, f in freqs.items())
            + " (need >= 0.99)")


# -- 9: contact-number trend -------------------------------------------------

def test_c09_contact_fraction_trend(free_table_400):
    draws = exactz.backward_sample(free_table_400, 3000,
                                   np.random.default_rng(909))
    mean_contacts = batch_observables(draws.stretches, draws.sizes)["contacts"].mean()
    slope = largedev.phi_max_ddelta(2.0, 1.2)
    ratio = mean_contacts / math.sqrt(400) / slope

    scaled = []
    for L in (100, 200, 400):
        _, table = exactz.dp_Z(L, 2.0, 0.2, Variant.FREE)
        draws = exactz.backward_sample(table, 3000,
                                       np.random.default_rng(2000 + L))
        m = batch_observables(draws.stretches, draws.sizes)["contacts"].mean()
        scaled.append(m / math.sqrt(L))
        del table
    sublinear = scaled[0] > scaled[1] > scaled[2] \
        and scaled[2] / scaled[0] < 0.9

    ok = 0.7 <= ratio <= 1.3 and sublinear
    _report(9, ok,
            f"adsorbed contacts/sqrt(L) vs d Phi/d delta ratio {ratio:.3f} "
            f"(tol 30%); desorbed contacts/sqrt(L) over L=100,200,400: "
            + ", ".join(f"{s:.4f}" for s in scaled))


# -- 10: conditional positive association -----------------------------------

def test_c10_positive_association_exhaustive():
    v1 = oracles.fkg_violations(4, 2.0, 25, seed=7)
    v2 = oracles.fkg_violations(5, 1.5, 25, seed=8)
    _report(10, v1 + v2 == 0,
            f"monotone-pair violations: {v1} at N=4, {v2} at N=5 "
            f"(50 pairs, exhaustive truncated-support walks)")


# -- 11: Airy constant -------------------------------------------------------

def test_c11_airy_constant():
    a1 = largedev.airy_first_zero()
    gap = abs(a1 - (-2.3381074105))
    ai = abs(scipy.special.airy(a1)[0])
    ok = gap <= 1e-9 and ai < 1e-10
    _report(11, ok, f"a1 = {a1:.11f}, display gap {gap:.1e} (tol 1e-9), "
                    f"|Ai(a1)| = {ai:.1e} (tol 1e-10)")
