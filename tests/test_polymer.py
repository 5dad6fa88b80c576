"""Configuration-space tests: validation, Hamiltonian, beads, observables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdsaw import exactz, polymer
from ipdsaw.polymer import StretchConfig, Variant

import oracles


def cfg(stretches, variant=Variant.FREE):
    l = tuple(stretches)
    return StretchConfig(l, len(l) + sum(abs(v) for v in l), variant)


def observables(c):
    """``batch_observables`` of the one-row batch of configuration c."""
    obs = polymer.batch_observables([c.stretches], [len(c.stretches)])
    return {k: int(v[0]) for k, v in obs.items()}


# -- wedge ------------------------------------------------------------------

def test_wedge_examples():
    assert polymer.wedge(3, -2) == 2
    assert polymer.wedge(3, 2) == 0
    assert polymer.wedge(0, 5) == 0 == (abs(0) + abs(5) - abs(0 + 5)) // 2


@given(st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_wedge_identity(x, y):
    assert 2 * polymer.wedge(x, y) == abs(x) + abs(y) - abs(x + y)


# -- validation -------------------------------------------------------------

def test_validation_rejects_bad_length():
    with pytest.raises(ValueError):
        StretchConfig((1, -1), 5)


def test_validation_rejects_wall_crossing():
    with pytest.raises(ValueError):
        StretchConfig((1, -2, 1), 7)


def test_validation_constrained_requires_zero_end():
    with pytest.raises(ValueError):
        StretchConfig((2, -1), 5, Variant.CONSTRAINED_END)
    StretchConfig((2, -2), 6, Variant.CONSTRAINED_END)


def test_validation_single_bead_alternation():
    with pytest.raises(ValueError):
        StretchConfig((1, 1, -2), 7, Variant.SINGLE_BEAD)
    with pytest.raises(ValueError):
        StretchConfig((-1, 1), 4, Variant.SINGLE_BEAD)
    with pytest.raises(ValueError):
        StretchConfig((1, -1, 1), 6, Variant.SINGLE_BEAD)
    StretchConfig((1, -1, 2, -2), 10, Variant.SINGLE_BEAD)


def test_validation_rejects_what_int64_cannot_hold():
    # a stretch outside int64, and int64 stretches whose N + sum|l_i| wraps
    # to the declared length: 4 + 4 * 2**62 = 4 mod 2**64
    with pytest.raises(ValueError, match="int64"):
        StretchConfig((2 ** 70, -2 ** 70), 2 ** 71 + 2)
    wraps = (2 ** 62, -2 ** 62, 2 ** 62, -2 ** 62)
    with pytest.raises(ValueError, match="total_length"):
        StretchConfig(wraps, 4)
    with pytest.raises(ValueError, match="total_length"):  # 1 + 2**63 - 1
        StretchConfig((2 ** 63 - 1,), -2 ** 63)
    with pytest.raises(ValueError, match="row 0: .*total_length"):
        polymer.StretchBatch(np.array([wraps]), [4], 4)


def test_validation_refuses_a_bool_stretch():
    # the whole-number rule of every count argument: True is not the int 1
    with pytest.raises(ValueError, match=r"stretches must be integers, got \[True\]"):
        StretchConfig((True, -1), 4)


def test_validation_refuses_what_is_not_a_whole_number():
    # int() would truncate these to the valid (1, -1) and sizes [2]
    with pytest.raises(ValueError, match=r"stretches must be integers, got \[1.5, -1.7\]"):
        StretchConfig((1.5, -1.7), 4)
    with pytest.raises(ValueError, match=r"sizes must be integers, got \[2.9\]"):
        polymer.StretchBatch(np.array([[1, -1, 0, 0]]), [2.9], 4)
    for bad in (math.nan, math.inf, "1"):
        with pytest.raises(ValueError, match="stretches must be integers"):
            StretchConfig((bad, -1), 4)
    with pytest.raises(ValueError, match=r"sizes must be integers, got \[nan\]"):
        polymer.StretchBatch(np.array([[1, -1, 0, 0]]), np.array([math.nan]), 4)
    # whole numbers of any type are kept as ints
    assert StretchConfig((1.0, np.int8(-1)), 4).stretches == (1, -1)
    batch = polymer.StretchBatch(np.array([[1, -1, 0, 0]]), [2.0], 4)
    assert batch.sizes.dtype == np.int64 and batch.sizes.tolist() == [2]


def test_configuration_counts_match_counting_dp():
    for L in range(2, 13):
        assert (len(list(exactz.enumerate_configs(L, Variant.FREE)))
                == oracles.count_free_configs(L))
        assert (len(list(exactz.enumerate_configs(L, Variant.SINGLE_BEAD)))
                == oracles.count_single_bead_configs(L))


# -- Hamiltonian ------------------------------------------------------------

def test_hamiltonian_hand_values():
    beta, delta = 1.7, 0.4
    assert polymer.hamiltonian(cfg((1, -1)), beta, delta) == pytest.approx(
        beta + delta)
    assert polymer.hamiltonian(cfg((2, -2, 2, -2)), beta, delta) == pytest.approx(
        6 * beta + 2 * delta)


def test_hamiltonian_square_configuration():
    # alternating stretches of height r-1 on an r-stretch staircase: L = r^2;
    # the overlap term saturates at beta (r-1)^2 and the wall is touched
    # after every down stretch
    beta, delta = 2.0, 0.5
    for r in (3, 5, 8):
        l = tuple((r - 1) * (1 if i % 2 == 0 else -1) for i in range(r))
        c = StretchConfig(l, r + r * (r - 1))
        assert c.total_length == r * r
        assert polymer.hamiltonian(c, beta, delta) == pytest.approx(
            beta * (r - 1) ** 2 + delta * (r // 2))


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_hamiltonian_pairwise_identity(l):
    heights = [0]
    for v in l:
        heights.append(heights[-1] + v)
    if min(heights) < 0:
        return
    c = cfg(l)
    beta, delta = 1.3, 0.8
    n = len(l)
    L = c.total_length
    padded = (0, *l, 0)
    pair_sum = sum(abs(a + b) for a, b in zip(padded, padded[1:]))
    contacts = sum(1 for h in heights[1:] if h == 0)
    identity = beta * (L - n) - 0.5 * beta * pair_sum + delta * contacts
    assert polymer.hamiltonian(c, beta, delta) == pytest.approx(identity,
                                                                abs=1e-10)


# -- beads ------------------------------------------------------------------

def test_beads_examples():
    assert oracles.beads(cfg((2, -2, 2, -2))) == ((1, 4),)
    assert oracles.beads(cfg((1, 1))) == ((1, 1), (2, 2))
    assert oracles.beads(cfg((2, -1, 0, 3))) == ((1, 2), (3, 3), (4, 4))


def test_beads_zero_stretch_is_own_bead():
    assert oracles.beads(cfg((0, 0))) == ((1, 1), (2, 2))


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_beads_partition(l):
    heights = [0]
    for v in l:
        heights.append(heights[-1] + v)
    if min(heights) < 0:
        return
    ranges = oracles.beads(cfg(l))
    flat = [i for a, b in ranges for i in range(a, b + 1)]
    assert flat == list(range(1, len(l) + 1))


# -- observables -----------------------------------------------------------

def test_observables_hand_values():
    obs = observables(cfg((1, -1)))
    assert obs["horizontal_extension"] == 2
    assert obs["contacts"] == 1
    assert obs["bead_count"] == 1
    assert obs["max_height"] == 1
    obs = observables(cfg((0, 0)))
    assert obs["contacts"] == 2
    assert obs["bead_count"] == 2
    assert obs["max_height"] == 0


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_contacts_bounded_by_extension(l):
    heights = [0]
    for v in l:
        heights.append(heights[-1] + v)
    if min(heights) < 0:
        return
    obs = observables(cfg(l))
    assert 0 <= obs["contacts"] <= obs["horizontal_extension"]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_batch_observables_match_oracle_exhaustive(variant):
    for L in range(1, 13):
        cfgs = [cfg(l, variant) for l in exactz.enumerate_configs(L, variant)]
        stretches = np.zeros((len(cfgs), L), dtype=np.int8)
        for i, c in enumerate(cfgs):
            stretches[i, :len(c.stretches)] = c.stretches
        got = polymer.batch_observables(stretches, [len(c.stretches) for c in cfgs])
        want = [oracles.observables(c) for c in cfgs]
        for key, col in got.items():
            assert col.tolist() == [w[key] for w in want], (L, key)
        assert [observables(c) for c in cfgs] == want


def test_batch_observables_sum_heights_in_int64():
    # int8 holds every stretch of L = 102, but not its heights or area
    stretches = np.zeros((2, 102), dtype=np.int8)
    stretches[0, :3] = (100, -50, -50)
    stretches[1, :2] = (1, 99)
    obs = polymer.batch_observables(stretches, [3, 2])
    assert obs["max_height"].tolist() == [100, 100]
    assert obs["signed_area"].tolist() == [150, 101]
    assert obs["contacts"].tolist() == [1, 0]


# What replaces row 5 of a valid batch at L = 12: (variant, stretches, size,
# words from the message of the rule it breaks).
_CORRUPTED = [
    (Variant.FREE, (-1, 9), 2, "dip below the wall"),
    (Variant.FREE, (1, 1), 2, "total_length"),
    (Variant.FREE, (), 0, "at least one stretch"),
    (Variant.FREE, (3, 0, 0, 0, 0, 0, 0, 0, 0, 1), 9, "past its size"),
    (Variant.CONSTRAINED_END, (5, -4, 0), 3, "end height 0"),
    (Variant.SINGLE_BEAD, (2, 2, -3, -1), 4, "alternate sign"),
    (Variant.SINGLE_BEAD, (4, -3, 0, -1), 4, "nonzero stretches"),
]


@pytest.mark.parametrize("variant, row, size, why", _CORRUPTED)
def test_stretch_batch_rejects_a_corrupted_row(variant, row, size, why):
    L = 12
    _, table = exactz.dp_Z(L, 2.0, 1.2, variant)
    draws = exactz.backward_sample(table, 20, np.random.default_rng(5))
    stretches, sizes = draws.stretches.copy(), draws.sizes.copy()
    polymer.StretchBatch(stretches, sizes, L, variant)  # the copy is valid
    stretches[5] = 0
    stretches[5, :len(row)] = row
    sizes[5] = size
    with pytest.raises(ValueError, match=f"row 5: .*{why}"):
        polymer.StretchBatch(stretches, sizes, L, variant)
    if size == len(row):  # the same rule, one configuration at a time
        with pytest.raises(ValueError, match=why):
            StretchConfig(row, L, variant)


def test_stretch_batch_names_the_same_row_when_checked_in_blocks(monkeypatch):
    # two rows per block: the dip in row 3 (block 1) breaks a later rule than
    # the length in rows 15 and 17 (blocks 7 and 8), so row 15 is named
    L = 12
    _, table = exactz.dp_Z(L, 2.0, 1.2, Variant.FREE)
    draws = exactz.backward_sample(table, 20, np.random.default_rng(5))
    stretches, sizes = draws.stretches.copy(), draws.sizes.copy()
    for i, row in ((3, (-1, 9)), (15, (1, 1)), (17, (2, 2))):
        stretches[i] = 0
        stretches[i, :2] = row
        sizes[i] = 2
    for block in (1 << 15, 2 * L):
        monkeypatch.setattr(polymer, "_CHECK_BLOCK", block)
        with pytest.raises(ValueError, match="^row 15: .*total_length"):
            polymer.StretchBatch(stretches, sizes, L, Variant.FREE)
