"""Stretch configurations of the partially directed polymer above a wall.

A configuration with N horizontal stretches is an integer vector
l = (l_1, ..., l_N); stretch i occupies one horizontal bond plus |l_i|
vertical bonds, so the total length is L = N + sum_i |l_i|.  The prefix
heights T_k = l_1 + ... + l_k must stay >= 0 (hard wall).  The energy is

    H(l) = beta * sum_{i=0}^{N} (l_i ^ l_{i+1})  +  delta * #contacts,

with padding l_0 = l_{N+1} = 0, where x ^ y = min(|x|, |y|) 1{x y <= 0}
counts the touching rows between consecutive opposite stretches and a
contact is a prefix height T_k = 0, k = 1..N.

Three boundary flavours are used throughout:

* ``Free``            any end height;
* ``ConstrainedEnd``  T_N = 0;
* ``SingleBead``      nonzero stretches of alternating sign starting
                      upward, T_N = 0 — one tightly wound bead, in
                      bijection with a pair of ordered envelope walks
                      (the walks ``exactz.z_circ_from_walks`` sums over).

Many configurations of one length are held as a ``StretchBatch``: one
integer matrix, row i carrying configuration i's stretches then zeros.
``_broken`` states the rules above once, over such rows: ``StretchConfig``
checks one configuration through it, ``StretchBatch`` a whole matrix.
``batch_observables`` computes their observables over the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np

from .steps import _whole

__all__ = [
    "Variant",
    "StretchConfig",
    "StretchBatch",
    "wedge",
    "hamiltonian",
    "batch_observables",
]


_CHECK_BLOCK = 1 << 15  # (rows x L) entries a batch check holds at a time


class Variant(str, Enum):
    FREE = "Free"
    CONSTRAINED_END = "ConstrainedEnd"
    SINGLE_BEAD = "SingleBead"


def as_variant(v) -> Variant:
    """Coerce a Variant or its string name."""
    if isinstance(v, Variant):
        return v
    try:
        return Variant(v)
    except ValueError:
        raise ValueError(f"unknown variant {v!r}; expected one of "
                         f"{[m.value for m in Variant]}") from None


def wedge(x: int, y: int) -> int:
    """Overlap of two adjacent stretches: min(|x|,|y|) when signs oppose.

    Equals (|x| + |y| - |x + y|) / 2 for every integer pair, which is the
    identity the transfer DP exploits.
    """
    return min(abs(x), abs(y)) if x * y <= 0 else 0


def _broken(l, n, L: int, variant: Variant) -> list:
    """(rows breaking it, why) for every rule of a configuration, in order.

    Row i of the integer matrix ``l`` holds the ``n[i]`` stretches of one
    configuration of total length ``L``, then zeros; a row may be wider
    than its size.  This is the one statement of what a valid
    configuration is: ``StretchConfig`` checks its stretches as one row,
    ``StretchBatch`` its matrix in blocks of rows.
    """
    inside = np.arange(l.shape[1]) < n[:, None]
    # running sums of |l_i|, then N + sum|l_i|: a negative one has wrapped
    a = np.absolute(l, dtype=np.int64)
    np.cumsum(a, axis=1, out=a)
    total = n + a[:, -1]
    long = (total != L) | (total < 0) | (a.min(axis=1) < 0)
    bad = [
        (n < 1, "a configuration needs at least one stretch"),
        (((l != 0) & ~inside).any(axis=1), "entries past its size must be 0"),
        (long, f"N + sum|l_i| != total_length {L}"),
    ]
    # after the |l_i| sums (which bound every |T_k|): one int64 block of
    # heights alive at a time; past its size a row keeps T_N
    T = np.cumsum(l, axis=1, dtype=np.int64)
    bad.append((T.min(axis=1) < 0, "prefix heights dip below the wall"))
    if variant is not Variant.FREE:
        bad.append((T[:, -1] != 0, f"{variant.value} requires end height 0"))
    if variant is Variant.SINGLE_BEAD:
        up = 1 - 2 * (np.arange(l.shape[1]) % 2)  # +1, -1, +1, ...
        bad += [((n % 2 == 1) | ((l == 0) & inside).any(axis=1),
                 "single-bead needs an even number of nonzero stretches"),
                (((np.sign(l) != up) & inside).any(axis=1),
                 "single-bead stretches must alternate sign, starting upward")]
    return bad


def _integers(values, what: str) -> tuple:
    """``values`` as a tuple of ints; ValueError naming every entry that is
    not ``steps._whole``, such as 1.5 (which ``int`` would truncate), nan,
    True or the string "1"."""
    values = tuple(values)
    odd = [v for v in values if not _whole(v)]
    if odd:
        raise ValueError(f"{what} must be integers, got {odd}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class StretchConfig:
    """Stretch vector with its declared total length and flavour, checked
    on construction by the rules of ``_broken``: ValueError names the first
    rule it breaks.  A stretch that is not a whole number, or a stretch or
    N + sum|l_i| outside int64, is refused."""

    stretches: tuple
    total_length: int
    variant: Variant = Variant.FREE

    def __post_init__(self):
        object.__setattr__(self, "stretches", _integers(self.stretches, "stretches"))
        object.__setattr__(self, "variant", as_variant(self.variant))
        l = self.stretches
        try:  # one row, at least one entry wide
            row = np.array([l or (0,)], dtype=np.int64)
        except OverflowError:
            raise ValueError("a stretch does not fit in int64") from None
        for bad, why in _broken(row, np.array([len(l)]), self.total_length, self.variant):
            if bad[0]:
                raise ValueError(why)

    def prefix_heights(self) -> tuple:
        """T_0 = 0, T_1, ..., T_N."""
        return (0,) + tuple(accumulate(self.stretches))


@dataclass(frozen=True, eq=False)
class StretchBatch:
    """Many configurations of one total length and flavour, as arrays.

    Row i of the (count, L) integer matrix ``stretches`` holds the
    ``sizes[i]`` stretches of configuration i, then zeros.  Construction
    checks every row against the rules of ``_broken``, over blocks of rows,
    and raises ValueError naming the first row that breaks the first
    broken rule; sizes that are not whole numbers are refused by value.
    ``len`` is the count.
    """

    stretches: np.ndarray
    sizes: np.ndarray
    L: int
    variant: Variant = Variant.FREE

    def __post_init__(self):
        object.__setattr__(self, "stretches", np.asarray(self.stretches))
        sizes = np.asarray(self.sizes)
        if sizes.dtype.kind not in "iu":  # floats must hold whole numbers
            _integers(sizes.ravel().tolist(), "sizes")
        object.__setattr__(self, "sizes", sizes.astype(np.int64))
        object.__setattr__(self, "variant", as_variant(self.variant))
        self._validate()

    def _validate(self) -> None:
        l, n, L = self.stretches, self.sizes, self.L
        if not (l.dtype.kind in "iu" and l.ndim == 2 and n.ndim == 1
                and l.shape == (n.size, L) and L >= 1):
            raise ValueError(f"stretches must be an integer ({n.size}, {L}) "
                             f"matrix for L >= 1, got {l.dtype} {l.shape}")
        # rows in blocks of about _CHECK_BLOCK entries bound the int64
        # temporaries; the first broken rule, then its first row, is named
        first = {}
        rows = max(1, _CHECK_BLOCK // L)
        for a in range(0, n.size, rows):
            broken = _broken(l[a:a + rows], n[a:a + rows], L, self.variant)
            for rule, (bad, why) in enumerate(broken):
                if rule not in first and bad.any():
                    first[rule] = f"row {a + int(np.argmax(bad))}: {why}"
        if first:
            raise ValueError(first[min(first)])

    def __len__(self) -> int:
        return self.sizes.size


def hamiltonian(cfg: StretchConfig, beta: float, delta: float) -> float:
    """beta * (total stretch overlap) + delta * (number of wall contacts)."""
    padded = (0,) + cfg.stretches + (0,)
    wsum = sum(wedge(a, b) for a, b in zip(padded, padded[1:]))
    contacts = sum(1 for t in accumulate(cfg.stretches) if t == 0)
    return beta * wsum + delta * contacts


def batch_observables(stretches, sizes) -> dict:
    """Extension, contacts, bead count, max height and area of every row.

    Row i of ``stretches`` holds the ``sizes[i]`` stretches of one
    configuration, then zeros (the layout of ``StretchBatch``).  Each value
    is an int64 array over the rows; heights are summed in int64 whatever
    the stretch dtype.
    """
    stretches = np.asarray(stretches)
    sizes = np.array(sizes, dtype=np.int64)
    inside = np.arange(stretches.shape[1]) < sizes[:, None]
    T = np.cumsum(stretches, axis=1, dtype=np.int64)
    T *= inside  # T_1..T_N, then zeros that stand in for T_0
    # a bead closes after stretch i when i and i + 1 do not overlap (the
    # wedge vanishes): their signs do not oppose, with l_{N+1} = 0
    sign = np.sign(stretches)
    nxt = np.zeros_like(sign)
    nxt[:, :-1] = sign[:, 1:]
    return {
        "horizontal_extension": sizes,
        "contacts": np.count_nonzero((T == 0) & inside, axis=1),
        "bead_count": np.count_nonzero((sign * nxt >= 0) & inside, axis=1),
        "max_height": T.max(axis=1),
        "signed_area": T.sum(axis=1),
    }
