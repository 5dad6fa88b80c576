"""Two-sided geometric step law for the vertical stretches.

Every layer of the package (wetting kernel, transfer DP, tilted walks)
consumes the integer step distribution

    P(X = k) = exp(-(beta/2) |k|) / c_beta,      k in Z,

through the small value object defined here, so the closed-form constants
live in one place.  With x = exp(-beta/2) the normalizer is
c_beta = (1 + x)/(1 - x), and the combination Gamma_beta = c_beta e^{-beta}
controls the balance between surface energy and step entropy: it is
strictly decreasing in beta and crosses 1 at ``beta_critical()``.

Every layer also checks its count arguments (lengths, step and draw
counts, height cutoffs) by the one rule ``_count`` stated here.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "StepLaw",
    "step_pmf",
    "beta_critical",
]


class StepLaw:
    """Frozen bundle of constants attached to one inverse temperature.

    Attributes
    ----------
    beta : float
        Coupling, must be positive and finite.
    x : float
        Shorthand exp(-beta/2); the common ratio of both geometric tails.
    c_beta : float
        Normalizer (1 + x)/(1 - x).
    gamma_beta : float
        c_beta * exp(-beta).
    sigma2 : float
        Step variance (2/c_beta) * x (1+x)/(1-x)^3  ( = 2x/(1-x)^2 ).
    """

    __slots__ = ("beta", "x", "c_beta", "gamma_beta", "sigma2")

    def __init__(self, beta: float):
        if not 0.0 < beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {beta!r}")
        self.beta = float(beta)
        self.x = math.exp(-self.beta / 2.0)
        x = self.x
        self.c_beta = (1.0 + x) / (1.0 - x)
        self.gamma_beta = self.c_beta * math.exp(-self.beta)
        self.sigma2 = (2.0 / self.c_beta) * x * (1.0 + x) / (1.0 - x) ** 3

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StepLaw(beta={self.beta})"


def step_pmf(law: StepLaw, k) -> float:
    """P(X = k); accepts ints or integer arrays."""
    return np.exp(-0.5 * law.beta * np.abs(k)) / law.c_beta


def beta_critical() -> float:
    """Coupling at which Gamma_beta = 1.

    Equivalent to the root in (0, 1) of x^3 + x^2 + x = 1 (x = e^{-beta/2}),
    by Cardano's formula, x = (cbrt(17 + 3 sqrt 33) - cbrt(3 sqrt 33 - 17)
    - 1) / 3, polished by one Newton step to full double precision.
    """
    r = 3.0 * math.sqrt(33.0)
    t = ((17.0 + r) ** (1.0 / 3.0) - (r - 17.0) ** (1.0 / 3.0) - 1.0) / 3.0
    t -= (((t + 1.0) * t + 1.0) * t - 1.0) / ((3.0 * t + 2.0) * t + 1.0)
    return -2.0 * math.log(t)


def _whole(value) -> bool:
    """Whether ``value`` is a whole number: not a bool, and equal to its int,
    so not 10.5 (which ``int`` would truncate), nan, inf or the string "3"."""
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _count(value, name: str, least: int = 0, why: str = "") -> int:
    """``value`` of the count argument ``name`` (a length, a number of
    steps or draws, a height cutoff) as an int.  ValueError names the
    argument and its value, and ``why`` if given, when the value is not
    ``_whole`` or is below ``least``."""
    if not (_whole(value) and value >= least):
        raise ValueError(f"{name} = {value!r} must be a whole number >= {least}"
                         + (f": {why}" if why else ""))
    return int(value)
