"""Exact numerics for a collapsed partially directed polymer above a hard wall.

Submodules
----------
steps     two-sided geometric step law, its constants, collapse threshold
wetting   first-return kernel, pinned-walk partition function, critical curves
polymer   configuration rules, checked batches, Hamiltonian, batch observables
exactz    exact partition functions: brute force, transfer DP, exact sampling,
          walk identities, area-tilted bridges
largedev  Legendre layer of tilted walks, collapse profile, meander rate
cli       command-line front end
"""

__version__ = "0.1.0"

from . import steps, wetting, polymer, exactz, largedev  # noqa: E402,F401

__all__ = ["steps", "wetting", "polymer", "exactz", "largedev", "__version__"]
