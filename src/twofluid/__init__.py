"""Numerical laboratory for the normalized two-fluid Euler-Maxwell system.

The package covers the full chain from the normalized parameters
(epsilon, T, C_b) to the dispersive formulation used in long-time analysis:

- ``params``      the normalized parameters
- ``dispersion``  the three wave branches, their derivatives and identities
- ``spectral``    periodic grids, Fourier calculus, dyadic localization, norms
- ``physics``     pseudo-spectral solver for the normalized system
- ``diagonal``    exact diagonalization into dispersive variables
- ``resonance``   phase functions, resonance classification, Case A/B geometry
- ``decay``       oscillatory kernel bounds and decay-rate measurements
- ``acceptance``  executable end-to-end verification suite
"""

__version__ = "0.1.0"

from .params import PlasmaParams
from .dispersion import lam, lam_prime, lam_second

__all__ = [
    "PlasmaParams",
    "lam",
    "lam_prime",
    "lam_second",
    "__version__",
]
