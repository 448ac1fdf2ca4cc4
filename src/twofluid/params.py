"""The dimensionless parameters of the normalized two-fluid system.

The two-fluid Euler-Maxwell system with quadratic pressure laws, linearized
around the flat neutral equilibrium and written in normalized variables,
depends on the plasma only through the three numbers (epsilon, T, C_b).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PlasmaParams:
    """Dimensionless parameters of the normalized system.

    epsilon = Z m_e / M_i         (mass ratio)
    T       = P_e / P_i           (temperature ratio, = Z T_e / T_i)
    C_b     = epsilon c^2 / V_i^2 (light speed squared, normalized)
    """

    epsilon: float
    T: float
    C_b: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                    and math.isfinite(val) and val > 0):
                raise ValueError(f"PlasmaParams.{f.name} must be finite and positive, got {val!r}")
