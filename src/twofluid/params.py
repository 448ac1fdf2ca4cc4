"""Physical constants and the normalized parameters derived from them.

The physical model is the two-fluid Euler-Maxwell system in Gaussian units
with quadratic pressure laws

    p_e = P_e n_e^2 / 2,      p_i = P_i Z^2 n_i^2 / 2,

linearized around the flat neutral equilibrium n_e = n_0, n_i = n_0/Z.  All
of the analysis happens in the normalized variables obtained by scaling
lengths with ``scale_lambda`` and times with ``scale_beta``; the normalized
system depends on the physical data only through the three dimensionless
numbers (epsilon, T, C_b).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .reporting import Report

#: Regime of interest: strongly magnetized, hot-electron plasma.
EPSILON_MAX = 1.0e-3
T_RANGE = (1.0, 100.0)
CB_OVER_T_MIN = 6.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Dimensional data of the two-fluid model (Gaussian units).

    Attributes
    ----------
    m_e, M_i : float
        Electron and ion masses.
    Z : float
        Ion charge number.
    e : float
        Elementary charge.
    c : float
        Speed of light.
    n_0 : float
        Equilibrium electron density.
    P_e, P_i : float
        Pressure-law coefficients, p_e = P_e n_e^2/2 and p_i = P_i Z^2 n_i^2/2.
        The equilibrium temperatures are k_B T_e = n_0 P_e, k_B T_i = n_0 Z P_i.
    """

    m_e: float
    M_i: float
    Z: float
    e: float
    c: float
    n_0: float
    P_e: float
    P_i: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                    and math.isfinite(val) and val > 0):
                raise ValueError(f"PhysicalConstants.{f.name} must be finite and positive, got {val!r}")

    @property
    def V_i(self) -> float:
        """Ion thermal speed sqrt(n_0 P_i Z / M_i)."""
        return math.sqrt(self.n_0 * self.P_i * self.Z / self.M_i)

    @property
    def debye_length(self) -> float:
        """lambda_D with 1/lambda_D^2 = 4 pi e^2 (1/P_e + 1/P_i)."""
        return (4.0 * math.pi * self.e**2 * (1.0 / self.P_e + 1.0 / self.P_i)) ** -0.5


@dataclass(frozen=True)
class PlasmaParams:
    """Dimensionless parameters of the normalized system.

    epsilon = Z m_e / M_i         (mass ratio)
    T       = P_e / P_i           (temperature ratio, = Z T_e / T_i)
    C_b     = epsilon c^2 / V_i^2 (light speed squared, normalized)

    ``scale_lambda`` (1/length) and ``scale_beta`` (1/time) record the
    space/time scaling that produced the normalized variables; they default
    to 1 when parameters are chosen directly rather than derived.
    """

    epsilon: float
    T: float
    C_b: float
    scale_lambda: float = 1.0
    scale_beta: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                    and math.isfinite(val) and val > 0):
                raise ValueError(f"PlasmaParams.{f.name} must be finite and positive, got {val!r}")

    def replace(self, **kw) -> "PlasmaParams":
        return dataclasses.replace(self, **kw)


def derive_params(pc: PhysicalConstants) -> PlasmaParams:
    """Map physical constants to the normalized parameters.

    The space scale is lambda = sqrt(4 pi e^2 / P_i) and the time scale is
    the ion plasma frequency beta = sqrt(4 pi n_0 Z e^2 / M_i), so that
    beta/lambda = V_i.
    """
    eps = pc.Z * pc.m_e / pc.M_i
    T = pc.P_e / pc.P_i
    C_b = eps * pc.c**2 / pc.V_i**2
    lam = math.sqrt(4.0 * math.pi * pc.e**2 / pc.P_i)
    beta = math.sqrt(4.0 * math.pi * pc.n_0 * pc.Z * pc.e**2 / pc.M_i)
    return PlasmaParams(epsilon=eps, T=T, C_b=C_b, scale_lambda=lam, scale_beta=beta)


def validate_regime(p: PlasmaParams) -> Report:
    """Check (epsilon, T, C_b) against the regime of validity.

    Returns a report, never raises; callers decide whether warnings are
    fatal.
    """
    rep = Report("regime")
    rep.add(
        "epsilon <= 1e-3",
        p.epsilon <= EPSILON_MAX,
        p.epsilon,
        f"epsilon={p.epsilon:.3e}",
    )
    rep.add(
        "T in [1, 100]",
        T_RANGE[0] <= p.T <= T_RANGE[1],
        p.T,
        f"T={p.T:.6g}",
    )
    rep.add(
        "C_b >= 6 T",
        p.C_b >= CB_OVER_T_MIN * p.T,
        p.C_b / p.T,
        f"C_b/T={p.C_b / p.T:.6g}",
    )
    return rep
