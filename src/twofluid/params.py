"""Physical constants, normalized parameters and the rescaling between them.

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

    # characteristic speeds and lengths, used in the derivations below
    @property
    def V_e(self) -> float:
        """Electron thermal speed sqrt(n_0 P_e / m_e)."""
        return math.sqrt(self.n_0 * self.P_e / self.m_e)

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


# -- rescaling between physical and normalized fields ------------------------
#
# Physical and normalized fields are samples of the same functions in the two
# coordinate systems x_phys = x_norm/lambda, t_phys = t_norm/beta; on a fixed
# sample grid the maps below only touch amplitudes.
#
#   n_e = n_0 (n + 1)            v_e = (beta/lambda) v
#   n_i = (n_0/Z)(rho + 1)       v_i = (beta/lambda) u
#   E   = (4 pi e n_0/lambda) E~
#   B   = (c M_i beta / (Z e)) B~

PHYSICAL_KEYS = ("n_e", "v_e", "n_i", "v_i", "E", "B")
NORMALIZED_KEYS = ("n", "v", "rho", "u", "E", "B")


def rescale_to_normalized(fields: dict, pc: PhysicalConstants) -> dict:
    """Physical fields -> normalized perturbation fields.

    ``fields`` maps the names in PHYSICAL_KEYS to arrays (scalars n_e, n_i;
    vectors v_e, v_i, E, B as leading-axis-3 arrays).  The densities come
    back mean-centered around the equilibrium: n = n_e/n_0 - 1, etc.
    """
    missing = [k for k in PHYSICAL_KEYS if k not in fields]
    if missing:
        raise ValueError(f"missing physical fields: {missing}")
    p = derive_params(pc)
    vel = p.scale_lambda / p.scale_beta
    return {
        "n": fields["n_e"] / pc.n_0 - 1.0,
        "rho": fields["n_i"] * pc.Z / pc.n_0 - 1.0,
        "v": fields["v_e"] * vel,
        "u": fields["v_i"] * vel,
        "E": fields["E"] * p.scale_lambda / (4.0 * math.pi * pc.e * pc.n_0),
        "B": fields["B"] * pc.Z * pc.e / (pc.c * pc.M_i * p.scale_beta),
    }


def rescale_to_physical(fields: dict, pc: PhysicalConstants) -> dict:
    """Inverse of :func:`rescale_to_normalized`."""
    missing = [k for k in NORMALIZED_KEYS if k not in fields]
    if missing:
        raise ValueError(f"missing normalized fields: {missing}")
    p = derive_params(pc)
    vel = p.scale_beta / p.scale_lambda
    return {
        "n_e": (fields["n"] + 1.0) * pc.n_0,
        "n_i": (fields["rho"] + 1.0) * pc.n_0 / pc.Z,
        "v_e": fields["v"] * vel,
        "v_i": fields["u"] * vel,
        "E": fields["E"] * (4.0 * math.pi * pc.e * pc.n_0) / p.scale_lambda,
        "B": fields["B"] * (pc.c * pc.M_i * p.scale_beta) / (pc.Z * pc.e),
    }


# -- key=value config files ---------------------------------------------------

def read_config(path) -> dict:
    """Parse a key=value config file (# starts a comment).

    Unknown keys are kept; value strings are not interpreted here.  Raises
    ValueError with the offending line number on malformed input.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ValueError(f"{path}:{lineno}: empty key or value in {raw.strip()!r}")
            out[key] = val
    return out


_PHYSICAL_CFG = ("m_e", "M_i", "Z", "e", "c", "n_0", "P_e", "P_i")


def params_from_config(cfg: dict) -> PlasmaParams:
    """Build PlasmaParams from a parsed config.

    Accepts either the normalized block (epsilon, T, C_b, optionally
    scale_lambda/scale_beta), or the full physical block
    (m_e, M_i, Z, e, c, n_0, P_e, P_i), but not a mix of the two.
    """
    has_norm = "epsilon" in cfg
    has_phys = any(k in cfg for k in _PHYSICAL_CFG)
    if has_norm and has_phys:
        raise ValueError("config mixes normalized (epsilon/T/C_b) and physical parameter blocks")
    if has_norm:
        kw = {"epsilon": float(cfg["epsilon"]), "T": float(cfg["T"]), "C_b": float(cfg["C_b"])}
        for opt in ("scale_lambda", "scale_beta"):
            if opt in cfg:
                kw[opt] = float(cfg[opt])
        return PlasmaParams(**kw)
    if has_phys:
        missing = [k for k in _PHYSICAL_CFG if k not in cfg]
        if missing:
            raise ValueError(f"physical parameter block incomplete, missing {missing}")
        return derive_params(PhysicalConstants(**{k: float(cfg[k]) for k in _PHYSICAL_CFG}))
    raise ValueError("config defines neither epsilon/T/C_b nor the physical constants")
