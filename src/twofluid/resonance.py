"""Space-time resonance analysis for the three-branch quadratic interactions.

A quadratic interaction producing output branch sigma from inputs
mu = (sigma_1, iota_1) and nu = (sigma_2, iota_2) oscillates with the phase

    Phi(xi, eta) = Lambda_sigma(xi) - iota_1 Lambda_{sigma_1}(xi - eta)
                   - iota_2 Lambda_{sigma_2}(eta),

and the obstruction to removing the interaction by a normal form is the set
where both Phi and its eta-gradient Xi are small.  This module holds the
static classification of all 63 phases (strongly elliptic, nonresonant, or
cases A/B/C), brute-force near-resonant scans over dyadic shells, and the
constructive geometry of the resonant sets: the radial matching functions t,
their inverses r^{mu,nu}, the resonant curve p_res with Xi(xi, p_res(xi)) = 0,
the reduced phase Psi along it, and the case-B radii R_sigma.

The geometry runs on arrays of radii.  Every matching t^{sigma_1 sigma_2} is
lambda'_{sigma_1} inverted at lambda'_{sigma_2} through
`dispersion.lam_prime_inverse`, and every other radial root (r^{mu,nu}, the
zeros of Psi, the antiparallel fixed point, the case-B radius) is solved for
all its elements at once by the one array root helper `dispersion._root`.

A phase is written "sigma;mu,nu", e.g. "e;i+,e+".  The input pair is
unordered for classification (the tables identify (mu,nu) with (nu,mu),
via Phi^{sigma;mu,nu}(xi,eta) = Phi^{sigma;nu,mu}(xi,xi-eta)) but ordered
for the geometry functions, whose defining equations distinguish the slots.

The analytic box constant D is "sufficiently large" and carries no numeric
value; its stand-in is D_NUM = 10, and the case conditions and the
partition census take D_num to report case assignment as a function of it.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dispersion import (BRANCHES, _root, find_R_sigma, jet, lam, lam_prime, lam_prime_inverse,
                         lam_second)
from .params import PlasmaParams

D_NUM = 10

PHASE_SPECIES = ("i+", "i-", "e+", "e-", "b+", "b-")


@dataclass(frozen=True, order=True)
class PhaseSpec:
    """One phase function Phi^{sigma;mu,nu}, input slots in order."""

    sigma: str
    mu: str
    nu: str

    def __post_init__(self):
        if self.sigma not in BRANCHES:
            raise ValueError(f"unknown output branch {self.sigma!r}")
        for q in (self.mu, self.nu):
            if q not in PHASE_SPECIES:
                raise ValueError(f"unknown input species {q!r}")

    @classmethod
    def parse(cls, text: str) -> "PhaseSpec":
        """Reads the key spelling 'sigma;mu,nu', e.g. 'e;i+,e+'."""
        head, _, tail = text.partition(";")
        mu, _, nu = tail.partition(",")
        return cls(head.strip(), mu.strip(), nu.strip())

    @property
    def key(self) -> str:
        return f"{self.sigma};{self.mu},{self.nu}"

    @property
    def branch1(self) -> str:
        return self.mu[0]

    @property
    def branch2(self) -> str:
        return self.nu[0]

    @property
    def iota1(self) -> int:
        return 1 if self.mu[1] == "+" else -1

    @property
    def iota2(self) -> int:
        return 1 if self.nu[1] == "+" else -1

    def swapped(self) -> "PhaseSpec":
        return PhaseSpec(self.sigma, self.nu, self.mu)

    def canonical(self) -> "PhaseSpec":
        """Representative modulo input swap (species order as in PHASE_SPECIES)."""
        if PHASE_SPECIES.index(self.mu) <= PHASE_SPECIES.index(self.nu):
            return self
        return self.swapped()


ALL_PHASES = tuple(
    PhaseSpec(sigma, PHASE_SPECIES[a], PHASE_SPECIES[b])
    for sigma in BRANCHES
    for a in range(6)
    for b in range(a, 6)
)


def _specs(text: str) -> frozenset:
    return frozenset(PhaseSpec.parse(tok) for tok in text.split())


# the 39 strongly elliptic phases: |Phi| has a positive lower bound on shells
T_SELL = _specs("""
    i;i+,e+ i;i+,e- i;i+,b+ i;i+,b- i;i-,e- i;i-,b- i;e+,e+ i;e+,b+ i;e-,e- i;e-,b-
    i;b+,b+ i;b-,b- e;i+,i- e;i+,e- e;i+,b- e;i-,i- e;i-,e- e;i-,b- e;e+,e+ e;e+,e-
    e;e+,b+ e;e+,b- e;e-,e- e;e-,b- e;b+,b+ e;b-,b- b;i+,i- b;i+,e- b;i+,b- b;i-,i-
    b;i-,e- b;i-,b- b;e+,e- b;e+,b- b;e-,e- b;e-,b- b;b+,b+ b;b+,b- b;b-,b-
""")

# 4 more with empty near-resonant sets for reasons involving Xi as well
T_NR = _specs("e;i+,i+ e;b+,b- b;i+,i+ b;i-,e+")

# the 20 genuinely resonant phases; A and B/C overlap in four entries
T_A = _specs("""
    i;i-,e+ i;i-,b+ i;e+,b- i;e-,b+ e;i+,e+ e;i+,b+ e;i-,b+ e;e-,b+
    b;i+,e+ b;i+,b+ b;e+,e+ b;e+,b+ b;e-,b+
""")
T_B = _specs("e;i+,e+ e;i-,e+ b;i+,b+ b;i-,b+")
T_C = _specs("i;i+,i+ i;i+,i- i;i-,i- i;e+,e- i;e+,b- i;e-,b+ i;b+,b-")

# ordered variant used by the resonant-curve construction: second slot swapped
# to the front so that sigma_1 carries the fast branch
T_A_ORDERED = frozenset(s.swapped() for s in T_A)

# phases whose near-zero window is provably empty inside the shell box: the
# collinear profile f starts nonnegative and increases, so it never returns
# to zero away from the domain edge
VACUOUS_A = _specs("e;e+,i+ b;e+,i+ b;b+,i+")

# proved sign of d/ds Psi on the near-zero window, per ordered phase; the two
# -1 entries are the phases whose resonant input is faster than the output
C_TILDE = {spec: -1 if spec.key in ("i;b-,e+", "e;b+,i-") else 1
           for spec in T_A_ORDERED}

_DEFP2 = PhaseSpec.parse("e;b+,i-")


@dataclass(frozen=True)
class PhaseClass:
    sell: bool
    nr: bool
    a: bool
    b: bool
    c: bool

    @property
    def resonant(self) -> bool:
        return self.a or self.b or self.c

    @property
    def labels(self) -> str:
        flags = zip("SNABC", (self.sell, self.nr, self.a, self.b, self.c))
        return "".join(ch for ch, on in flags if on)


def classify(spec: PhaseSpec) -> PhaseClass:
    """Static table lookup, symmetrized over the input order."""
    c = spec.canonical()
    return PhaseClass(c in T_SELL, c in T_NR, c in T_A, c in T_B, c in T_C)


# ---------------------------------------------------------------------------
# phase functions


def _norm3(v):
    return np.sqrt(np.sum(np.square(v), axis=0))


def _phi_radii(spec: PhaseSpec, s, z, r, p: PlasmaParams):
    """Phi from the radii s = |xi|, z = |xi - eta| and r = |eta|."""
    return _phase(spec, lam(spec.sigma, s, p), lam(spec.branch1, z, p), lam(spec.branch2, r, p))


def phi(spec: PhaseSpec, xi, eta, p: PlasmaParams):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return _phi_radii(spec, _norm3(xi), _norm3(xi - eta), _norm3(eta), p)


def xi(spec: PhaseSpec, xi, eta, p: PlasmaParams):
    """The eta-gradient of phi; a 3-vector (leading axis).

    Undefined where eta or xi - eta vanishes: the radial direction is
    ambiguous there even on the i branch, where lambda' stays finite.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = xi - eta
    zm = _norm3(zeta)
    em = _norm3(eta)
    if np.any(zm == 0.0) or np.any(em == 0.0):
        raise ValueError("gradient is singular where eta or xi - eta vanishes")
    return (spec.iota1 * lam_prime(spec.branch1, zm, p) * zeta / zm
            - spec.iota2 * lam_prime(spec.branch2, em, p) * eta / em)


# ---------------------------------------------------------------------------
# radial geometry of the space-resonant sets


def _t_sup(pair: str, p: PlasmaParams) -> float:
    # upper bounds on the matching radii; the ee pair is unbounded
    if pair == "ei":
        return np.sqrt(3.0 * p.epsilon / p.T)
    if pair == "bi":
        return np.sqrt(p.epsilon / p.C_b)
    if pair == "be":
        return np.sqrt(p.T * (1.0 + p.epsilon) / (p.C_b * (p.C_b - p.T)))
    return np.inf


def t_func(pair: str, r, p: PlasmaParams):
    """Radial matching functions between branch group velocities, on arrays of r.

    t^{ee}(r) = r, and otherwise lambda'_e(t^{ei}(r)) = lambda'_i(r),
    lambda'_b(t^{bi}(r)) = lambda'_i(r), lambda'_b(t^{be}(r)) = lambda'_e(r):
    t^{sigma_1 sigma_2} = lam_prime_inverse(sigma_1, lambda'_{sigma_2}(r)).
    At the origin t^{sigma i}(0) = R_sigma (`dispersion.find_R_sigma`) and
    t^{ee}(0) = t^{be}(0) = 0, since lambda_e'(0) = 0.
    """
    r = np.asarray(r, dtype=float)
    if pair == "ee":
        return +r
    if pair not in ("ei", "bi", "be"):
        raise ValueError(f"unknown matching pair {pair!r}")
    return lam_prime_inverse(pair[0], lam_prime(pair[1], r, p), p)


def t_func_prime(pair: str, r, p: PlasmaParams):
    """d t^{pair}/dr, the ratio of second derivatives along the matching."""
    r = np.asarray(r, dtype=float)
    if pair == "ee":
        return np.ones_like(r) if r.ndim else 1.0
    t = t_func(pair, r, p)
    src = "e" if pair == "be" else "i"
    dst = "b" if pair[0] == "b" else "e"
    return lam_second(src, r, p) / lam_second(dst, t, p)


def _pair_of(spec: PhaseSpec) -> str:
    pair = spec.branch1 + spec.branch2
    if pair not in ("ee", "ei", "bi", "be"):
        raise ValueError(f"no radial matching function for input branches {pair!r}")
    if pair == "ee" and spec.iota1 != spec.iota2:
        raise ValueError("t_tilde degenerates to 0 for opposite-sign ee inputs")
    return pair


def t_tilde(spec: PhaseSpec, r, p: PlasmaParams):
    """The signed combination r + iota_1 iota_2 t^{sigma_1 sigma_2}(r)."""
    return np.asarray(r, dtype=float) + spec.iota1 * spec.iota2 * t_func(_pair_of(spec), r, p)


def r_munu(spec: PhaseSpec, s, p: PlasmaParams):
    """Inverse of t_tilde; increasing from 0 on [iota_1 iota_2 t(0), infinity)."""
    s = np.asarray(s, dtype=float)
    pair = _pair_of(spec)
    s0 = spec.iota1 * spec.iota2 * (find_R_sigma(pair[0], p) if pair[1] == "i" else 0.0)
    if np.any(s < s0 - 1e-12):
        raise ValueError(f"s below the domain of r^{{mu,nu}} (edge {s0:.6g})")
    if pair == "ee":
        out = 0.5 * s
    else:
        pad = 0.0 if spec.iota1 == spec.iota2 else 2.0 * _t_sup(pair, p)
        hi = np.maximum(s, 0.0) + pad + 1e-9
        out = _root(lambda r, s: t_tilde(spec, r, p) - s, 0.0, hi, args=(s,))
    return out if s.ndim else float(out)


def r_munu_prime(spec: PhaseSpec, s, p: PlasmaParams):
    """d r^{mu,nu}/ds = 1 / (1 + iota_1 iota_2 dt(r^{mu,nu}(s)))."""
    pair = _pair_of(spec)
    r = r_munu(spec, s, p)
    return 1.0 / (1.0 + spec.iota1 * spec.iota2 * t_func_prime(pair, r, p))


def _ordered_rep(spec: PhaseSpec) -> PhaseSpec:
    if spec in T_A_ORDERED:
        return spec
    if spec.swapped() in T_A_ORDERED:
        return spec.swapped()
    raise ValueError(f"{spec.key} has no resonant-curve parametrization")


def _interval(spec: PhaseSpec, p: PlasmaParams):
    """I^{sigma;mu,nu}, the radii where the resonant curve exists."""
    pair = _pair_of(spec)
    t0 = find_R_sigma(pair[0], p) if pair[1] == "i" else 0.0
    if spec == _DEFP2:
        return 0.0, t0
    return t0, np.inf


def _r_signed(spec: PhaseSpec, s, p: PlasmaParams):
    # radial coordinate of p_res along xi; negative for the one phase whose
    # resonant input points opposite to the output
    lo, hi = _interval(spec, p)
    s = np.asarray(s, dtype=float)
    if np.any((s < lo - 1e-12) | (s > hi + 1e-12)):
        raise ValueError(f"|xi| in [{s.min():.6g}, {s.max():.6g}] leaves I = [{lo:.6g}, {hi:.6g}] "
                         f"for {spec.key}")
    if spec == _DEFP2:
        return -r_munu(spec, -s, p)
    return r_munu(spec, s, p)


def p_res(spec: PhaseSpec, xi, p: PlasmaParams):
    """The resonant input frequency: Xi^{mu,nu}(xi, p_res(xi)) = 0.

    ``xi`` has shape (3, ...).  Defined for the 13 case-A phases in either
    input order; for the order with the slow branch first the curve is
    xi - p_res of the swapped phase.
    """
    xi = np.asarray(xi, dtype=float)
    s = _norm3(xi)
    if np.any(s == 0.0):
        raise ValueError("p_res is undefined at xi = 0")
    if spec in T_A_ORDERED:
        if spec.branch1 == spec.branch2 and spec.iota1 == spec.iota2:
            # identical legs split the output frequency evenly; keep the
            # halving exact instead of routing through r(s) * xi / s
            return 0.5 * xi
        return _r_signed(spec, s, p) * xi / s
    return xi - _r_signed(_ordered_rep(spec), s, p) * xi / s


def psi(spec: PhaseSpec, s, p: PlasmaParams):
    """The reduced phase Psi(s) = Phi(s e, p_res(s e)) along the resonant curve."""
    sp = _ordered_rep(spec)
    s = np.asarray(s, dtype=float)
    rr = _r_signed(sp, s, p)
    out = _phi_radii(sp, s, np.abs(rr - s), np.abs(rr), p)
    return out if s.ndim else float(out)


def f_profile(spec: PhaseSpec, r, p: PlasmaParams):
    """The phase along the space-resonant ray: f(r) = Phi(q(r e), r e).

    Equals lambda_sigma(|t_tilde(r)|) - iota_1 lambda_{sigma_1}(t(r))
    - iota_2 lambda_{sigma_2}(r); its zeros are the space-time resonant
    radii, and Psi is f read through the reparametrization s = |t_tilde(r)|.
    """
    pair = _pair_of(spec)
    r = np.asarray(r, dtype=float)
    return _phi_radii(spec, np.abs(t_tilde(spec, r, p)), t_func(pair, r, p), r, p)


def r_fixed_point(p: PlasmaParams) -> float:
    """The radius with t^{bi}(r) = r, where the antiparallel branch closes."""
    return float(_root(lambda r: t_func("bi", r, p) - r, 0.0, _t_sup("bi", p) + 1e-9))


# radial scan of the profile f behind psi_zeros: points, and the top of the
# geometric grid
_PSI_POINTS = 4096
_PSI_R_HI = 64.0


def psi_zeros(spec: PhaseSpec, p: PlasmaParams) -> list:
    """Interior zeros of Psi, located through the profile f.

    Scans f on a geometric radial grid (for the antiparallel phase, on its
    closed branch r in (0, r_fixed_point)), refines all sign changes in one
    array root solve, and measures d/ds Psi there by a central difference.
    Returns dicts with keys r, s, dpsi.  The degenerate zero that several
    phases have at the domain edge itself is excluded by construction.
    """
    sp = _ordered_rep(spec)
    if sp == _DEFP2:
        r0 = r_fixed_point(p)
        grid = np.linspace(r0 * 1e-6, r0 * (1.0 - 1e-9), _PSI_POINTS)
    else:
        grid = np.geomspace(1e-6, _PSI_R_HI, _PSI_POINTS)
    vals = f_profile(sp, grid, p)
    j = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    if not j.size:
        return []
    rz = _root(lambda r: f_profile(sp, r, p), grid[j], grid[j + 1])
    sz = np.abs(t_tilde(sp, rz, p))
    lo, hi = _interval(sp, p)
    inside = (lo <= sz) & (sz <= hi)
    rz, sz = rz[inside], sz[inside]
    h = 1e-6 * np.maximum(sz, 1.0)
    up, down = np.minimum(sz + h, hi), np.maximum(sz - h, lo)
    dpsi = (psi(sp, up, p) - psi(sp, down, p)) / (up - down)
    return [{"r": float(a), "s": float(b), "dpsi": float(c)} for a, b, c in zip(rz, sz, dpsi)]


def ctilde_report(p: PlasmaParams) -> dict:
    """Measured resonant-zero structure against the proved c-tilde table.

    For each ordered case-A phase: the profile value f(0) at the domain
    edge, the interior zeros of Psi with the measured sign of d/ds Psi
    there, and whether that sign matches the table.  Discrepancies are
    reported, never resolved: 'agree' is False when a measured sign differs
    from the proved one, and when a phase proved window-free shows an
    interior zero.
    """
    rows = {}
    for sp in sorted(T_A_ORDERED):
        zeros = psi_zeros(sp, p)
        signs = {int(np.sign(z["dpsi"])) for z in zeros}
        measured = signs.pop() if len(signs) == 1 else (0 if signs else None)
        vacuous = sp in VACUOUS_A
        agree = measured in (None, C_TILDE[sp]) and not (vacuous and zeros)
        rows[sp.key] = {"f0": float(f_profile(sp, 0.0, p)),
                        "zeros": zeros, "measured": measured,
                        "proved": C_TILDE[sp], "vacuous": vacuous,
                        "agree": agree}
    return rows


def caseB_r(spec: PhaseSpec, s: float, p: PlasmaParams) -> dict:
    """Case-B resonant radius: the root r of lambda'_{sigma_2}(r) = lambda'_i(|s - r|).

    The even extension of lambda'_i is C^1 at zero (lambda_i'' vanishes
    there), so the equation has a single root near R_{sigma_2} regardless
    of the ion sign; which side of R_{sigma_2} the near-resonances live on
    is decided by iota_1 afterwards.  The output radius s must be positive
    and within 2^(-D_NUM/5) of R_{sigma_2}.
    """
    c = spec.canonical()
    if c not in T_B:
        raise ValueError(f"{spec.key} is not a case-B phase")
    sigma2 = c.branch2
    R = find_R_sigma(sigma2, p)
    if not (s > 0 and abs(s - R) < 2.0 ** (-D_NUM / 5.0)):
        raise ValueError(f"s = {s:.6g} outside the case-B window around {R:.6g}")
    g = lambda r: lam_prime(sigma2, r, p) - lam_prime("i", abs(s - r), p)  # noqa: E731
    lo = max(R - 2.0 ** (-D_NUM / 10.0), 0.0)
    hi = R + 2.0 ** (-D_NUM / 10.0)
    root = float(_root(g, lo, hi))
    return {"R": R, "r": root, "residual": float(g(root))}


# ---------------------------------------------------------------------------
# shell scans, one sweep row at a time
#
# scan_near_resonant and verify_case_partition run one sweep, _sweep: a
# generator over blocks of |xi| on the rotation-reduced grid xi = s zhat,
# eta = rho (sin theta, 0, cos theta).  A row is one (s, rho) pair with theta
# running over [0, pi]; each block carries |xi - eta| and lambda at it of
# each branch a scanned phase reads there, with shape (block, n_rho,
# n_theta), and lambda, lambda' of every branch at s and rho.
#
# Along a row |xi - eta|^2 = (s^2 + rho^2) - (2 s rho) cos theta, and every
# operation in it rounds monotonically, so the computed |xi - eta| does not
# decrease while the computed cos theta does not increase (checked once per
# sweep).  Where the computed lambda_{sigma_1} table does not decrease either
# (checked per row and branch, and shared by the 21 phases reading that
# branch), Phi = (lambda_sigma(s) - iota_1 lambda_{sigma_1}) - iota_2
# lambda_{sigma_2}(rho) is a monotone function of that table alone, and
# rounding keeps it monotone: the computed Phi at the two ends of the row
# bound every computed Phi on it.  So _row_search reads the ends, keeps the
# rows whose range meets [-bound, bound] (there {|Phi| <= bound} is one
# contiguous theta run) and forms Phi on those rows only; |Xi|^2, lambda' at
# |xi - eta| and the cosine follow on the run's samples (_xi2).  _near_rows
# turns a row search into sample rows (|xi|, |xi - eta|, |eta|, |Phi|, |Xi|),
# the one representation of a near-resonant sample.  A row whose
# table decreases anywhere is always kept and evaluated in full.  Every kept
# value comes from the same expression, in the same order, as a pass over the
# whole block would use, so the samples are bit-identical to that pass.
#
# _home bins radii into dyadic shells; each caller keeps its own reduction.


def admissible_cases(pc: PhaseClass, k: int, k1: int, k2: int,
                     D_num: int = D_NUM) -> tuple:
    """Case letters the shell trichotomy allows for a classified phase."""
    out = []
    if pc.a and -D_num / 2 <= min(k, k1, k2) and max(k, k1, k2) <= D_num / 2:
        out.append("A")
    if pc.b and min(k1, k2) <= -D_num / 3 and k >= -D_num / 4:
        out.append("B")
    if pc.c and k <= -D_num / 4:
        out.append("C")
    return tuple(out)


def stronglyell_deltas(k1, k2, D_num: int = D_NUM) -> tuple:
    """(delta_1, delta_2) thresholds on |Xi| and |Phi| for shells (k1, k2),
    scalars or arrays."""
    m = np.maximum(np.maximum(k1, k2), 0)
    return 2.0 ** (-D_num - 4 * m), 2.0 ** (-D_num - m)


def _home(x):
    """Home dyadic shell floor(log2 x) of each radius (as floats)."""
    return np.floor(np.log2(x))


def _sweep(p: PlasmaParams, s_shells: tuple, rho_shells: tuple,
           resolution: tuple, block: int, branches):
    """Tables of the sweep over xi = s zhat, eta = rho (sin theta, 0, cos theta),
    one per block of s; s and rho span the dyadic shells s_shells = (lo, hi)
    and rho_shells padded by 4 octaves, theta spans [0, pi] in n_theta points.

    ``resolution`` = (n_s, n_rho, n_theta), three integers >= 2.  lambda at
    |xi - eta| is tabulated for ``branches`` only, and ``mono`` flags, per
    such branch, the rows along which the computed |xi - eta| and the lambda
    table at it do not decrease.
    """
    res = tuple(resolution) if isinstance(resolution, (tuple, list)) else ()
    if len(res) != 3 or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in res):
        raise ValueError(f"resolution must be three integers >= 2, got {resolution!r}")
    n_s, n_r, n_t = res
    s_all = np.geomspace(2.0 ** (s_shells[0] - 4), 2.0 ** (s_shells[1] + 4), n_s)
    rho = np.geomspace(2.0 ** (rho_shells[0] - 4), 2.0 ** (rho_shells[1] + 4), n_r)
    ct = np.cos(np.linspace(0.0, np.pi, n_t))
    ct_falls = bool(np.all(ct[1:] <= ct[:-1]))
    rh = rho[None, :, None]
    jet_r = {br: jet(br, rho, p, 1) for br in BRANCHES}
    for i0 in range(0, n_s, block):
        sb = s_all[i0:i0 + block]
        st = sb[:, None, None]
        zm = np.sqrt(np.maximum(st * st + rh * rh - 2.0 * st * rh * ct, 0.0))
        lam_z = {br: lam(br, zm, p) for br in branches}
        yield {"s": sb, "rho": rho, "ct": ct, "zm": zm,
               "lam_s": {br: lam(br, sb, p) for br in BRANCHES}, "jet_r": jet_r, "lam_z": lam_z,
               "mono": {br: ct_falls & np.all(lz[..., 1:] >= lz[..., :-1], axis=-1)
                        for br, lz in lam_z.items()}}


def _phase(spec: PhaseSpec, ls, lz, lr):
    """Phi from lambda_sigma(s), lambda_{sigma_1}(|xi - eta|) and lambda_{sigma_2}(rho).

    Every sweep value of Phi is formed here, in this one order.
    """
    return ls - spec.iota1 * lz - spec.iota2 * lr


def _inputs(spec: PhaseSpec, t: dict) -> tuple:
    """(ls, lz, lr) of a phase on sweep table t; ls and lr are views with one
    entry per row, a last axis of length 1."""
    lz = t["lam_z"][spec.branch1]
    shape = lz.shape[:-1] + (1,)
    return (np.broadcast_to(t["lam_s"][spec.sigma][:, None, None], shape), lz,
            np.broadcast_to(t["jet_r"][spec.branch2][0][None, :, None], shape))


def _row_search(spec: PhaseSpec, ls, lz, lr, mono, bound: float) -> tuple:
    """The rows that can hold a sample with |Phi| <= bound, and Phi along them.

    lz holds lambda_{sigma_1} along each row (theta on the last axis), ls and
    lr one value per row (a last axis of length 1), and ``mono`` flags the
    rows where lz does not decrease.  On such a row the computed Phi is
    monotone, so the row is kept only if the range between its two end
    values meets [-bound, bound]; a row that is not monotone is always kept.
    Returns (row indices, Phi on those rows, Phi at both ends of every row).
    """
    ends = _phase(spec, ls, lz[..., [0, -1]], lr)
    lo, hi = ends.min(axis=-1), ends.max(axis=-1)
    rows = np.nonzero(~mono | ((lo <= bound) & (hi >= -bound)))
    return rows, _phase(spec, ls[rows], lz[rows], lr[rows]), ends


def _xi2(spec: PhaseSpec, t: dict, p: PlasmaParams, ii, jj, kk):
    """|Xi|^2 at the sweep points (ii, jj, kk) of table t."""
    zm = t["zm"][ii, jj, kk]
    a = lam_prime(spec.branch1, zm, p)
    b = t["jet_r"][spec.branch2][1][jj]
    with np.errstate(invalid="ignore", divide="ignore"):
        cosb = (t["s"][ii] * t["ct"][kk] - t["rho"][jj]) / zm
        return a * a + b * b - (2.0 * spec.iota1 * spec.iota2) * a * b * cosb


def _elliptic_floor(spec: PhaseSpec, t: dict, wr, w_ends, rows, aphi, ends,
                    floor: float) -> float:
    """min(floor, min |Phi| w over table t) with w = max(|xi - eta|, rho, 1).

    wr = max(rho, 1) per rho and w_ends = w at both ends of every row;
    ``rows``, ``aphi`` and ``ends`` come from _row_search.  |Phi| is exact on
    those rows.  Every other row is monotone with |Phi| above the search
    bound, so its least |Phi| sits at an end, and as rounding is monotone
    fl(min |Phi| max(rho, 1)) bounds every product on the row from below.
    The floor is seeded with the products at both ends of every row, and
    only the rows whose bound does not exceed it are evaluated in full.
    """
    zm = t["zm"]
    floor = min(floor, np.min(aphi * np.maximum(zm[rows], wr[rows[1]][:, None]), initial=np.inf))
    aend = np.abs(ends)
    floor = min(floor, np.min(aend * w_ends))
    bound = aend.min(axis=-1) * wr
    bound[rows] = np.inf
    rest = np.nonzero(bound <= floor)
    if rest[0].size:
        ls, lz, lr = _inputs(spec, t)
        aphi = np.abs(_phase(spec, ls[rest], lz[rest], lr[rest]))
        floor = min(floor, np.min(aphi * np.maximum(zm[rest], wr[rest[1]][:, None])))
    return float(floor)


def _near_rows(spec: PhaseSpec, t: dict, p: PlasmaParams, rows, aphi,
               phi_bound: float, xi_bound: float) -> tuple:
    """Columns (|xi|, |xi - eta|, |eta|, |Phi|, |Xi|) of the points with
    |Phi| <= phi_bound and |Xi| <= xi_bound on the rows _row_search found in
    table t (``aphi`` = |Phi| there); |Xi|^2 is formed on the first set only."""
    r, kk = np.nonzero(aphi <= phi_bound)
    if not r.size:
        return (np.zeros(0),) * 5
    ii, jj = rows[0][r], rows[1][r]
    Xi2 = _xi2(spec, t, p, ii, jj, kk)
    hit = Xi2 <= xi_bound * xi_bound
    r, ii, jj, kk, Xi2 = r[hit], ii[hit], jj[hit], kk[hit], Xi2[hit]
    return (t["s"][ii], t["zm"][ii, jj, kk], t["rho"][jj], aphi[r, kk],
            np.sqrt(np.maximum(Xi2, 0.0)))


def scan_near_resonant(spec: PhaseSpec, k: int, k1: int, k2: int,
                       delta1: float, delta2: float, p: PlasmaParams,
                       resolution: tuple = (256, 256, 128)) -> np.ndarray:
    """Grid samples near shell (k, k1, k2) with |Xi| <= delta1, |Phi| <= delta2.

    The scan is exhaustive over the rotation-reduced grid xi = s zhat, eta =
    rho (sin theta, 0, cos theta): |xi| spans the dyadic shell k and |eta|
    the shell k2, each padded by 4 octaves on both sides, and |xi - eta| is
    kept within 4 octaves of shell k1.  The samples therefore fall in many
    home triples (`_home`) around (k, k1, k2), not only in that one.
    Returns one row (|xi|, |xi - eta|, |eta|, |Phi|, |Xi|) per sample, an
    (N, 5) float array in sweep order (|xi|, then |eta|, then theta).
    """
    out = [np.zeros((0, 5))]
    for t in _sweep(p, (k, k), (k2, k2), resolution, block=64, branches=(spec.branch1,)):
        rows, Phi, _ = _row_search(spec, *_inputs(spec, t), t["mono"][spec.branch1], delta2)
        cols = np.column_stack(_near_rows(spec, t, p, rows, np.abs(Phi), delta2, delta1))
        zm = cols[:, 1]
        out.append(cols[(zm >= 2.0 ** (k1 - 4)) & (zm <= 2.0 ** (k1 + 4))])
    return np.concatenate(out)


# the cutoffs D that case_d_window searches
D_WINDOW = (4, 48)


def case_d_window(pc: PhaseClass, k: int, k1: int, k2: int) -> dict:
    """Cutoff values D in D_WINDOW for which each case admits the triple.

    The case inequalities compare shells against fractions of a cutoff that
    the underlying analysis takes arbitrarily large, with thresholds that
    shrink along.  Run at a fixed cutoff and fixed thresholds, a triple near
    a case boundary is admissible only for a window of cutoffs; reporting
    the window says where the assignment lives instead of forcing a yes/no
    at one value.
    """
    d_lo, d_hi = D_WINDOW
    admitted = {c: [] for c in "ABC"}
    for D in range(d_lo, d_hi + 1):
        for c in admissible_cases(pc, k, k1, k2, D):
            admitted[c].append(D)
    # each case condition is an interval in D
    return {c: (ds[0], ds[-1]) for c, ds in admitted.items() if ds}


@dataclass
class PartitionReport:
    d_num: int
    shells: tuple
    resolution: tuple
    refined: bool = False
    hits: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)
    elliptic_floor: dict = field(default_factory=dict)

    @property
    def sell_or_nr_hits(self) -> dict:
        out = {}
        for key, shells in self.hits.items():
            cls = classify(PhaseSpec.parse(key))
            if (cls.sell or cls.nr) and shells:
                out[key] = sorted(shells)
        return out

    @property
    def ok(self) -> bool:
        return not self.unresolved and not self.sell_or_nr_hits

    def in_box(self, triple) -> bool:
        kmin, kmax = min(self.shells), max(self.shells)
        return all(kmin <= k <= kmax for k in triple)

    def summary(self) -> str:
        lines = [f"D_num = {self.d_num}, shells {self.shells[0]}..{self.shells[-1]}, "
                 f"resolution {self.resolution}, delta base {2.0 ** -self.d_num:.3e}, "
                 f"refined = {self.refined}"]
        for key in sorted(self.hits):
            shells = self.hits[key]
            if not shells:
                continue
            cls = classify(PhaseSpec.parse(key))
            n = sum(v[0] for v in shells.values())
            lines.append(f"  {key:10s} [{cls.labels:>3s}] near-resonant samples: {n:7d} "
                         f"in {len(shells):3d} home triples")
        lines.append(f"elliptic/nonresonant phases with hits: {len(self.sell_or_nr_hits)}")
        lines.append(f"triples outside the case conditions at D_num={self.d_num}: "
                     f"{len(self.violations)}")
        for key, triple, wins in self.violations:
            span = ", ".join(f"{c}:{lo}..{hi}" for c, (lo, hi) in sorted(wins.items()))
            lines.append(f"    {key:10s} {triple}  admissible at D_num {span or 'none'}")
        lines.append(f"triples outside every case at every cutoff: {len(self.unresolved)}")
        return "\n".join(lines)


# one refined census reads the probes of its 20 resonant phases
@lru_cache(maxsize=32)
def _on_manifold_probes(spec: PhaseSpec, p: PlasmaParams, base: float) -> tuple:
    """Deterministic (xi, eta) probes along this phase's exact resonant geometry.

    Uniform grids miss the thin pieces: the gradient-matching condition pins
    one input radius to within ~delta/lambda'' of a fixed value, far below
    any affordable grid spacing.  Seeding from the solved geometry instead
    of hoping a gridpoint lands there is what makes the scan exhaustive.
    Returns xi and eta stacked as (3, N) arrays, both along the z axis; they
    are cached per (spec, p, base) and read-only.
    """
    xis, etas = [np.zeros(0)], [np.zeros(0)]

    def emit(rep, xi_s, eta_r):
        # probes for the representative's labeling; convert if the scanned
        # spec is its swap partner (same phase value, legs exchanged)
        xis.append(xi_s)
        etas.append(xi_s - eta_r if rep != spec else eta_r)

    rep = spec if spec in T_A_ORDERED else spec.swapped()
    if rep in T_A_ORDERED:
        # sphere hits: exact zero of the radial profile, plus the window the
        # transversal derivative allows on either side
        for z in psi_zeros(rep, p):
            halfwidth = 0.8 * base / (abs(z["dpsi"]) * 2.0 + 1e-30)
            r = z["r"] + np.linspace(-halfwidth, halfwidth, 15)
            r = r[r > 0]
            emit(rep, t_tilde(rep, r, p), r)
        # endpoint slivers: the profile vanishes at r -> 0 for some phases,
        # so the whole low-r stretch of the manifold sits under the threshold
        r_hi = r_fixed_point(p) * (1.0 - 1e-9) if rep == _DEFP2 else 0.25
        r = np.geomspace(2.0 ** -12, r_hi, 300)
        emit(rep, t_tilde(rep, r, p), r)

    brep = spec if spec in T_B else spec.swapped()
    if brep in T_B:
        # degenerate hits: eta-leg radius pinned where its group velocity
        # matches the zero-frequency ion one, other input small
        w = np.geomspace(2.0 ** -12, 2.0 ** -5, 160)
        rho_star = lam_prime_inverse(brep.branch2, lam_prime("i", w, p), p)
        s = rho_star + brep.iota1 * w
        pos = s > 0
        emit(brep, s[pos], rho_star[pos])

    xi_z, eta_z = np.concatenate(xis), np.concatenate(etas)
    zero = np.zeros_like(xi_z)
    out = np.stack([zero, zero, xi_z]), np.stack([zero, zero, eta_z])
    for arr in out:
        arr.flags.writeable = False
    return out


def verify_case_partition(p: PlasmaParams, shells=range(-8, 5),
                          D_num: int = D_NUM, resolution: tuple = (1024, 512, 256),
                          refine: bool = True) -> PartitionReport:
    """Exhaustive near-resonance census, binned by home dyadic shells.

    One global rotation-reduced grid is scanned for every phase, one sweep
    row (|xi|, |eta| fixed) at a time: rounding is monotone, so the computed
    Phi is monotone along a row whose computed lambda table does not
    decrease, and Phi is formed only on rows whose range between the end
    values meets [-2^-D_num, 2^-D_num], |Xi| only on the samples found there.
    A row whose table decreases is evaluated in full, so every value kept is
    bit-identical to a pass over every grid point.  Each sample with |Phi|,
    |Xi| <= 2^-D_num that passes the shell-weighted thresholds is charged to
    the dyadic shell of each of its three radii.  ``elliptic_floor`` is
    min |Phi| max(|xi - eta|, |eta|, 1), the pointwise analogue of the
    2^{max(k1, k2, 0)} shell weight (_elliptic_floor).

    With refine on, exact-geometry probes are added so detection does not
    depend on the grid straddling the thin gradient-matched regions.  Sell
    and nonresonant phases must come back empty.  For the rest, every
    nonempty home triple inside the scanned box is checked against the case
    conditions at this D_num; failures are listed together with the cutoff
    window that admits them, and triples no cutoff admits land in
    `unresolved`.  ``shells`` must hold at least one integer, and
    ``resolution`` = (n_s, n_rho, n_theta) must be three integers >= 2.
    """
    shells = tuple(shells)
    if not shells or not all(isinstance(k, (int, np.integer)) for k in shells):
        raise ValueError(f"shells must be a nonempty run of integers, got {shells!r}")
    kmin, kmax = min(shells), max(shells)
    base = 2.0 ** (-D_num)

    report = PartitionReport(D_num, shells, resolution, refined=refine,
                             hits={sp.key: {} for sp in ALL_PHASES},
                             elliptic_floor={sp.key: np.inf for sp in ALL_PHASES})
    samples = {sp.key: [] for sp in ALL_PHASES}  # rows (k, k1, k2, |Phi|, |Xi|)

    def keep(key, s, z, r, aph, axi):
        # home shells plus the per-sample shell-weighted threshold test
        if not s.size:
            return
        good = (s > 0) & (z > 0) & (r > 0) & np.isfinite(aph) & np.isfinite(axi)
        s, z, r, aph, axi = s[good], z[good], r[good], aph[good], axi[good]
        k, k1, k2 = _home(s), _home(z), _home(r)
        d_xi, d_phi = stronglyell_deltas(k1, k2, D_num)
        strict = (aph <= d_phi) & (axi <= d_xi)
        if strict.any():
            samples[key].append(np.column_stack([
                k[strict], k1[strict], k2[strict], aph[strict], axi[strict]]))

    # the block size bounds the memory of the sweep tables
    for t in _sweep(p, (kmin, kmax), (kmin, kmax), resolution, block=16,
                    branches=BRANCHES):
        wr = np.maximum(t["rho"], 1.0)
        w_ends = np.maximum(t["zm"][..., [0, -1]], wr[:, None])
        for sp in ALL_PHASES:
            rows, Phi, ends = _row_search(sp, *_inputs(sp, t), t["mono"][sp.branch1], base)
            aphi = np.abs(Phi)
            report.elliptic_floor[sp.key] = _elliptic_floor(
                sp, t, wr, w_ends, rows, aphi, ends, report.elliptic_floor[sp.key])
            keep(sp.key, *_near_rows(sp, t, p, rows, aphi, base, base))

    if refine:
        for sp in ALL_PHASES:
            if not classify(sp).resonant:
                continue
            xiv, etav = _on_manifold_probes(sp, p, base)
            keep(sp.key, _norm3(xiv), _norm3(xiv - etav), _norm3(etav),
                 np.abs(phi(sp, xiv, etav, p)), _norm3(xi(sp, xiv, etav, p)))

    for sp in ALL_PHASES:
        if not samples[sp.key]:
            continue
        rows = np.concatenate(samples[sp.key])
        # one key per home triple, offset to start at 0: key order is
        # lexicographic order, so the occupied keys come out sorted
        homes = rows[:, :3].astype(int)
        lo = homes.min(axis=0)
        span = homes.max(axis=0) - lo + 1
        key = np.ravel_multi_index((homes - lo).T, span)
        counts = np.bincount(key, minlength=np.prod(span))
        occupied = np.flatnonzero(counts)
        inv = np.cumsum(counts > 0)[key] - 1
        triples = np.column_stack(np.unravel_index(occupied, span)) + lo
        counts = counts[occupied]
        min_phi = np.full(len(triples), np.inf)
        min_xi = np.full(len(triples), np.inf)
        np.minimum.at(min_phi, inv, rows[:, 3])
        np.minimum.at(min_xi, inv, rows[:, 4])
        report.hits[sp.key] = {
            tuple(tr): [int(n), float(a), float(x)]
            for tr, n, a, x in zip(triples.tolist(), counts, min_phi, min_xi)}

    for sp in ALL_PHASES:
        cls = classify(sp)
        if cls.sell or cls.nr:
            continue  # any hit is already reported through sell_or_nr_hits
        for triple in sorted(report.hits[sp.key]):
            if not report.in_box(triple):
                continue
            if admissible_cases(cls, *triple, D_num=D_num):
                continue
            wins = case_d_window(cls, *triple)
            report.violations.append((sp.key, triple, wins))
            if not wins:
                report.unresolved.append((sp.key, triple))
    return report
