"""Dispersive variables: exact diagonalization of the linearized system.

The linearization of the two-fluid system couples all six fields.  Three
complex unknowns decouple it,

    U_e = (2 sqrt(1+R^2))^{-1} [-sqrt(eps) |grad|^{-1} Lam_e n
            + R |grad|^{-1} Lam_e rho - i sqrt(eps) h + i R g],
    U_i = (2 sqrt(1+R^2))^{-1} [sqrt(eps) R |grad|^{-1} Lam_i n
            + |grad|^{-1} Lam_i rho + i sqrt(eps) R h + i g],
    U_b = [Lam_b |grad|^{-1} Q B - i Q^2 E] / 2,

with h = -|grad|^{-1} div v and g = -|grad|^{-1} div u, and each solves

    (d_t + i Lam_sigma) U_sigma = N_sigma,   sigma in {e, i, b},

with a quadratic right-hand side.  This module implements the change of
variables, its inverse, and N_sigma two independent ways.  Route one is the
quadratic part of the solver's right-hand side, mapped by the exact linear
change of variables; route two is a lattice convolution against the explicit
multiplier catalog.  The routes share the radial symbol tables and the
change of variables, nothing else: route one reads the solver's products
(physics._products), route two the catalog's symbols, so their agreement
exercises every entry of the catalog and every product the solver forms.
Both return N as a `DispState`, like U.  The catalog is evaluated one pair
at a time: one function per pair class forms the factors a pair's rows share
once and yields only the rows that do not vanish by construction, 140 of the
61 x 5 row components.

Zero-mode conventions follow module spectral: symbols carrying a 1/|xi|
that does not cancel drop the xi = 0 mode (mean-zero perturbations), while
Lam_i/|xi| is continued through the origin by its finite limit.

The maps between the two sets of unknowns are per mode, so they run on the
support box of their input (`_Box`), as route one does on its products'
box: the x and y modes holding a nonzero entry of some row, mode 0 always
added, times the z prefix 0..K, as ``spectral._support`` finds it.  Every
table they read (xi, |xi|, 1/|xi| and the radial symbols) is indexed by
the box, norms weight each box entry by its Hermitian multiplicity, and
the output is zero-filled and written on the box only.  A full-support state's box is the whole half lattice.  The
``analyse`` states, band-limited to |m| <= 4, hold 405 of the 135,168 modes
of the 64^3 half lattice.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .dispersion import coupling, lam, q_i
from .params import PlasmaParams
from .physics import FIELDS, ROW_FIELDS, ROWS, PhysState, _products, _residuals, ep_electric
from .spectral import (
    Grid,
    _inv0,
    _multiplicity,
    _negate_modes,
    _support,
    _zero_nyquist,
    curl,
    div,
    full_spectrum,
    hermitize,
    inv_modulus,
    is_hermitian,
    l2_norm,
    q2_apply,
    q_apply,
    riesz,
)

__all__ = [
    "SPECIES",
    "CATALOG_PAIRS",
    "DispState",
    "species_split",
    "to_dispersive",
    "from_dispersive",
    "nonlinearity_direct",
    "nonlinearity_multiplier",
    "multiplier",
    "dispersive_residual",
    "free_evolve",
    "profile",
    "hn_norm",
]


# ---------------------------------------------------------------------------
# species bookkeeping

SPECIES = ("e+", "e-", "i+", "i-", "b+1", "b+2", "b+3", "b-1", "b-2", "b-3")

_BP = ("b+1", "b+2", "b+3")
_BM = ("b-1", "b-2", "b-3")

# Ordered (mu, nu) pairs of the quadratic interaction; the magnetosonic
# entries always sit in the second slot of a mixed pair, and the pair list
# is unordered in the sense that (e-, e+) never appears.
CATALOG_PAIRS = tuple(
    [("e+", "e+"), ("e+", "e-"), ("e-", "e-"),
     ("i+", "i+"), ("i+", "i-"), ("i-", "i-")]
    + [(a, b) for a in _BP for b in _BP]
    + [(a, b) for a in _BP for b in _BM]
    + [(a, b) for a in _BM for b in _BM]
    + [("e+", "i+"), ("e+", "i-"), ("e-", "i+"), ("e-", "i-")]
    + [(mu, nu) for mu in ("e+", "e-", "i+", "i-") for nu in _BP + _BM]
)

_PAIR_SET = frozenset(CATALOG_PAIRS)


def species_split(mu: str):
    """Decompose a member of the species index set into (branch, sign, component).

    The component is a 0-based axis index for magnetosonic entries, None for
    the two acoustic branches.
    """
    if mu not in SPECIES:
        raise ValueError(f"unknown species index {mu!r}")
    branch, sign = mu[0], mu[1]
    comp = int(mu[2]) - 1 if branch == "b" else None
    return branch, sign, comp


# ---------------------------------------------------------------------------
# state container and radial symbol tables


def _row(key) -> property:
    """The rows ``key`` of U = P + iM in the full layout, as a new read-only array."""
    def full(d: "DispState") -> np.ndarray:
        P, M = d.buf[:5][key], d.buf[5:][key]
        out = full_spectrum(d.grid, P - 1j * M)  # U(-xi) = conj (P - iM)(xi): the tail
        out[..., : d.grid.n // 2 + 1] = P + 1j * M
        out.flags.writeable = False
        return out
    return property(full)


class DispState:
    """The dispersive unknowns, or their right-hand sides, at time t as
    U = P + iM, P and M real fields on the half layout of module spectral:
    ``buf`` (10, n, n, n//2 + 1) holds P of U_e, U_i, U_b1..3 in rows 0:5 and
    their M in rows 5:10, and the constructor wraps it, not a copy.  ``U_e``,
    ``U_i``, ``U_b`` are read-only full-layout copies of U, yielded in turn by iteration."""

    U_e, U_i, U_b = _row(0), _row(1), _row(slice(2, 5))

    def __init__(self, grid: Grid, buf: np.ndarray, t: float):
        self.grid, self.buf, self.t = grid, buf, t

    def __iter__(self):
        yield self.U_e
        yield self.U_i
        yield self.U_b


# ---------------------------------------------------------------------------
# the change of variables and its inverse


class _Box:
    """The support box of the rows of a half-layout ``buf`` (module
    docstring): ``index`` selects it, ``sub`` holds the rows' entries there,
    and mode 0 sits at its index (0, 0, 0), where ``q2_apply`` zeroes it.
    The box stands in for the grid in the multipliers of module spectral
    that the maps call, which read ``xi`` and ``inv_xi_mag`` through
    ``tables``; ``sym`` is the radial table of `_symbols` on it, |xi| included."""

    def __init__(self, grid: Grid, buf: np.ndarray, p: PlasmaParams):
        sx, sy, sz, sub = _support(grid, buf)
        if not sz.size or sx[0] or sy[0]:  # mode 0 joins the box
            sx, sy, sz = np.union1d(sx, 0), np.union1d(sy, 0), np.arange(max(sz.size, 1))
            sub = buf[np.ix_(range(len(buf)), sx, sy, sz)]
        self.grid, self.sub, self.index = grid, sub, (slice(None),) + np.ix_(sx, sy, sz)
        self.weight = _multiplicity(grid, sz)
        self.xi, self.inv_xi_mag = grid.half.xi[self.index], grid.half.inv_xi_mag[self.index[1:]]
        self.sym = _symbols(grid, p).at(self.index[1:])

    def tables(self, coef: np.ndarray) -> "_Box":
        return self

    def norm(self, coef: np.ndarray) -> float:
        """`l2_norm` of the half-layout field that is ``coef`` on the box and 0 off it."""
        sq = coef.real**2 + coef.imag**2
        scale = (2.0 * self.grid.box_half / self.grid.n) ** 1.5
        return scale * math.sqrt(float(np.sum(sq * self.weight)))

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """The half-layout rows that are ``rows`` on the box and 0 off it."""
        n = self.grid.n
        out = np.zeros((len(rows), n, n, n // 2 + 1), dtype=complex)
        out[self.index] = rows
        return out


def to_dispersive(s: PhysState, p: PlasmaParams) -> DispState:
    """Map a physical state to the dispersive unknowns.

    The map reads B only through Q and drops the spatial means of v, u, E,
    B, so it is one-to-one exactly on the constraint manifold: a violation
    of the constraints raises a warning rather than an error, and a state
    that is not real (possible only on the self-mirrored planes of the half
    layout) raises.  Each unknown is U = P + iM, its real fields P and M
    formed per mode on the support box of ``s``, as are the constraint
    residuals and the field scale they are judged by.  The reality check
    reads whole rows, since a box entry's mirror may lie off the box.
    """
    for name, c in zip(ROW_FIELDS, s.buf):
        if not is_hermitian(c, tol=1e-10):
            raise ValueError(f"field {name} is not real (coefficients lack conjugate symmetry)")
    box = _Box(s.grid, s.buf, p)
    c = PhysState(box, box.sub, s.t)
    viol = max(box.norm(r) for _, r in _residuals(c, p))
    scale = max(box.norm(getattr(c, name)) for name in FIELDS)
    if viol > 1e-8 * max(scale, 1e-12):
        warnings.warn(
            f"state violates constraints (worst residual {viol:.2e}); "
            "the reconstruction will keep only the consistent part", RuntimeWarning, stacklevel=2)
    h, gg = (-inv_modulus(box, div(box, w)) for w in (c.v, c.u))
    sub = np.empty((10,) + h.shape, dtype=complex)
    sub[2:5] = 0.5 * box.sym.lam_b * inv_modulus(box, q_apply(box, c.B))
    _dispersive_rows(box, p, sub, c.n, c.rho, h, gg, c.E)
    return DispState(s.grid, box.scatter(sub), s.t)


def _dispersive_rows(box: _Box, p: PlasmaParams, out: np.ndarray, n, rho, h, gg, E) -> None:
    """Write P and M of U_e and U_i and M_b = -Q^2 E/2 into the rows 0, 1, 5,
    6 and 7:10 of ``out``, per mode on ``box`` from n, rho, h = -|xi|^-1 div v,
    g = -|xi|^-1 div u and E there; P_b, the rows 2:5, is the caller's."""
    sym = box.sym
    seps, R, half = np.sqrt(p.epsilon), sym.R, 0.5 * sym.norm
    P, M = out[:5], out[5:]
    P[0] = half * sym.out_over_mod("e") * (R * rho - seps * n)  # zero mode dropped
    P[1] = half * sym.qi * (seps * R * n + rho)
    M[0] = half * (R * gg - seps * h)
    M[1] = half * (seps * R * h + gg)
    M[2:] = -0.5 * q2_apply(box, E)


def from_dispersive(d: DispState, p: PlasmaParams) -> PhysState:
    """Reconstruct the physical fields; real, with div B = 0 and Gauss law
    holding by construction.  They are per-mode combinations of the rows of
    ``d.buf``, U + Ubar = 2P and U - Ubar = 2iM, formed on their support box
    and zero off it, with the Nyquist planes zeroed."""
    box = _Box(d.grid, d.buf, p)
    sym = box.sym
    R, nrm2, ieps = sym.R, 2.0 * sym.norm, p.epsilon ** -0.5

    P, M = box.sub[:5], box.sub[5:]
    # U_b enters the fields through its transverse part only; projecting here
    # keeps the reconstruction admissible for arbitrary coefficient input
    re_b, im_b = q2_apply(box, P[2:]), q2_apply(box, M[2:])

    r_le, inv_qi = sym.mod_over_branch("e"), sym.mod_over_branch("i")
    c = PhysState(box, np.empty((14,) + P.shape[1:], dtype=complex), d.t)
    c.n = nrm2 * ieps * (-r_le * P[0] + R * inv_qi * P[1])
    c.rho = nrm2 * (R * r_le * P[0] + inv_qi * P[1])
    h = -nrm2 * ieps * (M[0] - R * M[1])
    gg = nrm2 * (R * M[0] + M[1])

    a = re_b / sym.lam_b  # the vector potential-like combination
    c.v = riesz(box, h) + (2.0 / p.epsilon) * a
    c.u = riesz(box, gg) - 2.0 * a
    c.E = ep_electric(box, c.n, c.rho) - 2.0 * im_b
    c.B = 2.0 * curl(box, a)
    out = PhysState(d.grid, box.scatter(c.buf), d.t)
    _zero_nyquist(d.grid, out.buf)
    return out


# ---------------------------------------------------------------------------
# nonlinearity, route one: the solver's quadratic terms


def nonlinearity_direct(s: PhysState, p: PlasmaParams) -> DispState:
    """The quadratic right-hand sides from the physical fields, as a DispState at s.t.

    The change of variables is linear and diagonalizes the linear part, so
    N_sigma is :func:`to_dispersive` of the quadratic part of :func:`physics.rhs`,
    n_t = -div(n v), rho_t = -div(rho u), v_t = -grad(|v|^2)/2,
    u_t = -grad(|u|^2)/2, E_t = n v - rho u and B_t = 0, read per mode from
    the solver's products (``physics._products``) on their support box, the
    2/3 band of the dealiasing rule: h and g of the map are -|xi| |v|^2/2 and
    -|xi| |u|^2/2, M_b is -Q^2(n v - rho u)/2, and P_b, the real part
    (N_b + bar N_b)/2 of N_b, is exactly 0.  Subtracting the linear
    tendencies from rhs(s) would cancel O(s) terms to leave O(s^2), losing
    digits as s gets small.  The M_b rows are hermitized, so that the real
    part of N_b is exactly zero on the self-mirrored planes too.
    """
    box = _Box(s.grid, _products(s.grid, s.buf), p)
    hat, r = box.sub, box.sym.r
    Je, Ji = hat[ROWS["v"]], hat[ROWS["u"]]
    rows = np.zeros((10,) + hat.shape[1:], dtype=complex)
    _dispersive_rows(box, p, rows, -div(box, Je), -div(box, Ji), -0.5 * r * hat[0],
                     -0.5 * r * hat[1], Je - Ji)
    d = DispState(s.grid, box.scatter(rows), s.t)
    d.buf[7:10] = hermitize(d.buf[7:10])
    return d


# ---------------------------------------------------------------------------
# nonlinearity, route two: the explicit multiplier catalog

# Signs (cA, cB, cC) of an acoustic pair's electron row on the three
# geometry kernels
#   A = Lam_out(xi) |zeta| (xi.eta)   / (2 |xi| |eta| Lam_1(zeta)),
#   B = Lam_out(xi) |eta|  (xi.zeta)  / (2 |xi| |zeta| Lam_2(eta)),
#   C = |xi| (zeta.eta) / (2 |zeta| |eta|),
# keyed by (same/cross species, sign of mu, sign of nu).  Two identities give
# the pair's other rows from the same entry: the ion row's signs are their
# negatives, and the b row's coefficients of
#   P  = (|zeta|/Lam_1(zeta)) eta_beta  / |eta|,
#   P' = (|eta| /Lam_2(eta))  zeta_beta / |zeta|
# are +(cA, cB)/2 for a same-species pair and -(cA, cB)/2 for a cross pair.
_SIGNS = {
    ("same", "+", "+"): (1.0, 0.0, 0.5),
    ("same", "+", "-"): (-1.0, 1.0, -1.0),
    ("same", "-", "-"): (-1.0, 0.0, 0.5),
    ("cross", "+", "+"): (-1.0, -1.0, -1.0),
    ("cross", "+", "-"): (1.0, -1.0, 1.0),
    ("cross", "-", "+"): (-1.0, 1.0, 1.0),
    ("cross", "-", "-"): (1.0, 1.0, -1.0),
}


class _Radius:
    """Radial symbols at the radii ``r``: the lattice |xi| in the half layout
    (see `_symbols`), or one of |xi|, |zeta|, |eta| over a tile of catalog
    points.  Every symbol is evaluated once, when the table is built: qi is
    Lam_i/r, regular through the origin, and lam_<b> is Lam_b for each b in
    ``branches``."""

    def __init__(self, r: np.ndarray, p: PlasmaParams, branches: str):
        self.r, self.inv, self.R = r, _inv0(r), coupling(r, p)
        self.norm = 1.0 / np.sqrt(1.0 + self.R ** 2)
        self.qi = q_i(r, p)
        for b in branches:
            setattr(self, f"lam_{b}", lam(b, r, p))

    def at(self, index) -> "_Radius":
        """The table at the entries ``index`` of its arrays."""
        out = _Radius.__new__(_Radius)
        out.__dict__.update((k, v[index]) for k, v in vars(self).items())
        return out

    def out_over_mod(self, sigma: str):
        """Lam_sigma(r)/r for sigma in {e, i}, factored for the ion branch and
        0 at the origin otherwise."""
        return self.qi if sigma == "i" else self.lam_e * self.inv

    def mod_over_branch(self, branch: str):
        """r/Lam_branch(r); regular everywhere on both acoustic branches."""
        return 1.0 / self.qi if branch == "i" else self.r / self.lam_e


@lru_cache(maxsize=8)
def _symbols(grid: Grid, p: PlasmaParams) -> _Radius:
    """The radial table at the lattice |xi| in the half layout, read by the
    dispersive maps."""
    return _Radius(grid.half.xi_mag, p, "eib")


class _Block:
    """Catalog points (xi, zeta, eta), shapes (3, ...) broadcasting against
    each other, with the radial table at each of the three and the dot
    products xe = xi.eta, xz = xi.zeta and ze = zeta.eta.  The convolution
    builds one per tile, and every row of every catalog pair reads it."""

    def __init__(self, xi, zeta, eta, p: PlasmaParams):
        self.xi, self.zeta, self.eta, self.p = xi, zeta, eta, p
        # no catalog row reads lam_i, nor lam_b at xi
        self.x, self.z, self.e = (_Radius(np.sqrt(np.sum(v * v, 0)), p, b)
                                  for v, b in ((xi, "e"), (zeta, "eb"), (eta, "eb")))
        self.xe, self.xz, self.ze = (np.sum(a * b, 0)
                                     for a, b in ((xi, eta), (xi, zeta), (zeta, eta)))


def _acoustic_rows(mu, nu, t: _Block):
    """The b vector, the e row and the i row of a pair of acoustic inputs."""
    s1, i1, _ = species_split(mu)
    s2, i2, _ = species_split(nu)
    x, z, e = t.x, t.z, t.e
    Rx, Rz, Re = x.R, z.R, e.R
    eps = t.p.epsilon
    seps = eps ** -0.5
    if s1 == s2 == "e":
        num_e, num_i, num_b = seps - Rx * Rz * Re, seps * Rx + Rz * Re, -1.0 / eps + Rz * Re
    elif s1 == s2 == "i":
        num_e, num_i, num_b = seps * Rz * Re - Rx, seps * Rx * Rz * Re + 1.0, 1.0 - Rz * Re / eps
    else:
        num_e, num_i, num_b = seps * Re + Rx * Rz, seps * Rx * Re - Rz, Re / eps + Rz

    cA, cB, cC = _SIGNS["same" if s1 == s2 else "cross", i1, i2]
    N = z.norm * e.norm
    pe = z.mod_over_branch(s1) * e.inv  # the radial factors of A and P
    pz = e.mod_over_branch(s2) * z.inv  # and of B and P'
    b = cA * pe * t.eta + cB * pz * t.zeta
    b *= (0.5 if s1 == s2 else -0.5) * num_b * N
    yield slice(2, 5), 1j * b
    del b  # the largest temporary goes before the e and i factors are formed
    AB = 0.5 * (cA * t.xe * pe + cB * t.xz * pz)  # cA A + cB B over Lam_out(xi)/|xi|
    C = (0.5 * cC) * x.r * t.ze * z.inv * e.inv
    xN = x.norm * N
    yield 0, 1j * (num_e * xN * (x.out_over_mod("e") * AB + C))
    yield 1, -1j * (num_i * xN * (x.out_over_mod("i") * AB + C))


def _mixed_rows(mu, nu, t: _Block):
    """The e row, the i row and the b component of nu for an acoustic mu and
    a magnetosonic nu."""
    s1, i1, _ = species_split(mu)
    _, _, a = species_split(nu)
    x, z = t.x, t.z
    Rx, Rz = x.R, z.R
    eps = t.p.epsilon
    if s1 == "e":
        num_e, num_i, num_b = -1.0 / eps + Rx * Rz, Rx / eps + Rz, eps ** -1.5 - Rz
    else:
        num_e, num_i, num_b = Rz / eps + Rx, 1.0 - Rx * Rz / eps, -(eps ** -1.5 * Rz + 1.0)

    f = z.norm / t.e.lam_b
    pz = z.mod_over_branch(s1)
    A = 0.5 * t.xi[a] * pz  # the geometry term that Lam_out(xi)/|xi| multiplies
    C = (0.5 if i1 == "+" else -0.5) * x.r * t.zeta[a] * z.inv
    xf = x.norm * f
    yield 0, 1j * (num_e * xf * (x.out_over_mod("e") * A + C))
    yield 1, 1j * (num_i * xf * (x.out_over_mod("i") * A + C))
    yield 2 + a, 0.5j * (num_b * pz * f)


def _bb_rows(mu, nu, t: _Block):
    """The e and i rows of a pair of magnetosonic inputs: diagonal in the
    components, doubled for opposite signs, and no source of U_b."""
    _, i1, a1 = species_split(mu)
    _, i2, a2 = species_split(nu)
    if a1 == a2:
        x = t.x
        e32 = t.p.epsilon ** -1.5
        w = x.norm * x.r / ((4.0 if i1 == i2 else 2.0) * t.z.lam_b * t.e.lam_b)
        yield 0, 1j * ((e32 - x.R) * w)
        yield 1, -1j * ((e32 * x.R + 1.0) * w)


def _pair_rows(mu: str, nu: str, t: _Block):
    """The nonzero catalog rows of the pair (mu, nu) on a block, as (row of
    U_e, U_i, U_b1..3, values), b before the transverse projection.  Each
    values array is new, so the caller may scale it in place."""
    if nu[0] != "b":
        return _acoustic_rows(mu, nu, t)
    return _bb_rows(mu, nu, t) if mu[0] == "b" else _mixed_rows(mu, nu, t)


def multiplier(sigma: str, mu: str, nu: str, xi, eta, p: PlasmaParams):
    """Catalog entry m_{sigma;mu,nu}(xi, eta).

    xi and eta have shape (3,) or (3, ...); the result is a complex scalar
    (array) for the acoustic outputs and carries a leading length-3 axis
    for sigma = "b".  Singular quotients are evaluated in factored form;
    at xi = 0 the ion row vanishes identically and the other rows follow
    the projected zero-mode convention.
    """
    if (mu, nu) not in _PAIR_SET:
        raise ValueError(f"({mu!r}, {nu!r}) is not a catalog pair")
    if sigma not in ("e", "i", "b"):
        raise ValueError(f"unknown output branch {sigma!r}")
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    scalar_in = xi.ndim == 1
    if scalar_in:
        xi, eta = xi[:, None], eta[:, None]
    t = _Block(xi, xi - eta, eta, p)
    out = np.zeros((5,) + t.z.r.shape, complex)  # rows U_e, U_i, U_b1..3
    for row, vals in _pair_rows(mu, nu, t):
        out[row] += vals
    if sigma == "b":
        b = out[2:]
        rx2 = np.sum(xi * xi, 0)
        b = b - xi * (np.sum(xi * b, 0) * _inv0(rx2))
        b[:, rx2 == 0] = 0.0
        return b[:, 0] if scalar_in else b
    out = out[0 if sigma == "e" else 1]
    return complex(out[0]) if scalar_in else out


# catalog points per tile of the convolution (rows of zeta times the joint
# support); with its five accumulators, radial tables, dot products and the
# shared factors of one pair, a full tile peaks near 180 MiB
_CONV_BLOCK = 1 << 19


def nonlinearity_multiplier(d: DispState, p: PlasmaParams) -> DispState:
    """N as a DispState at d.t, the literal lattice convolution against the catalog.

    The sum runs over every (zeta, eta) in the square of the joint support
    of the ten species rows, walked in tiles of whole zeta rows: each tile
    builds one `_Block` (the wrapped output mode xi = zeta + eta, the
    radial tables and the dot products), evaluates each catalog pair once
    on it, adds the pair's nonzero rows times its coefficient product into
    five sums W on the whole lattice, and scatters them once.  A species
    that vanishes at a point of the joint support adds zero there.  With the
    convolution constant c = n^{-3/2} of the unitary transform pair on n^3
    points, P = c (W + Wbar)/2 and M = c (W - Wbar)/2i, Wbar(xi) = conj
    W(-xi), the b sums projected transversally first.  Cost grows with the
    square of the support: this is the verification route, not the production one.
    """
    g = d.grid
    n = g.n
    scale = float(g.xi_min)
    half = n // 2

    # the rows of U = P + iM, then those of their conjugates, Ubar = P - iM,
    # on their joint support
    coefs = np.concatenate((full_spectrum(g, d.buf[:5]),) * 2).reshape(10, -1)
    coefs += np.multiply.outer([1j, -1j], full_spectrum(g, d.buf[5:])).reshape(10, -1)
    sup = np.flatnonzero(coefs.any(axis=0))
    K = g.modes.reshape(3, -1)[:, sup]
    flat = dict(zip(("e+", "i+", "b+1", "b+2", "b+3", "e-", "i-", "b-1", "b-2", "b-3"),
                    coefs[:, sup]))
    W = np.zeros((5, n, n, n), complex)  # the sums, rows U_e, U_i, U_b1..3

    rows = max(1, _CONV_BLOCK // max(sup.size, 1))
    for lo in range(0, sup.size, rows):
        kz = K[:, lo:lo + rows, None]
        ks = kz + K[:, None, :]
        idx = ((ks[0] % n) * n + ks[1] % n) * n + ks[2] % n
        # output mode folded back into the band, as the circular
        # convolution of the physical-space product demands; in place, and
        # released once the block holds xi, which lowers the peak RSS
        ks += half
        ks %= n
        ks -= half
        t = _Block(ks * scale, kz * scale, K[:, None, :] * scale, p)
        del ks
        acc = np.zeros((5,) + idx.shape, complex)
        for mu, nu in CATALOG_PAIRS:
            prod = flat[mu][lo:lo + rows, None] * flat[nu][None, :]
            for row, vals in _pair_rows(mu, nu, t):
                vals *= prod
                acc[row] += vals
                del vals  # before the next row is formed, which sets the peak
        np.add.at(W.reshape(5, -1), (slice(None), idx.ravel()), acc.reshape(5, -1))

    W[2:] = q2_apply(g, W[2:])
    Wbar = np.conj(_negate_modes(W, (-3, -2, -1))[..., :half + 1])
    W = W[..., :half + 1]
    return DispState(g, (0.5 * n ** -1.5) * np.concatenate((W + Wbar, -1j * (W - Wbar))), d.t)


# ---------------------------------------------------------------------------
# residuals and profiles


def dispersive_residual(traj, p: PlasmaParams, include_nonlinearity: bool = True):
    """Per-branch L2 residual of (d_t + i Lam_sigma)U_sigma = N_sigma.

    ``traj`` is a uniformly sampled sequence of PhysState (at least five);
    d_t uses the 4th-order central stencil, so the first and last two
    snapshots carry no residual row.  With ``include_nonlinearity`` off the
    residual is taken against the free flow instead.
    """
    if len(traj) < 5:
        raise ValueError("need at least five snapshots for the time stencil")
    times = np.array([s.t for s in traj])
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-8, atol=0.0):
        raise ValueError("snapshots are not uniformly spaced in time")

    g = traj[0].grid
    sym = _symbols(g, p)
    # the three Lam_sigma in the full layout; real and even, so full spectra
    lam = full_spectrum(g, np.stack((sym.lam_e, sym.lam_i, sym.lam_b)))
    states = [tuple(to_dispersive(s, p)) for s in traj]  # (U_e, U_i, U_b) each

    # the stencil only resolves phases that rotate slowly between snapshots
    for branch, lam_s, U in zip(("e", "i", "b"), lam, states[0]):
        m = np.abs(U).reshape((-1,) + lam_s.shape).max(axis=0)
        top = m.max()
        if top == 0.0:
            continue
        omega = float(np.max(lam_s[m > 1e-14 * top]))
        if omega * abs(dt) > 1.0:
            warnings.warn(
                f"branch {branch}: fastest retained mode turns {omega * abs(dt):.2f} "
                "radians per snapshot; the 4th-order stencil needs finer sampling",
                RuntimeWarning, stacklevel=2)

    res = {"e": [], "i": [], "b": []}
    for k in range(2, len(traj) - 2):
        N = nonlinearity_direct(traj[k], p) if include_nonlinearity else (0.0,) * 3
        for branch, lam_s, N_s, *U in zip(("e", "i", "b"), lam, N, *states[k - 2:k + 3]):
            Udot = (U[0] - 8 * U[1] + 8 * U[3] - U[4]) / (12.0 * dt)
            res[branch].append(l2_norm(g, Udot + 1j * lam_s * U[2] - N_s))
    return {"t": times[2:-2], **{b: np.array(v) for b, v in res.items()}}


def free_evolve(d: DispState, t: float, p: PlasmaParams) -> DispState:
    """Solve dU/dt = -i Lambda U exactly for time t (any sign).  Lambda is
    real and even, so e^{-i t Lambda} U = P' + iM' is the real rotation
    P' = c P + s M, M' = c M - s P of the rows of ``d.buf``, with c and s
    the cos and sin of t Lambda, formed once per branch on the support box
    of the rows (`_Box`): off it P = M = 0 stay 0."""
    if isinstance(t, (bool, np.bool_)) or not math.isfinite(t):
        raise ValueError(f"t must be a finite number, got {t!r}")
    box = _Box(d.grid, d.buf, p)
    sym, sub = box.sym, box.sub
    phase = np.multiply(np.stack((sym.lam_e, sym.lam_i, sym.lam_b)), t)
    c, s = np.cos(phase), np.sin(phase)
    rot = np.empty_like(sub)
    P, M, P2, M2 = sub[:5], sub[5:], rot[:5], rot[5:]
    for rows, k in ((slice(0, 2), slice(0, 2)), (slice(2, 5), 2)):  # e and i, then b
        np.multiply(c[k], P[rows], out=P2[rows])
        P2[rows] += s[k] * M[rows]
        np.multiply(c[k], M[rows], out=M2[rows])
        M2[rows] -= s[k] * P[rows]
    return DispState(d.grid, box.scatter(rot), d.t + t)


def profile(d: DispState, p: PlasmaParams) -> DispState:
    """V_sigma = e^{+i t Lam_sigma} U_sigma, the free flow back to time 0,
    labelled with d.t; constant along the free flow."""
    v = free_evolve(d, -d.t, p)
    v.t = d.t
    return v


def hn_norm(grid: Grid, coef: np.ndarray, order: int = 0) -> float:
    """Continuum-calibrated Sobolev norm of a coefficient field."""
    if isinstance(order, (bool, np.bool_)) or not (math.isfinite(order) and order >= 0):
        raise ValueError(f"order must be finite and nonnegative, got {order!r}")
    w = (1.0 + grid.tables(coef).xi_mag ** 2) ** (order / 2.0)
    return l2_norm(grid, w * coef)
