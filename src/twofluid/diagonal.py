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
change of variables, nothing else: route one forms the products of
physics.rhs, route two those of the catalog's symbols, so their agreement
exercises every entry of the catalog and every quadratic term of the solver.
The catalog is evaluated one pair at a time: one function per pair class
forms the factors a pair's rows share once and yields only the rows that do
not vanish by construction, 140 of the 61 x 5 row components.

Zero-mode conventions follow module spectral: symbols carrying a 1/|xi|
that does not cancel drop the xi = 0 mode (mean-zero perturbations), while
Lam_i/|xi| is continued through the origin by its finite limit.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .dispersion import coupling, lam, q_i
from .params import PlasmaParams
from .physics import (FIELDS, ROW_FIELDS, PhysState, SystemKind, _field, _tendencies,
                      constraints, ep_electric)
from .spectral import (
    Grid,
    _inv0,
    _negate_modes,
    conj_half,
    curl,
    div,
    full_spectrum,
    inv_modulus,
    is_hermitian,
    l2_norm,
    q2_apply,
    q_apply,
    reflect,
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


class DispState:
    """The dispersive unknowns at time t, as one buffer in the full layout
    of module spectral: their coefficients carry no conjugate symmetry.
    ``buf`` has shape (5, n, n, n); as in a PhysState, ``U_e``, ``U_i`` and
    ``U_b`` are writable views onto its rows 0, 1 and 2:5, and the
    constructor copies its three arrays into a new buffer."""

    U_e, U_i, U_b = _field(0), _field(1), _field(slice(2, 5))

    def __init__(self, grid: Grid, U_e, U_i, U_b, t: float = 0.0):
        self.grid, self.t = grid, t
        self.buf = np.empty((5,) + (grid.n,) * 3, dtype=complex)
        self.U_e, self.U_i, self.U_b = U_e, U_i, U_b

    @classmethod
    def _over(cls, grid: Grid, buf: np.ndarray, t: float) -> "DispState":
        """A state whose buffer is ``buf`` itself, not a copy."""
        out = cls.__new__(cls)
        out.grid, out.t, out.buf = grid, t, buf
        return out

    @classmethod
    def zero(cls, grid: Grid, t: float = 0.0) -> "DispState":
        return cls(grid, 0.0, 0.0, 0.0, t)


# ---------------------------------------------------------------------------
# the change of variables and its inverse


def to_dispersive(s: PhysState, p: PlasmaParams) -> DispState:
    """Map a physical state to the dispersive unknowns.

    The map reads B only through Q and drops the spatial means of v, u, E,
    B, so it is one-to-one exactly on the constraint manifold: a violation
    of the constraints raises a warning rather than an error, and a state
    that is not real (possible only on the self-mirrored planes of the half
    layout) raises.  Each unknown is U = P + iM with P and M real: U and
    P - iM are formed on the half layout, and only they are expanded, into
    the result's buffer.
    """
    g = s.grid
    for name, c in zip(ROW_FIELDS, s.buf):
        if not is_hermitian(c, tol=1e-10):
            raise ValueError(f"field {name} is not real (coefficients lack conjugate symmetry)")
    viol = max(constraints(s, p).values())
    scale = max(l2_norm(g, getattr(s, name)) for name in FIELDS)
    if viol > 1e-8 * max(scale, 1e-12):
        warnings.warn(
            f"state violates constraints (worst residual {viol:.2e}); "
            "the reconstruction will keep only the consistent part",
            RuntimeWarning, stacklevel=2)
    return _to_dispersive(s, p)


def _to_dispersive(s: PhysState, p: PlasmaParams) -> DispState:
    """`to_dispersive` without its checks, for a tendency or solver output."""
    g, t = s.grid, s.t
    sym = _symbols(g, p)
    seps = np.sqrt(p.epsilon)
    R, nrm = sym.R, sym.norm

    h = -inv_modulus(g, div(g, s.v))
    gg = -inv_modulus(g, div(g, s.u))
    le = sym.lam_e * sym.inv  # zero mode dropped

    # the terms of P, shared by U = P + iM and P - iM
    re_e = -seps * le * s.n + R * le * s.rho
    re_i = seps * R * sym.qi * s.n + sym.qi * s.rho
    re_b = sym.lam_b * inv_modulus(g, q_apply(g, s.B))
    E_t = q2_apply(g, s.E)

    def rows(i):  # the rows of U = P + iM at i = 1j, of P - iM at i = -1j
        return np.stack((0.5 * nrm * (re_e - i * seps * h + i * R * gg),
                         0.5 * nrm * (re_i + i * seps * R * h + i * gg),
                         *(0.5 * (re_b - i * E_t))))

    # U(-xi) = conj (P - iM)(xi): the full spectrum of P - iM holds U's tail,
    # and U's stored half is written over its head
    d = DispState._over(g, full_spectrum(g, rows(-1j)), t)
    d.buf[..., : g.n // 2 + 1] = rows(1j)
    return d


def from_dispersive(d: DispState, p: PlasmaParams) -> PhysState:
    """Reconstruct the physical fields; real, with div B = 0 and Gauss law
    holding by construction.  They are built on the half layout from U +
    Ubar and U - Ubar (`conj_half`, one gather), Nyquist planes zeroed."""
    g = d.grid
    sym = _symbols(g, p)
    R, nrm = sym.R, sym.norm
    ieps = p.epsilon ** -0.5

    U, bar = d.buf[..., : g.n // 2 + 1], conj_half(g, d.buf)
    S_e, D_e = U[0] + bar[0], U[0] - bar[0]
    S_i, D_i = U[1] + bar[1], U[1] - bar[1]
    # U_b enters the fields through its transverse part only; projecting here
    # keeps the reconstruction admissible for arbitrary coefficient input
    U_b, bar_b = q2_apply(g, U[2:]), q2_apply(g, bar[2:])
    re_b, im_b = 0.5 * (U_b + bar_b), -0.5j * (U_b - bar_b)

    r_le = sym.mod_over_branch("e")
    inv_qi = sym.mod_over_branch("i")
    n = nrm * ieps * (-r_le * S_e + R * inv_qi * S_i)
    rho = nrm * (R * r_le * S_e + inv_qi * S_i)
    h = 1j * nrm * ieps * (D_e - R * D_i)
    gg = -1j * nrm * (R * D_e + D_i)

    a = re_b / sym.lam_b  # the vector potential-like combination
    v = riesz(g, h) + (2.0 / p.epsilon) * a
    u = riesz(g, gg) - 2.0 * a
    E = ep_electric(g, n, rho) - 2.0 * im_b
    B = 2.0 * curl(g, a)
    out = PhysState(g, n, rho, v, u, E, B, d.t)
    out.buf[:, g.n // 2] = out.buf[:, :, g.n // 2] = out.buf[..., g.n // 2] = 0.0
    return out


# ---------------------------------------------------------------------------
# nonlinearity, route one: the solver's quadratic terms


def nonlinearity_direct(s: PhysState, p: PlasmaParams):
    """Quadratic right-hand sides (N_e, N_i, N_b) from the physical fields.

    The change of variables is linear and diagonalizes the linear part, so
    N_sigma is :func:`to_dispersive` of the quadratic part of
    :func:`physics.rhs`: the solver's own dealiased products, from one
    batched inverse and one batched forward transform, with every linear
    term taken from the zero state (rhs(s) - rhs(s, linear=True) would
    cancel O(s) terms to leave O(s^2), losing digits as s gets small).  The
    real part (N_b + bar N_b)/2 of the field N_b vanishes in exact
    arithmetic; it is dropped, so that it is exactly zero.  The unknowns
    are in the full layout.
    """
    quad = _tendencies(s, PhysState.zero(s.grid), p, SystemKind.euler_maxwell, False,
                       PhysState._empty(s.grid))
    d = _to_dispersive(quad, p)
    return d.U_e, d.U_i, 0.5 * (d.U_b - np.conj(reflect(d.U_b)))


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
    """The nonzero catalog rows of the pair (mu, nu) on a block, as (row of a
    DispState buffer, values), b before the transverse projection.  Each
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
    out = np.zeros((5,) + t.z.r.shape, complex)  # rows as in a DispState buffer
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


def nonlinearity_multiplier(d: DispState, p: PlasmaParams):
    """(N_e, N_i, N_b) as the literal lattice convolution against the catalog.

    The sum runs over every (zeta, eta) in the square of the joint support
    of the ten species rows, walked in tiles of whole zeta rows: each tile
    builds one `_Block` (the wrapped output mode xi = zeta + eta, the
    radial tables and the dot products), evaluates each catalog pair once
    on it, adds the pair's nonzero rows times its coefficient product into
    five sums, and scatters them once.  A species that vanishes at a point
    of the joint support adds zero there.  The convolution constant for the
    unitary transform pair on n^3 points is c = n^{-3/2}.  Cost grows with
    the square of the support, which is what makes this the verification
    route rather than the production one.
    """
    g = d.grid
    n = g.n
    scale = float(g.xi_min)
    half = n // 2

    # the rows of d.buf, then those of their conjugates, Ubar(xi) = conj U(-xi),
    # on their joint support
    coefs = np.concatenate((d.buf, np.conj(reflect(d.buf)))).reshape(10, -1)
    sup = np.flatnonzero(coefs.any(axis=0))
    K = g.modes.reshape(3, -1)[:, sup]
    flat = dict(zip(("e+", "i+", "b+1", "b+2", "b+3", "e-", "i-", "b-1", "b-2", "b-3"),
                    coefs[:, sup]))
    W = np.zeros((5, n ** 3), complex)  # the sums, rows as in d.buf

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
        np.add.at(W, (slice(None), idx.ravel()), acc.reshape(5, -1))

    c, W = n ** -1.5, W.reshape((5, n, n, n))
    return c * W[0], c * W[1], c * q2_apply(g, W[2:])


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
    states = [_to_dispersive(s, p) for s in traj]

    # the stencil only resolves phases that rotate slowly between snapshots
    mag = np.abs(states[0].buf)
    for branch, lam_s, m in zip(("e", "i", "b"), lam, (mag[0], mag[1], mag[2:].max(axis=0))):
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
        U = [states[k + j].buf for j in (-2, -1, 0, 1, 2)]
        Udot = (U[0] - 8 * U[1] + 8 * U[3] - U[4]) / (12.0 * dt)
        N = nonlinearity_direct(traj[k], p) if include_nonlinearity else (0.0,) * 3
        for branch, rows, lam_s, N_s in zip(("e", "i", "b"), (0, 1, slice(2, 5)), lam, N):
            res[branch].append(l2_norm(g, Udot[rows] + 1j * lam_s * U[2][rows] - N_s))
    return {"t": times[2:-2], **{b: np.array(v) for b, v in res.items()}}


def free_evolve(d: DispState, t: float, p: PlasmaParams) -> DispState:
    """Solve dU/dt = -i Lambda U exactly for time t (any sign)."""
    g, sym = d.grid, _symbols(d.grid, p)
    h = g.n // 2
    out = DispState._over(g, np.empty_like(d.buf), d.t + t)
    ph = out.buf[:3]  # the phases e^{-i t Lam} of e, i, b, then their products
    # formed on the half layout: Lam is even in xi, so the tail is the plain mirror
    ph[..., : h + 1] = np.exp(np.multiply(np.stack((sym.lam_e, sym.lam_i, sym.lam_b)), -1j * t))
    ph[..., h + 1:] = _negate_modes(ph[..., h - 1:0:-1], (-3, -2))
    np.multiply(ph[2], d.buf[3:], out=out.buf[3:])
    ph *= d.buf[:3]
    return out


def profile(d: DispState, p: PlasmaParams) -> DispState:
    """V_sigma = e^{+i t Lam_sigma} U_sigma, the free flow back to time 0,
    labelled with d.t; constant along the free flow."""
    v = free_evolve(d, -d.t, p)
    v.t = d.t
    return v


def hn_norm(grid: Grid, coef: np.ndarray, order: int = 0) -> float:
    """Continuum-calibrated Sobolev norm of a coefficient field."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    w = (1.0 + grid.tables(coef).xi_mag ** 2) ** (order / 2.0)
    return l2_norm(grid, w * coef)
