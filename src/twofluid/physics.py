"""The normalized two-fluid system and its electrostatic variant: right-hand
sides, RK4 stepping, weighted energies, and constraint monitors.

The six unknowns are the density perturbations n, rho, the velocities v, u,
and the rescaled fields E, B on a periodic box.  They are real, and a
:class:`PhysState` keeps their fourteen components as the ``rfftn``
half-spectrum of each: one complex buffer of shape (14, n, n, n//2 + 1) with
the fields as views onto its rows (``ROWS``).  Off the self-mirrored planes
(last-axis modes 0 and n/2) a stored entry stands for a conjugate pair, so
only those planes can hold a non-real coefficient set.  The solver makes
none, as :func:`make_irrotational` hermitizes its half-layout seeds and every
tendency is real, so no step checks them; ``diagonal.to_dispersive`` raises
on a field that is not real.  The Nyquist planes are zero and stay zero (see module
spectral).  The quadratic products are formed once, in :func:`_products`, for
:func:`rhs` and ``diagonal.nonlinearity_direct``: one batched transform each
way, dealiased by the 2/3 mask.  An RK4 stage combines whole states in one
operation, and the monitors read ``spectral.derivatives``, matrix products
over the state's support.  It yields the values of each D^gamma in slabs of x
planes, each in one buffer that the next overwrites, and :func:`energy` and
:func:`_derivative_sups` reduce each slab as it comes, holding no full-size
array of values.  The decay monitor ``decay._sup_derivatives`` needs only the
largest entry of that table: it bounds each (gamma, row) entry by the Wiener
sum of its coefficients and runs the engine only on the entries whose bound
can beat the running max.  Runs to later sample times go through
:func:`integrate`, the one stepping loop.

Two structural choices make the continuum conservation laws survive
discretization exactly rather than to O(dt^4):

* the dealiased currents (n+1)v and (rho+1)u are shared between the density
  equations and the Ampere law, so div E - (rho - n) is a stagewise invariant
  of the scheme (div curl vanishes identically on the lattice);
* the solver is the system on the constraint manifold Y = B - eps curl v
  = 0, Z = B + curl u = 0, where the rotational-form products v x Y and
  u x Z vanish and are dropped; Y and Z are then conserved term by term, as
  the curl of v's tendency is -curl E/eps and B's tendency is -curl E.
"""

from __future__ import annotations

import enum
import math
import warnings

import numpy as np

from .params import PlasmaParams
from .spectral import (
    Grid,
    _is_int,
    _zero_nyquist,
    cross,
    curl,
    derivatives,
    div,
    grad,
    hermitize,
    l2_norm,
    p_long,
    q2_apply,
    random_real_field,
    random_vector_field,
    to_half,
    to_physical,
)

__all__ = [
    "SystemKind",
    "PhysState",
    "ep_electric",
    "rhs",
    "cfl_dt",
    "step",
    "integrate",
    "energy",
    "local_energy_residual",
    "constraints",
    "make_irrotational",
    "random_irrotational",
    "gronwall_quantities",
    "gronwall_constant",
]

FIELDS = ("n", "rho", "v", "u", "E", "B")
#: the rows of ``PhysState.buf`` that hold each field
ROWS = {"n": slice(0, 1), "rho": slice(1, 2), "v": slice(2, 5),
        "u": slice(5, 8), "E": slice(8, 11), "B": slice(11, 14)}
ROW_FIELDS = tuple(f for f in FIELDS for _ in range(ROWS[f].stop - ROWS[f].start))
#: the index of each field in a 14-row array: a row for a scalar, rows for a vector
_KEYS = {f: r.start if r.stop - r.start == 1 else r for f, r in ROWS.items()}

ENERGY_ORDER_MAX = 8
CFL_SAFETY = 0.5
#: a sample time counts as reached once the state is this close to it
TIME_TOL = 1e-12
#: |Y| / (|B| + eps ||xi| v|) and |Z| / (|B| + ||xi| u|) on the manifold: at
#: most 16 roundings of relative size 2^-53 in those terms, at assembly and here
MANIFOLD_RTOL = 16 * 2.0**-53
#: the sup-norms of `gronwall_quantities`, in summation order; "grad_x" is sup |grad x|
_GRONWALL_KEYS = ("grad_n", "v", "grad_v", "grad_rho", "u", "grad_u", "grad_E", "B", "grad_B")


class SystemKind(enum.Enum):
    euler_maxwell = "em"
    euler_poisson = "ep"


def _field(key) -> property:
    """A writable view onto the rows ``key`` of ``buf`` that hold one field."""
    return property(lambda s: s.buf[key], lambda s, value: s.buf.__setitem__(key, value))


def _buffer(grid: Grid) -> np.ndarray:
    return np.empty((14, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)


class PhysState:
    """The six real unknowns at time t, as one half-spectrum buffer.

    ``buf`` has shape (14, n, n, n//2 + 1), the ``rfftn`` layout of module
    spectral: rows 0 and 1 hold n and rho, rows 2:5, 5:8, 8:11 and 11:14 the
    components of v, u, E and B.  The attributes ``n``, ``rho``
    (n, n, n//2 + 1) and ``v``, ``u``, ``E``, ``B`` (3, n, n, n//2 + 1) are
    views onto those rows; assigning to one (``s.n = arr``, ``s.B[:] = 0``)
    writes into ``buf``.  The constructor wraps ``buf`` itself, not a copy;
    ``grid`` may be a support box (``diagonal._Box``) and ``buf`` its entries
    there.  ``diagonal.DispState`` keeps the dispersive unknowns U = P + iM
    on the same layout, as the real fields P and M of each.
    """

    n, rho, v, u, E, B = (_field(_KEYS[f]) for f in FIELDS)

    def __init__(self, grid: Grid, buf: np.ndarray, t: float):
        self.grid, self.buf, self.t = grid, buf, t

    @classmethod
    def _empty(cls, grid: Grid, t: float = 0.0) -> "PhysState":
        """A state whose buffer is allocated but not initialized."""
        return cls(grid, _buffer(grid), t)


def ep_electric(grid: Grid, n: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Electrostatic field slaved to the charge density, div E = rho - n."""
    t = grid.tables(n)
    return -1j * t.xi * ((rho - n) * t.inv_xi_mag**2)


def rhs(state: PhysState, p: PlasmaParams,
        kind: SystemKind = SystemKind.euler_maxwell, check: bool = True) -> PhysState:
    """Tendencies of all six fields; the returned container carries d/dt
    arrays in the field slots and the evaluation time in t.  ``check`` has
    no effect: the solver keeps every state real (module docstring).  The
    tendencies need a state on the constraint manifold, Y = Z = 0 (B read as
    0 for the electrostatic kind), and lack v x Y/eps and u x Z off it."""
    return _tendencies(state, p, kind, False, PhysState._empty(state.grid))


def _products(g: Grid, buf: np.ndarray) -> np.ndarray:
    """The dealiased products |v|^2, |u|^2 (rows 0, 1), n v (rows 2:5) and
    rho u (rows 5:8) of the state ``buf`` in the half layout, from one 8-row
    inverse transform of n, rho, v, u and one 8-row forward transform."""
    phys = to_physical(g, buf[:8])
    v_p, u_p = phys[ROWS["v"]], phys[ROWS["u"]]
    v2, u2 = np.sum(v_p**2, axis=0), np.sum(u_p**2, axis=0)
    v_p *= phys[0]
    u_p *= phys[1]
    phys[0], phys[1] = v2, u2
    hat = to_half(g, phys)
    return np.multiply(hat, g.half.dealias_mask, out=hat)


def _tendencies(state: PhysState, p: PlasmaParams, kind: SystemKind, linear: bool,
                out: PhysState) -> PhysState:
    """:func:`rhs`, or its linear part if ``linear``, written into every row
    of ``out``, which must not be ``state``; the quadratic products come from
    :func:`_products`."""
    g = state.grid
    eps, T, Cb = p.epsilon, p.T, p.C_b
    electrostatic = kind is SystemKind.euler_poisson
    E = ep_electric(g, state.n, state.rho) if electrostatic else state.E

    out.t = state.t
    # the currents (1 + n) v, (1 + rho) u and the potentials whose gradients
    # push the electrons and the ions, -(T/eps) n - |v|^2/2 and -rho - |u|^2/2
    Je, Ji, pot_e, pot_i = state.v, state.u, -(T / eps) * state.n, -state.rho
    if not linear:
        hat = _products(g, state.buf)
        hat[2:8] += state.buf[2:8]
        Je, Ji = hat[ROWS["v"]], hat[ROWS["u"]]
        pot_e -= 0.5 * hat[0]
        pot_i -= 0.5 * hat[1]
    np.subtract(grad(g, pot_e), E / eps, out=out.v)
    np.add(grad(g, pot_i), E, out=out.u)
    out.n, out.rho = -div(g, Je), -div(g, Ji)
    if electrostatic:
        out.B, out.E = 0.0, p_long(g, Je - Ji)
    else:
        out.B, out.E = -curl(g, E), (Cb / eps) * curl(g, state.B) + Je - Ji
    return out


def cfl_dt(grid: Grid, p: PlasmaParams) -> float:
    """Advisory step bound from the fastest group velocity sqrt(C_b/eps)."""
    dx = 2.0 * grid.box_half / grid.n
    return CFL_SAFETY * dx * np.sqrt(p.epsilon / p.C_b)


def step(state: PhysState, dt: float, p: PlasmaParams,
         kind: SystemKind = SystemKind.euler_maxwell,
         linear: bool = False, check: bool = True) -> PhysState:
    """One classical RK4 step by a finite nonzero dt, checked before any
    stage runs.  Negative dt integrates backward (the system is
    time-reversible).  ``check`` has no effect, and a nonlinear step needs a
    state on the constraint manifold, as in :func:`rhs`."""
    if isinstance(dt, (bool, np.bool_)) or not (math.isfinite(dt) and dt != 0):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")
    if abs(dt) > cfl_dt(state.grid, p):
        warnings.warn("dt exceeds the advisory CFL bound", RuntimeWarning, stacklevel=2)
    g, t = state.grid, state.t
    # out = state + dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4, summed in that order
    # as the stages arrive, each stage and each term one operation on the
    # whole buffer: a stage is formed from k before k is scaled into the sum.
    # out is allocated after the scratch (the other order lets glibc malloc
    # release memory each step: ~3,700 page faults per step at 32^3, not ~1,400)
    stage, k, out = PhysState._empty(g), PhysState._empty(g), PhysState._empty(g, t + dt)
    out.buf[...] = state.buf
    _tendencies(state, p, kind, linear, k)
    for c_stage, c_out in ((dt / 2, dt / 6), (dt / 2, dt / 3), (dt, dt / 3)):
        np.multiply(k.buf, c_stage, out=stage.buf)
        stage.buf += state.buf
        stage.t = t + c_stage
        k.buf *= c_out
        out.buf += k.buf
        _tendencies(stage, p, kind, linear, k)
    k.buf *= dt / 6
    out.buf += k.buf
    bad = np.flatnonzero(~np.isfinite(np.sum(out.buf, axis=(1, 2, 3))))
    if bad.size:
        raise FloatingPointError(
            f"non-finite value in field {ROW_FIELDS[bad[0]]} at t = {out.t:.6g}")
    return out


def integrate(state: PhysState, times, dt: float, p: PlasmaParams,
              kind: SystemKind = SystemKind.euler_maxwell, linear: bool = False):
    """Yield the state at each of the nondecreasing ``times`` (all >= state.t),
    stepping by min(dt, target - t) until t is within ``TIME_TOL`` of each;
    a time equal to ``state.t`` yields ``state`` itself.  The one stepping
    loop.  Invalid input raises on the first ``next``, a nonlinear start off
    the constraint manifold (see :func:`rhs`) included."""
    times = np.asarray(times, dtype=float)
    if isinstance(dt, (bool, np.bool_)) or not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise ValueError("times must be a finite nondecreasing 1d sequence")
    if times.size and times[0] < state.t:
        raise ValueError(f"times start at {times[0]:.6g}, before the state's t = {state.t:.6g}")
    if not linear:
        g, B = state.grid, 0 * state.B if kind is SystemKind.euler_poisson else state.B
        for name, c, vel in (("Y", -p.epsilon, state.v), ("Z", 1.0, state.u)):
            size = l2_norm(g, B) + abs(c) * l2_norm(g, g.half.xi_mag * vel)
            if l2_norm(g, B + c * curl(g, vel)) > MANIFOLD_RTOL * size:
                raise ValueError(f"the start state is off the constraint manifold: {name} != 0")
    cur = state
    for target in times:
        while cur.t < target - TIME_TOL:
            cur = step(cur, min(dt, target - cur.t), p, kind=kind, linear=linear)
        yield cur


# ---------------------------------------------------------------------------
# energies and monitors


def energy(state: PhysState, p: PlasmaParams, order: int = 0) -> float:
    """Weighted energy: sum over |gamma| <= order of the integrals of
    T|D^g n|^2 + eps(1+n)|D^g v|^2 + |D^g rho|^2 + (1+rho)|D^g u|^2
    + |D^g E|^2 + (C_b/eps)|D^g B|^2, summed in physical space slab by slab."""
    if not (_is_int(order) and 0 <= order <= ENERGY_ORDER_MAX):
        raise ValueError(f"order must be an integer in [0, {ENERGY_ORDER_MAX}], got {order!r}")
    g = state.grid
    scale = {"n": p.T, "rho": 1.0, "v": p.epsilon, "u": 1.0, "E": 1.0, "B": p.C_b / p.epsilon}
    weight = {}
    total = 0.0
    for k, r, _, vals in derivatives(g, state.buf, order):
        f, flat = ROW_FIELDS[r], vals.reshape(-1)
        # each slab yields n and rho at gamma = 0 first: 1 + n weights v, 1 + rho u
        if k == 0 and f in ("n", "rho"):
            weight["v" if f == "n" else "u"] = 1.0 + flat
        if f in weight:
            np.square(flat, out=flat)
            total += scale[f] * float(np.dot(weight[f], flat))
        else:
            total += scale[f] * float(np.dot(flat, flat))
    return (2.0 * g.box_half / g.n) ** 3 * total


def local_energy_residual(state: PhysState, tend: PhysState, p: PlasmaParams,
                          kind: SystemKind = SystemKind.euler_maxwell):
    """Pointwise residual of d/dt(energy density) + div(fluxes); returns the
    physical-space field and its L2 norm.

    For the electrostatic variant the magnetic flux is dropped and the work
    of the field against the transverse part of the current is kept: that
    part is not a divergence, but it integrates to zero against the
    longitudinal E, so global conservation is untouched.
    """
    g = state.grid
    eps, T, Cb = p.epsilon, p.T, p.C_b
    electrostatic = kind is SystemKind.euler_poisson

    # one batched inverse of each buffer, read by field
    vals, dvals = to_physical(g, state.buf), to_physical(g, tend.buf)
    n, rho, v, u, E, B = (vals[_KEYS[f]] for f in FIELDS)
    dn, drho, dv, du, dE, dB = (dvals[_KEYS[f]] for f in FIELDS)
    if electrostatic:
        E = to_physical(g, ep_electric(g, state.n, state.rho))

    de = (
        T * n * dn
        + 0.5 * eps * dn * np.sum(v**2, axis=0)
        + eps * (1.0 + n) * np.sum(v * dv, axis=0)
        + rho * drho
        + 0.5 * drho * np.sum(u**2, axis=0)
        + (1.0 + rho) * np.sum(u * du, axis=0)
        + np.sum(E * dE, axis=0)
    )
    if not electrostatic:
        de += (Cb / eps) * np.sum(B * dB, axis=0)

    Je = (1.0 + n) * v
    Ji = (1.0 + rho) * u
    flux = (T * n + 0.5 * eps * np.sum(v**2, axis=0)) * Je
    flux += (rho + 0.5 * np.sum(u**2, axis=0)) * Ji
    if not electrostatic:
        flux += (Cb / eps) * cross(E, B)
    residual = de + to_physical(g, div(g, to_half(g, flux)))
    if electrostatic:
        # complement of the longitudinal projection, mean current included:
        # the slaved field has no mean dynamics, so the whole mean part of
        # the current does unbalanced (but globally vanishing) work
        current = to_half(g, Je - Ji)
        residual += np.sum(E * to_physical(g, current - p_long(g, current)), axis=0)

    vol = (2.0 * g.box_half / g.n) ** 3
    return residual, float(np.sqrt(vol * np.sum(residual**2)))


def constraints(state: PhysState, p: PlasmaParams) -> dict:
    """L2 residuals of the four monitored identities."""
    return {key: l2_norm(state.grid, r) for key, r in _residuals(state, p)}


def _residuals(state: PhysState, p: PlasmaParams):
    """Yield the name and residual field of each monitored identity, formed
    per mode on the tables of ``state.grid``, one at a time."""
    g = state.grid
    yield "div_B", div(g, state.B)
    yield "gauss", div(g, state.E) - (state.rho - state.n)
    yield "girr_e", state.B - p.epsilon * curl(g, state.v)
    yield "girr_i", state.B + curl(g, state.u)


# ---------------------------------------------------------------------------
# admissible data


def make_irrotational(grid: Grid, p: PlasmaParams, seed: dict) -> PhysState:
    """Assemble a state satisfying the four constraints to roundoff.

    Seed keys (all optional, spectral coefficient arrays):
      n, rho        density perturbations (projected mean-zero)
      v_pot, u_pot  scalar potentials for the longitudinal velocities
      b_seed        vector whose transverse part vr seeds the rotational
                    sector: v gets vr, u gets -eps vr, B = eps curl vr
      E_t           transverse electric seed (longitudinal part is solved
                    from rho - n)
      t             initial time, finite
    Scalar keys have shape (n, n, n//2 + 1), vector keys (3, n, n, n//2 + 1):
    seeds are half-layout coefficients.  Each goes through ``hermitize``, the
    projection of its self-mirrored planes onto real ones (so a seed and its
    ``hermitize`` give the same state), and the Nyquist planes (index n/2 on
    any axis) of the state are zeroed.
    """
    scalars, vectors = {"n", "rho", "v_pot", "u_pot"}, {"b_seed", "E_t"}
    known = scalars | vectors | {"t"}
    shape = lambda key: ((3,) if key in vectors else ()) + (grid.n, grid.n, grid.n // 2 + 1)  # noqa: E731
    if not set(seed) <= known:
        raise ValueError(f"unknown seed keys: {sorted(set(seed) - known)}")
    for key in set(seed) - {"t"}:
        want = shape(key)
        if np.shape(seed[key]) != want:
            raise ValueError(f"seed {key!r} must have shape {want}, got {np.shape(seed[key])}")
    if isinstance(seed.get("t"), (bool, np.bool_)) or not np.isfinite(seed.get("t", 0.0)):
        raise ValueError(f"seed time must be finite, got {seed['t']!r}")

    take = lambda key: hermitize(seed.get(key, np.zeros(shape(key))))  # noqa: E731
    s = PhysState._empty(grid, float(seed.get("t", 0.0)))
    s.n, s.rho = take("n"), take("rho")
    s.n[0, 0, 0] = s.rho[0, 0, 0] = 0.0
    vr = q2_apply(grid, take("b_seed"))
    s.v = grad(grid, take("v_pot")) + vr
    s.u = grad(grid, take("u_pot")) - p.epsilon * vr
    s.B = p.epsilon * curl(grid, vr)
    s.E = ep_electric(grid, s.n, s.rho) + q2_apply(grid, take("E_t"))
    _zero_nyquist(grid, s.buf)
    return s


def _random_seed(grid: Grid, rng, amplitude: float, kmax: int, rotational: bool) -> dict:
    """A `make_irrotational` seed of fields band-limited to kmax with rms
    ``amplitude``, drawn in the order n, rho, v_pot, u_pot, E_t, b_seed."""
    seed = {
        "n": random_real_field(grid, rng, kmax=kmax, rms=amplitude),
        "rho": random_real_field(grid, rng, kmax=kmax, rms=amplitude),
        "v_pot": random_real_field(grid, rng, kmax=kmax, rms=amplitude),
        "u_pot": random_real_field(grid, rng, kmax=kmax, rms=amplitude),
        "E_t": random_vector_field(grid, rng, kmax=kmax, rms=amplitude),
    }
    if rotational:
        seed["b_seed"] = random_vector_field(grid, rng, kmax=kmax, rms=amplitude)
    return seed


def random_irrotational(grid: Grid, p: PlasmaParams, rng,
                        amplitude: float = 1e-3, kmax: int = 4,
                        rotational: bool = True) -> PhysState:
    if isinstance(amplitude, (bool, np.bool_)) or not (np.isfinite(amplitude) and amplitude >= 0.0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude!r}")
    # random_real_field rejects a kmax that is neither None nor an integer >= 1
    return make_irrotational(grid, p, _random_seed(grid, rng, amplitude, kmax, rotational))


# ---------------------------------------------------------------------------
# growth-rate monitors


def _derivative_sups(state: PhysState, order: int) -> np.ndarray:
    """sup over the box of |D^gamma c|: one row per |gamma| <= order, in the
    lexicographic order of `spectral.derivatives` (row 0 is gamma = 0), one
    column per row c of buf; each slab of values is reduced as it comes."""
    table = np.zeros((math.comb(order + 3, 3), len(state.buf)))
    for k, r, _, vals in derivatives(state.grid, state.buf, order):
        table[k, r] = np.maximum(table[k, r], np.maximum(vals.max(), -vals.min()))
    return table


def gronwall_quantities(state: PhysState) -> dict:
    """Sup-norms driving the energy inequality, and their sum A."""
    sups = _derivative_sups(state, 1)
    out = {}
    for key in _GRONWALL_KEYS:
        rows = sups[1:] if key.startswith("grad_") else sups[:1]
        out[key] = float(np.max(rows[:, ROWS[key.removeprefix("grad_")]]))
    out["A"] = sum(out.values())
    return out


def gronwall_constant(traj, p: PlasmaParams, order: int = 2):
    """Fit the smallest C with |E_N(t) - E_N(0)| <= C * int_0^t A E_N ds
    along a sampled trajectory; returns (C, per-sample table)."""
    times = np.array([s.t for s in traj])
    if len(traj) < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("need a strictly time-ordered trajectory")
    e = np.array([energy(s, p, order) for s in traj])
    a = np.array([gronwall_quantities(s)["A"] for s in traj])
    integrand = a * e
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(times) * (integrand[1:] + integrand[:-1]))]
    )
    drift = np.abs(e - e[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(integral > 0, drift / np.maximum(integral, 1e-300), 0.0)
    table = {"t": times, "energy": e, "A": a, "integral": integral, "ratio": ratio}
    return float(np.max(ratio)), table
