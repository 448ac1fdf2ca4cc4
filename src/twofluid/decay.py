"""Linear dispersive decay laboratory.

Exact free evolution of the dispersive unknowns (`free_evolve`, from module
diagonal), oscillatory-integral evaluation of the one-shell propagator kernels

    K_{k,t}(x) = int e^{i x.xi} e^{i t Lambda(|xi|)} phi_[k-2,k+2](|xi|) dxi,

and least-squares extraction of decay exponents.  The kernel integrals are
computed on the continuum via the radial reduction

    K(x) = (4 pi / |x|) int_0^inf s sin(s|x|) w(s) e^{i t lambda(s)} ds,

never on the periodic grid: decay rates are a continuum phenomenon the box
would pollute with recurrences.  The s integral is a uniform trapezoid rule,
one real matrix product per block of nodes for all radii (`radial_kernel`).
The blocks are cache-sized (``spectral.SLAB_VALUES`` nodes), and only the
rows that hold nonzero weight are integrated, so a query costs in proportion
to the support of phi_[k-2,k+2], [1.25 2^(k-3), 6.4 2^k], not of [2^(k-3), 2^(k+3)].

The desk-scale experiment monitors sup_{|alpha| <= 4} ||D^alpha fields||_inf
by branch and bound (`_sup_derivatives`): only the (alpha, row) entries
whose Wiener bound can beat the running max are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import BRANCHES, find_r_star, lam, lam_prime, lam_second
from .params import PlasmaParams
from .spectral import (BETA, SLAB_VALUES, Grid, _derivative_bounds, _derivatives, _is_int,
                       _support, phi_interval)
from .diagonal import free_evolve, from_dispersive, to_dispersive
from .physics import PhysState, _derivative_sups, cfl_dt, integrate, random_irrotational

__all__ = [
    "KernelQuery",
    "radial_kernel",
    "kernel_profile",
    "stationary_xs",
    "kernel_sup",
    "free_evolve",
    "decay_fit",
    "nonlinear_decay_experiment",
]

# Hard ceiling on quadrature nodes for a single kernel evaluation; beyond it
# the requested (t, shell, resolution) combination is declared under-resolved
# rather than silently degraded.
NODE_CAP = 1 << 28

_MIN_NODES = 8192
# anchor radii of the stationary sweep
_ANCHORS = 25
#: the derivative order of the monitor sup_{|alpha| <= 4} ||D^alpha fields||_inf:
#: 35 multi-indices by 14 rows, each (alpha, row) entry one pass of
#: `spectral.derivatives`, run only where its bound can beat the running max
MONITOR_ORDER = 4
#: the factor on each Wiener bound that covers the rounding of the engine and
#: of the bound (derived in `_sup_derivatives`)
_BOUND_MARGIN = 1.0 + 1e-12


@dataclass(frozen=True)
class KernelQuery:
    """One propagator kernel: branch, dyadic shell, time, radial resolution.

    ``points_per_cycle`` is the number of quadrature nodes per oscillation of
    the total radial phase t*lambda(s) +- s|x| where it turns fastest on the
    shell; 64 is the floor below which the quadrature is not trusted.
    """

    branch: str
    k: int
    t: float
    points_per_cycle: int = 64

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")
        for name in ("k", "points_per_cycle"):
            val = getattr(self, name)
            if not _is_int(val):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        if isinstance(self.t, (bool, np.bool_)) or not (math.isfinite(self.t) and self.t != 0):
            raise ValueError(f"t must be finite and nonzero, got {self.t!r}")
        if self.points_per_cycle < 64:
            raise ValueError("points_per_cycle must be at least 64")

    @property
    def support(self) -> tuple:
        # phi_[k-2,k+2] vanishes outside [2^{k-3}, 2^{k+3}]
        return 2.0 ** (self.k - 3), 2.0 ** (self.k + 3)


# ---------------------------------------------------------------------------
# radial oscillatory quadrature


def radial_kernel(lam_fn, lam_prime_fn, weight_fn, a: float, b: float,
                  t: float, xs, points_per_cycle: int) -> np.ndarray:
    """K(x) for each x in xs, by the trapezoid rule on a uniform s grid.

    The step resolves |t| lambda'(s) + max(xs), at its largest on [a, b], with
    ``points_per_cycle`` nodes per cycle.  For s_m = a + (j B + l) h, B = isqrt(n),
    sin(x s_m) = sin(x c_j) cos(x l h) + cos(x c_j) sin(x l h) with c_j = a + j B h,
    so the sums over l for all radii are one real matrix product of the (2 J, B)
    integrand block with [cos(x l h) | sin(x l h)]; the sum over j is elementwise.
    x = 0 takes the limit sum g s.

    The nodes go in blocks of whole rows of about ``spectral.SLAB_VALUES``
    nodes (at least one row), so each elementwise pass stays in cache.  Each
    block evaluates ``weight_fn`` first and forms lambda, the phase and the
    matrix product only on the rows from its first to its last node of
    nonzero weight: a node of weight exactly 0 adds exactly 0 to the rule, so
    the cost follows the weight's support, not [a, b].
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not (math.isfinite(t) and math.isfinite(b) and b > a > 0):
        raise ValueError(f"need finite t and 0 < a < b < inf, got t={t!r}, a={a!r}, b={b!r}")
    if xs.size == 0 or not np.all(np.isfinite(xs) & (xs >= 0)):
        raise ValueError(f"xs must hold at least one radius, all finite and >= 0, got {xs!r}")

    speed = float(np.max(np.abs(lam_prime_fn(np.linspace(a, b, 4097)))))
    cycles = (abs(t) * speed + float(xs.max())) / (2.0 * np.pi) * (b - a)
    if points_per_cycle * cycles + 1 > NODE_CAP:
        raise ValueError(
            f"under-resolved oscillation: {points_per_cycle * cycles + 1:.3g} nodes needed "
            f"for {cycles:.3g} cycles at {points_per_cycle}/cycle (cap {NODE_CAP})")
    n = max(int(points_per_cycle * cycles) + 1, _MIN_NODES)
    width = math.isqrt(n)
    n = -(-n // width) * width  # whole rows; stays below the next square, so NODE_CAP holds

    h = (b - a) / (n - 1)
    fine = np.outer(np.arange(width) * h, xs)
    fine = np.concatenate([np.cos(fine), np.sin(fine)], axis=1)
    sums, limit = np.zeros((2, len(xs))), np.zeros(2)  # sum g sin(x s) and sum g s
    step = max(1, SLAB_VALUES // width) * width
    for m0 in range(0, n, step):
        s = a + np.arange(m0, min(m0 + step, n)) * h
        w = np.broadcast_to(weight_fn(s), s.shape)
        nonzero = w != 0  # NaN included
        first = int(nonzero.argmax())
        if not nonzero[first]:
            continue
        lo = first // width * width
        hi = len(s) - (int(nonzero[::-1].argmax()) // width * width)
        s = s[lo:hi]
        amp = s * w[lo:hi]
        if m0 + lo == 0:
            amp[0] /= 2.0
        if m0 + hi == n:
            amp[-1] /= 2.0
        phase = t * lam_fn(s)
        g = np.empty((2, len(s)))  # real and imaginary parts of the integrand
        np.cos(phase, out=g[0])
        np.sin(phase, out=g[1])
        g *= amp
        limit += g @ s
        rows = len(s) // width
        part = (g.reshape(2 * rows, width) @ fine).reshape(2, rows, 2, len(xs))
        coarse = np.outer(a + (m0 + lo + width * np.arange(rows)) * h, xs)
        sums += np.sum(part[:, :, 0] * np.sin(coarse) + part[:, :, 1] * np.cos(coarse), axis=1)
    small = xs < 1e-12 * b
    out = np.where(small, limit[0] + 1j * limit[1], sums[0] + 1j * sums[1])
    return 4.0 * np.pi * h * out / np.where(small, 1.0, xs)


def kernel_profile(q: KernelQuery, p: PlasmaParams, xs) -> np.ndarray:
    """K_{k,t} evaluated at each radius |x| in xs."""
    a, b = q.support
    return radial_kernel(lambda s: lam(q.branch, s, p), lambda s: lam_prime(q.branch, s, p),
                         lambda s: phi_interval(s, q.k - 2, q.k + 2), a, b, q.t, xs,
                         points_per_cycle=q.points_per_cycle)


def stationary_xs(q: KernelQuery, p: PlasmaParams) -> np.ndarray:
    """The radial |x| grid covering the stationary sweep |x| = |t| lambda'(s).

    Stationary-phase radii for s across the shell, padded below; the origin
    is included so the small-time mass bound is also seen.  The grid stops
    at the sweep top |t| max lambda': beyond it t lambda(s) - s|x| has no
    stationary point in the shell.  There, at 1.7 and 3 times the top, |K|
    is at most 7.1e-4 of the supremum for |t| >= 1e2, but up to 0.73 of it
    near |t| = 1 (i, k = -3).  If lambda'' changes sign inside the shell (the
    degenerate ion shell, at r_* of `dispersion.find_r_star`), the sweep
    folds at the group-velocity extremum and the kernel peaks in an Airy
    window of width (|t| lambda''' / 2)^{1/3} around the fold; that window
    gets its own cluster of radii, which a grid in s cannot resolve, and at
    small |t| it reaches past the sweep top.
    """
    anchors = np.geomspace(2.0 ** (q.k - 2.5), 2.0 ** (q.k + 2.5), _ANCHORS)
    sweep = abs(q.t) * lam_prime(q.branch, anchors, p)
    lo = float(sweep.min())
    xs = [np.array([0.0, 0.35 * lo, 0.6 * lo]), sweep]

    # of the three branches only lambda_i'' changes sign, once, at r_*
    if q.branch == "i" and anchors[0] < (s0 := find_r_star(p)) < anchors[-1]:
        h = 1e-4 * s0
        third = (lam_second("i", s0 + h, p) - lam_second("i", s0 - h, p)) / (2 * h)
        width = (abs(q.t) * abs(third) / 2.0) ** (1.0 / 3.0)
        x0 = abs(q.t) * lam_prime("i", s0, p)
        xs.append(x0 + width * np.linspace(-8.0, 3.0, 28))

    out = np.unique(np.concatenate(xs))
    return out[out >= 0]


def kernel_sup(q: KernelQuery, p: PlasmaParams) -> float:
    """sup_x |K_{k,t}(x)| over the stationary-radius grid, in one quadrature pass.

    Node density scales with the largest radius, so the grid ends at the
    sweep top, or at the top of the fold window where that reaches further
    (see `stationary_xs`).  Past the sweep |K| is negligible for |t| >= 1e2;
    near |t| = 1 it is not, and the value is then a lower bound.
    """
    return float(np.max(np.abs(kernel_profile(q, p, stationary_xs(q, p)))))


# ---------------------------------------------------------------------------
# exponent extraction


def decay_fit(ts, sups) -> dict:
    """Least-squares power-law fit sup ~ C t^e in log-log coordinates."""
    ts = np.asarray(ts, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if ts.shape != sups.shape or ts.ndim != 1:
        raise ValueError("ts and sups must be 1d arrays of equal length")
    if len(ts) < 8:
        raise ValueError("need at least 8 samples for a trusted fit")
    if not (np.all(np.isfinite(ts) & (ts > 0)) and np.all(np.isfinite(sups) & (sups > 0))):
        raise ValueError("degenerate sample set: entries must be finite and positive")
    lt, ls = np.log(ts), np.log(sups)
    if np.ptp(lt) == 0:
        raise ValueError("degenerate sample set: single abscissa")
    (e, c), res = np.polyfit(lt, ls, 1, full=True)[:2]
    sstot = float(np.sum((ls - ls.mean()) ** 2))
    ssres = float(res[0]) if len(res) else 0.0
    r2 = 1.0 if sstot == 0 else 1.0 - ssres / sstot
    return {"exponent": float(e), "prefactor": float(np.exp(c)), "r2": r2}


# ---------------------------------------------------------------------------
# desk-scale nonlinear consistency probe


def _sup_derivatives(state: PhysState) -> float:
    """sup over fields and multi-indices |alpha| <= MONITOR_ORDER of ||D^alpha .||_inf,
    equal bit for bit to the max of `physics._derivative_sups`, by branch and
    bound over its (alpha, row) entries.

    Each entry's sup is at most its Wiener bound B (`spectral._derivative_bounds`,
    formed on the support).  The engine runs on the entry of largest B, whose
    sup L is a lower bound of the answer, then only on the entries whose B
    times ``_BOUND_MARGIN`` exceeds L: no other entry can beat L.  The margin
    covers the rounding of both sides, with u = 2^-53 and to first order in
    u.  The engine's value at a point is three nested sums, complex over at
    most n x modes and n y modes, real over 2(n/2 + 1) z columns, of products
    of a coefficient with three pass entries, each entry within 16u of its
    modulus |xi|^deg / sqrt(n) (the phase, the complex power, 1/sqrt(n)); so
    it is at most B (1 + (n + 2 + n + 2 + 2(n/2 + 1) + 48)u).  B's own three
    sums of nonnegative terms lose at most (n + n + n/2 + 1 + 7)u.  Together
    (5.5n + 62)u, below 1e-12 for every n <= 1600, where one state would
    hold 460 GB.  A bound that is not finite (a NaN or inf coefficient, or an
    overflow) prunes nothing: every entry is evaluated, as the table does.
    """
    g = state.grid
    supp = _support(g, state.buf)
    with np.errstate(invalid="ignore"):  # inf * |xi|^c = 0 is NaN: the full table below
        bound = _derivative_bounds(g, supp, MONITOR_ORDER) * _BOUND_MARGIN
    if not np.all(np.isfinite(bound)):
        return float(np.max(_derivative_sups(state, MONITOR_ORDER)))
    first = np.zeros(bound.shape, bool)
    first.flat[np.argmax(bound)] = True
    top = _entries_sup(g, supp, first)
    rest = (bound > top) & ~first
    return float(max(top, _entries_sup(g, supp, rest)))


def _entries_sup(grid: Grid, supp: tuple, want: np.ndarray) -> float:
    """max(0, sup |D^alpha c_r|) over the entries (alpha, r) that ``want`` selects."""
    sup = 0.0
    for _, _, _, vals in _derivatives(grid, supp, MONITOR_ORDER, want):
        sup = max(sup, vals.max(), -vals.min())
    return sup


def nonlinear_decay_experiment(seed: int, amplitude: float, horizon: float,
                               p: PlasmaParams, *, grid: Grid | None = None,
                               linear: bool = False, samples: int = 17) -> dict:
    """Monitor sup_{|alpha|<=4} ||D^alpha fields||_inf along a run.

    Returns the time series and its (1+t)^{1+BETA/2}-weighted counterpart.
    This is a consistency probe, not a verification: the box cannot reach
    asymptotic times, so only boundedness over the horizon is reported.
    Linear runs use the exact diagonal flow; nonlinear runs integrate the
    full system and stop with a stamped ``blowup_t`` if the monitor leaves
    the representable range.
    """
    if isinstance(horizon, (bool, np.bool_)) or not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    if not (_is_int(samples) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    g = grid or Grid(32)
    rng = np.random.default_rng(seed)
    state = random_irrotational(g, p, rng, amplitude=amplitude)
    times = np.linspace(0.0, horizon, samples)

    out = {"t": times, "sup": [], "weighted": [], "blowup_t": None}
    if linear:
        d0 = to_dispersive(state, p)
        for t in times:
            s = from_dispersive(free_evolve(d0, t, p), p)
            out["sup"].append(_sup_derivatives(s))
    else:
        for cur in integrate(state, times, cfl_dt(g, p), p):
            val = _sup_derivatives(cur)
            if not math.isfinite(val):
                out["blowup_t"] = float(cur.t)
                break
            out["sup"].append(val)

    out["sup"] = np.array(out["sup"])
    ts = times[: len(out["sup"])]
    out["t"] = ts
    out["weighted"] = (1.0 + ts) ** (1.0 + BETA / 2.0) * out["sup"]
    return out
