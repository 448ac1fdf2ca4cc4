"""Periodic spectral toolbox: grid, Fourier multipliers, Riesz/curl
projections, dyadic frequency/space localization, and the weighted shell
norms used by the monitors.

Conventions
-----------
* The box is [-L, L]^3 with L = ``box_half``; the wavenumber lattice is
  (pi/L) * Z^3 truncated to |m_axis| <= n/2 - 1 (plus the Nyquist row).
* FFTs are orthonormal (scipy ``norm="ortho"``).  A field is stored as a
  bare complex coefficient array in one of two layouts, told apart by the
  last axis:

  - the full layout, (n, n, n) for scalars and (3, n, n, n) for vectors,
    holds an arbitrary complex field, one whose coefficients carry no
    conjugate symmetry;
  - the half layout, (n, n, n//2 + 1) per component, is the ``rfftn``
    half-spectrum of a real field: the entries with negative last-axis
    modes are the conjugates of their mirrors and are not stored.  Both
    states wrap one buffer of real fields on this layout: the physical
    ones, and P and M of each dispersive unknown U = P + iM and of its
    right-hand side N.  Neither is built from the full layout; ``DispState``
    reads U out there.

  Only the self-mirrored planes (last-axis modes 0 and n/2) can still hold
  a non-real field; ``hermitize`` makes them real.  A physical state keeps
  the Nyquist planes (index n/2 on any axis) zero: the odd symbol i xi of
  grad and curl maps their real content to imaginary content, which no
  real field has there.  Random fields are drawn on the half layout by
  ``to_half``, and only the Z-norm code forms the full layout of real
  values (``to_spectral``).  No other module calls a transform library.
  ``derivatives`` yields every D^gamma of a half-layout field up to an
  order without one: its one-axis inverse passes are matrix products with
  DFT matrices restricted to the modes the field occupies, so a
  band-limited field costs in proportion to its band, not to the grid.
  It yields the values in slabs of x planes (``SLAB_VALUES``) into one
  reused buffer, so a caller reduces each slab while it is in cache, and
  ``_derivatives`` yields a selection of them, with the Wiener bound of
  each (``_derivative_bounds``) to choose it by.
  Every multiplier below reads its wavevector table in the layout of its
  argument (``Grid.tables``), and ``l2_norm`` counts each stored half-layout
  entry with its Hermitian multiplicity.
* The support box of a half-layout state (``_support``) is the product of
  the x and y modes holding a nonzero entry of some row, which wrap around
  0, and the z prefix 0..K; every row is zero off it.  ``derivatives`` passes
  over it, the per-mode maps of module diagonal run on it (``diagonal._Box``
  stands in for the grid in the multipliers below), and ``_multiplicity``
  weights its z modes in a norm.
* Continuum calibration, any L::

      ||f||_L2   = (2L/n)^{3/2} * ||coef||_2
      f_hat(xi)  = (2L)^3 n^{-3/2} * coef(xi)        (hat_cont)
      L1 in xi   = sum * (pi/L)^3                    (lattice cell volume)

  so reported norm values are box-intrinsic, not lattice artifacts.
* The dyadic bump ``bump`` is the exponential smoothstep profile: even,
  C^inf, identically 1 on [-5/4, 5/4], supported in (-8/5, 8/5).  All
  frequency and space cutoffs derive from it, so partitions of unity
  telescope exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.fft as sfft

__all__ = [
    "Grid",
    "to_spectral",
    "to_physical",
    "to_half",
    "derivatives",
    "full_spectrum",
    "hermitize",
    "is_hermitian",
    "cross",
    "grad",
    "div",
    "curl",
    "riesz",
    "inv_modulus",
    "q_apply",
    "p_long",
    "q2_apply",
    "l2_norm",
    "hat_cont",
    "bump",
    "phi_low",
    "phi_shell",
    "phi_interval",
    "phi_tilde",
    "lp_project",
    "spatial_localize",
    "shell_range",
    "spatial_range",
    "DyadicPiece",
    "BETA",
    "b_norms",
    "ZNormUpper",
    "z_norm_upper",
    "random_real_field",
    "random_vector_field",
]


# ---------------------------------------------------------------------------
# grid

#: the 2/3 rule: products keep the modes with every |m_axis| <= (2/3)(n/2)
_DEALIAS = 2.0 / 3.0
#: scipy.fft threads of every transform of the package: all the process may use
_FFT_WORKERS = -1
#: the values one yield of `derivatives` holds at most (one x plane if it holds
#: more), and the nodes of one block of `decay.radial_kernel` (one row if it
#: holds more): 512 KiB of float64, so energy's output and two weight slabs
#: stay in a 2 MiB L2.  Order-4 sups / order-2 energy of a 64^3 kmax-4 state,
#: one Xeon CPU, median of 5 (ms): 128 KiB 135 / 41.5, 256 KiB 112 / 36.3,
#: 512 KiB 102 / 33.9, 1 MiB 97 / 34.5, 2 MiB 136 / 46.6; flat at 32^3.  The
#: 16 kernel_sup queries of the perfbench analyse ladders, best of 5 (s):
#: 128 KiB 0.286, 256 KiB 0.268, 512 KiB 0.262, 1 MiB 0.272, 32 MiB 0.326
SLAB_VALUES = 2**16


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L]^3 with n points per axis."""

    n: int
    box_half: float = np.pi

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or self.n % 2:
            raise ValueError(f"points_per_axis must be an even integer >= 8, got {self.n!r}")
        if isinstance(self.box_half, (bool, np.bool_)) or not 0 < self.box_half < math.inf:
            raise ValueError(f"box_half must be a finite positive number, got {self.box_half!r}")

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """Integer mode vectors, shape (3, n, n, n), FFT layout."""
        m = _axis_modes(self.n)
        return np.stack(np.meshgrid(m, m, m, indexing="ij"))

    @functools.cached_property
    def xi(self) -> np.ndarray:
        return (np.pi / self.box_half) * self.modes

    @functools.cached_property
    def xi_mag(self) -> np.ndarray:
        return np.sqrt(np.sum(self.xi**2, axis=0))

    @functools.cached_property
    def inv_xi_mag(self) -> np.ndarray:
        """1/|xi| with the zero mode mapped to 0."""
        return _inv0(self.xi_mag)

    @functools.cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = math.floor(_DEALIAS * self.n / 2)
        keep = np.abs(self.modes) <= cut
        return keep[0] & keep[1] & keep[2]

    @functools.cached_property
    def x_radius(self) -> np.ndarray:
        """|x| of the minimal-image representative, shape (n, n, n)."""
        c = (2.0 * self.box_half / self.n) * np.arange(self.n)
        c = np.mod(c + self.box_half, 2.0 * self.box_half) - self.box_half
        return np.sqrt(c[:, None, None] ** 2 + c[None, :, None] ** 2 + c[None, None, :] ** 2)

    @functools.cached_property
    def half(self) -> SimpleNamespace:
        """The tables ``xi``, ``xi_mag``, ``inv_xi_mag`` and ``dealias_mask`` in
        the half layout: the first n//2 + 1 entries of the last axis."""
        cut = lambda a: np.ascontiguousarray(a[..., : self.n // 2 + 1])  # noqa: E731
        return SimpleNamespace(xi=cut(self.xi), xi_mag=cut(self.xi_mag),
                               inv_xi_mag=cut(self.inv_xi_mag),
                               dealias_mask=cut(self.dealias_mask))

    def tables(self, coef: np.ndarray):
        """The wavevector tables in the layout of ``coef``: ``half`` when its
        last axis holds n//2 + 1 entries, the grid's own otherwise."""
        return self.half if _is_half(self, coef) else self

    @property
    def xi_min(self) -> float:
        return np.pi / self.box_half

    @property
    def xi_max(self) -> float:
        return math.sqrt(3.0) * (self.n / 2) * np.pi / self.box_half

    @property
    def cell_volume_xi(self) -> float:
        return (np.pi / self.box_half) ** 3


def _axis_modes(n: int) -> np.ndarray:
    """The integer modes of one axis of n points, FFT layout."""
    return np.rint(sfft.fftfreq(n, d=1.0 / n)).astype(int)


def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    return sfft.fftn(values, axes=(-3, -2, -1), norm="ortho", workers=_FFT_WORKERS)


def to_physical(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """Values of a coefficient field: real from the half layout, complex from
    the full one.  Leading axes are batched into one transform."""
    if _is_half(grid, coef):
        return sfft.irfftn(coef, s=(grid.n,) * 3, axes=(-3, -2, -1), norm="ortho",
                           workers=_FFT_WORKERS)
    return sfft.ifftn(coef, axes=(-3, -2, -1), norm="ortho", workers=_FFT_WORKERS)


def to_half(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half-layout coefficients of real values; leading axes batched."""
    return sfft.rfftn(values, axes=(-3, -2, -1), norm="ortho", workers=_FFT_WORKERS)


def derivatives(grid: Grid, coef: np.ndarray, order: int):
    """Yield the values of D^gamma of the rows of the half-layout ``coef`` for
    |gamma| <= order as ``(k, r, x0, vals)``: k indexes gamma = (a, b, c) in
    lexicographic order (0 first), r the row of ``coef`` (its leading axes
    flattened), and ``vals`` (m, n, n) the values on the x planes x0..x0+m-1.

    The output comes in slabs of ``SLAB_VALUES // n**2`` x planes (at least
    one; the last slab may hold fewer), slab by slab, each slab row by row
    and each row gamma by gamma, so a caller reduces a slab while it is
    still in cache.  ``vals`` is one buffer, overwritten by the next yield:
    a caller may change it in place and must copy what it keeps.

    Each one-axis inverse pass is a matrix product (``_pass_matrices``) over
    the field's support only (``_support``): the x and y modes holding a
    nonzero entry of some row, which wrap around 0, and the prefix 0..K of
    the z half axis.  Per slab and row one pass runs along x per a and one
    along y per (a, b); the z leaf per gamma is one real matrix product over
    the interleaved (re, im) columns, which weights each mode by its
    Hermitian multiplicity and, as ``irfft`` does, drops the imaginary part
    of the self-mirrored modes 0 and n/2.

    ``_derivatives`` is the same engine restricted to a selection of
    (gamma, row) entries: it yields only those, skips each z leaf, y pass,
    x pass and row with no selected entry below it, and gives each entry
    it yields the same values bit for bit, as the support and every pass
    stay those of all the rows."""
    supp = _support(grid, coef)
    yield from _derivatives(grid, supp, order,
                            np.ones((len(_multi_indices(order)), len(supp[3])), bool))


def _support(grid: Grid, coef: np.ndarray) -> tuple:
    """The joint support of the rows of the half-layout ``coef`` as (sx, sy,
    sz, sub): the x and y modes holding a nonzero entry of some row, the z
    prefix 0..K, and the rows' entries on that box, (rows, len(sx), len(sy),
    len(sz))."""
    n, h = grid.n, grid.n // 2
    rows = coef.reshape((-1, n, n, h + 1))
    live = rows.any(axis=0)
    sx, sy, sz = (np.flatnonzero(live.any(axis=ax)) for ax in ((1, 2), (0, 2), (0, 1)))
    sz = np.arange(sz[-1] + 1 if sz.size else 0)
    return sx, sy, sz, rows[np.ix_(range(len(rows)), sx, sy, sz)]


def _multi_indices(order: int) -> tuple:
    """The multi-indices gamma = (a, b, c), |gamma| <= order, in lexicographic order."""
    return tuple((a, b, c) for a in range(order + 1) for b in range(order + 1 - a)
                 for c in range(order + 1 - a - b))


def _derivatives(grid: Grid, supp: tuple, order: int, want: np.ndarray):
    """`derivatives` of the field with support ``supp``, yielding only the
    entries (k, r) where the boolean (gammas, rows) array ``want`` holds."""
    n = grid.n
    sx, sy, sz, sub = supp
    xi = grid.half.xi
    ex = _pass_matrices(grid, sx, xi[0][sx, 0, 0], order)
    ey = _pass_matrices(grid, sy, xi[1][0, sy, 0], order)
    # Re(X t) = Re X Re t - Im X Im t on the interleaved columns of X; the
    # self-mirrored phases are real, so only Re(X (i xi)^c) reaches them
    w = _multiplicity(grid, sz)
    leaf = []
    for t in _pass_matrices(grid, sz, xi[2][0, 0, sz], order):
        t = (w * t).T
        leaf.append(np.stack((t.real, -t.imag), axis=1).reshape(2 * sz.size, n))
    # per row, its selected entries as {a: {b: [(c, k), ...]}}, in the order of k
    plan = [{} for _ in sub]
    lex = _multi_indices(order)
    for k, r in zip(*np.nonzero(want)):
        a, b, c = lex[k]
        plan[r].setdefault(a, {}).setdefault(b, []).append((c, int(k)))
    sub = sub.reshape(len(sub), sx.size, sy.size * sz.size)
    planes = max(1, SLAB_VALUES // (n * n))
    buf = np.empty(planes * n * n)
    for x0 in range(0, n, planes):
        m = min(planes, n - x0)
        vals = buf[: m * n * n].reshape(m * n, n)
        for r, xs in enumerate(plan):
            for a, ys in xs.items():
                cx = (ex[a][x0 : x0 + m] @ sub[r]).reshape(m, sy.size, sz.size)
                for b, zs in ys.items():
                    cy = (ey[b] @ cx).view(np.float64).reshape(m * n, 2 * sz.size)
                    for c, k in zs:
                        np.matmul(cy, leaf[c], out=vals)
                        yield k, r, x0, vals.reshape(m, n, n)


def _derivative_bounds(grid: Grid, supp: tuple, order: int) -> np.ndarray:
    """The (gammas, rows) array of B[k, r] = n^{-3/2} sum_m mu(m) |c_r(m)|
    |xi_x|^a |xi_y|^b |xi_z|^c over the stored modes m, gamma_k = (a, b, c),
    with mu the Hermitian multiplicity: 1 on the self-mirrored z planes 0 and
    n/2, 2 elsewhere.  B[k, r] bounds sup |D^gamma c_r|: each entry of a pass
    matrix has modulus |xi|^deg / sqrt(n), and the z leaf weights a mode by
    mu.  Formed as the passes are, one contraction per axis over the support,
    so no array grows past the support and each sum has at most n terms."""
    sx, sy, sz, sub = supp
    xi, deg = grid.half.xi, np.arange(order + 1)
    w = _multiplicity(grid, sz)
    t = np.abs(sub) @ (w[:, None] * np.abs(xi[2][0, 0, sz])[:, None] ** deg)  # (r, x, y, c)
    t = np.swapaxes(t, 2, 3) @ (np.abs(xi[1][0, sy, 0])[:, None] ** deg)  # (r, x, c, b)
    t = np.moveaxis(t, 1, 3) @ (np.abs(xi[0][sx, 0, 0])[:, None] ** deg)  # (r, c, b, a)
    a, b, c = np.array(_multi_indices(order)).T
    return t[:, c, b, a].T * grid.n**-1.5


def _multiplicity(grid: Grid, sz: np.ndarray) -> np.ndarray:
    """The Hermitian multiplicity of the z half-axis modes ``sz``: 1 on the
    self-mirrored modes 0 and n/2, 2 elsewhere."""
    return np.where((sz == 0) | (sz == grid.n // 2), 1.0, 2.0)


def _pass_matrices(grid: Grid, modes: np.ndarray, xi: np.ndarray, order: int) -> list:
    """The (n, len(modes)) matrices e^{2 pi i m j/n} (i xi_m)^deg / sqrt(n)
    of the one-axis inverse passes over ``modes``, deg = 0..order; the
    phases +-1 are exact."""
    n = grid.n
    jm = np.outer(np.arange(n), modes) % n
    e = np.exp((2j * np.pi / n) * jm)
    e[jm == 0], e[2 * jm == n] = 1.0, -1.0
    return [e * ((1j * xi) ** deg / math.sqrt(n)) for deg in range(order + 1)]


def _is_half(grid: Grid, coef: np.ndarray) -> bool:
    return coef.shape[-1] == grid.n // 2 + 1


def _inv0(x: np.ndarray) -> np.ndarray:
    """1/x continued by 0 at x = 0 (lattice zero-mode convention)."""
    out = np.zeros_like(x)
    np.divide(1.0, x, out=out, where=x != 0)
    return out


# ---------------------------------------------------------------------------
# symmetry helpers


def _negate_modes(coef: np.ndarray, axes: tuple) -> np.ndarray:
    """coef with the modes along ``axes`` negated (index i -> -i mod n)."""
    rev = tuple(slice(None, None, -1) if ax - coef.ndim in axes else slice(None)
                for ax in range(coef.ndim))
    return np.roll(coef[rev], 1, axis=axes)


def hermitize(coef: np.ndarray) -> np.ndarray:
    """A copy of the half-layout coef with its self-mirrored planes made real:
    each entry there becomes the mean of itself and its mirror's conjugate."""
    out = np.array(coef, dtype=complex)
    if out.shape[-1] != out.shape[-2] // 2 + 1:
        raise ValueError(f"hermitize takes a half-layout array, got shape {out.shape}")
    planes = out[..., [0, -1]]
    out[..., [0, -1]] = 0.5 * (planes + np.conj(_negate_modes(planes, (-3, -2))))
    return out


def is_hermitian(coef: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether the half-layout coef holds the coefficients of a real field:
    only the self-mirrored planes, last-axis modes 0 and n/2, can break
    that, so only they are compared with their mirrors."""
    if coef.shape[-1] != coef.shape[-2] // 2 + 1:
        raise ValueError(f"is_hermitian takes a half-layout array, got shape {coef.shape}")
    planes = coef[..., [0, -1]]
    gap = float(np.max(np.abs(planes - np.conj(_negate_modes(planes, (-3, -2))))))
    # the tolerance scales with max(1, max |coef|), which only a gap above tol reads
    return gap <= tol or gap <= tol * max(1.0, float(np.max(np.abs(coef))))


def full_spectrum(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """The full layout of half-layout coefficients: each missing entry is the
    conjugate of its mirror, c(-xi) = conj c(xi)."""
    h = grid.n // 2
    out = np.empty(coef.shape[:-1] + (grid.n,), dtype=coef.dtype)
    out[..., : h + 1] = coef
    np.conjugate(_negate_modes(coef[..., h - 1:0:-1], (-3, -2)), out=out[..., h + 1:])
    return out


def _zero_nyquist(grid: Grid, coef: np.ndarray) -> None:
    """Zero the Nyquist planes (index n/2 on any axis) of the half-layout
    ``coef`` in place (see the module conventions)."""
    h = grid.n // 2
    coef[..., h, :, :] = coef[..., :, h, :] = coef[..., h] = 0.0


# ---------------------------------------------------------------------------
# multipliers and vector calculus


def grad(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.tables(f).xi * (1j * f)


def div(grid: Grid, f: np.ndarray) -> np.ndarray:
    return 1j * np.sum(grid.tables(f).xi * f, axis=0)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[j] * b[k], a[k] * b[j], out=out[i])
    return out


def curl(grid: Grid, f: np.ndarray) -> np.ndarray:
    return 1j * cross(grid.tables(f).xi, f)


def riesz(grid: Grid, f: np.ndarray) -> np.ndarray:
    """R_alpha f = i xi_alpha / |xi| * f, zero mode -> 0.  Scalar in, vector out."""
    t = grid.tables(f)
    return 1j * t.xi * t.inv_xi_mag * f


def inv_modulus(grid: Grid, f: np.ndarray) -> np.ndarray:
    """|nabla|^{-1} with the zero mode mapped to 0."""
    return grid.tables(f).inv_xi_mag * f


def q_apply(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Q f = |nabla|^{-1} (curl f); kills gradients and the zero mode."""
    t = grid.tables(f)
    return 1j * t.inv_xi_mag * cross(t.xi, f)


def p_long(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Longitudinal projection xi (xi . f)/|xi|^2, zero mode -> 0."""
    t = grid.tables(f)
    return t.xi * (np.sum(t.xi * f, axis=0) * t.inv_xi_mag**2)


def q2_apply(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Transverse projection Q^2 = Id - P on nonzero modes."""
    out = f - p_long(grid, f)
    out[..., 0, 0, 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# continuum-calibrated norms


def l2_norm(grid: Grid, coef: np.ndarray) -> float:
    scale = (2.0 * grid.box_half / grid.n) ** 1.5
    if not _is_half(grid, coef):
        return scale * float(np.linalg.norm(coef.ravel()))
    # every stored entry off the self-mirrored planes stands for two
    sq = coef.real**2 + coef.imag**2
    total = 2.0 * np.sum(sq[..., 1:-1]) + np.sum(sq[..., 0]) + np.sum(sq[..., -1])
    return scale * math.sqrt(float(total))


def hat_cont(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform values on the lattice."""
    return (2.0 * grid.box_half) ** 3 * grid.n ** (-1.5) * coef


# ---------------------------------------------------------------------------
# dyadic cutoffs

_SUPP = 8.0 / 5.0
_FLAT = 5.0 / 4.0


def _smoothstep(y: np.ndarray) -> np.ndarray:
    """The bump's values at points y of its transition band (5/4, 8/5)."""
    t = (_SUPP - y) / (_SUPP - _FLAT)
    s = np.exp(-1.0 / t)
    return s / (s + np.exp(-1.0 / (1.0 - t)))


def bump(x) -> np.ndarray:
    """Even C^inf profile: 1 on [-5/4, 5/4], supported in (-8/5, 8/5); its
    exponential smoothstep is formed on the transition band only."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.where(x <= _FLAT, 1.0, np.where(x >= _SUPP, 0.0, np.nan))
    band = (x > _FLAT) & (x < _SUPP)
    out[band] = _smoothstep(x[band])
    return out


def phi_low(x, m: int) -> np.ndarray:
    """Cutoff to scales <= 2^m: bump(x / 2^m)."""
    return bump(np.asarray(x, dtype=float) / 2.0**m)


def phi_shell(x, k: int) -> np.ndarray:
    return phi_low(x, k) - phi_low(x, k - 1)


def phi_interval(x, a: int, b: int) -> np.ndarray:
    """Telescoped cutoff to the dyadic band [2^a, 2^b] (shells a..b), a <= b.

    Bit-identical to phi_low(x, b) - phi_low(x, a - 1), NaN included: the
    band edges c 2^m are exact, so comparing |x| with them decides what
    comparing |x| / 2^m with c does.  The smoothstep is formed only on the
    two transition bands, 1 - bump on (1.25, 1.6) 2^(a-1) and bump on
    (1.25, 1.6) 2^b; between them the value is 1, outside them 0.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    x = np.abs(np.asarray(x, dtype=float))
    flat = x.reshape(-1)
    lo, hi = 2.0 ** (a - 1), 2.0**b
    out = ((flat >= _SUPP * lo) & (flat <= _FLAT * hi)).astype(float)
    out[np.isnan(flat)] = np.nan
    inner = np.flatnonzero((flat > _FLAT * lo) & (flat < _SUPP * lo))
    out[inner] = 1.0 - _smoothstep(flat[inner] / lo)
    outer = np.flatnonzero((flat > _FLAT * hi) & (flat < _SUPP * hi))
    out[outer] = _smoothstep(flat[outer] / hi)
    return out.reshape(x.shape)


def phi_tilde(x, k: int, j: int) -> np.ndarray:
    """Spatial piece j of the frequency-k localization.

    The j-sum starting at max(-k, 0) telescopes to 1 pointwise; the first
    piece absorbs the whole ball |x| <~ 2^{max(-k,0)}.
    """
    if j < max(-k, 0):
        raise ValueError("(k, j) outside the admissible index set")
    if k + j == 0 and k <= 0:
        return phi_low(x, -k)
    if j == 0 and k >= 0:
        return phi_low(x, 0)
    return phi_shell(x, j)


def lp_project(grid: Grid, f: np.ndarray, k: int) -> np.ndarray:
    return phi_shell(grid.tables(f).xi_mag, k) * f


def shell_range(grid: Grid) -> range:
    """Frequency shells that both touch the lattice and partition it."""
    kmin = math.floor(math.log2(0.625 * grid.xi_min)) + 1
    kmax = math.ceil(math.log2(1.6 * grid.xi_max)) - 1
    return range(kmin, kmax + 1)


def spatial_range(grid: Grid, k: int) -> range:
    """Spatial shells for frequency k; the last bump covers the whole box."""
    j0 = max(-k, 0)
    jmax = math.ceil(math.log2(0.8 * math.sqrt(3.0) * grid.box_half))
    return range(j0, max(jmax, j0) + 1)


def spatial_localize(grid: Grid, f: np.ndarray, k: int, j: int) -> np.ndarray:
    w = phi_tilde(grid.x_radius, k, j)
    return to_spectral(grid, w * to_physical(grid, f))


# ---------------------------------------------------------------------------
# weighted shell norms


@dataclass(frozen=True)
class DyadicPiece:
    k: int
    j: int
    field: np.ndarray

    def __post_init__(self):
        if self.j < max(-self.k, 0):
            raise ValueError("(k, j) outside the admissible index set")


#: the weight exponent beta of the Z-norm; its other exponents are
#: alpha = beta/2 and gamma = 3/2 - 4 beta
BETA = 0.01


# one z_norm_upper on one grid reads the balls m = -jmax..kmax: 10 of them at
# 64^3 and 12 at 256^3 (default box), so 12 keeps every ball of a call while
# bounding what a long-running process holds to 12 (n, n, n) complex arrays
_BALL_CACHE_SIZE = 12


@functools.lru_cache(maxsize=_BALL_CACHE_SIZE)
def _ball_kernel_hat(grid: Grid, m: int) -> np.ndarray:
    """n^{3/2} (the convolution constant) times the transform of the lattice
    indicator of the ball |xi| <= 2^m (minimal image)."""
    ind = (grid.xi_mag <= 2.0**m).astype(float)
    return grid.n**1.5 * to_spectral(grid, ind)


def _ball_sum_max(grid: Grid, fa: np.ndarray, m: int) -> float:
    # circular convolution: sum of the |hat| array over a ball around every
    # lattice center at once; the periodic wrap can only enlarge a ball, so
    # the sup stays an upper bound for its continuum counterpart
    s = to_physical(grid, fa * _ball_kernel_hat(grid, m)).real
    return float(s.max())


def _flat_hat(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """Pointwise modulus of hat_cont, vector components combined."""
    a = np.abs(hat_cont(grid, coef))
    if a.ndim > 3:
        a = np.sqrt(np.sum(a**2, axis=tuple(range(a.ndim - 3))))
    return a


def b_norms(grid: Grid, piece: DyadicPiece) -> dict:
    """The two admissible shell norms and their min, an upper bound for the
    infimum norm of the (k, j) piece."""
    k, j = piece.k, piece.j
    a = _flat_hat(grid, piece.field)
    if not np.any(a):
        return {"B1": 0.0, "B2": 0.0, "B_upper": 0.0}

    hl2 = l2_norm(grid, piece.field)
    hsup = float(a.max())
    lead = 2.0 ** (BETA / 2.0 * k) + 2.0 ** (10.0 * k)
    ktil = min(k, 0)

    b1 = lead * (2.0 ** ((1.0 + BETA) * j) * hl2 + 2.0 ** (0.5 * ktil - BETA * ktil) * hsup)

    fa = to_spectral(grid, a)
    ball = max(
        4.0 ** (-m) * _ball_sum_max(grid, fa, m) * grid.cell_volume_xi
        for m in range(-j, k + 1)
    )
    b2 = 2.0 ** (10.0 * abs(k)) * lead * (
        2.0 ** ((1.0 - BETA) * j) * hl2 + hsup + 2.0 ** ((1.5 - 4.0 * BETA) * j) * ball
    )
    return {"B1": b1, "B2": b2, "B_upper": min(b1, b2)}


@dataclass(frozen=True)
class ZNormUpper:
    value: float
    k: int
    j: int
    table: tuple


def z_norm_upper(grid: Grid, f: np.ndarray) -> ZNormUpper:
    """sup over reachable (k, j) of the per-piece upper bound B_upper."""
    best = (0.0, 0, 0)
    rows = []
    for k in shell_range(grid):
        fk = lp_project(grid, f, k)
        if not np.any(fk):
            continue
        fk_phys = to_physical(grid, fk)
        for j in spatial_range(grid, k):
            w = phi_tilde(grid.x_radius, k, j)
            piece = DyadicPiece(k, j, to_spectral(grid, w * fk_phys))
            b = b_norms(grid, piece)
            rows.append((k, j, b["B1"], b["B2"], b["B_upper"]))
            if b["B_upper"] > best[0]:
                best = (b["B_upper"], k, j)
    return ZNormUpper(value=best[0], k=best[1], j=best[2], table=tuple(rows))


# ---------------------------------------------------------------------------
# random band-limited fields


def _is_int(x) -> bool:
    """Whether x is an integer value of an integer type, bool excluded."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def random_real_field(grid: Grid, rng, kmax: int | None = None, rms: float = 1.0) -> np.ndarray:
    """Half-layout coefficients of a real Gaussian field (``to_half`` of n^3
    normals), band-limited to |m_axis| <= kmax, mean zero, rms ``rms``.

    ``kmax`` is None (no band limit) or an integer >= 1: below 1 only the
    mean would survive, and it is removed, so no rms could be met."""
    if kmax is not None and not (_is_int(kmax) and kmax >= 1):
        raise ValueError(f"kmax must be None or an integer >= 1, got {kmax!r}")
    if isinstance(rms, (bool, np.bool_)) or not (np.isfinite(rms) and rms >= 0.0):
        raise ValueError(f"rms must be finite and >= 0, got {rms!r}")
    coef = to_half(grid, rng.standard_normal((grid.n,) * 3))
    if kmax is not None:
        # max_axis |m_axis| <= kmax, from one mask per axis
        k = np.abs(_axis_modes(grid.n)) <= kmax
        coef *= k[:, None, None] & k[None, :, None] & k[None, None, : grid.n // 2 + 1]
    coef[0, 0, 0] = 0.0
    norm = l2_norm(grid, coef)  # (2L)^{3/2} times the values' rms
    if norm > 0:
        coef *= rms * (2.0 * grid.box_half) ** 1.5 / norm
    return coef


def random_vector_field(grid: Grid, rng, kmax: int | None = None, rms: float = 1.0) -> np.ndarray:
    return np.stack([random_real_field(grid, rng, kmax=kmax, rms=rms) for _ in range(3)])
