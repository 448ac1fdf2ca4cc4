"""Tests for the dispersive change of variables and the multiplier catalog."""

import warnings

import numpy as np
import pytest

from twofluid import diagonal, physics, spectral
from twofluid.diagonal import (
    CATALOG_PAIRS,
    DispState,
    SPECIES,
    dispersive_residual,
    from_dispersive,
    hn_norm,
    multiplier,
    nonlinearity_direct,
    nonlinearity_multiplier,
    profile,
    species_split,
    to_dispersive,
)
from twofluid.dispersion import coupling, lam, q_i
from twofluid.params import PlasmaParams
from twofluid.spectral import (Grid, is_hermitian, l2_norm, q2_apply, random_real_field,
                               to_physical, to_spectral)

P = PlasmaParams(epsilon=1.0e-3, T=1.0, C_b=6.0)
G16 = Grid(16)
G32 = Grid(32)


def _rng(seed=7):
    return np.random.default_rng(seed)


def _state(grid, seed=7, amplitude=1e-3, kmax=2):
    return physics.random_irrotational(grid, P, _rng(seed), amplitude=amplitude,
                                       kmax=kmax)


def _rel(grid, a, b):
    return l2_norm(grid, a - b) / max(l2_norm(grid, a), 1e-300)


def _random_disp(grid, seed=3, kmax=2):
    """Band-limited DispState with no zero modes: P and M of each unknown
    are random real fields."""
    rng = np.random.default_rng(seed)
    return DispState(grid, np.stack([random_real_field(grid, rng, kmax=kmax)
                                     for _ in range(10)]), 0.25)


def _mirror(U):
    """The full-layout U at -xi."""
    return spectral._negate_modes(U, (-3, -2, -1))


def _zero(grid):
    return physics.PhysState(grid, np.zeros((14, grid.n, grid.n, grid.n // 2 + 1), complex), 0.0)


# -- the change of variables ----------------------------------------------------


def test_zero_state_round_trip():
    s = _zero(G16)
    d = to_dispersive(s, P)
    assert not d.U_e.any() and not d.U_i.any() and not d.U_b.any()
    back = from_dispersive(d, P)
    for name in physics.FIELDS:
        assert not getattr(back, name).any()


def test_round_trip_on_constraint_states():
    for seed, rotational in ((3, True), (11, False)):
        s = physics.random_irrotational(G32, P, _rng(seed), amplitude=1e-3,
                                        kmax=4, rotational=rotational)
        back = from_dispersive(to_dispersive(s, P), P)
        for name in physics.FIELDS:
            a, b = getattr(s, name), getattr(back, name)
            scale = max(l2_norm(G32, a), 1e-300)
            assert l2_norm(G32, a - b) / scale < 1e-11, name
    assert back.t == s.t


def test_disp_state_holds_u_as_real_fields_p_and_m():
    # the constructor wraps the rows P and M, not a copy, and full() is
    # U = P + iM: its values are those of P plus i times those of M
    rng = _rng(2)
    buf = np.stack([random_real_field(G16, rng) for _ in range(10)])
    d = DispState(G16, buf, 0.25)
    assert d.buf is buf and d.grid is G16 and d.t == 0.25
    U = to_spectral(G16, to_physical(G16, buf[:5]) + 1j * to_physical(G16, buf[5:]))
    assert U.shape == (5,) + (G16.n,) * 3
    assert np.max(np.abs(d.full() - U)) <= 1e-14 * np.max(np.abs(U))
    # U_e, U_i and U_b are read-only rows of full()
    for f, key in zip(("U_e", "U_i", "U_b"), (0, 1, slice(2, 5))):
        arr = getattr(d, f)
        assert np.array_equal(arr, d.full()[key]), f
        assert not arr.flags.writeable, f
        with pytest.raises(AttributeError):
            setattr(d, f, arr)
    z = DispState(G16, np.zeros_like(buf), 0.5)
    assert z.full().shape == U.shape and not z.full().any()


def test_to_dispersive_matches_the_module_formulas_on_one_mode():
    # an admissible state holding one mode k and its conjugate -k; on the
    # default box xi = k, and the formulas of the module docstring give U there
    g, k = G16, (1, 2, 3)
    rng = np.random.default_rng(5)
    seed = {}
    for key, lead in (("n", ()), ("rho", ()), ("v_pot", ()), ("u_pot", ()),
                      ("E_t", (3,)), ("b_seed", (3,))):
        c = np.zeros(lead + (g.n, g.n, g.n // 2 + 1), complex)  # the half layout holds k
        c[(...,) + k] = rng.normal(size=lead) + 1j * rng.normal(size=lead)
        seed[key] = 1e-3 * c
    s = physics.make_irrotational(g, P, seed)
    d = to_dispersive(s, P)

    xi = np.array(k, float)
    r = np.sqrt(xi @ xi)
    R, seps = coupling(r, P), np.sqrt(P.epsilon)
    lam_e, lam_b, qi = lam("e", r, P), lam("b", r, P), q_i(r, P)
    for sign in (1, -1):  # the stored mode and the tail entry at -xi
        at = lambda f: f[(...,) + k] if sign > 0 else np.conj(f[(...,) + k])  # noqa: E731
        x = sign * xi
        n_, rho_, v_, u_, E_, B_ = (at(getattr(s, f)) for f in physics.FIELDS)
        h, gg = -1j * (x @ v_) / r, -1j * (x @ u_) / r
        c = 1.0 / (2.0 * np.sqrt(1.0 + R ** 2))
        U_e = c * (-seps * lam_e / r * n_ + R * lam_e / r * rho_ - 1j * seps * h + 1j * R * gg)
        U_i = c * (seps * R * qi * n_ + qi * rho_ + 1j * seps * R * h + 1j * gg)
        QB = 1j * np.cross(x, B_) / r
        Q2E = E_ - x * (x @ E_) / r ** 2
        U_b = 0.5 * (lam_b / r * QB - 1j * Q2E)
        idx = tuple(sign * np.array(k) % g.n)
        for name, want in (("U_e", U_e), ("U_i", U_i), ("U_b", U_b)):
            got = getattr(d, name)[(...,) + idx]
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (sign, name)
    mask = np.ones((g.n,) * 3, bool)
    mask[k] = mask[tuple(-np.array(k) % g.n)] = False
    assert not d.full()[:, mask].any()


def test_from_dispersive_needs_no_full_reflection(monkeypatch):
    d = _random_disp(G16, seed=13)
    want = from_dispersive(d, P)

    def boom(*args):
        raise AssertionError("full-layout reflection called")

    monkeypatch.setattr(spectral, "_negate_modes", boom)
    monkeypatch.setattr(diagonal, "full_spectrum", boom)
    np.testing.assert_array_equal(from_dispersive(d, P).buf, want.buf)


def test_to_from_recovers_projected_part():
    d = _random_disp(G16)
    again = to_dispersive(from_dispersive(d, P), P)
    assert _rel(G16, d.U_e, again.U_e) < 1e-11
    assert _rel(G16, d.U_i, again.U_i) < 1e-11
    proj = q2_apply(G16, d.U_b)
    assert l2_norm(G16, again.U_b - proj) / l2_norm(G16, d.U_b) < 1e-11
    # and the projection genuinely discards something for generic U_b
    assert l2_norm(G16, d.U_b - proj) > 1e-3 * l2_norm(G16, d.U_b)


def test_reconstruction_is_real_and_constrained():
    back = from_dispersive(_random_disp(G16, seed=9), P)
    for name in physics.FIELDS:
        f = getattr(back, name)
        for c in f if f.ndim == 4 else f[None]:
            assert is_hermitian(c, tol=1e-13)
    viol = physics.constraints(back, P)
    scale = l2_norm(G16, back.B) + l2_norm(G16, back.E)
    assert viol["div_B"] <= 1e-13 * scale
    assert viol["gauss"] <= 1e-13 * max(scale, 1.0)


def test_to_dispersive_warns_on_broken_constraints():
    s = _state(G16)
    s.B[0][1, 2, 1] += 1e-4  # the half layout stores no conjugate slot: still real
    with pytest.warns(RuntimeWarning, match="constraints"):
        to_dispersive(s, P)


def test_to_dispersive_rejects_complex_input():
    s = _state(G16)
    s.n[1, 0, 0] += 0.5  # no matching conjugate mode
    with pytest.raises(ValueError, match="not real"):
        to_dispersive(s, P)


# -- the support box ------------------------------------------------------------

# (x, y, z) indices of the half layout at G16: A = (3, -2, 1), B = (1, 2, 0)
# with its self-mirrored partner (-1, -2, 0), and entries on each Nyquist index
_A, _B, _B_MIRROR = (3, 14, 1), (1, 2, 0), (15, 14, 0)
_NYQUIST = ((8, 1, 2), (2, 8, 3), (1, 2, 8), (8, 8, 0))


def _rows_on(grid, rows, first, rest, seed):
    """(rows, n, n, n//2 + 1) half-layout coefficients: row 0 random at the
    modes ``first`` only, the other rows at ``first`` and ``rest``; the
    self-mirrored planes made real."""
    rng = np.random.default_rng(seed)
    out = np.zeros((rows, grid.n, grid.n, grid.n // 2 + 1), complex)
    for r in range(rows):
        for k in first + (rest if r else ()):
            out[(r,) + k] = rng.normal() + 1j * rng.normal()
    return spectral.hermitize(1e-3 * out)


def _box_state(kind):
    """A physical state and a dispersive state of one kind of support: the
    x and y mode 0 excluded, Nyquist indices reached, or the full lattice."""
    g = G16
    if kind == "full":
        c = _rng(4).normal(size=(2, 10) + g.half.xi_mag.shape)
        d = DispState(g, 1e-3 * spectral.hermitize(c[0] + 1j * c[1]), 0.0)
        return physics.random_irrotational(g, P, _rng(4), kmax=None), d
    first, rest = (_A,), (_B, _B_MIRROR) + (_NYQUIST if kind == "nyquist" else ())
    d = DispState(g, _rows_on(g, 10, first, rest, 5), 0.0)
    if kind == "no_zero":  # on the manifold; n at A only, the other seeds at A and B
        keys = (("n", 1), ("rho", 1), ("v_pot", 1), ("u_pot", 1), ("E_t", 3), ("b_seed", 3))
        rows = iter(_rows_on(g, 10, first, rest, 6))
        seed = {k: np.stack([next(rows) for _ in range(m)]) for k, m in keys}
        seed = {k: v[0] if len(v) == 1 else v for k, v in seed.items()}
        return physics.make_irrotational(g, P, seed), d
    # Nyquist content is off the solver's states, so this one is built by hand
    return physics.PhysState(g, _rows_on(g, 14, first, rest, 6), 0.0), d


def _whole_lattice_symbols(g):
    r = g.half.xi_mag
    R = coupling(r, P)
    return r, R, 1.0 / np.sqrt(1.0 + R**2), lam("e", r, P), lam("b", r, P), q_i(r, P)


def _whole_lattice_to(s):
    g = s.grid
    r, R, norm, lam_e, lam_b, qi = _whole_lattice_symbols(g)
    seps, half = np.sqrt(P.epsilon), 0.5 * norm
    h, gg = (-spectral.inv_modulus(g, spectral.div(g, w)) for w in (s.v, s.u))
    out = np.empty((10,) + r.shape, complex)
    out[0] = half * lam_e * g.half.inv_xi_mag * (R * s.rho - seps * s.n)
    out[1] = half * qi * (seps * R * s.n + s.rho)
    out[2:5] = 0.5 * lam_b * spectral.inv_modulus(g, spectral.q_apply(g, s.B))
    out[5] = half * (R * gg - seps * h)
    out[6] = half * (seps * R * h + gg)
    out[7:] = -0.5 * q2_apply(g, s.E)
    return out


def _whole_lattice_from(d):
    g = d.grid
    r, R, norm, lam_e, lam_b, qi = _whole_lattice_symbols(g)
    nrm2, ieps = 2.0 * norm, P.epsilon**-0.5
    Pr, Mr = d.buf[:5], d.buf[5:]
    n = nrm2 * ieps * (-(r / lam_e) * Pr[0] + R / qi * Pr[1])
    rho = nrm2 * (R * (r / lam_e) * Pr[0] + Pr[1] / qi)
    h = -nrm2 * ieps * (Mr[0] - R * Mr[1])
    gg = nrm2 * (R * Mr[0] + Mr[1])
    a = q2_apply(g, Pr[2:]) / lam_b
    v = spectral.riesz(g, h) + (2.0 / P.epsilon) * a
    u = spectral.riesz(g, gg) - 2.0 * a
    E = physics.ep_electric(g, n, rho) - 2.0 * q2_apply(g, Mr[2:])
    s = physics.PhysState._empty(g)
    s.n, s.rho, s.v, s.u, s.E, s.B = n, rho, v, u, E, 2.0 * spectral.curl(g, a)
    out = s.buf
    hn = g.n // 2
    out[:, hn], out[:, :, hn], out[..., hn] = 0.0, 0.0, 0.0
    return out


@pytest.mark.parametrize("kind", ["no_zero", "nyquist", "full"])
def test_maps_on_the_support_box_match_the_whole_lattice(kind):
    s, d = _box_state(kind)
    g = s.grid
    with warnings.catch_warnings():
        # the hand-built Nyquist state is off the constraint manifold
        warnings.simplefilter("ignore" if kind == "nyquist" else "error")
        to = to_dispersive(s, P)
    back = from_dispersive(d, P)
    for got, want in ((to.buf, _whole_lattice_to(s)), (back.buf, _whole_lattice_from(d))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        assert np.max(np.abs(want)) > 0
    assert to.t == s.t and back.t == d.t
    # the box holds mode 0 at its index (0, 0, 0), and its norm is l2_norm
    box = diagonal._Box(g, s.buf, P)
    assert all(ix.ravel()[0] == 0 for ix in box.index[1:])
    for row, sub in zip(s.buf, box.sub):
        assert box.norm(sub) == pytest.approx(l2_norm(g, row), rel=1e-14, abs=1e-300)


def test_to_dispersive_checks_read_off_the_box():
    s, _ = _box_state("no_zero")
    # a plane-0 entry whose mirror (x index 13) lies off the box: not real
    bad = physics.PhysState(s.grid, s.buf.copy(), s.t)
    bad.n[3, 14, 0] = 1e-3
    with pytest.raises(ValueError, match="field n is not real"):
        to_dispersive(bad, P)
    off = physics.PhysState(s.grid, s.buf.copy(), s.t)
    off.B[0][_A] += 1e-3
    with pytest.warns(RuntimeWarning, match="violates constraints"):
        to_dispersive(off, P)


def test_transfer_constant_is_order_one():
    # measured on this ensemble: C close to 0.36 for orders 0 and 4 alike
    ratios = []
    for seed in (3, 11, 27):
        s = physics.random_irrotational(G32, P, _rng(seed), amplitude=1e-3,
                                        kmax=4)
        d = to_dispersive(s, P)
        for order in (0, 4):
            disp = np.sqrt(hn_norm(G32, d.U_e, order) ** 2
                           + hn_norm(G32, d.U_i, order) ** 2
                           + hn_norm(G32, d.U_b, order) ** 2)
            phys = np.sqrt(sum(hn_norm(G32, getattr(s, nm), order) ** 2
                               for nm in physics.FIELDS))
            ratios.append(disp / phys)
    assert 0.05 < min(ratios) and max(ratios) < 50.0
    assert max(ratios) / min(ratios) < 1.5


def test_hn_norm_basics():
    d = _random_disp(G16)
    assert hn_norm(G16, d.U_e, 0) == pytest.approx(l2_norm(G16, d.U_e))
    assert hn_norm(G16, d.U_e, 4) > hn_norm(G16, d.U_e, 2)
    with pytest.raises(ValueError):
        hn_norm(G16, d.U_e, -1)


@pytest.mark.parametrize("order", [np.nan, np.inf, True, pytest.param(np.True_, id="np.True_")])
def test_hn_norm_rejects_a_bool_or_nonfinite_order(order):
    # unchecked, a NaN order gives a NaN norm, and True the H^1 norm
    with pytest.raises(ValueError, match="order must be finite and nonnegative"):
        hn_norm(G16, _random_disp(G16).U_e, order)


# -- nonlinearities, both routes ------------------------------------------------


def test_nonlinearity_zero_state():
    z = _zero(G16)
    for N in nonlinearity_direct(z, P):
        assert not N.any()
    for N in nonlinearity_multiplier(to_dispersive(z, P), P):
        assert not N.any()


def test_re_nb_vanishes_exactly():
    _, _, N_b = nonlinearity_direct(_state(G32, kmax=4), P)
    re_part = 0.5 * (N_b + np.conj(_mirror(N_b)))
    assert np.max(np.abs(re_part)) == 0.0


def test_bilinearity_exponent():
    s = _state(G16, seed=5)
    big = physics.PhysState(s.grid, 2.0 * s.buf, s.t)
    for N1, N2 in zip(nonlinearity_direct(s, P), nonlinearity_direct(big, P)):
        expo = np.log2(l2_norm(G16, N2) / l2_norm(G16, N1))
        assert abs(expo - 2.0) < 0.01


def test_direct_and_multiplier_routes_agree():
    # the executable form of the whole catalog: every pair participates
    s = _state(G32, seed=11, amplitude=1e-3, kmax=4)
    d = to_dispersive(s, P)
    direct = nonlinearity_direct(s, P)
    conv = nonlinearity_multiplier(d, P)
    for name, a, b in zip(("N_e", "N_i", "N_b"), direct, conv):
        rel = l2_norm(G32, a - b) / l2_norm(G32, a)
        assert rel < 1e-9, f"{name}: {rel:.3e}"


def _hand_convolution(d):
    """(N_e, N_i, N_b) of ``d`` summed one mode pair at a time against
    `multiplier`, and the catalog pairs that contributed."""
    n, K, U = d.grid.n, d.grid.modes, d.full()
    tables = {mu: {} for mu in SPECIES}
    for row, mu in enumerate(("e", "i", "b1", "b2", "b3")):
        plus, minus = (mu[0] + sign + mu[1:] for sign in "+-")
        for idx in zip(*np.nonzero(U[row])):
            k = tuple(K[(slice(None),) + idx])
            tables[plus][k] = U[row][idx]
            tables[minus][tuple(-np.array(k))] = np.conj(U[row][idx])

    hand = [np.zeros((n,) * 3, complex), np.zeros((n,) * 3, complex),
            np.zeros((3,) + (n,) * 3, complex)]
    used = set()
    c = n ** -1.5
    for mu, nu in CATALOG_PAIRS:
        for kz, wz in tables[mu].items():
            for kh, wh in tables[nu].items():
                xi = np.add(kz, kh).astype(float)
                idx = tuple(np.add(kz, kh) % n)
                eta = np.array(kh, float)
                for N, sigma in zip(hand, "eib"):
                    m = multiplier(sigma, mu, nu, xi, eta, P)
                    N[(...,) + idx] += c * wz * wh * m
                    if np.any(m != 0):
                        used.add((mu[0], nu[0]))
    return hand, used


@pytest.mark.parametrize("modes,kinds", [
    # P of U_e at one mode and its M at another, U_i = U_b = 0
    ({0: [((1, 0, 1), 0.3 - 0.7j)], 5: [((0, -2, 1), -0.2 + 0.4j)]}, {("e", "e")}),
    # U_e, U_i and the first U_b component at different wavevectors, the last
    # on a self-mirrored plane: the joint support holds points where two of
    # the three species vanish
    ({0: [((1, 0, 1), 0.3 - 0.7j)], 6: [((0, -2, 1), -0.2 + 0.4j)],
      2: [((-1, 1, 0), 0.5 + 0.1j)]},
     {("e", "e"), ("i", "i"), ("b", "b"), ("e", "i"), ("e", "b"), ("i", "b")}),
], ids=["e_only", "differing_supports"])
def test_multiplier_route_matches_handmade_convolution(modes, kinds):
    # every surviving term reconstructed one by one; the entries are those of
    # the buffer rows P and M, made real fields
    buf = np.zeros((10, G16.n, G16.n, G16.n // 2 + 1), complex)
    for row, entries in modes.items():
        for k, z in entries:
            buf[row][k] = z
    d = DispState(G16, spectral.hermitize(buf), 0.0)
    hand, used = _hand_convolution(d)
    assert used == kinds

    route = nonlinearity_multiplier(d, P)
    for N, want in zip(route, hand):
        assert np.allclose(N, want, atol=1e-15)
    # acoustic input feeds every output branch
    assert all(l2_norm(G16, N) > 0 for N in route)


def test_multiplier_builds_one_block_per_tile(monkeypatch):
    # the geometry and radial tables of a tile serve every catalog pair
    d = _random_disp(G16, seed=4)
    U = d.full()
    support = np.count_nonzero(np.concatenate((U, np.conj(_mirror(U)))).any(axis=0))
    whole = nonlinearity_multiplier(d, P)

    built = []

    class Counting(diagonal._Block):
        def __init__(self, *args):
            built.append(args[0].shape)
            super().__init__(*args)

    evaluated = []  # (tile, pair) of every catalog evaluation
    pair_rows = diagonal._pair_rows

    def counting_rows(mu, nu, t):
        evaluated.append((len(built), (mu, nu)))
        return pair_rows(mu, nu, t)

    rows = 16
    monkeypatch.setattr(diagonal, "_Block", Counting)
    monkeypatch.setattr(diagonal, "_pair_rows", counting_rows)
    monkeypatch.setattr(diagonal, "_CONV_BLOCK", rows * support)
    tiled = nonlinearity_multiplier(d, P)
    assert len(built) == -(-support // rows) > 1
    assert sum(shape[1] for shape in built) == support
    # each tile evaluates each catalog pair once, all three of its output
    # rows together: 61 evaluations per tile (one per output would be 183)
    for tile in range(1, len(built) + 1):
        assert [pair for k, pair in evaluated if k == tile] == list(CATALOG_PAIRS)
    assert len(evaluated) == 61 * len(built)
    # the tiles visit the point pairs in the same order as one whole tile
    for a, b in zip(tiled, whole):
        assert np.array_equal(a, b)


def test_single_species_isolation(monkeypatch):
    # with U_e = U_b = 0 the ion-ion pairs are the only active ones
    buf = np.zeros((10, G16.n, G16.n, G16.n // 2 + 1), complex)
    buf[[1, 6]] = _random_disp(G16, seed=21).buf[[1, 6]]
    d = DispState(G16, buf, 0.25)
    full = nonlinearity_multiplier(d, P)

    only = DispState(G16, buf.copy(), 0.0)
    for a, b in zip(full, nonlinearity_multiplier(only, P)):
        assert np.array_equal(a, b)
    # and the catalog cut to the ion-ion pairs gives the same sums
    monkeypatch.setattr(diagonal, "CATALOG_PAIRS", (("i+", "i+"), ("i+", "i-"), ("i-", "i-")))
    for a, b in zip(full, nonlinearity_multiplier(d, P)):
        assert np.array_equal(a, b)


# -- the catalog itself ----------------------------------------------------------


def _row_components(row):
    """The DispState buffer rows that a yielded catalog row covers."""
    return np.atleast_1d(np.arange(5)[row]).tolist()


def _generic_block(seed=41):
    rng = _rng(seed)
    xi, eta = rng.normal(size=(2, 3, 64))
    return xi, eta, diagonal._Block(xi, xi - eta, eta, P)


@pytest.mark.parametrize("mu,nu", CATALOG_PAIRS, ids=[f"{m},{n}" for m, n in CATALOG_PAIRS])
def test_catalog_pair_yields_exactly_its_nonzero_rows(mu, nu):
    xi, eta, t = _generic_block()
    got = list(diagonal._pair_rows(mu, nu, t))
    s1, _, a1 = species_split(mu)
    s2, _, a2 = species_split(nu)
    if s2 != "b":
        want = [[0], [1], [2, 3, 4]]  # acoustic: e, i and the whole b vector
    elif s1 != "b":
        want = [[0], [1], [2 + a2]]  # mixed: e, i and the component of nu
    else:
        want = [[0], [1]] if a1 == a2 else []  # magnetosonic: diagonal, no b
    assert sorted(_row_components(row) for row, _ in got) == want
    for _, vals in got:
        assert np.all(vals != 0)
    # every output the pair does not yield is exactly zero
    covered = {c for row, _ in got for c in _row_components(row)}
    for sigma, comps in (("e", {0}), ("i", {1}), ("b", {2, 3, 4})):
        if not comps & covered:
            assert not np.any(multiplier(sigma, mu, nu, xi, eta, P))


def test_catalog_yields_140_of_305_row_components():
    # 61 pairs times five components, less the 165 that vanish by construction:
    # the two b components off nu's in each of the 24 mixed pairs, the b
    # vector of all 27 magnetosonic pairs, and their e and i rows off the
    # diagonal (18 pairs)
    _, _, t = _generic_block()
    total = sum(len(_row_components(row))
                for mu, nu in CATALOG_PAIRS for row, _ in diagonal._pair_rows(mu, nu, t))
    assert 61 * 5 - total == 24 * 2 + 27 * 3 + 18 * 2
    assert total == 140


def test_catalog_pair_census():
    assert len(CATALOG_PAIRS) == len(set(CATALOG_PAIRS)) == 61
    acoustic = ("e+", "e-", "i+", "i-")
    same = [(m, n) for m, n in CATALOG_PAIRS
            if m[0] == n[0] and m[0] in ("e", "i")]
    assert len(same) == 6
    cross = [(m, n) for m, n in CATALOG_PAIRS if (m[0], n[0]) == ("e", "i")]
    assert len(cross) == 4
    bb = [(m, n) for m, n in CATALOG_PAIRS if m[0] == n[0] == "b"]
    assert len(bb) == 27
    mixed = [(m, n) for m, n in CATALOG_PAIRS if m[0] != "b" and n[0] == "b"]
    assert len(mixed) == 24
    # magnetosonic entries never lead a mixed pair
    assert not any(m[0] == "b" and n[0] != "b" for m, n in CATALOG_PAIRS)
    assert set(acoustic + tuple(f"b{s}{a}" for s in "+-" for a in "123")) \
        == set(SPECIES)


def test_species_split():
    assert species_split("e+") == ("e", "+", None)
    assert species_split("b-2") == ("b", "-", 1)
    with pytest.raises(ValueError):
        species_split("x+")


def test_multiplier_rejects_off_catalog_pairs():
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="catalog"):
        multiplier("e", "i+", "e+", xi, eta, P)  # reversed mixed order
    with pytest.raises(ValueError, match="catalog"):
        multiplier("e", "b+1", "e+", xi, eta, P)
    with pytest.raises(ValueError, match="branch"):
        multiplier("q", "e+", "e+", xi, eta, P)


def test_t_eee_prefactor_value():
    # equilateral configuration |xi| = |xi-eta| = |eta| = 1: the geometry
    # bracket reduces to 1/8, exposing the prefactor itself
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])
    R1 = float(coupling(1.0, P))
    want = 1j * (P.epsilon ** -0.5 - R1 ** 3) / (1.0 + R1 ** 2) ** 1.5 / 8.0
    got = multiplier("e", "e+", "e+", xi, eta, P)
    assert got == pytest.approx(want, rel=1e-12)


def test_ion_row_null_structure():
    # |m_i| <= C |xi| down to tiny |xi|; measured C stays below 1 here
    rng = _rng(17)
    eta = np.array([0.7, -0.3, 0.5])
    worst = 0.0
    for pair in (("e+", "e+"), ("e+", "i-"), ("i+", "i+"), ("e+", "b+2"),
                 ("b+1", "b-1"), ("i-", "b-3")):
        for mag in (2.0 ** -6, 2.0 ** -8, 2.0 ** -10):
            direction = rng.normal(size=3)
            xi = mag * direction / np.linalg.norm(direction)
            ratio = abs(multiplier("i", *pair, xi, eta, P)) / mag
            worst = max(worst, ratio)
    assert worst < 5.0, f"max |m_i|/|xi| = {worst:.3e} for |xi| <= 2^-6"


def test_electron_row_growth_bound():
    rng = _rng(23)
    eta = np.array([0.7, -0.3, 0.5])
    for pair in (("e+", "e+"), ("e+", "i-"), ("i+", "i+"), ("e+", "b+2"),
                 ("b+1", "b-1")):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        for mag in (0.25, 1.0, 4.0, 16.0, 64.0):
            m = multiplier("e", *pair, mag * direction, eta, P)
            assert abs(m) <= 40.0 * np.sqrt(1.0 + mag ** 2)


def test_zero_output_mode_conventions():
    eta = np.array([0.4, 1.1, -0.2])
    zero = np.zeros(3)
    for pair in (("e+", "e-"), ("i+", "i-"), ("e+", "b+1"), ("b+2", "b-2")):
        assert multiplier("i", *pair, zero, eta, P) == 0.0
        assert multiplier("e", *pair, zero, eta, P) == 0.0
        assert not multiplier("b", *pair, zero, eta, P).any()


def test_bb_pairs_are_diagonal_and_doubled():
    xi = np.array([0.3, -1.2, 0.8])
    eta = np.array([-0.9, 0.4, 0.6])
    assert multiplier("e", "b+1", "b+2", xi, eta, P) == 0.0
    pp = multiplier("e", "b+1", "b+1", xi, eta, P)
    mm = multiplier("e", "b-1", "b-1", xi, eta, P)
    pm = multiplier("e", "b+1", "b-1", xi, eta, P)
    assert pp == mm and pm == pytest.approx(2.0 * pp, rel=1e-14)
    # the magnetosonic output has no such source at all
    assert not multiplier("b", "b+1", "b-1", xi, eta, P).any()


def test_b_row_is_transverse():
    xi = np.array([0.3, -1.2, 0.8])
    eta = np.array([-0.9, 0.4, 0.6])
    for pair in (("e+", "e-"), ("e-", "i+"), ("i+", "b-2")):
        m = multiplier("b", *pair, xi, eta, P)
        assert abs(np.dot(xi, m)) < 1e-14 * max(np.max(np.abs(m)), 1e-300)


def test_multiplier_batch_evaluation_matches_scalar():
    rng = _rng(31)
    xis = rng.normal(size=(3, 5))
    etas = rng.normal(size=(3, 5))
    batch = multiplier("e", "e+", "i-", xis, etas, P)
    for j in range(5):
        single = multiplier("e", "e+", "i-", xis[:, j], etas[:, j], P)
        assert batch[j] == pytest.approx(single, rel=1e-14)


# -- residuals and profiles -------------------------------------------------------


def _free_trajectory(grid, dt, count, seed=13, kmax=2):
    d0 = to_dispersive(_state(grid, seed=seed, kmax=kmax), P)
    return [from_dispersive(diagonal.free_evolve(d0, k * dt, P), P) for k in range(count)]


def test_residual_free_evolution_stencil_order():
    peaks = []
    for dt in (1e-3, 5e-4):
        traj = _free_trajectory(G16, dt, 7)
        res = dispersive_residual(traj, P, include_nonlinearity=False)
        peaks.append(max(res["e"].max(), res["i"].max(), res["b"].max()))
    assert 12.0 < peaks[0] / peaks[1] < 20.0  # 4th-order stencil: 16x per halving


def test_residual_linear_regime_scales_quadratically():
    maxima = []
    for amp in (1e-3, 2e-3):
        s = _state(G16, seed=29, amplitude=amp, kmax=2)
        traj = [s]
        for _ in range(6):
            traj.append(physics.step(traj[-1], 2e-4, P, linear=True))
        res = dispersive_residual(traj, P)
        maxima.append(max(res["e"].max(), res["i"].max(), res["b"].max()))
    expo = np.log2(maxima[1] / maxima[0])
    assert abs(expo - 2.0) < 0.1  # the residual IS the dropped nonlinearity


def test_residual_nonlinear_run_sits_on_discretization_floor():
    s = _state(G16, seed=41, amplitude=1e-4, kmax=2)
    floors = []
    for dt in (1e-3, 5e-4):
        traj = [s]
        for _ in range(6):
            traj.append(physics.step(traj[-1], dt, P))
        res = dispersive_residual(traj, P)
        floors.append(max(res["e"].max(), res["i"].max(), res["b"].max()))
    # halving dt sharpens the residual: time discretization dominates
    assert floors[1] < 0.2 * floors[0]


def test_residual_requires_uniform_fine_sampling():
    traj = _free_trajectory(G16, 1e-3, 7)
    with pytest.raises(ValueError, match="five"):
        dispersive_residual(traj[:4], P)
    skewed = traj[:5] + [traj[6]]
    with pytest.raises(ValueError, match="uniform"):
        dispersive_residual(skewed, P)
    with pytest.warns(RuntimeWarning, match="stencil"):
        dispersive_residual(_free_trajectory(G16, 0.05, 5), P,
                            include_nonlinearity=False)


def test_profile_identity_and_free_constancy():
    d0 = to_dispersive(_state(G16, seed=19), P)
    assert d0.t == 0.0
    v0 = profile(d0, P)
    assert np.array_equal(v0.U_e, d0.U_e)

    traj = _free_trajectory(G16, 2e-3, 5, seed=19)
    base = profile(to_dispersive(traj[0], P), P)
    for s in traj[1:]:
        v = profile(to_dispersive(s, P), P)
        assert _rel(G16, base.U_e, v.U_e) < 1e-10
        assert _rel(G16, base.U_i, v.U_i) < 1e-10
        assert l2_norm(G16, v.U_b - base.U_b) < 1e-10 * l2_norm(G16, base.U_b)


def test_profile_preserves_moduli():
    d = _random_disp(G16, seed=37)
    d.t = 3.7
    v = profile(d, P)
    assert np.allclose(np.abs(v.U_e), np.abs(d.U_e), atol=1e-15)
    assert np.allclose(np.abs(v.U_b), np.abs(d.U_b), atol=1e-15)
