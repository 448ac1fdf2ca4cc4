import numpy as np
import pytest

from twofluid import spectral as sp
from twofluid.spectral import (
    DyadicPiece,
    Grid,
    b_norms,
    bump,
    full_spectrum,
    grad,
    hermitize,
    is_hermitian,
    l2_norm,
    lp_project,
    phi_interval,
    phi_low,
    phi_shell,
    phi_tilde,
    q_apply,
    q2_apply,
    random_real_field,
    random_vector_field,
    riesz,
    shell_range,
    spatial_localize,
    spatial_range,
    to_half,
    to_physical,
    to_spectral,
    z_norm_upper,
)

RNG = np.random.default_rng(20260815)
G = Grid(32)


def test_grid_validation():
    for bad in (6, 9, 0):
        with pytest.raises(ValueError):
            Grid(bad)
    # True compares as 1, a valid half-width, but is no length
    for bad in (-1.0, True, np.True_):
        with pytest.raises(ValueError, match="box_half"):
            Grid(16, box_half=bad)


def test_grid_rejects_non_integer_points_per_axis():
    with pytest.raises(ValueError, match="integer"):
        Grid(32.0)
    assert Grid(np.int64(16)).modes.shape == (3, 16, 16, 16)


def test_grid_rejects_non_finite_box():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="box_half"):
            Grid(16, box_half=bad)


def test_ball_kernel_cache_is_bounded():
    cache = sp._ball_kernel_hat
    bound = cache.cache_info().maxsize
    assert bound == sp._BALL_CACHE_SIZE
    grids = (Grid(16), Grid(16, box_half=10.0), Grid(16, box_half=1.0))
    fields = [random_real_field(g, np.random.default_rng(3), kmax=5) for g in grids]
    warm = []
    for g, f in zip(grids, fields):
        warm.append(z_norm_upper(g, f))
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound  # the three grids read more balls than that
    for g, f, got in zip(grids, fields, warm):
        cache.cache_clear()
        assert z_norm_upper(g, f) == got


def test_dealias_mask_cube():
    cut = 10  # floor(2/3 * 16)
    assert G.dealias_mask.sum() == (2 * cut + 1) ** 3
    idx = {tuple(m): i for i, m in enumerate([])}  # noqa: F841 (readability)
    assert G.dealias_mask[10, 0, 0]
    assert not G.dealias_mask[11, 0, 0]


def test_negate_modes_is_mode_negation():
    c = RNG.standard_normal((G.n,) * 3) + 1j * RNG.standard_normal((G.n,) * 3)
    r = sp._negate_modes(c, (-3, -2, -1))
    for m in RNG.integers(-15, 16, size=(20, 3)):
        plus = tuple(m % G.n)
        minus = tuple((-m) % G.n)
        assert r[plus] == c[minus]


def test_hermitize_and_reality():
    # hermitize projects the self-mirrored planes (last-axis modes 0 and n/2)
    # of a half-layout array onto real fields and keeps every other entry
    shape = (3, G.n, G.n, G.n // 2 + 1)
    c = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    assert not is_hermitian(c)
    h = hermitize(c)
    assert is_hermitian(h, tol=0.0)
    assert np.array_equal(h[..., 1:-1], c[..., 1:-1])
    assert np.array_equal(hermitize(h), h)
    # the real transform reads the planes' real part, which is their projection
    vals = to_physical(G, c)
    assert np.max(np.abs(to_physical(G, h) - vals)) <= 1e-14 * np.max(np.abs(vals))


def test_hermitize_and_is_hermitian_reject_the_full_layout():
    # a full-layout array's last-axis entries 0 and n - 1 are not the
    # self-mirrored planes, so reading them as such would give wrong answers
    full = to_spectral(G, np.random.default_rng(7).standard_normal((3,) + (G.n,) * 3))
    for arr in (full, full[0], np.zeros((G.n,) * 3)):
        with pytest.raises(ValueError, match="half-layout"):
            hermitize(arr)
        with pytest.raises(ValueError, match="half-layout"):
            is_hermitian(arr)


def test_l2_norm_counts_hermitian_multiplicity():
    # the half layout stores each conjugate pair once, the self-mirrored
    # planes (last-axis modes 0 and n/2) once per entry
    vals = RNG.standard_normal((3,) + (G.n,) * 3)
    half, full = to_half(G, vals), to_spectral(G, vals)
    assert half.shape == (3, G.n, G.n, G.n // 2 + 1)
    assert l2_norm(G, half) == pytest.approx(l2_norm(G, full), rel=1e-14)
    assert l2_norm(G, half[0]) == pytest.approx(l2_norm(G, full[0]), rel=1e-14)


def test_half_and_full_layouts_agree():
    vals = RNG.standard_normal((3,) + (G.n,) * 3)
    half, full = to_half(G, vals), to_spectral(G, vals)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(full_spectrum(G, half) - full)) <= 1e-14 * scale
    back = to_physical(G, half)
    assert back.dtype == float and np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))
    assert all(is_hermitian(c) for c in half)
    # every multiplier reads the table of its argument's layout
    h = G.n // 2
    for op in (grad, riesz, sp.inv_modulus):
        np.testing.assert_allclose(op(G, half[0]), op(G, full[0])[..., : h + 1],
                                   rtol=0, atol=1e-14 * scale)
    for op in (sp.curl, sp.div, q_apply, q2_apply, sp.p_long):
        np.testing.assert_allclose(op(G, half), op(G, full)[..., : h + 1],
                                   rtol=0, atol=1e-14 * scale)


def test_zero_nyquist_clears_only_the_nyquist_planes():
    h = G.n // 2
    c = to_half(G, RNG.standard_normal((2,) + (G.n,) * 3))
    cut = c.copy()
    sp._zero_nyquist(G, cut)
    assert not np.any(cut[:, h]) and not np.any(cut[:, :, h]) and not np.any(cut[..., h])
    keep = np.ones(c.shape, bool)
    keep[:, h] = keep[:, :, h] = keep[..., h] = False
    assert np.array_equal(cut[keep], c[keep])


def test_random_field_is_real_with_requested_rms():
    f = random_real_field(G, RNG, kmax=8, rms=0.25)
    assert is_hermitian(f)
    vals = to_physical(G, f).real
    assert np.sqrt(np.mean(vals**2)) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("kmax", [0, -1, np.nan, 2.5, 3.0, True, "4"])
def test_random_fields_reject_a_bad_kmax(kmax):
    # 0, -1 and NaN once returned the zero field, so no rms was met
    for make in (random_real_field, random_vector_field):
        with pytest.raises(ValueError, match="kmax"):
            make(Grid(16), np.random.default_rng(0), kmax=kmax)


@pytest.mark.parametrize("rms", [np.nan, np.inf, -1.0, True])
def test_random_fields_reject_a_bad_rms(rms):
    # NaN once returned an all-NaN field and -1 a sign-flipped one
    for make in (random_real_field, random_vector_field):
        with pytest.raises(ValueError, match="rms"):
            make(Grid(16), np.random.default_rng(0), kmax=2, rms=rms)


@pytest.mark.parametrize("kmax", [None, 1, np.int64(3), 8])
def test_random_fields_take_none_or_a_positive_integer_kmax(kmax):
    # a field is the first n//2 + 1 last-axis entries of the full-layout
    # field of the same normals: masked, mean removed, rms met
    def full(rng):
        coef = to_spectral(G, rng.standard_normal((G.n,) * 3))
        if kmax is not None:
            coef = coef * (np.max(np.abs(G.modes), axis=0) <= kmax)
        coef[0, 0, 0] = 0.0
        return (coef * (0.5 * G.n**1.5 / float(np.linalg.norm(coef))))[..., : G.n // 2 + 1]

    rng = np.random.default_rng(11)
    want = [full(rng) for _ in range(4)]
    rng = np.random.default_rng(11)
    got = random_real_field(G, rng, kmax=kmax, rms=0.5)
    assert got.shape == want[0].shape
    assert np.max(np.abs(got - want[0])) <= 1e-15 * np.max(np.abs(want[0]))
    got = random_vector_field(G, rng, kmax=kmax, rms=0.5)
    assert np.max(np.abs(got - np.stack(want[1:]))) <= 1e-15 * np.max(np.abs(want[1:]))


def test_riesz_squares_sum_to_minus_one():
    sym = 1j * G.xi * G.inv_xi_mag
    total = np.sum(sym**2, axis=0)
    nz = G.xi_mag > 0
    np.testing.assert_allclose(total[nz], -1.0, rtol=0, atol=1e-14)
    f = random_real_field(G, RNG, kmax=6)
    twice = np.sum(np.asarray([riesz(G, riesz(G, f)[a])[a] for a in range(3)]), axis=0)
    nz = G.half.xi_mag > 0
    np.testing.assert_allclose(twice[nz], -f[nz], rtol=0, atol=1e-13)


def test_q_cubed_equals_q():
    v = random_vector_field(G, RNG, kmax=6)
    q1 = q_apply(G, v)
    q3 = q_apply(G, q_apply(G, q1))
    np.testing.assert_allclose(q3, q1, rtol=0, atol=1e-12 * np.max(np.abs(q1)))


def test_curl_ops_projections():
    scal = random_real_field(G, RNG, kmax=6)
    gradient = grad(G, scal)
    assert float(np.max(np.abs(q_apply(G, gradient)))) <= 1e-13 * np.max(np.abs(gradient))

    v = random_vector_field(G, RNG, kmax=6)
    sol = q2_apply(G, v)
    assert float(np.max(np.abs(sp.p_long(G, sol)))) <= 1e-13 * np.max(np.abs(sol))
    assert float(np.max(np.abs(sp.div(G, sol)))) <= 1e-12 * np.max(np.abs(sol))

    recon = sp.p_long(G, v) + q_apply(G, q_apply(G, v))
    nz = G.half.xi_mag > 0
    err = np.abs(recon - v)[:, nz]
    assert float(err.max()) <= 1e-12 * np.max(np.abs(v))


def test_parseval_after_multiplier():
    f = random_real_field(G, RNG, kmax=8)
    shell = lp_project(G, f, 2)
    vals = to_physical(G, shell)
    phys = float(np.sum(np.abs(vals) ** 2))
    # each stored entry off the self-mirrored planes stands for a conjugate pair
    spec = float(np.sum(sp._multiplicity(G, np.arange(G.n // 2 + 1)) * np.abs(shell) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)


def _product(f, g):
    """Dealiased pointwise product of two coefficient fields."""
    return to_spectral(G, to_physical(G, f) * to_physical(G, g)) * G.dealias_mask


def test_convolution_constant():
    # single modes m1, m2 -> product places n^{-3/2} at m1 + m2
    f = np.zeros((G.n,) * 3, dtype=complex)
    g = np.zeros((G.n,) * 3, dtype=complex)
    f[2 % G.n, 1 % G.n, 0] = 1.0
    g[(-5) % G.n, 3 % G.n, 1 % G.n] = 1.0
    out = _product(f, g)
    expect = G.n**-1.5
    assert out[(-3) % G.n, 4 % G.n, 1 % G.n] == pytest.approx(expect, rel=1e-13)
    out[(-3) % G.n, 4 % G.n, 1 % G.n] = 0.0
    assert float(np.max(np.abs(out))) <= 1e-15


def test_product_dealiases():
    f = random_real_field(G, RNG, kmax=10)
    out = _product(f, f)
    assert float(np.max(np.abs(out[~G.dealias_mask]))) == 0.0


# ---------------------------------------------------------------------------
# cutoffs


def test_bump_profile():
    x = np.array([0.0, 1.0, 1.25, 1.3, 1.55, 1.6, 2.0])
    b = bump(x)
    assert np.all(b[:3] == 1.0)
    assert 0.0 < b[3] < 1.0 and 0.0 < b[4] < 1.0
    assert b[3] > b[4]
    assert np.all(b[5:] == 0.0)
    np.testing.assert_array_equal(bump(-x), b)


def _bump_closed(x):
    # s(t) / (s(t) + s(1 - t)), s(t) = e^{-1/t} for t > 0 and 0 otherwise,
    # t = (8/5 - |x|) / (8/5 - 5/4)
    t = (8.0 / 5.0 - np.abs(x)) / (8.0 / 5.0 - 5.0 / 4.0)

    def s(u):
        return np.exp(-1.0 / np.where(u > 0, u, 1.0)) * (u > 0)

    return s(t) / (s(t) + s(1.0 - t))


def test_bump_matches_the_closed_formula():
    # a dense grid holding both band edges and their inner neighbours
    x = np.concatenate([np.linspace(-3.0, 3.0, 200_001),
                        [1.25, 1.6, -1.25, -1.6, np.nextafter(1.25, 2.0), np.nextafter(1.6, 0.0)]])
    np.testing.assert_array_equal(bump(x), _bump_closed(x))
    for v in (0.0, 1.25, 1.3, 1.6, 2.0):
        got = bump(v)
        assert np.ndim(got) == 0
        assert np.array_equal(got, _bump_closed(np.float64(v)))
    assert np.isnan(bump(np.nan))


def test_phi_interval_telescopes():
    x = np.linspace(0.0, 40.0, 500)
    total = sum(phi_shell(x, k) for k in range(-2, 6))
    np.testing.assert_allclose(total, phi_interval(x, -2, 5), rtol=0, atol=1e-15)


def _assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # as integers, so a -0.0 against a 0.0 would count as a difference
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _two_bumps(x, a, b):
    return phi_low(x, b) - phi_low(x, a - 1)


@pytest.mark.parametrize("n", [32, 64])
def test_phi_interval_is_the_two_bump_form_on_lattice_tables(n):
    # the lattice hits the band edges exactly: |xi| = 5 = 1.25 * 2^2 at mode (3, 4, 0)
    g = Grid(n)
    tables = (g.xi_mag, g.half.xi_mag)
    assert np.any(tables[0] == 5.0)
    for k in shell_range(g):
        for a, b in ((k - 2, k + 2), (k, k), (k - 1, k)):
            for mag in tables:
                _assert_bits_equal(phi_interval(mag, a, b), _two_bumps(mag, a, b))


@pytest.mark.parametrize("a,b", [(-3, 1), (0, 0), (2, 2), (-1, 4), (3, 5)])
def test_phi_interval_is_the_two_bump_form_at_its_edges(a, b):
    edges = np.array([1.25 * 2.0 ** (a - 1), 1.6 * 2.0 ** (a - 1), 1.25 * 2.0**b, 1.6 * 2.0**b])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    x = np.concatenate([near, -near, [0.0, -0.0, np.inf, -np.inf, np.nan],
                        np.linspace(-2.0 ** (b + 2), 2.0 ** (b + 2), 4001)])
    _assert_bits_equal(phi_interval(x, a, b), _two_bumps(x, a, b))
    # a 0-d input at each edge, and a 2-d input
    for v in near[:4]:
        _assert_bits_equal(phi_interval(np.float64(v), a, b), _two_bumps(np.float64(v), a, b))
    grid = x.reshape(5, -1)
    _assert_bits_equal(phi_interval(grid, a, b), _two_bumps(grid, a, b))
    assert np.isnan(phi_interval(np.nan, a, b))
    assert phi_interval(np.inf, a, b) == 0.0


def test_phi_interval_rejects_an_empty_band():
    with pytest.raises(ValueError, match="a <= b"):
        phi_interval(np.ones(3), 2, 1)


@pytest.mark.parametrize("k", [-3, -1, 0, 2, 5])
def test_phi_tilde_partition_of_unity(k):
    x = np.linspace(0.0, np.sqrt(3) * np.pi, 200)
    total = sum(phi_tilde(x, k, j) for j in spatial_range(G, k))
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        phi_tilde(x, k, max(-k, 0) - 1)


def test_lp_partition_of_unity():
    f = random_real_field(G, RNG)
    total = sum(lp_project(G, f, k) for k in shell_range(G))
    expect = f.copy()
    expect[0, 0, 0] = 0.0
    np.testing.assert_allclose(total, expect, rtol=0, atol=1e-12 * np.max(np.abs(f)))


def test_single_mode_shells():
    f = np.zeros((G.n,) * 3, dtype=complex)
    f[1, 0, 0] = 1.0
    f[(-1) % G.n, 0, 0] = 1.0  # |xi| = 1
    for k in shell_range(G):
        piece = lp_project(G, f, k)
        if k not in (0, 1):
            assert not np.any(piece)
    both = lp_project(G, f, 0) + lp_project(G, f, 1)
    np.testing.assert_allclose(both, f, rtol=0, atol=1e-15)


def test_spatial_localize_partition():
    f = random_real_field(G, RNG, kmax=8)
    k = 2
    fk = lp_project(G, f, k)
    total = sum(spatial_localize(G, fk, k, j) for j in spatial_range(G, k))
    np.testing.assert_allclose(total, full_spectrum(G, fk), rtol=0, atol=1e-12 * np.max(np.abs(fk)))


# ---------------------------------------------------------------------------
# shell norms


def test_dyadic_piece_index_set():
    field = np.zeros((8,) * 3, dtype=complex)
    DyadicPiece(-2, 2, field)
    with pytest.raises(ValueError):
        DyadicPiece(-2, 1, field)
    with pytest.raises(ValueError):
        DyadicPiece(3, -1, field)


def test_b_norms_zero_field():
    piece = DyadicPiece(0, 0, np.zeros((G.n,) * 3, dtype=complex))
    out = b_norms(G, piece)
    assert out == {"B1": 0.0, "B2": 0.0, "B_upper": 0.0}


def _unit_l2_piece(grid, k=0, j=0):
    f = random_real_field(grid, RNG, kmax=8)
    fk = lp_project(grid, f, k)
    w = phi_tilde(grid.x_radius, k, j)
    c = to_spectral(grid, w * to_physical(grid, fk))
    scale = (2 * grid.box_half / grid.n) ** 1.5 * np.linalg.norm(c)
    return DyadicPiece(k, j, c / scale)


def test_b1_against_direct_summation():
    piece = _unit_l2_piece(G)
    out = b_norms(G, piece)
    # independent evaluation of every ingredient
    c = piece.field
    hl2 = (2 * G.box_half / G.n) ** 1.5 * np.sqrt(np.sum(np.abs(c) ** 2))
    hsup = (2 * G.box_half) ** 3 / G.n**1.5 * np.max(np.abs(c))
    assert hl2 == pytest.approx(1.0, rel=1e-12)
    b1 = 2.0 * (hl2 + hsup)  # lead factor 2^{alpha k} + 2^{10 k} at k = 0
    assert out["B1"] == pytest.approx(b1, rel=1e-12)
    assert out["B_upper"] <= out["B1"] and out["B_upper"] <= out["B2"]


def test_b2_ball_term_against_brute_force():
    g = Grid(16)
    piece = _unit_l2_piece(g, k=1, j=1)
    out = b_norms(g, piece)

    a = np.abs((2 * g.box_half) ** 3 / g.n**1.5 * piece.field)
    flat = a.ravel()
    pts = g.modes.reshape(3, -1).T
    ball = 0.0
    for m in range(-1, 2):
        radius = 2.0**m
        best = 0.0
        for center in pts[:: g.n]:  # stride keeps the scan affordable
            d = (pts - center + g.n // 2) % g.n - g.n // 2
            dist = (np.pi / g.box_half) * np.sqrt(np.sum(d**2, axis=1))
            best = max(best, float(flat[dist <= radius].sum()))
        ball = max(ball, radius**-2 * best * g.cell_volume_xi)
    hl2 = (2 * g.box_half / g.n) ** 1.5 * np.sqrt(np.sum(np.abs(piece.field) ** 2))
    hsup = float(a.max())
    beta, gamma = 0.01, 1.46
    lead = 2.0**10 * (2.0**0.005 + 2.0**10)
    b2_lower = lead * (2 ** (1 - beta) * hl2 + hsup + 2**gamma * ball)
    # strided center scan can only miss the sup, never overshoot
    assert out["B2"] >= b2_lower * (1 - 1e-12)
    full = lead * (2 ** (1 - beta) * hl2 + hsup + 2**gamma * _full_ball_term(g, a, -1, 1))
    assert out["B2"] == pytest.approx(full, rel=1e-10)


def _full_ball_term(g, a, mlo, mhi):
    flat = a.ravel()
    pts = g.modes.reshape(3, -1).T
    out = 0.0
    for m in range(mlo, mhi + 1):
        radius = 2.0**m
        best = 0.0
        for center in pts:
            d = (pts - center + g.n // 2) % g.n - g.n // 2
            dist = (np.pi / g.box_half) * np.sqrt(np.sum(d**2, axis=1))
            best = max(best, float(flat[dist <= radius].sum()))
        out = max(out, radius**-2 * best * g.cell_volume_xi)
    return out


def test_b_norms_homogeneous():
    piece = _unit_l2_piece(G, k=1, j=2)
    base = b_norms(G, piece)
    scaled = b_norms(G, DyadicPiece(piece.k, piece.j, 3.5 * piece.field))
    for key in ("B1", "B2", "B_upper"):
        assert scaled[key] == pytest.approx(3.5 * base[key], rel=1e-12)


def test_b_norms_monotone_under_majorization():
    piece = _unit_l2_piece(G, k=1, j=1)
    grow = 1.0 + RNG.uniform(0.0, 1.0, size=piece.field.shape)
    bigger = b_norms(G, DyadicPiece(piece.k, piece.j, grow * piece.field))
    base = b_norms(G, piece)
    for key in ("B1", "B2", "B_upper"):
        assert bigger[key] >= base[key]


def test_z_norm_zero_field():
    out = z_norm_upper(G, np.zeros((G.n,) * 3, dtype=complex))
    assert out.value == 0.0


def test_z_norm_gaussian_stable_under_refinement():
    # the Gaussian is built in spectral space: sampling exp(-|x|^2) through
    # the minimal image would plant a derivative kink at the box faces whose
    # slow spectral tail the 2^{10k} shell weights amplify
    results = {}
    for n in (16, 32):
        g = Grid(n)
        f = (np.pi**1.5 * g.n**1.5 / (2 * g.box_half) ** 3) * np.exp(-g.xi_mag**2 / 4)
        results[n] = z_norm_upper(g, f.astype(complex))
    coarse, fine = results[16], results[32]
    assert fine.value > 0
    assert abs(coarse.value - fine.value) <= 0.01 * fine.value
    assert (coarse.k, coarse.j) == (fine.k, fine.j)


def test_z_norm_reports_attaining_pair():
    g = Grid(16)
    f = random_real_field(g, RNG, kmax=5)
    out = z_norm_upper(g, f)
    fk = lp_project(g, f, out.k)
    piece = DyadicPiece(out.k, out.j, spatial_localize(g, fk, out.k, out.j))
    again = b_norms(g, piece)
    assert out.value == pytest.approx(again["B_upper"], rel=1e-12)
    assert out.value == max(row[4] for row in out.table)


def test_reality_through_pipeline():
    f = random_real_field(G, RNG, kmax=8)
    v = riesz(G, f)
    for a in range(3):
        assert is_hermitian(v[a])
    w = q_apply(G, random_vector_field(G, RNG, kmax=8))
    for a in range(3):
        assert is_hermitian(w[a])
    # a localized piece is a full-layout spectrum of real values: its planes
    # 0 and n/2 are self-mirrored, its tail holds their mirrors' conjugates
    piece = spatial_localize(G, lp_project(G, f, 1), 1, 1)
    assert is_hermitian(piece[..., : G.n // 2 + 1], tol=1e-11)
    tail = full_spectrum(G, piece[..., : G.n // 2 + 1]) - piece
    assert np.max(np.abs(tail)) <= 1e-11 * max(1.0, np.max(np.abs(piece)))
