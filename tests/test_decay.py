import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid.dispersion import DEFAULT_PARAMS
from twofluid.spectral import Grid, phi_interval, random_real_field, to_half, to_physical
from twofluid.diagonal import DispState, from_dispersive, to_dispersive
from twofluid.physics import PhysState, _derivative_sups, cfl_dt, random_irrotational, step
from twofluid import decay, diagonal, spectral
from twofluid.decay import (
    KernelQuery,
    decay_fit,
    free_evolve,
    kernel_profile,
    kernel_sup,
    nonlinear_decay_experiment,
    radial_kernel,
    stationary_xs,
)

P = DEFAULT_PARAMS


def test_kernel_query_validation():
    q = KernelQuery("e", 0, 100.0)
    assert q.support == (0.125, 8.0)
    assert KernelQuery("i", -3, -5.0).support == (2.0**-6, 2.0**0)
    with pytest.raises(ValueError):
        KernelQuery("q", 0, 1.0)
    with pytest.raises(ValueError):
        KernelQuery("e", 0, 0.0)
    with pytest.raises(ValueError):
        KernelQuery("e", 0, 1.0, points_per_cycle=32)
    # a NaN time once gave kernel_sup = 0.0, which reads as perfect decay
    # a bool time was once read as t = 1
    for bad in (dict(t=np.nan), dict(t=np.inf), dict(t=-np.inf), dict(t=True), dict(t=np.True_),
                dict(k=True), dict(k=0.5), dict(points_per_cycle=64.5),
                dict(points_per_cycle=True)):
        with pytest.raises(ValueError):
            KernelQuery(**{"branch": "e", "k": 0, "t": 1.0, **bad})
    assert KernelQuery("e", np.int64(-1), np.float64(2.0)).k == -1


# ---------------------------------------------------------------------------
# quadrature engine against closed forms


def test_radial_kernel_gaussian():
    # static phase: K is the 3d Fourier transform of exp(-|xi|^2/2)
    w = lambda s: np.exp(-s * s / 2.0)  # noqa: E731
    xs = np.array([0.0, 0.5, 1.3, 3.0])
    got = radial_kernel(lambda s: 0.0 * s, lambda s: 0.0 * s, w,
                        1e-6, 12.0, 1e-30, xs, 64)
    want = (2.0 * np.pi) ** 1.5 * np.exp(-xs * xs / 2.0)
    np.testing.assert_allclose(got.real, want, rtol=1e-8)
    np.testing.assert_allclose(got.imag, np.zeros_like(xs), atol=1e-8)


def test_radial_kernel_quadratic_phase():
    # lambda = s^2/2 closes to a complex Gaussian with z = 1 - i t
    t = 3.7
    z = 1.0 - 1j * t
    w = lambda s: np.exp(-s * s / 2.0)  # noqa: E731
    xs = np.array([0.7, 2.0])
    got = radial_kernel(lambda s: s * s / 2.0, lambda s: s, w, 1e-6, 14.0, t, xs, 64)
    want = (2.0 * np.pi / z) ** 1.5 * np.exp(-xs * xs / (2.0 * z))
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_radial_kernel_trapezoid_end_weights():
    # a weight that does not vanish at the ends: K(0) = 4 pi int_1^2 s^2 ds,
    # which the half-weighted end nodes give to O(h^2) and full ones to O(h)
    one = lambda s: np.ones_like(s)  # noqa: E731
    got = radial_kernel(lambda s: 0 * s, lambda s: 0 * s, one, 1.0, 2.0, 1.0, [0.0], 64)
    assert got[0] == pytest.approx(4.0 * np.pi * 7.0 / 3.0, rel=1e-7)
    # a weight given as one number for every node is the same weight
    scalar = radial_kernel(lambda s: 0 * s, lambda s: 0 * s, lambda s: 1.0, 1.0, 2.0, 1.0, [0.0], 64)
    assert scalar[0] == got[0]


def test_radial_kernel_validation():
    w = lambda s: np.ones_like(s)  # noqa: E731
    with pytest.raises(ValueError):
        radial_kernel(lambda s: 0 * s, lambda s: 0 * s, w, 1.0, 2.0, 1.0, [-0.1], 64)
    with pytest.raises(ValueError):
        radial_kernel(lambda s: 0 * s, lambda s: 0 * s, w, 2.0, 1.0, 1.0, [0.5], 64)


@pytest.mark.parametrize("a,b,t,xs,match", [
    # an empty xs once raised "zero-size array to reduction operation"
    (1.0, 2.0, 1.0, [], "xs must hold at least one radius"),
    # NaN once raised "cannot convert float NaN to integer", inf an OverflowError
    (1.0, 2.0, 1.0, [0.5, np.nan], "all finite"),
    (1.0, 2.0, 1.0, [np.inf], "all finite"),
    (1.0, 2.0, np.nan, [0.5], "need finite t"),
    (1.0, 2.0, np.inf, [0.5], "need finite t"),
    (np.nan, 2.0, 1.0, [0.5], "0 < a < b < inf"),
    (1.0, np.inf, 1.0, [0.5], "0 < a < b < inf"),
])
def test_radial_kernel_rejects_nonfinite_and_empty_input(a, b, t, xs, match):
    w = lambda s: np.ones_like(s)  # noqa: E731
    with pytest.raises(ValueError, match=match):
        radial_kernel(lambda s: 0 * s, lambda s: 0 * s, w, a, b, t, xs, 64)


def test_node_cap_refusal():
    w = lambda s: np.ones_like(s)  # noqa: E731
    with pytest.raises(ValueError, match="under-resolved oscillation"):
        radial_kernel(lambda s: 1e9 * s, lambda s: 1e9 * np.ones_like(s), w,
                      1.0, 2.0, 1.0, [1.0], 64)


def test_kernel_profile_resolution_consistency():
    # doubling the per-cycle node budget must not move the answer
    x = 40.0
    a = kernel_profile(KernelQuery("i", 0, 50.0), P, [x])[0]
    b = kernel_profile(KernelQuery("i", 0, 50.0, points_per_cycle=128), P, [x])[0]
    assert abs(a - b) <= 5e-3 * abs(a)
    assert abs(a - b) <= 1e-10 * abs(a)  # in practice far tighter than the contract


@pytest.mark.parametrize("branch,k", [("e", -1), ("i", 1)])
def test_kernel_profile_converged_over_the_stationary_grid(branch, k):
    # the trapezoid rule on a uniform grid is spectrally accurate for the
    # smooth cutoff: doubling the node density moves no radius of the grid
    q = KernelQuery(branch, k, 100.0)
    xs = stationary_xs(q, P)
    a = kernel_profile(q, P, xs)
    b = kernel_profile(KernelQuery(branch, k, 100.0, points_per_cycle=128), P, xs)
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_stationary_grid_covers_the_sweep():
    q = KernelQuery("e", 0, 1000.0)
    xs = stationary_xs(q, P)
    assert xs[0] == 0.0
    anchors = np.geomspace(2.0**-2.5, 2.0**2.5, 25)
    sweep = 1000.0 * np.abs(decay.lam_prime("e", anchors, P))
    # the grid ends at the sweep top: no stationary point lies beyond it
    assert xs.max() == pytest.approx(sweep.max(), rel=1e-14)
    assert np.all(np.diff(xs) > 0)
    # the ion shell at the curvature flip gets the Airy cluster
    q_star = KernelQuery("i", 1, 1000.0)
    assert len(stationary_xs(q_star, P)) > len(xs)


def test_stationary_grid_reads_the_fold_window():
    # the Airy window of the ion shell at the curvature flip spans x0 + w [-8, 3],
    # x0 = t lambda_i'(r*) and w = (t |lambda_i^(3)(r*)| / 2)^(1/3); both
    # derivatives are taken here from the radical at 40 digits
    t = 1000.0
    r_star = decay.find_r_star(P)
    with mpmath.workdps(40):
        eps, T = mpmath.mpf(P.epsilon), mpmath.mpf(P.T)

        def lam_i(r):
            u = (1 - eps) + (T - eps) * r**2
            return mpmath.sqrt(((1 + eps) + (T + eps) * r**2 - mpmath.sqrt(u * u + 4 * eps))
                               / (2 * eps))

        first, third = (float(mpmath.diff(lam_i, mpmath.mpf(r_star), k)) for k in (1, 3))
    x0, w = t * first, (t * abs(third) / 2.0) ** (1.0 / 3.0)
    xs = stationary_xs(KernelQuery("i", 1, t), P)
    for edge in (x0 - 8.0 * w, x0 + 3.0 * w):
        assert np.min(np.abs(xs - edge)) <= 1e-5 * w, edge


@pytest.mark.parametrize("branch,k,t", [("e", -1, 100.0), ("i", 1, 1000.0)])
def test_kernel_profile_does_not_depend_on_the_block_size(branch, k, t, monkeypatch):
    # one row per block, and one block for every node, against the default
    # blocks (4 and 7 of them here): the same rule summed in another order,
    # so the profiles agree to roundoff
    q = KernelQuery(branch, k, t)
    xs = stationary_xs(q, P)
    want = kernel_profile(q, P, xs)
    for values in (1, 1 << 40):
        monkeypatch.setattr(decay, "SLAB_VALUES", values)
        got = kernel_profile(q, P, xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("branch,k", [("e", -1), ("i", 1)])
def test_radial_kernel_skips_the_rows_of_zero_weight(branch, k):
    # lambda is formed only on whole rows between nonzero-weight nodes: at
    # most one row past the weight's support at each end
    q = KernelQuery(branch, k, 100.0)
    a, b = q.support
    weighted, phased = [], []

    def weight(s):
        w = phi_interval(s, k - 2, k + 2)
        weighted.append(w)
        return w

    def lam_fn(s):
        phased.append(s.size)
        return decay.lam(branch, s, P)

    xs = stationary_xs(q, P)
    got = radial_kernel(lam_fn, lambda s: decay.lam_prime(branch, s, P), weight,
                        a, b, q.t, xs, q.points_per_cycle)
    np.testing.assert_array_equal(got, kernel_profile(q, P, xs))
    n = sum(w.size for w in weighted)
    support = sum(np.count_nonzero(w) for w in weighted)
    assert support <= sum(phased) <= support + 2 * math.isqrt(n)
    # phi_[k-2,k+2] is exactly 0 below 1.25 2^(k-3) and above 6.4 2^k
    assert sum(phased) < 0.8 * n


def test_kernel_sup_is_one_quadrature_pass(monkeypatch):
    # one node table per query, over the whole stationary grid
    calls = []

    def counting(*args, **kw):
        calls.append(len(args[6]))
        return radial_kernel(*args, **kw)

    monkeypatch.setattr(decay, "radial_kernel", counting)
    for q in (KernelQuery("e", -1, 100.0), KernelQuery("i", 1, 100.0)):
        calls.clear()
        kernel_sup(q, P)
        assert calls == [len(stationary_xs(q, P))]


@pytest.mark.parametrize("branch,k", [("i", -3), ("i", 1), ("e", -1)])
def test_kernel_is_negligible_beyond_the_sweep(branch, k):
    # radii past the sweep top, which the stationary grid does not carry: the
    # phase t lambda(s) - s|x| is stationary nowhere in the shell there.  This
    # covers the ladder range t >= 1e2 only; at t = 1 the ratio reaches 0.73
    # (i k=-3).
    q = KernelQuery(branch, k, 100.0)
    anchors = np.geomspace(2.0 ** (k - 2.5), 2.0 ** (k + 2.5), 25)
    top = 100.0 * np.abs(decay.lam_prime(branch, anchors, P)).max()
    outside = np.abs(kernel_profile(q, P, [1.7 * top, 3.0 * top]))
    assert outside.max() <= 1e-2 * kernel_sup(q, P)


# ---------------------------------------------------------------------------
# free flow


def _random_disp(n=16, seed=0):
    # P and M of each unknown: real fields on the whole half lattice
    g = Grid(n)
    rng = np.random.default_rng(seed)
    return DispState(g, np.stack([random_real_field(g, rng) for _ in range(10)]), 0.0)


def test_free_evolve_identity_and_composition():
    d = _random_disp()
    z = free_evolve(d, 0.0, P)
    for a, b in zip((z.U_e, z.U_i, z.U_b), (d.U_e, d.U_i, d.U_b)):
        np.testing.assert_array_equal(a, b)
    one = free_evolve(free_evolve(d, 0.7, P), 1.63, P)
    two = free_evolve(d, 2.33, P)
    assert one.t == pytest.approx(2.33)
    for a, b in zip((one.U_e, one.U_i, one.U_b), (two.U_e, two.U_i, two.U_b)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_free_evolve_is_unitary_and_invertible():
    d = _random_disp(seed=3)
    out = free_evolve(d, 17.0, P)
    for a, b in zip((out.U_e, out.U_i, out.U_b), (d.U_e, d.U_i, d.U_b)):
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b), rel=1e-12)
    back = free_evolve(out, -17.0, P)
    for a, b in zip((back.U_e, back.U_i, back.U_b), (d.U_e, d.U_i, d.U_b)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
    assert back.t == pytest.approx(0.0)


def test_free_evolve_rotates_on_the_support_only():
    # a band-limited state: the phases are formed on the support's box, and
    # every value is the whole-lattice rotation's, up to the sign of zero
    g = Grid(16)
    d = to_dispersive(random_irrotational(g, P, np.random.default_rng(2), kmax=2), P)
    t = 0.37
    sym = diagonal._symbols(g, P)
    phase = t * np.stack((sym.lam_e, sym.lam_i, sym.lam_b))[[0, 1, 2, 2, 2]]
    c, s = np.cos(phase), np.sin(phase)
    Pr, Mr = d.buf[:5], d.buf[5:]
    out = free_evolve(d, t, P)
    np.testing.assert_array_equal(out.buf, np.concatenate((c * Pr + s * Mr, c * Mr - s * Pr)))
    assert out.t == t
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            free_evolve(d, bad, P)


@pytest.mark.parametrize("t", [True, pytest.param(np.True_, id="np.True_")])
def test_free_evolve_rejects_a_bool_time(t):
    # as KernelQuery does: read as a number, True would evolve by 1.0
    with pytest.raises(ValueError, match="finite number"):
        free_evolve(_random_disp(), t, P)


def test_grid_field_matches_continuum_kernel():
    # one-shell radial datum evolved on the box vs the continuum integral;
    # at t = 0.1 the periodic images are below the 2% contract
    g = Grid(64)
    amp = g.n**1.5 / (2.0 * g.box_half) ** 3
    # U_i is real and even, so it is its own P row, and its M row is 0
    buf = np.zeros((10,) + g.half.xi_mag.shape, complex)
    buf[1] = phi_interval(g.half.xi_mag, -2, 2) * amp
    d = DispState(g, buf, 0.0)
    t = 0.1
    field = to_physical(g, free_evolve(d, t, P).U_i)

    dx = 2.0 * g.box_half / g.n
    js = np.arange(0, 12)
    vals = kernel_profile(KernelQuery("i", 0, -t), P, js * dx) / (2.0 * np.pi) ** 3
    ref = np.max(np.abs(field))
    for j, v in zip(js, vals):
        assert abs(field[j, 0, 0] - v) <= 0.02 * ref


# ---------------------------------------------------------------------------
# exponent extraction


def test_decay_fit_exact_law():
    ts = np.geomspace(10.0, 1e4, 10)
    out = decay_fit(ts, 3.0 * ts**-1.5)
    assert out["exponent"] == pytest.approx(-1.5, abs=1e-12)
    assert out["prefactor"] == pytest.approx(3.0, rel=1e-12)
    assert out["r2"] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(e=st.floats(-3.0, -0.5), c=st.floats(0.1, 10.0))
def test_decay_fit_recovers_any_power_law(e, c):
    ts = np.geomspace(5.0, 5e3, 9)
    out = decay_fit(ts, c * ts**e)
    assert out["exponent"] == pytest.approx(e, abs=1e-9)
    assert out["prefactor"] == pytest.approx(c, rel=1e-8)


def test_decay_fit_noise_and_constants():
    rng = np.random.default_rng(11)
    ts = np.geomspace(10.0, 1e4, 24)
    noisy = 2.0 * ts**-1.5 * np.exp(rng.normal(0.0, 0.05, ts.shape))
    assert decay_fit(ts, noisy)["exponent"] == pytest.approx(-1.5, abs=0.05)
    flat = decay_fit(ts, np.full_like(ts, 0.7))
    assert flat["exponent"] == pytest.approx(0.0, abs=1e-12)
    assert flat["r2"] == 1.0


def test_decay_fit_validation():
    ts = np.geomspace(1.0, 100.0, 8)
    with pytest.raises(ValueError):
        decay_fit(ts[:-1], ts[:-1] ** -1.0)
    with pytest.raises(ValueError):
        decay_fit(ts, np.concatenate([ts[:-1] ** -1.0, [0.0]]))
    with pytest.raises(ValueError):
        decay_fit(ts, ts[:-1] ** -1.0)
    with pytest.raises(ValueError):
        decay_fit(np.full(8, 3.0), np.full(8, 1.0))
    # a NaN or infinite sup gave a NaN exponent, an infinite t a LinAlgError
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            decay_fit(ts, np.concatenate([ts[:-1] ** -1.0, [bad]]))
        with pytest.raises(ValueError, match="finite"):
            decay_fit(np.concatenate([ts[:-1], [bad]]), ts ** -1.0)


# two-point exponents over one decade; the full-ladder values live in the
# acceptance suite, this pins the engine against drift
def _two_point_exponent(branch, k, t0, t1):
    s0 = kernel_sup(KernelQuery(branch, k, t0), P)
    s1 = kernel_sup(KernelQuery(branch, k, t1), P)
    return np.log(s1 / s0) / np.log(t1 / t0)


def test_electron_branch_two_point_exponent():
    assert -1.6 <= _two_point_exponent("e", 0, 100.0, 1000.0) <= -1.4


def test_magnetic_branch_two_point_exponent():
    assert -1.6 <= _two_point_exponent("b", 0, 100.0, 1000.0) <= -1.4


# frozen full-ladder regressions on the cheap ion shells,
# t in geomspace(1e2, 1e4, 8)
ION_LADDER_ORACLE = {-3: -1.4718, 1: -1.3796}


@pytest.mark.parametrize("k", sorted(ION_LADDER_ORACLE))
def test_ion_ladder_exponent_regression(k):
    ts = np.geomspace(100.0, 10000.0, 8)
    sups = [kernel_sup(KernelQuery("i", k, t), P) for t in ts]
    out = decay_fit(ts, sups)
    assert out["exponent"] == pytest.approx(ION_LADDER_ORACLE[k], abs=5e-3)
    assert out["r2"] > 0.99


# ---------------------------------------------------------------------------
# desk-scale experiment


def test_sup_derivatives_plane_wave():
    g = Grid(16)
    x1 = np.arange(g.n) * (2.0 * g.box_half / g.n)
    n_vals = np.broadcast_to(np.cos(2.0 * x1)[:, None, None], (g.n,) * 3)
    # state fields are half-spectrum coefficients
    n_field = to_half(g, n_vals)
    state = PhysState(g, np.zeros((14,) + n_field.shape, complex), 0.0)
    state.n = n_field
    # max over |alpha| <= 4 of ||D^alpha cos(2 x_1)||_inf = 2^4
    assert decay._sup_derivatives(state) == pytest.approx(16.0, rel=1e-10)
    # the table behind it: 35 multi-indices by 14 rows, nonzero only in n's column
    table = _derivative_sups(state, 4)
    assert table.shape == (35, 14)
    assert np.max(table[:, 0]) == pytest.approx(16.0, rel=1e-10)
    assert not np.any(table[:, 1:])


def _linear_flow_state(t):
    # the 64^3 monitor's state: the kmax-4 seed state of the linear
    # experiment, carried to t by the exact flow
    g = Grid(64)
    d = to_dispersive(random_irrotational(g, P, np.random.default_rng(0), amplitude=1e-3), P)
    return from_dispersive(free_evolve(d, t, P), P)


def _stepped_state():
    # two nonlinear steps fill the 2/3 band of a 32^3 grid
    g = Grid(32)
    s = random_irrotational(g, P, np.random.default_rng(1), amplitude=1e-3)
    for _ in range(2):
        s = step(s, cfl_dt(g, P), P)
    sx, sy, sz, _ = spectral._support(g, s.buf)
    assert (sx.size, sy.size, sz.size) == (21, 21, 11)
    return s


def _wide_box_state():
    # every |xi_axis| <= 4 pi / 20 = 0.63 on a box of half-width 20:
    # derivatives shrink the field, so the maximum sits at order 0
    s = random_irrotational(Grid(32, box_half=20), P, np.random.default_rng(2), amplitude=1e-3)
    table = _derivative_sups(s, decay.MONITOR_ORDER)
    assert np.max(table[0]) == np.max(table) > np.max(table[1:])
    return s


def _near_tie_state():
    # n = 2 cos(3x + 3y + 3z): the 15 entries of order 4 share the bound
    # 2 * 3^4 = 162, and their computed sups differ in the last bits.  Where
    # the first one evaluated is not the largest (on an x86-64 OpenBLAS build,
    # 162.00000000000003 against 162.00000000000006), only the margin on the
    # bounds keeps the others from being pruned
    g = Grid(16)
    s = PhysState(g, np.zeros((14, g.n, g.n, g.n // 2 + 1), complex), 0.0)
    s.n[3, 3, 3] = g.n**1.5
    return s


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _linear_flow_state(0.0), id="linear64_t0"),
    pytest.param(lambda: _linear_flow_state(1.0), id="linear64_t1"),
    pytest.param(_stepped_state, id="stepped32"),
    pytest.param(lambda: PhysState(Grid(16), np.zeros((14, 16, 16, 9), complex), 0.0), id="zero"),
    pytest.param(_wide_box_state, id="wide_box"),
    pytest.param(_near_tie_state, id="near_tie"),
])
def test_pruned_sup_is_the_table_max(make, monkeypatch):
    s = make()
    evaluated = set()

    def counting(grid, supp, order, want):
        for out in spectral._derivatives(grid, supp, order, want):
            evaluated.add(out[:2])
            yield out

    monkeypatch.setattr(decay, "_derivatives", counting)
    want = float(np.max(_derivative_sups(s, decay.MONITOR_ORDER)))
    got = decay._sup_derivatives(s)
    assert got == want  # bit for bit: equal floats differ only in the sign of zero
    assert 1 <= len(evaluated) <= 35 * 14
    if s.grid.n == 64:
        # the bounds leave 81 and 45 of the 490 entries to evaluate
        assert len(evaluated) <= 100


def test_pruned_sup_needs_the_hermitian_multiplicity():
    # n = 16 cos z is stored once, at z-mode 1, and stands for a conjugate
    # pair; rho = 10 cos x is stored twice, at x-modes +-1 on z-mode 0.  With
    # mu = 1 everywhere n's bound would read 8, below rho's 10: rho would be
    # evaluated first and n pruned, and the sup would read 10
    g = Grid(16)
    s = PhysState(g, np.zeros((14, g.n, g.n, g.n // 2 + 1), complex), 0.0)
    s.n[0, 0, 1] = 8.0 * g.n**1.5
    s.rho[1, 0, 0] = s.rho[-1, 0, 0] = 5.0 * g.n**1.5
    bound = spectral._derivative_bounds(g, spectral._support(g, s.buf), decay.MONITOR_ORDER)
    assert (bound[0, 0], bound[0, 1]) == (16.0, 10.0)
    assert np.max(_derivative_sups(s, decay.MONITOR_ORDER)) == 16.0
    assert decay._sup_derivatives(s) == 16.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pruned_sup_of_a_non_finite_state_is_not_finite(bad):
    # a NaN bound compares false, so pruning on it would drop the NaN entry
    # and read a finite sup; every entry is evaluated instead, as the table is
    s = random_irrotational(Grid(16), P, np.random.default_rng(3), amplitude=1.0)
    s.buf[4, 1, 2, 1] = bad

    def run(fn):
        # the value and the warnings it raised, each by its message and source line
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = fn()
        return out, {(w.category, str(w.message), w.filename, w.lineno) for w in seen}

    got, warned = run(lambda: decay._sup_derivatives(s))
    want, table_warned = run(lambda: np.max(_derivative_sups(s, decay.MONITOR_ORDER)))
    assert not math.isfinite(got)
    assert np.array_equal(got, want, equal_nan=True)
    # the bound that sends the monitor to the full table adds no warning of its own
    assert warned == table_warned


def test_experiment_zero_amplitude():
    out = nonlinear_decay_experiment(1, 0.0, 1.0, P, grid=Grid(16), samples=5)
    np.testing.assert_array_equal(out["sup"], np.zeros(5))
    np.testing.assert_array_equal(out["weighted"], np.zeros(5))
    np.testing.assert_allclose(out["t"], np.linspace(0.0, 1.0, 5))
    assert out["blowup_t"] is None


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -1e-3])
def test_experiment_rejects_a_bad_amplitude(amplitude):
    # a NaN amplitude once gave a nonlinear run stamped blowup_t = 0.0
    with pytest.raises(ValueError, match="amplitude"):
        nonlinear_decay_experiment(1, amplitude, 1.0, P, grid=Grid(16), samples=3)
    with pytest.raises(ValueError, match="amplitude"):
        random_irrotational(Grid(16), P, np.random.default_rng(1), amplitude=amplitude)


@pytest.mark.parametrize("samples", [0, -1, 2.0, True, None])
def test_experiment_rejects_a_bad_sample_count(samples):
    # samples=0 once returned empty t and sup series with no error
    with pytest.raises(ValueError, match="samples"):
        nonlinear_decay_experiment(1, 1e-3, 1.0, P, grid=Grid(16), linear=True, samples=samples)


def test_experiment_takes_one_sample():
    out = nonlinear_decay_experiment(1, 1e-3, 1.0, P, grid=Grid(16), linear=True, samples=1)
    np.testing.assert_array_equal(out["t"], [0.0])
    assert out["sup"].shape == (1,) and out["sup"][0] > 0


def test_experiment_linear_mode_is_homogeneous():
    kw = dict(grid=Grid(16), linear=True, samples=5)
    a = nonlinear_decay_experiment(7, 1e-3, 2.0, P, **kw)
    b = nonlinear_decay_experiment(7, 2e-3, 2.0, P, **kw)
    assert np.all(np.isfinite(a["sup"])) and a["sup"][0] > 0
    np.testing.assert_allclose(b["sup"], 2.0 * a["sup"], rtol=1e-9)
    np.testing.assert_allclose(
        a["weighted"], (1.0 + a["t"]) ** (1.0 + 0.005) * a["sup"], rtol=1e-12)


def test_experiment_nonlinear_short_run():
    out = nonlinear_decay_experiment(5, 1e-4, 0.05, P, grid=Grid(16), samples=3)
    assert out["blowup_t"] is None
    assert len(out["sup"]) == 3
    assert np.all(np.isfinite(out["sup"]))
    assert out["sup"][0] > 0
    # a NaN horizon once returned t = [nan, ...] and a constant sup series,
    # and a bool horizon ran to t = 1
    for horizon in (-1.0, np.nan, np.inf, True, np.True_):
        with pytest.raises(ValueError):
            nonlinear_decay_experiment(5, 1e-4, horizon, P, grid=Grid(16), linear=True, samples=3)
