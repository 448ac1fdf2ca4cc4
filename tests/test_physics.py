import tracemalloc
import warnings

import numpy as np
import pytest

from twofluid.params import PlasmaParams
from twofluid.physics import (
    FIELDS,
    PhysState,
    SystemKind,
    cfl_dt,
    constraints,
    energy,
    ep_electric,
    gronwall_constant,
    gronwall_quantities,
    integrate,
    local_energy_residual,
    make_irrotational,
    random_irrotational,
    rhs,
    step,
)
from twofluid import decay, physics, spectral
from twofluid.diagonal import nonlinearity_direct
from twofluid.spectral import (Grid, cross, curl, div, full_spectrum, grad, hermitize,
                               is_hermitian, l2_norm, p_long, random_real_field,
                               random_vector_field, to_half, to_physical)

P = PlasmaParams(1e-3, 1.0, 6.0)
EM = SystemKind.euler_maxwell
EP = SystemKind.euler_poisson


def _rng():
    return np.random.default_rng(7)


def _scale(s, a):
    return PhysState(s.grid, a * s.buf, s.t)


def _zero(g):
    return PhysState(g, np.zeros((14, g.n, g.n, g.n // 2 + 1), complex), 0.0)


def _diff(a, b):
    return float(np.sqrt(sum(l2_norm(a.grid, getattr(a, f) - getattr(b, f)) ** 2 for f in FIELDS)))


def _norm(s):
    return float(np.sqrt(sum(l2_norm(s.grid, getattr(s, f)) ** 2 for f in FIELDS)))


@pytest.mark.parametrize("kind", [EM, EP])
def test_zero_state_equilibrium(kind):
    g = Grid(16)
    s = _zero(g)
    tend = rhs(s, P, kind=kind)
    assert all(not np.any(getattr(tend, f)) for f in FIELDS)
    out = step(s, 1e-3, P, kind=kind)
    assert _norm(out) == 0.0
    assert out.t == pytest.approx(1e-3)


def test_non_hermitian_seed_gives_the_hermitized_state():
    # the half-spectrum layout makes every state real: a seed whose
    # self-mirrored planes are not real is projected on entry, and nothing
    # is rejected
    g = Grid(16)
    rng = _rng()
    half = (16, 16, 9)
    shapes = {"n": half, "rho": half, "v_pot": half, "u_pot": half,
              "b_seed": (3,) + half, "E_t": (3,) + half}
    seed = {k: rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for k, sh in shapes.items()}
    assert not any(is_hermitian(c) for c in seed.values())
    raw = make_irrotational(g, P, seed)
    np.testing.assert_array_equal(
        raw.buf, make_irrotational(g, P, {k: hermitize(c) for k, c in seed.items()}).buf)
    # the buffer is the half spectrum of its own (real) values
    again = to_half(g, to_physical(g, raw.buf))
    assert np.max(np.abs(again - raw.buf)) <= 1e-13 * np.max(np.abs(raw.buf))
    assert all(is_hermitian(c) for c in raw.buf)
    tend = rhs(raw, P)
    assert np.all(np.isfinite(tend.buf))


def test_rhs_tendencies_are_real():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    tend = rhs(s, P)
    for f in FIELDS:
        arr = getattr(tend, f)
        comps = arr if arr.ndim == 4 else arr[None]
        for c in comps:
            assert is_hermitian(c, tol=1e-11)


@pytest.mark.parametrize("kind", [EM, EP])
def test_linearization_richardson(kind):
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1.0)
    lin = physics._tendencies(s, P, kind, True, PhysState._empty(g))

    def defect(a):
        full = rhs(_scale(s, a), P, kind=kind)
        return _diff(full, _scale(lin, a))

    a = 1e-3
    ratio = defect(2 * a) / defect(a)
    assert 3.7 <= ratio <= 4.3


def test_plane_wave_density_tendency():
    g = Grid(16)
    s = _zero(g)
    s.n[1, 0, 0] = 0.5
    s.n[-1 % g.n, 0, 0] = 0.5

    tend = rhs(s, P, kind=EM)
    assert not np.any(tend.n)
    assert not np.any(tend.rho)
    assert not np.any(tend.E)
    assert not np.any(tend.B)
    # momentum responds with -(T/eps) grad n; box has unit lattice spacing
    expect = -(P.T / P.epsilon) * 1j * 0.5
    assert tend.v[0][1, 0, 0] == pytest.approx(expect, rel=1e-13)
    mask = np.ones_like(tend.v, dtype=bool)
    mask[0, 1, 0, 0] = mask[0, -1 % g.n, 0, 0] = False
    assert not np.any(tend.v[mask])

    tend_ep = rhs(s, P, kind=EP)
    # slaved field E = i xi n/|xi|^2 adds -E/eps to the electron momentum
    expect_ep = expect - 1j * 0.5 / P.epsilon
    assert tend_ep.v[0][1, 0, 0] == pytest.approx(expect_ep, rel=1e-13)


def test_ep_ignores_magnetic_field():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    withB = rhs(s, P, kind=EP)
    s2 = PhysState(g, s.buf.copy(), s.t)
    s2.B[:] = 0.0
    without = rhs(s2, P, kind=EP)
    assert _diff(withB, without) == 0.0
    assert not np.any(withB.B)


@pytest.mark.parametrize("kind,linear", [(EM, True), (EM, False), (EP, False)])
def test_rk4_order_by_step_halving(kind, linear):
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=3)
    dt0 = 0.8 * cfl_dt(g, P)
    horizon = 8 * dt0

    def advance(dt):
        out = s
        for _ in range(round(horizon / dt)):
            out = step(out, dt, P, kind=kind, linear=linear, check=False)
        return out

    ref = advance(dt0 / 8)
    e1 = _diff(advance(dt0), ref)
    e2 = _diff(advance(dt0 / 2), ref)
    assert 11.0 <= e1 / e2 <= 22.0


def test_time_reversal_defect_scales_like_dt5():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=3)
    dt0 = 0.8 * cfl_dt(g, P)

    def defect(dt):
        there = step(s, dt, P, check=False)
        back = step(there, -dt, P, check=False)
        return _diff(back, s)

    d1, d2 = defect(dt0), defect(dt0 / 2)
    assert d1 / _norm(s) < 1e-3
    # at least fifth order per pair; the linear part actually cancels to
    # dt^6 (the composed stability polynomial is even in dt), ratio ~ 64
    assert 28.0 <= d1 / d2 <= 70.0


def test_cfl_warning_and_nan_abort():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    with pytest.warns(RuntimeWarning, match="CFL"):
        step(s, 10 * cfl_dt(g, P), P)
    blown = _scale(s, 1e40)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(FloatingPointError):
            out = blown
            for _ in range(4):
                out = step(out, 1.0, P, check=False)
    with pytest.raises(ValueError):
        step(s, 0.0, P)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, True, pytest.param(np.True_, id="np.True_")])
def test_step_rejects_a_nonfinite_or_bool_dt_before_any_stage(dt, monkeypatch):
    # unchecked, a NaN dt runs four stages before the non-finite sum raises,
    # and True steps by 1.0 with only a CFL warning
    s = random_irrotational(Grid(16), P, _rng(), amplitude=1e-2)
    monkeypatch.setattr(physics, "_tendencies", lambda *a: pytest.fail("a stage ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite and nonzero"):
            step(s, dt, P)


# ---------------------------------------------------------------------------
# the state layout


def test_fields_are_views_onto_the_buffer():
    s = random_irrotational(Grid(16), P, _rng(), amplitude=1e-2)
    assert s.buf.shape == (14, 16, 16, 9) and s.buf.dtype == complex
    for f, key in zip(FIELDS, (0, 1, slice(2, 5), slice(5, 8), slice(8, 11), slice(11, 14))):
        arr = getattr(s, f)
        assert np.shares_memory(arr, s.buf), f
        assert arr.shape == s.buf[key].shape and np.array_equal(arr, s.buf[key]), f
    # the constructor wraps its buffer, not a copy, and takes t explicitly
    w = PhysState(s.grid, s.buf, 0.5)
    assert w.buf is s.buf and w.grid is s.grid and w.t == 0.5
    with pytest.raises(TypeError):
        PhysState(s.grid, s.buf)


def test_attribute_assignment_writes_through():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    buf = s.buf
    arr = np.full((16, 16, 9), 2.0 + 1.0j)
    s.n = arr
    np.testing.assert_array_equal(buf[0], arr)
    vec = random_vector_field(g, _rng(), kmax=2)
    s.u = vec
    np.testing.assert_array_equal(buf[5:8], vec)
    s.B[:] = 0.0
    assert not np.any(buf[11:14])
    s.v[1] += 1.0
    np.testing.assert_array_equal(buf[3], s.v[1])
    assert s.buf is buf


# ---------------------------------------------------------------------------
# the stepping loop


def _hand_loop(s, times, dt):
    """The decay experiment's sampling loop, written out with step."""
    cur, out = s, []
    for target in times:
        while cur.t < target - 1e-12:
            cur = step(cur, min(dt, target - cur.t), P, check=False)
        out.append(cur)
    return out


def test_integrate_matches_hand_written_loop():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    dt = cfl_dt(g, P)
    # sample times off the dt lattice, so the last step to each is clipped
    times = np.linspace(0.0, 5.5 * dt, 3)
    got = list(integrate(s, times, dt, P))
    ref = _hand_loop(s, times, dt)
    assert len(got) == len(times)
    for a, b, t in zip(got, ref, times):
        assert a.t == b.t
        np.testing.assert_array_equal(a.buf, b.buf)
        assert abs(a.t - t) <= 1e-12


def test_integrate_hits_each_time_and_passes_kind():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2, rotational=False)
    dt = 0.8 * cfl_dt(g, P)
    times = [0.3 * dt, 0.3 * dt, 2.0 * dt, 3.7 * dt]
    got = list(integrate(s, times, dt, P, kind=EP, linear=True))
    for out, t in zip(got, times):
        assert abs(out.t - t) <= 1e-12
    assert got[1] is got[0]
    ref = s
    for h in (0.3 * dt, dt, 0.7 * dt):
        ref = step(ref, h, P, kind=EP, linear=True)
    assert _diff(got[2], ref) <= 1e-12 * _norm(ref)


def test_integrate_at_the_initial_time_yields_the_input():
    s = random_irrotational(Grid(16), P, _rng(), amplitude=1e-2)
    before = s.buf.copy()
    (out,) = integrate(s, [s.t], 1e-3, P)
    assert out.t == s.t
    np.testing.assert_array_equal(out.buf, before)
    np.testing.assert_array_equal(s.buf, before)


def test_integrate_rejects_invalid_input():
    s = random_irrotational(Grid(16), P, _rng(), amplitude=1e-2)
    s.t = 1.0
    for times, dt in (([1.0, 2.0, 1.5], 1e-3),   # decreasing
                      ([0.5, 2.0], 1e-3),        # before the state's time
                      ([1.0, 2.0], 0.0),         # dt <= 0
                      ([1.0, 2.0], -1e-3),
                      # a NaN target was once yielded unstepped, or stamped
                      # with the previous time
                      ([np.nan], 1e-3),
                      ([1.0, np.nan, 1.002], 1e-3),
                      ([1.0, np.inf], 1e-3)):
        with pytest.raises(ValueError):
            list(integrate(s, times, dt, P))


@pytest.mark.parametrize("dt", [True, pytest.param(np.True_, id="np.True_"), np.inf])
def test_integrate_rejects_a_bool_or_infinite_dt_before_any_step(dt, monkeypatch):
    # True once stepped by 1.0 with only a CFL warning, and inf as one step
    # to the target
    s = random_irrotational(Grid(8), P, _rng(), amplitude=1e-2)
    monkeypatch.setattr(physics, "step", lambda *a, **k: pytest.fail("a step ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            next(integrate(s, [0.5], dt, P))


# ---------------------------------------------------------------------------
# constraints


@pytest.mark.parametrize("kmax", [-1, 0, np.nan, 2.5, 3.0, True, "4"])
def test_random_irrotational_rejects_a_bad_kmax(kmax):
    # -1, 0 and NaN once gave the zero state, and 2.5 was accepted
    with pytest.raises(ValueError, match="kmax"):
        random_irrotational(Grid(16), P, _rng(), amplitude=1e-3, kmax=kmax)


@pytest.mark.parametrize("flag", [True, pytest.param(np.True_, id="np.True_")])
@pytest.mark.parametrize("call,message", [
    # a bool seed time once gave a state at t = 1.0
    (lambda flag: make_irrotational(Grid(8), P, {"t": flag}), "seed time must be finite"),
    # a bool t once integrated at t = 1
    (lambda flag: decay.radial_kernel(lambda s: 0 * s, lambda s: 0 * s, lambda s: 1.0 + 0 * s,
                                      1.0, 2.0, flag, [0.0], 64), "need finite t"),
    # a bool amplitude was once rejected as an rms the caller never passed
    (lambda flag: random_irrotational(Grid(8), P, _rng(), amplitude=flag, kmax=2),
     "amplitude must be finite"),
], ids=["make_irrotational t", "radial_kernel t", "random_irrotational amplitude"])
def test_a_bool_is_rejected_at_the_boundaries(call, message, flag):
    with pytest.raises(ValueError, match=message):
        call(flag)


@pytest.mark.parametrize("kmax", [1, np.int64(2), None])
def test_random_irrotational_takes_a_positive_integer_kmax(kmax):
    s = random_irrotational(Grid(16), P, _rng(), amplitude=1e-3, kmax=kmax)
    assert np.max(np.abs(s.n)) > 0


@pytest.mark.parametrize("n,kmax", [(8, 4), (16, 8), (16, None)])
def test_make_irrotational_is_real_with_nyquist_content(n, kmax):
    # grad, curl and the electric solve multiply by the odd symbol i xi, which
    # breaks conjugate symmetry on the self-mirrored index n/2
    g = Grid(n)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2, kmax=kmax)
    for name, c in zip(FIELDS, (s.n, s.rho, s.v, s.u, s.E, s.B)):
        assert is_hermitian(c, tol=1e-12), name
    for val in constraints(s, P).values():
        assert val <= 1e-12
    rhs(s, P)
    (out,) = integrate(s, [1e-3], 1e-3, P)
    assert out.t == pytest.approx(1e-3)


def test_make_irrotational_satisfies_constraints():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    for name, val in constraints(s, P).items():
        assert val <= 1e-12, name


def test_make_irrotational_potential_only():
    g = Grid(16)
    rng = _rng()
    s = make_irrotational(g, P, {
        "n": random_real_field(g, rng, kmax=3),
        "v_pot": random_real_field(g, rng, kmax=3),
        "u_pot": random_real_field(g, rng, kmax=3),
    })
    assert not np.any(s.B)
    for val in constraints(s, P).values():
        assert val <= 1e-12


def test_make_irrotational_rejects_bad_seeds():
    g = Grid(16)
    rng = _rng()
    w = random_vector_field(g, rng, kmax=2)
    # b_seed is the one rotational seed
    for key in ("vorticity", "v_rot", "u_rot"):
        with pytest.raises(ValueError, match="unknown seed keys"):
            make_irrotational(g, P, {key: w})


def test_make_irrotational_rejects_malformed_seeds():
    g = Grid(16)
    f = random_real_field(g, _rng(), kmax=2)
    with pytest.raises(ValueError, match="shape"):
        make_irrotational(g, P, {"n": f[:, :, :1]})  # would broadcast over the grid
    with pytest.raises(ValueError, match="shape"):
        make_irrotational(g, P, {"b_seed": f})  # scalar where a vector belongs
    with pytest.raises(ValueError, match="shape"):
        make_irrotational(g, P, {"n": full_spectrum(g, f)})  # seeds are half-layout
    with pytest.raises(ValueError, match="finite"):
        make_irrotational(g, P, {"n": f, "t": np.nan})


def _corrupted_B_state():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    s.B = s.B + 1e-3 * random_vector_field(g, _rng(), kmax=2)
    return s


def test_corrupted_B_detected():
    res = constraints(_corrupted_B_state(), P)
    assert res["div_B"] > 1e-6 or res["girr_e"] > 1e-6


def _rotational_form(s, kind):
    """The full tendencies, advection in rotational form: v.grad v =
    grad|v|^2/2 - v x curl v, folded with the magnetic force into v x Y with
    Y = B - eps curl v, and u x Z with Z = B + curl u (B read as 0 for the
    electrostatic kind).  ``rhs`` is this system with v x Y and u x Z
    dropped, exact on the constraint manifold, where Y = Z = 0."""
    g, eps = s.grid, P.epsilon
    B = 0 * s.B if kind is EP else s.B
    E = ep_electric(g, s.n, s.rho) if kind is EP else s.E
    n, rho, v, u, Y, Z = (to_physical(g, f) for f in (
        s.n, s.rho, s.v, s.u, B - eps * curl(g, s.v), B + curl(g, s.u)))

    def product(vals):  # dealiased, as in the solver
        return g.half.dealias_mask * to_half(g, vals)

    Je, Ji = s.v + product(n * v), s.u + product(rho * u)
    dv = grad(g, -(P.T / eps) * s.n - 0.5 * product(np.sum(v**2, 0))) \
        - (E + product(cross(v, Y))) / eps
    du = grad(g, -s.rho - 0.5 * product(np.sum(u**2, 0))) + E + product(cross(u, Z))
    if kind is EP:
        dE, dB = p_long(g, Je - Ji), 0.0
    else:
        dE, dB = (P.C_b / eps) * curl(g, s.B) + Je - Ji, -curl(g, E)
    out = PhysState._empty(g, s.t)
    out.n, out.rho, out.v, out.u, out.E, out.B = -div(g, Je), -div(g, Ji), dv, du, dE, dB
    return out


@pytest.mark.parametrize("amplitude", [1e-3, 0.5])
@pytest.mark.parametrize("kind", [EM, EP])
def test_rhs_is_the_rotational_form_on_the_manifold(kind, amplitude):
    # admissible data for the electrostatic kind is potential flow: B is not read
    s = random_irrotational(Grid(16), P, _rng(), amplitude=amplitude, rotational=(kind is EM))
    ref = _rotational_form(s, kind)
    assert _diff(rhs(s, P, kind=kind), ref) <= 1e-15 * _norm(ref)


def test_rhs_leaves_the_rotational_form_off_the_manifold():
    # the comparison above can fail: on the corrupted state v x Y is O(1e-5)
    s = _corrupted_B_state()
    ref = _rotational_form(s, EM)
    assert _diff(rhs(s, P), ref) >= 1e-6 * _norm(ref)


@pytest.mark.parametrize("kind", [EM, EP])
def test_integrate_rejects_a_nonlinear_start_off_the_manifold(kind):
    # the electrostatic kind reads B as 0, so the rotational v and u of this
    # state put it off the manifold too; linear runs are checked for neither
    s = _corrupted_B_state()
    with pytest.raises(ValueError, match="constraint manifold"):
        next(integrate(s, [1e-3], 1e-3, P, kind=kind))
    (out,) = integrate(s, [1e-3], 1e-3, P, kind=kind, linear=True)
    assert out.t == pytest.approx(1e-3)


def test_integrate_accepts_every_assembled_state():
    for n, kmax, amplitude in ((8, None, 0.5), (16, 4, 1e-3), (16, None, 1e3), (32, 4, 1e-3)):
        for kind in (EM, EP):
            s = random_irrotational(Grid(n), P, _rng(), amplitude=amplitude, kmax=kmax,
                                    rotational=(kind is EM))
            (out,) = integrate(s, [1e-4], 1e-4, P, kind=kind)
            assert out.t == pytest.approx(1e-4)


#: the manifold bound as derived: 16 roundings of relative size 2^-53
_MANIFOLD_BOUND = 16 * 2.0**-53


def _manifold_ratio(s, c, vel):
    """|B + c curl vel| / (|B| + |c| ||xi| vel|) in units of _MANIFOLD_BOUND."""
    g = s.grid
    size = l2_norm(g, s.B) + abs(c) * l2_norm(g, g.half.xi_mag * vel)
    return l2_norm(g, s.B + c * curl(g, vel)) / (_MANIFOLD_BOUND * size)


@pytest.mark.parametrize("name", ["Y", "Z"])
def test_integrate_pins_the_manifold_bound(name):
    # a residual of half the bound passes and one of 8 times it is rejected,
    # so the bound is pinned within a factor of 16 from both sides.  Y =
    # B - eps curl v moves with v alone, Z = B + curl u with u alone.
    g = Grid(16)
    base = random_irrotational(g, P, _rng(), amplitude=1e-3, kmax=4)
    c, field = (-P.epsilon, "v") if name == "Y" else (1.0, "u")
    w = random_vector_field(g, np.random.default_rng(5), kmax=2)
    unit = l2_norm(g, c * curl(g, w))
    for target, accepted in ((0.5, True), (8.0, False)):
        s = PhysState(g, base.buf.copy(), base.t)
        vel = getattr(s, field)
        size = l2_norm(g, s.B) + abs(c) * l2_norm(g, g.half.xi_mag * vel)
        vel += (target * _MANIFOLD_BOUND * size / unit) * w
        assert _manifold_ratio(s, c, vel) == pytest.approx(target, abs=0.1)
        other = (1.0, s.u) if name == "Y" else (-P.epsilon, s.v)
        assert _manifold_ratio(s, *other) < 0.1
        if accepted:
            assert next(integrate(s, [s.t], 1e-4, P)) is s
        else:
            with pytest.raises(ValueError, match=f"constraint manifold: {name}"):
                next(integrate(s, [s.t], 1e-4, P))


@pytest.mark.parametrize("kind", [EM, EP])
def test_constraints_preserved_through_stepping(kind):
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2, rotational=(kind is EM))
    if kind is EP:
        s.E = ep_electric(g, s.n, s.rho)
    dt = 0.8 * cfl_dt(g, P)
    for _ in range(50):
        s = step(s, dt, P, kind=kind, check=False)
    res = constraints(s, P)
    for name, val in res.items():
        # the spec's convergence allowance is 10 * dt^4 * steps; the shared
        # currents keep Gauss's law, and the tendencies of v, u and B keep Y
        # and Z, term by term, so the drift is roundoff
        assert val <= 1e-12, (name, val)
        assert val <= 10 * dt**4 * 50


@pytest.mark.parametrize("kind", [EM, EP])
def test_nyquist_planes_stay_zero(kind):
    # every odd symbol i xi and every dealiased product keeps index n/2 empty
    # on all three axes, so the stored half spectrum stays that of a real field
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=None)
    dt = 0.8 * cfl_dt(g, P)
    h = g.n // 2
    for _ in range(100):
        s = step(s, dt, P, kind=kind)
    assert np.any(s.buf)
    for plane in (s.buf[:, h], s.buf[:, :, h], s.buf[..., h]):
        assert not np.any(plane)


def _count_transforms(monkeypatch):
    """Count the three-axis inverse and forward transforms of module spectral
    and its one-axis passes, and list the three-axis ones as (way, rows)."""
    counts, batches = {"inverse": 0, "forward": 0, "axis": 0}, []
    for name, way in (("irfftn", "inverse"), ("ifftn", "inverse"),
                      ("rfftn", "forward"), ("fftn", "forward"),
                      ("ifft", "axis"), ("irfft", "axis")):
        def counted(x, *args, _fn=getattr(spectral.sfft, name), _way=way, **kw):
            counts[_way] += 1
            if _way != "axis":
                batches.append((_way, len(x) if np.ndim(x) == 4 else 1))
            return _fn(x, *args, **kw)
        monkeypatch.setattr(spectral.sfft, name, counted)
    return counts, batches


def test_each_rhs_and_monitor_sample_batches_its_transforms(monkeypatch):
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    counts, batches = _count_transforms(monkeypatch)
    # n, rho, v, u in one batch; |v|^2, |u|^2, n v, rho u in the other
    one_rhs = [("inverse", 8), ("forward", 8)]
    rhs(s, P)
    assert counts == {"inverse": 1, "forward": 1, "axis": 0}
    assert batches == one_rhs
    counts.update(inverse=0, forward=0)
    batches.clear()
    step(s, 0.5 * cfl_dt(g, P), P)
    assert counts == {"inverse": 4, "forward": 4, "axis": 0}
    assert batches == 4 * one_rhs
    counts.update(inverse=0, forward=0)
    batches.clear()
    # the derivative engine's passes are matrix products, not transforms
    physics._derivative_sups(s, 4)
    energy(s, P, 2)
    assert counts == {"inverse": 0, "forward": 0, "axis": 0}
    nonlinearity_direct(s, P)  # the products of one rhs
    assert counts == {"inverse": 1, "forward": 1, "axis": 0}
    assert batches == one_rhs
    tend = rhs(s, P)
    counts.update(inverse=0, forward=0)
    local_energy_residual(s, tend, P)  # state, tendencies, flux divergence
    assert counts == {"inverse": 3, "forward": 1, "axis": 0}


def test_monitors_leave_the_state_unchanged():
    # the engine transforms in place only products it has formed itself
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=5)
    before = s.buf.copy()
    energy(s, P, 2)
    physics._derivative_sups(s, 4)
    gronwall_quantities(s)
    assert np.array_equal(s.buf, before)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monitors_hold_no_full_size_array():
    # each slab of values is reduced as it comes: at 80^3 a slab is 10 of 80
    # x planes, and energy keeps the slabs of n and rho beside it; the pruned
    # sup forms its bounds on the support, 11 x 11 x 6 modes of the 80 x 80 x 41
    g = Grid(80)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=5)
    for monitor in (lambda: physics._derivative_sups(s, 4), lambda: energy(s, P, 2),
                    lambda: decay._sup_derivatives(s)):
        monitor()  # the grid's cached tables are built outside the trace
        assert _traced_peak(monitor) < g.n**3 * np.dtype(float).itemsize
    supp = spectral._support(g, s.buf)
    assert supp[3].shape == (14, 11, 11, 6)
    assert _traced_peak(lambda: spectral._derivative_bounds(g, supp, 4)) < 2 * supp[3].nbytes


def test_ep_tracks_slaved_field():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2, rotational=False)
    s.E = ep_electric(g, s.n, s.rho)
    dt = 0.8 * cfl_dt(g, P)
    for _ in range(20):
        s = step(s, dt, P, kind=EP, check=False)
    drift = l2_norm(g, s.E - ep_electric(g, s.n, s.rho))
    assert drift <= 1e-12


# ---------------------------------------------------------------------------
# energies


def test_energy_zero_and_validation():
    g = Grid(16)
    s = _zero(g)
    assert energy(s, P, 0) == 0.0
    assert energy(s, P, np.int64(2)) == 0.0
    for order in (9, -1, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            energy(s, P, order)


def test_energy_order0_quadratic_limit():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-3)
    quad = (
        P.T * l2_norm(g, s.n) ** 2
        + P.epsilon * sum(l2_norm(g, c) ** 2 for c in s.v)
        + l2_norm(g, s.rho) ** 2
        + sum(l2_norm(g, c) ** 2 for c in s.u)
        + sum(l2_norm(g, c) ** 2 for c in s.E)
        + (P.C_b / P.epsilon) * sum(l2_norm(g, c) ** 2 for c in s.B)
    )
    assert energy(s, P, 0) == pytest.approx(quad, rel=5e-3)


def test_energy_nonnegative_at_moderate_amplitude():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.2)
    for order in (0, 1, 2):
        assert energy(s, P, order) >= 0.0


def test_gronwall_constant_on_short_trajectory():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=3)
    dt = 0.8 * cfl_dt(g, P)
    traj = [s]
    for _ in range(10):
        traj.append(step(traj[-1], dt, P, check=False))
    c, table = gronwall_constant(traj, P, order=2)
    assert np.isfinite(c) and c > 0
    assert table["energy"][0] > 0
    with pytest.raises(ValueError):
        gronwall_constant([s], P)


def test_gronwall_quantities_keys():
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=1e-2)
    q = gronwall_quantities(s)
    assert q["A"] == pytest.approx(sum(v for k, v in q.items() if k != "A"))
    assert q["grad_n"] > 0


@pytest.mark.parametrize("case", ["kmax5", "full", "box2", "zero", "slabs"])
def test_batched_monitors_match_row_by_row_reference(case):
    # the monitors against one full-layout three-axis transform per row and
    # multi-index, with gamma = (a, b, c) in the engine's lexicographic order;
    # full support reaches the self-mirrored z planes and the wrapped x and y
    # modes, box_half = 2 scales xi, the zero state has an empty support, and
    # at 48^3 each row's values span two slabs, the second one partial
    g = Grid(16, box_half=2.0) if case == "box2" else Grid(48 if case == "slabs" else 16)
    planes = max(1, spectral.SLAB_VALUES // g.n**2)
    if case == "slabs":
        assert planes < g.n and g.n % planes
    if case == "zero":
        s = _zero(g)
    else:
        s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=None if case == "full" else 5)
    full = spectral.full_spectrum(g, s.buf)
    ixi = 1j * g.xi
    gammas = [(a, b, c) for a in range(5) for b in range(5 - a) for c in range(5 - a - b)]
    syms = (ixi[0] ** a * ixi[1] ** b * ixi[2] ** c for a, b, c in gammas)
    table = [np.max(np.abs(to_physical(g, sym * full).real), axis=(1, 2, 3)) for sym in syms]
    np.testing.assert_allclose(physics._derivative_sups(s, 4), table, rtol=1e-12, atol=0)
    # slab by slab, row by row, gamma by gamma; (m, n, n) values per slab
    seen = [(k, r, x0, vals.shape) for k, r, x0, vals in spectral.derivatives(g, s.v, 4)]
    assert seen == [(k, r, x0, (min(planes, g.n - x0), g.n, g.n))
                    for x0 in range(0, g.n, planes) for r in range(3) for k in range(35)]

    vol = (2.0 * g.box_half / g.n) ** 3
    n_p, rho_p = to_physical(g, full[0]).real, to_physical(g, full[1]).real
    ref = 0.0
    for a, b, c in gammas:
        if a + b + c > 2:
            continue
        sym = ixi[0] ** a * ixi[1] ** b * ixi[2] ** c
        sq = np.sum(np.abs(sym * full) ** 2, axis=(1, 2, 3))
        ref += vol * (P.T * sq[0] + sq[1] + np.sum(sq[8:11]) + P.C_b / P.epsilon * np.sum(sq[11:14]))
        dv, du = (to_physical(g, sym * full[r]).real for r in (slice(2, 5), slice(5, 8)))
        ref += vol * P.epsilon * np.sum((1.0 + n_p) * np.sum(dv**2, axis=0))
        ref += vol * np.sum((1.0 + rho_p) * np.sum(du**2, axis=0))
    assert energy(s, P, 2) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [16, 48])
def test_derivative_selection_yields_the_selected_entries_bit_for_bit(n):
    # a random selection, every entry of one row, and an empty one: the
    # engine yields the selected (k, r) entries in the order of the full run,
    # each slab's values bit for bit those of the full run
    g = Grid(n)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=5)
    full = [(k, r, x0, vals.copy()) for k, r, x0, vals in spectral.derivatives(g, s.buf, 4)]
    supp = spectral._support(g, s.buf)
    rng = np.random.default_rng(5)
    one_row = np.zeros((35, 14), bool)
    one_row[:, 9] = True
    for want in (rng.random((35, 14)) < 0.1, one_row, np.zeros((35, 14), bool)):
        got = [(k, r, x0, vals.copy())
               for k, r, x0, vals in spectral._derivatives(g, supp, 4, want)]
        kept = [e for e in full if want[e[0], e[1]]]
        assert [e[:3] for e in got] == [e[:3] for e in kept]
        for (*_, a), (*_, b) in zip(got, kept):
            assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# local energy identity


@pytest.mark.parametrize("kind", [EM, EP])
def test_local_energy_residual_roundoff_on_band_limited_data(kind):
    # bandwidth 3 on n = 32: every product in the identity is alias-free and
    # untruncated, so the residual is pure roundoff
    g = Grid(32)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=3, rotational=(kind is EM))
    if kind is EP:
        s.E = ep_electric(g, s.n, s.rho)
    tend = rhs(s, P, kind=kind)
    _, res = local_energy_residual(s, tend, P, kind=kind)
    assert res <= 1e-12


def test_local_energy_residual_zero_state():
    g = Grid(16)
    s = _zero(g)
    field, res = local_energy_residual(s, rhs(s, P), P)
    assert res == 0.0 and not np.any(field)


def test_local_energy_residual_dealias_floor_reported():
    # wide-band data: quadratic products get truncated, the identity holds
    # only to the dealiasing floor, which we measure rather than assert away
    g = Grid(16)
    s = random_irrotational(g, P, _rng(), amplitude=0.05, kmax=5)
    tend = rhs(s, P)
    _, res = local_energy_residual(s, tend, P)
    assert np.isfinite(res)
    scale = energy(s, P, 1)
    assert res <= scale  # floor is far below the energy scale
