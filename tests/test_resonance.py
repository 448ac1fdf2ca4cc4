import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid import dispersion as disp
from twofluid.dispersion import DEFAULT_PARAMS, find_R_sigma, lam_prime
from twofluid import resonance as rs
from twofluid.params import PlasmaParams
from twofluid.resonance import (
    ALL_PHASES,
    C_TILDE,
    PhaseClass,
    PhaseSpec,
    T_A,
    T_A_ORDERED,
    T_B,
    T_C,
    T_NR,
    T_SELL,
    VACUOUS_A,
    admissible_cases,
    caseB_r,
    case_d_window,
    classify,
    ctilde_report,
    f_profile,
    p_res,
    phi,
    psi,
    psi_zeros,
    r_fixed_point,
    r_munu,
    r_munu_prime,
    scan_near_resonant,
    stronglyell_deltas,
    t_func,
    t_func_prime,
    t_tilde,
    verify_case_partition,
)

P = DEFAULT_PARAMS

# a fixed generic direction, so nothing accidentally relies on axis alignment
E3 = np.array([0.3, -0.2, 0.9]) / np.linalg.norm([0.3, -0.2, 0.9])


def _parse(key):
    return PhaseSpec.parse(key)


# ---------------------------------------------------------------------------
# static tables


def test_phase_census():
    assert len(ALL_PHASES) == 63
    assert len(set(ALL_PHASES)) == 63
    for sp in ALL_PHASES:
        assert sp.canonical() == sp
    assert len(T_SELL) == 39
    assert len(T_NR) == 4
    assert len(T_A) == 13
    assert len(T_B) == 4
    assert len(T_C) == 7
    resonant = T_A | T_B | T_C
    assert len(resonant) == 20
    assert T_SELL | T_NR | resonant == set(ALL_PHASES)
    assert not T_SELL & (T_NR | resonant)
    assert not T_NR & resonant


def test_case_overlaps():
    assert T_A & T_B == {_parse("e;i+,e+"), _parse("b;i+,b+")}
    assert T_A & T_C == {_parse("i;e+,b-"), _parse("i;e-,b+")}
    assert not T_B & T_C
    assert T_B - T_A == {_parse("e;i-,e+"), _parse("b;i-,b+")}


def test_table_contents():
    assert T_NR == {_parse(k) for k in ("e;i+,i+", "e;b+,b-", "b;i+,i+", "b;i-,e+")}
    assert T_B == {_parse(k) for k in ("e;i+,e+", "e;i-,e+", "b;i+,b+", "b;i-,b+")}
    assert T_C == {_parse(k) for k in (
        "i;i+,i+", "i;i+,i-", "i;i-,i-", "i;e+,e-", "i;e+,b-", "i;e-,b+", "i;b+,b-")}


def test_ordered_curve_tables():
    assert len(T_A_ORDERED) == 13
    assert {sp.canonical() for sp in T_A_ORDERED} == T_A
    for sp in T_A_ORDERED:
        assert sp.branch1 + sp.branch2 in ("ee", "ei", "bi", "be")
    assert VACUOUS_A == {_parse(k) for k in ("e;e+,i+", "b;e+,i+", "b;b+,i+")}
    assert VACUOUS_A <= T_A_ORDERED
    assert set(C_TILDE) == T_A_ORDERED
    assert {sp for sp, c in C_TILDE.items() if c == -1} == {
        _parse("i;b-,e+"), _parse("e;b+,i-")}


def test_parse_and_swap():
    sp = _parse("e;i+,e-")
    assert (sp.sigma, sp.mu, sp.nu) == ("e", "i+", "e-")
    assert (sp.branch1, sp.branch2, sp.iota1, sp.iota2) == ("i", "e", 1, -1)
    assert PhaseSpec.parse(sp.key) == sp
    assert sp.swapped().swapped() == sp
    assert sp.swapped().canonical() == sp.canonical() == sp
    with pytest.raises(ValueError):
        PhaseSpec.parse("e:i+,e-")  # ";" is the one separator
    with pytest.raises(ValueError):
        PhaseSpec.parse("x;i+,e+")
    with pytest.raises(ValueError):
        PhaseSpec.parse("e;i*,e+")
    with pytest.raises(ValueError):
        PhaseSpec.parse("e;i+,q-")


def test_classify_is_swap_invariant():
    for sp in ALL_PHASES:
        cls = classify(sp)
        assert classify(sp.swapped()) == cls
        assert cls.resonant == (cls.a or cls.b or cls.c)
        assert cls.sell + cls.nr + cls.resonant == 1 or (cls.sell, cls.nr) == (False, False)
        assert cls.labels
    assert classify(_parse("e;i+,e+")).labels == "AB"
    assert classify(_parse("i;e-,b+")).labels == "AC"
    assert classify(_parse("b;b+,b+")).labels == "S"
    assert classify(_parse("b;i-,e+")).labels == "N"


# ---------------------------------------------------------------------------
# phase functions


vec3 = st.tuples(*(st.floats(-4.0, 4.0) for _ in range(3))).map(np.array)


@settings(max_examples=60, deadline=None)
@given(idx=st.integers(0, 62), xi_v=vec3, eta_v=vec3)
def test_phi_xi_swap_identities(idx, xi_v, eta_v):
    sp = ALL_PHASES[idx]
    zeta = xi_v - eta_v
    if min(np.linalg.norm(eta_v), np.linalg.norm(zeta)) < 1e-2:
        return
    a = phi(sp, xi_v, eta_v, P)
    b = phi(sp.swapped(), xi_v, zeta, P)
    assert a == pytest.approx(b, rel=1e-11, abs=1e-11)
    ga = rs.xi(sp, xi_v, eta_v, P)
    gb = rs.xi(sp.swapped(), xi_v, zeta, P)
    np.testing.assert_allclose(gb, -ga, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("key", ["e;i+,e+", "i;b-,e+", "b;e+,e+", "i;i+,i-", "e;b+,b-"])
def test_xi_matches_numerical_gradient(key, h=1e-5):
    sp = _parse(key)
    xi_v = 0.7 * E3 + np.array([0.1, 0.0, 0.0])
    eta_v = np.array([0.23, 0.41, -0.17])
    grad = rs.xi(sp, xi_v, eta_v, P)
    for a in range(3):
        step = np.zeros(3)
        step[a] = h
        fd = (phi(sp, xi_v, eta_v + step, P) - phi(sp, xi_v, eta_v - step, P)) / (2 * h)
        assert grad[a] == pytest.approx(fd, rel=2e-7, abs=1e-9)


def test_phi_rotation_invariance():
    th = 0.83
    c, s = np.cos(th), np.sin(th)
    Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ \
        np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    xi_v = np.array([0.31, -0.7, 0.42])
    eta_v = np.array([-0.11, 0.25, 0.6])
    for key in ("e;i+,e+", "b;b+,b+", "i;e+,b-"):
        sp = _parse(key)
        assert phi(sp, Q @ xi_v, Q @ eta_v, P) == pytest.approx(
            phi(sp, xi_v, eta_v, P), rel=1e-12)
        np.testing.assert_allclose(rs.xi(sp, Q @ xi_v, Q @ eta_v, P),
                                   Q @ rs.xi(sp, xi_v, eta_v, P), rtol=1e-11, atol=1e-13)


def test_xi_singular_raises():
    sp = _parse("e;i+,e+")
    v = np.array([0.3, 0.1, -0.2])
    with pytest.raises(ValueError):
        rs.xi(sp, v, np.zeros(3), P)
    with pytest.raises(ValueError):
        rs.xi(sp, v, v, P)


# ---------------------------------------------------------------------------
# radial matching functions


@pytest.mark.parametrize("pair,src,dst", [("ei", "i", "e"), ("bi", "i", "b"), ("be", "e", "b")])
def test_t_func_solves_the_matching(pair, src, dst):
    r = np.geomspace(1e-4, 5.0, 25)
    t = t_func(pair, r, P)
    np.testing.assert_allclose(lam_prime(dst, t, P), lam_prime(src, r, P), rtol=1e-12)
    assert np.all(t < rs._t_sup(pair, P))
    assert np.all(t > 0)


def test_R_sigma_is_t_func_at_origin():
    for branch in ("e", "b"):
        assert find_R_sigma(branch, P) == t_func(branch + "i", 0.0, P)


@pytest.mark.parametrize("pair", ["ei", "bi", "be"])
def test_t_func_arrays_match_scalar_calls(pair):
    r = np.geomspace(1e-5, 60.0, 40)
    scalar = [float(t_func(pair, float(x), P)) for x in r]
    np.testing.assert_allclose(t_func(pair, r, P), scalar, rtol=1e-15, atol=0)
    assert t_func(pair, r.reshape(5, 8), P).shape == (5, 8)


def test_t_func_ee_and_unknown_pair():
    assert t_func("ee", 1.7, P) == 1.7
    assert t_func_prime("ee", 0.3, P) == 1.0
    with pytest.raises(ValueError):
        t_func("ib", 0.5, P)


# observed ranges of dt/dr over r in [1e-6, 60]; the matching flattens hard
# because the target branch curvature dwarfs the ion one
T_PRIME_BOX = {"ei": (-0.0175, 0.0006), "bi": (-0.0030, 0.0001), "be": (0.0, 0.1666)}


@pytest.mark.parametrize("pair", ["ei", "bi", "be"])
def test_t_func_prime_fd_and_range(pair):
    lo, hi = T_PRIME_BOX[pair]
    for r in np.geomspace(1e-3, 40.0, 12):
        tp = float(t_func_prime(pair, float(r), P))
        assert lo <= tp <= hi
        h = 1e-6 * max(r, 1.0)
        fd = (float(t_func(pair, r + h, P)) - float(t_func(pair, r - h, P))) / (2 * h)
        assert tp == pytest.approx(fd, rel=5e-5, abs=1e-10)


ROUND_TRIP_SPECS = ["b;e+,e+", "b;b+,e+", "e;b+,i+", "i;e+,i-", "e;b+,i-"]


@pytest.mark.parametrize("key", ROUND_TRIP_SPECS)
def test_t_tilde_r_munu_round_trip(key):
    # all radii in one call; the tolerances are pytest.approx's max(rel |x|, abs)
    sp = _parse(key)
    r = np.geomspace(1e-4, 3.0, 15)
    s = t_tilde(sp, r, P)
    assert np.all(np.abs(r_munu(sp, s, P) - r) <= np.maximum(1e-10 * r, 1e-12))
    rp = r_munu_prime(sp, s, P)
    h = 1e-6 * np.maximum(np.abs(s), 1.0)
    fd = (r_munu(sp, s + h, P) - r_munu(sp, s - h, P)) / (2 * h)
    assert np.all(np.abs(rp - fd) <= np.maximum(5e-5 * np.abs(fd), 1e-12))


@pytest.mark.parametrize("key", ROUND_TRIP_SPECS)
def test_r_munu_arrays_match_scalar_calls(key):
    sp = _parse(key)
    s = t_tilde(sp, np.geomspace(1e-4, 3.0, 15), P)
    scalar = [r_munu(sp, float(x), P) for x in s]
    assert all(isinstance(x, float) for x in scalar)
    np.testing.assert_allclose(r_munu(sp, s, P), scalar, rtol=1e-15, atol=0)


def test_r_munu_domain_errors():
    with pytest.raises(ValueError):
        t_tilde(_parse("e;e+,e-"), 0.5, P)
    with pytest.raises(ValueError):
        r_munu(_parse("e;e+,e-"), 0.5, P)
    sp = _parse("e;b+,i+")  # edge at +t^{bi}(0) > 0
    edge = float(t_func("bi", 0.0, P))
    assert float(r_munu(sp, edge, P)) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        r_munu(sp, 0.9 * edge, P)


@pytest.mark.parametrize("key", ROUND_TRIP_SPECS)
def test_q_munu_kills_the_gradient(key):
    sp = _parse(key)
    for r in (0.02, 0.3, 1.4):
        eta_v = r * E3
        # the paper's q^{mu,nu}(eta) = t_tilde(|eta|) eta/|eta| on the ray of eta
        xi_v = t_tilde(sp, r, P) * E3
        assert np.linalg.norm(rs.xi(sp, xi_v, eta_v, P)) <= 1e-10


# ---------------------------------------------------------------------------
# resonant curves


def _curve_radii(sp, n=12, margin=1e-3, s_hi=8.0):
    t0 = float(t_func(sp.branch1 + sp.branch2, 0.0, P))
    if sp == rs._DEFP2:
        return np.geomspace(t0 * margin, t0 * (1.0 - margin), n)
    lo = t0 * (1.0 + margin) if t0 > 0 else margin
    return np.geomspace(lo, s_hi, n)


def test_p_res_residuals_both_orders():
    for sp in sorted(T_A_ORDERED):
        xi_v = E3[:, None] * _curve_radii(sp)
        for order in (sp, sp.swapped()):
            eta_v = p_res(order, xi_v, P)
            assert np.all(np.linalg.norm(rs.xi(order, xi_v, eta_v, P), axis=0) <= 1e-10)


def test_interval_edge_is_solved_once(monkeypatch):
    sp = _parse("i;e+,i-")  # edge t^{ei}(0), a root solve on the e branch
    p = PlasmaParams(1e-3, 2.0, 12.0)  # a point no other test reads, so the first call solves
    calls, real = [], disp.find_root

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(disp, "find_root", counting)
    first = rs._interval(sp, p)
    assert calls
    calls.clear()
    assert rs._interval(sp, p) == first
    assert not calls


def test_p_res_and_psi_arrays_match_scalar_calls():
    for sp in sorted(T_A_ORDERED):
        s = _curve_radii(sp, n=5)
        xi_v = E3[:, None] * s
        for order in (sp, sp.swapped()):
            eta_v = p_res(order, xi_v, P)
            assert eta_v.shape == xi_v.shape
            for j in range(len(s)):
                np.testing.assert_allclose(eta_v[:, j], p_res(order, xi_v[:, j], P),
                                           rtol=1e-15, atol=0)
        np.testing.assert_allclose(psi(sp, s, P), [psi(sp, float(x), P) for x in s],
                                   rtol=1e-15, atol=0)


def test_p_res_equal_split_is_exact():
    sp = _parse("b;e+,e+")
    xi_v = np.array([0.44, -1.3, 0.27])
    np.testing.assert_array_equal(p_res(sp, xi_v, P), xi_v / 2.0)
    with pytest.raises(ValueError):
        p_res(sp, np.zeros(3), P)


# interior zeros of Psi per ordered phase, from 50-digit evaluation of the
# radial profiles; the remaining six phases have none
PSI_ZERO_ORACLE = {
    "b;b+,e+": (0.83154756637503431467, 50.887),
    "b;e+,e+": (0.77491660638948329123, 57.112),
    "e;b+,i+": (0.085668646726106340012, 1.2881),
    "e;b+,i-": (0.0038966718453006186137, -1.2905),
    "i;b-,e+": (0.074694753476524249642, -1.4089),
    "i;e+,i-": (15.779876179065974528, 1.9961),
    "i;b+,i-": (15.786464357663943833, 1.9960),
}


def test_psi_zero_oracles():
    for key, (s_ref, dpsi_ref) in PSI_ZERO_ORACLE.items():
        sp = _parse(key)
        zeros = psi_zeros(sp, P)
        assert len(zeros) == 1, key
        z = zeros[0]
        assert z["s"] == pytest.approx(s_ref, rel=1e-10)
        assert z["dpsi"] == pytest.approx(dpsi_ref, rel=1e-3)
        assert abs(psi(sp, z["s"], P)) <= 1e-8


def test_psi_zeros_empty_elsewhere():
    for sp in sorted(T_A_ORDERED):
        if sp.key not in PSI_ZERO_ORACLE:
            assert psi_zeros(sp, P) == []


def test_psi_is_f_through_the_reparametrization():
    sp = _parse("b;b+,e+")
    for r in (0.05, 0.3, 1.7):
        s = float(t_tilde(sp, r, P))
        assert psi(sp, s, P) == pytest.approx(f_profile(sp, r, P), abs=1e-12)


def test_r_fixed_point():
    r0 = r_fixed_point(P)
    assert r0 == pytest.approx(0.0074544917218159807435, rel=1e-12)
    assert float(t_func("bi", r0, P)) == pytest.approx(r0, rel=1e-12)
    # close to, but distinct from, the case-B radius of the b branch
    assert r0 != pytest.approx(find_R_sigma("b", P), rel=1e-5)


def test_ctilde_report_agrees():
    rows = ctilde_report(P)
    assert set(rows) == {sp.key for sp in T_A_ORDERED}
    for key, row in rows.items():
        assert row["agree"], key
        assert row["proved"] == C_TILDE[_parse(key)]
        if row["vacuous"]:
            assert row["zeros"] == []
        if row["zeros"]:
            assert row["measured"] == row["proved"]
    assert rows["b;b+,e+"]["f0"] == pytest.approx(-31.6385840391, rel=1e-9)
    assert rows["b;e+,i+"]["f0"] == pytest.approx(0.158144848294, rel=1e-9)
    assert rows["e;b+,i+"]["f0"] == pytest.approx(-0.00439177009604, rel=1e-9)
    assert rows["e;e+,i+"]["f0"] == 0.0


# ---------------------------------------------------------------------------
# case-B radii


def test_caseB_exact_at_R():
    for key in ("b;i+,b+", "e;i+,e+"):
        sp = _parse(key)
        R = find_R_sigma(sp.canonical().branch2, P)
        d = caseB_r(sp, R, P)
        assert d["R"] == R
        assert abs(d["r"] - R) <= 1e-13
        assert abs(d["residual"]) <= 1e-12


# (R - r) / (s - R)^2 near the degenerate radius, both window sides, at
# offsets that keep s positive: +-R_b/2 (R_b = 0.00745), +-0.02 (R_e = 0.0448)
PULL_IN = {"b;i+,b+": 0.00557, "e;i+,e+": 0.03357}


@pytest.mark.parametrize("key", sorted(PULL_IN))
def test_caseB_quadratic_pull_in(key):
    sp = _parse(key)
    R = find_R_sigma(sp.canonical().branch2, P)
    offset = R / 2 if key == "b;i+,b+" else 0.02
    for ds in (-offset, offset):
        d = caseB_r(sp, R + ds, P)
        assert (d["R"] - d["r"]) / ds**2 == pytest.approx(PULL_IN[key], rel=0.02)
        assert np.sign(R + ds - d["r"]) == np.sign(ds)
        assert abs(d["residual"]) <= 1e-12


def test_caseB_accepts_swapped_order_and_rejects_junk():
    R = find_R_sigma("b", P)
    assert caseB_r(_parse("b;b+,i+"), R + 0.01, P)["r"] == pytest.approx(
        caseB_r(_parse("b;i+,b+"), R + 0.01, P)["r"], rel=1e-12)
    with pytest.raises(ValueError):
        caseB_r(_parse("b;b+,b+"), R, P)
    with pytest.raises(ValueError):
        caseB_r(_parse("b;i+,b+"), R + 0.3, P)  # outside the 2^{-D/5} window
    for s in (R - 0.02, 0.0):  # inside the window, but not a radius
        with pytest.raises(ValueError):
            caseB_r(_parse("b;i+,b+"), s, P)


# ---------------------------------------------------------------------------
# shell bookkeeping


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-12, 12), k1=st.integers(-12, 12), k2=st.integers(-12, 12),
       D=st.integers(4, 48))
def test_admissible_cases_match_d_windows(k, k1, k2, D):
    pc = PhaseClass(False, False, True, True, True)
    cases = admissible_cases(pc, k, k1, k2, D_num=D)
    wins = case_d_window(pc, k, k1, k2)
    for case in "ABC":
        in_window = case in wins and wins[case][0] <= D <= wins[case][1]
        assert (case in cases) == in_window, (case, cases, wins)


def test_admissible_cases_respect_classification():
    pc = classify(_parse("i;i+,i+"))  # case C only
    assert admissible_cases(pc, -4, -5, -5) == ("C",)
    assert admissible_cases(pc, 1, -5, -5) == ()
    pc = classify(_parse("e;i+,e+"))  # A and B
    assert admissible_cases(pc, -2, -4, -1) == ("A", "B")


def test_stronglyell_deltas():
    assert stronglyell_deltas(3, -2) == (2.0**-22, 2.0**-13)
    assert stronglyell_deltas(-5, -7) == (2.0**-10, 2.0**-10)
    assert stronglyell_deltas(0, 0, D_num=12) == (2.0**-12, 2.0**-12)


# ---------------------------------------------------------------------------
# scans


def test_equal_split_gap_cut():
    # |Phi| for the ion self-interaction at the even split eta = xi/2
    # crosses the 2^{-10} threshold at this radius
    sp = _parse("i;i+,i+")
    s_cut = 0.15602080669028168
    for fac, side in ((0.9, -1), (1.0, 0), (1.1, 1)):
        xi_v = fac * s_cut * E3
        gap = abs(phi(sp, xi_v, xi_v / 2.0, P))
        if side == 0:
            assert gap == pytest.approx(2.0**-10, rel=1e-9)
        else:
            assert np.sign(gap - 2.0**-10) == side


def test_endpoint_cuts_of_vacuous_profiles():
    # f vanishes at r = 0 for these phases, so the sub-threshold stretch
    # reaches out to a positive radius
    for key, r_cut in (("b;b+,i+", 0.003210303268195139),
                       ("e;e+,i+", 0.007879446755410132)):
        sp = _parse(key)
        assert f_profile(sp, r_cut, P) == pytest.approx(2.0**-10, rel=1e-9)
        assert f_profile(sp, r_cut / 2.0, P) < 2.0**-10
    assert f_profile(_parse("b;b+,i+"), 0.03, P) == pytest.approx(
        0.085049030492253472, rel=1e-12)
    assert f_profile(_parse("e;e+,i+"), 0.03, P) == pytest.approx(
        0.014125592120492733, rel=1e-12)


def test_scan_near_resonant_finds_the_ion_cascade():
    sp = _parse("i;i+,i+")
    out = scan_near_resonant(sp, -4, -5, -5, 2.0**-10, 2.0**-10, P, resolution=(128, 128, 64))
    assert out.shape[0] > 100 and out.shape[1] == 5
    s, zm, rho, aphi, axi = out.T
    assert np.all(aphi <= 2.0**-10) and np.all(axi <= 2.0**-10)
    assert np.all((zm >= 2.0**-9) & (zm <= 2.0**-1))
    # the padded sweep reaches well outside the named triple
    assert len({tuple(h) for h in np.floor(np.log2(out[:, :3])).tolist()}) > 1
    for s, zm, rho, aphi, _ in out[::97]:
        # rebuild the geometry: xi along z, eta in the xz-plane at the angle
        # the three radii fix
        ct = (s * s + rho * rho - zm * zm) / (2.0 * s * rho)
        eta = rho * np.array([np.sqrt(max(1.0 - ct * ct, 0.0)), 0.0, ct])
        assert abs(phi(sp, np.array([0.0, 0.0, s]), eta, P)) == pytest.approx(aphi, abs=1e-15)


def test_scan_near_resonant_empty_for_strongly_elliptic():
    d1, d2 = stronglyell_deltas(-5, -5)
    out = scan_near_resonant(_parse("e;e+,e+"), -4, -5, -5, d1, d2, P,
                             resolution=(128, 128, 64))
    assert out.shape == (0, 5)


# the four shell triples near case boundaries that D_num = 10 cannot place,
# with the cutoff windows that do admit them
KNIFE_EDGE = {
    ("i;i-,b+", (3, 3, -8)): {"A": (16, 48)},
    ("e;i+,e+", (-5, -8, -5)): {"A": (16, 48), "B": (20, 24)},
    ("e;i+,b+", (-4, -4, -8)): {"A": (16, 48)},
    ("e;i-,e+", (-5, -8, -5)): {"B": (20, 24)},
}


# per resonant phase at resolution (192, 128, 64): (near-resonant samples,
# home triples); a change to the sweep that moves any sample shows here
LOW_RES_TOTALS = {
    "b;e+,b+": (15, 1), "b;e+,e+": (15, 1), "b;i+,b+": (197, 5), "b;i-,b+": (85, 4),
    "e;i+,b+": (16, 1), "e;i+,e+": (264, 5), "e;i-,b+": (53, 3), "e;i-,e+": (114, 5),
    "i;e+,b-": (70, 7), "i;e-,b+": (53, 6), "i;i+,i+": (1643, 112),
    "i;i+,i-": (22620, 130), "i;i-,b+": (5, 1), "i;i-,e+": (5, 1), "i;i-,i-": (8, 4),
}


def test_verify_case_partition_low_res():
    rep = verify_case_partition(P, resolution=(192, 128, 64))
    assert rep.ok
    totals = {key: (sum(v[0] for v in shells.values()), len(shells))
              for key, shells in rep.hits.items() if shells}
    assert totals == LOW_RES_TOTALS
    assert rep.sell_or_nr_hits == {}
    assert rep.unresolved == []
    assert {(key, triple): wins for key, triple, wins in rep.violations} == KNIFE_EDGE

    # every remaining in-box triple of a resonant phase is placed
    for sp in ALL_PHASES:
        cls = classify(sp)
        if not cls.resonant:
            assert not rep.hits[sp.key]
            continue
        for triple, (n, min_phi, min_xi) in rep.hits[sp.key].items():
            assert n >= 1 and min_phi >= 0.0 and min_xi >= 0.0
            if rep.in_box(triple) and (sp.key, triple) not in KNIFE_EDGE:
                assert admissible_cases(cls, *triple), (sp.key, triple)

    # the scan doubles as a strong-ellipticity certificate: the shell-weighted
    # |Phi| floor stays above 9 on every Sell phase
    sell_floors = {sp.key: rep.elliptic_floor[sp.key] for sp in T_SELL}
    assert min(sell_floors, key=sell_floors.get) == "b;b+,b+"
    assert sell_floors["b;b+,b+"] == pytest.approx(9.31960889911359, rel=1e-9)
    assert min(sell_floors.values()) > 9.0
    # nonresonant phases are excluded by the joint smallness condition, not a
    # pointwise |Phi| bound, so their floors legitimately collapse
    assert rep.elliptic_floor["b;i-,e+"] < 1e-6
    assert all(rep.elliptic_floor[sp.key] < 0.01 for sp in T_NR)

    text = rep.summary()
    assert "D_num = 10" in text
    assert "e;i+,e+" in text


def test_partition_report_in_box():
    rep = rs.PartitionReport(10, tuple(range(-8, 5)), (1, 1, 1))
    assert rep.in_box((-8, 0, 4))
    assert not rep.in_box((-9, 0, 0))
    assert not rep.in_box((0, 5, 0))
    assert rep.ok


# ---------------------------------------------------------------------------
# the row engine against the full-array reduction it replaced


def _full_array_tables(s_shells, rho_shells, resolution):
    # every grid point of the sweep at once, as the scan formed it before its
    # rows were searched: (s, rho, |xi - eta|, cosine between xi - eta and eta)
    n_s, n_r, n_t = resolution
    s = np.geomspace(2.0 ** (s_shells[0] - 4), 2.0 ** (s_shells[1] + 4), n_s)
    rho = np.geomspace(2.0 ** (rho_shells[0] - 4), 2.0 ** (rho_shells[1] + 4), n_r)
    theta = np.linspace(0.0, np.pi, n_t)
    st, rh, ct = s[:, None, None], rho[None, :, None], np.cos(theta)[None, None, :]
    zm = np.sqrt(np.maximum(st * st + rh * rh - 2.0 * st * rh * ct, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        cosb = (st * ct - rh) / zm
    return s, rho, zm, cosb


def _full_array_phase(sp, s, rho, zm, cosb):
    # (Phi, |Xi|^2) of one phase at every grid point
    lam_z, a = disp.jet(sp.branch1, zm, P, 1)
    lam_r, b = disp.jet(sp.branch2, rho, P, 1)
    Phi = (disp.lam(sp.sigma, s, P)[:, None, None] - sp.iota1 * lam_z
           - sp.iota2 * lam_r[None, :, None])
    b = b[None, :, None]
    with np.errstate(invalid="ignore"):
        Xi2 = a * a + b * b - (2.0 * sp.iota1 * sp.iota2) * a * b * cosb
    return Phi, Xi2


def _full_array_census(shells, resolution, D_num=10):
    # (hits, elliptic floors, violations, unresolved) of verify_case_partition
    # with refine on, every phase reduced over the whole grid
    kmin, kmax = min(shells), max(shells)
    base = 2.0 ** -D_num
    s, rho, zm, cosb = _full_array_tables((kmin, kmax), (kmin, kmax), resolution)
    w = np.maximum(zm, np.maximum(rho[None, :, None], 1.0))
    box = rs.PartitionReport(D_num, tuple(shells), resolution)
    hits, floors, violations, unresolved = {}, {}, [], []
    for sp in ALL_PHASES:
        Phi, Xi2 = _full_array_phase(sp, s, rho, zm, cosb)
        aphi = np.abs(Phi)
        floors[sp.key] = float(np.nanmin(aphi * w))
        with np.errstate(invalid="ignore"):
            mask = (aphi <= base) & (Xi2 <= base * base)
        ii, jj, _ = np.nonzero(mask)
        cols = [(s[ii], zm[mask], rho[jj], aphi[mask], np.sqrt(np.maximum(Xi2[mask], 0.0)))]
        cls = classify(sp)
        if cls.resonant:
            xiv, etav = rs._on_manifold_probes(sp, P, base)
            cols.append((rs._norm3(xiv), rs._norm3(xiv - etav), rs._norm3(etav),
                         np.abs(phi(sp, xiv, etav, P)), rs._norm3(rs.xi(sp, xiv, etav, P))))
        sz, zz, rr, aph, axi = (np.concatenate(c) for c in zip(*cols))
        good = (sz > 0) & (zz > 0) & (rr > 0) & np.isfinite(aph) & np.isfinite(axi)
        k, k1, k2 = (np.floor(np.log2(x[good])) for x in (sz, zz, rr))
        d_xi, d_phi = stronglyell_deltas(k1, k2, D_num)
        strict = (aph[good] <= d_phi) & (axi[good] <= d_xi)
        table = {}
        for tr, a, x in zip(zip(k[strict].astype(int).tolist(), k1[strict].astype(int).tolist(),
                                k2[strict].astype(int).tolist()),
                            aph[good][strict], axi[good][strict]):
            n, ma, mx = table.get(tr, (0, np.inf, np.inf))
            table[tr] = (n + 1, min(ma, a), min(mx, x))
        hits[sp.key] = {tr: [n, float(a), float(x)] for tr, (n, a, x) in table.items()}
        if cls.sell or cls.nr:
            continue
        for triple in sorted(hits[sp.key]):
            if box.in_box(triple) and not admissible_cases(cls, *triple, D_num=D_num):
                wins = case_d_window(cls, *triple)
                violations.append((sp.key, triple, wins))
                if not wins:
                    unresolved.append((sp.key, triple))
    return hits, floors, violations, unresolved


def test_row_engine_census_is_bit_identical_to_the_full_array_pass():
    shells, res = range(-3, 3), (48, 24, 12)
    rep = verify_case_partition(P, shells=shells, resolution=res, refine=True)
    hits, floors, violations, unresolved = _full_array_census(shells, res)
    assert sum(v[0] for table in hits.values() for v in table.values()) > 100
    assert rep.hits == hits
    assert rep.elliptic_floor == floors
    assert all(type(f) is float for f in rep.elliptic_floor.values())
    assert rep.violations == violations
    assert rep.unresolved == unresolved


def test_census_probes_are_solved_once_per_phase_and_read_only():
    probes = rs._on_manifold_probes
    resonant = [sp for sp in ALL_PHASES if classify(sp).resonant]
    assert probes.cache_info().maxsize >= len(resonant)
    probes.cache_clear()
    args = dict(shells=range(-1, 1), resolution=(8, 4, 4), refine=True)
    first = verify_case_partition(P, **args)
    info = probes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(resonant), 0, len(resonant))
    second = verify_case_partition(P, **args)
    assert probes.cache_info().hits == len(resonant)  # a second census solves nothing
    assert (second.hits, second.elliptic_floor) == (first.hits, first.elliptic_floor)
    for sp in resonant[:3]:
        cached, fresh = probes(sp, P, 2.0**-10), probes.__wrapped__(sp, P, 2.0**-10)
        for arr, want in zip(cached, fresh):
            assert np.array_equal(arr, want)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


@pytest.mark.parametrize("key, delta", [("i;i+,i+", (2.0**-10, 2.0**-10)),
                                        ("e;e+,e+", stronglyell_deltas(-5, -5))])
def test_row_engine_scan_is_bit_identical_to_the_full_array_pass(key, delta):
    (k, k1, k2), res, (d1, d2) = (-4, -5, -5), (128, 128, 64), delta
    sp = _parse(key)
    s, rho, zm, cosb = _full_array_tables((k, k), (k2, k2), res)
    Phi, Xi2 = _full_array_phase(sp, s, rho, zm, cosb)
    with np.errstate(invalid="ignore"):
        mask = ((zm >= 2.0 ** (k1 - 4)) & (zm <= 2.0 ** (k1 + 4))
                & (np.abs(Phi) <= d2) & (Xi2 <= d1 * d1))
    want = [(s[i], zm[i, j, m], rho[j], float(abs(Phi[i, j, m])),
             float(np.sqrt(max(Xi2[i, j, m], 0.0))))
            for i, j, m in np.argwhere(mask)]
    got = scan_near_resonant(sp, k, k1, k2, d1, d2, P, resolution=res)
    assert got.dtype == float and got.shape == (len(want), 5)
    assert [tuple(row) for row in got.tolist()] == want


# nondecreasing rows with ties and flat stretches: increments drawn from a
# short list that repeats zero, as lambda_b is flat near r = 0
_steps = st.sampled_from([0.0, 0.0, 0.0, 2.0**-12, 0.125, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), idx=st.integers(0, 62), n_rows=st.integers(1, 5),
       n_t=st.integers(2, 20), bound=st.sampled_from([2.0**-10, 0.25, 1.0]))
def test_row_search_finds_the_brute_force_run(data, idx, n_rows, n_t, bound):
    sp = ALL_PHASES[idx]
    lz = np.array([np.cumsum(data.draw(st.lists(_steps, min_size=n_t, max_size=n_t)))
                   for _ in range(n_rows)])
    near = st.floats(-4.0, 8.0).map(lambda x: round(x * 8.0) / 8.0)  # lands on bounds exactly
    ls = np.array(data.draw(st.lists(near, min_size=n_rows, max_size=n_rows)))[:, None]
    lr = np.array(data.draw(st.lists(near, min_size=n_rows, max_size=n_rows)))[:, None]
    # some rows reversed on purpose: those decrease and must be evaluated in full
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    lz[flip] = lz[flip, ::-1]
    mono = np.all(lz[:, 1:] >= lz[:, :-1], axis=-1)

    rows, Phi, ends = rs._row_search(sp, ls, lz, lr, mono, bound)
    full = ls - sp.iota1 * lz - sp.iota2 * lr
    found = np.zeros(full.shape, dtype=bool)
    found[rows] = np.abs(Phi) <= bound
    assert np.array_equal(found, np.abs(full) <= bound)
    assert np.array_equal(Phi, full[rows])
    assert np.array_equal(ends, full[:, [0, -1]])
    assert set(np.flatnonzero(~mono)) <= set(rows[0].tolist())


def test_row_search_keeps_a_row_whose_end_value_sits_on_the_bound():
    # Phi runs 2 + b, 1 + b, b on the first monotone row and -b, -1 - b,
    # -2 - b on the second: each holds one sample with |Phi| = b exactly, so
    # the range test is closed at both ends
    sp, b = _parse("i;i+,i+"), 2.0**-10
    ls, lz, lr = np.array([[2.0 + b], [-b]]), np.array([[0.0, 1.0, 2.0]] * 2), np.zeros((2, 1))
    rows, Phi, _ = rs._row_search(sp, ls, lz, lr, np.array([True, True]), b)
    assert rows[0].tolist() == [0, 1]
    assert Phi.tolist() == [[2.0 + b, 1.0 + b, b], [-b, -1.0 - b, -2.0 - b]]


def test_row_search_falls_back_on_a_decreasing_row():
    # Phi = 5, 0, 5 along the row: both ends are far above the bound, so only
    # full evaluation finds the middle sample
    sp = _parse("i;i+,i+")
    ls, lz, lr = np.array([[5.0]]), np.array([[0.0, 5.0, 0.0]]), np.array([[0.0]])
    rows, Phi, _ = rs._row_search(sp, ls, lz, lr, np.array([False]), 2.0**-10)
    assert rows[0].tolist() == [0] and Phi.tolist() == [[5.0, 0.0, 5.0]]
    rows, _, _ = rs._row_search(sp, ls, lz, lr, np.array([True]), 2.0**-10)
    assert rows[0].size == 0


@pytest.mark.parametrize("resolution", [(8, 4, 1), (8, 4, 0), (8.5, 4, 4), 8.5, (8, 4)])
def test_sweep_rejects_a_bad_resolution(resolution):
    with pytest.raises(ValueError, match="three integers >= 2"):
        verify_case_partition(P, shells=range(-1, 1), resolution=resolution, refine=False)
    with pytest.raises(ValueError, match="three integers >= 2"):
        scan_near_resonant(_parse("i;i+,i+"), 0, 0, 0, 1.0, 1.0, P, resolution=resolution)
    # and the census's shell list: empty, or not integers
    for shells in (range(0, 0), [0.5, 1.5]):
        with pytest.raises(ValueError, match="shells"):
            verify_case_partition(P, shells=shells, resolution=(8, 4, 4), refine=False)
