import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid.params import PlasmaParams
from twofluid import dispersion as disp
from twofluid.dispersion import (
    DEFAULT_PARAMS,
    coupling,
    find_R_sigma,
    find_r_star,
    gap_b_e,
    gap_e_i,
    jet,
    lam,
    lam_prime,
    lam_prime_inverse,
    lam_second,
    q_i,
    speed,
    verify_identities,
    verify_tech99,
)

P5 = [
    PlasmaParams(1e-3, 1.0, 6.0),
    PlasmaParams(1e-3, 1.0, 30.0),
    PlasmaParams(1e-4, 4.0, 40.0),
    PlasmaParams(5e-4, 10.0, 100.0),
    PlasmaParams(1e-3, 100.0, 600.0),
]

# value, first and second derivative per (branch, r, (eps, T, C_b)),
# from 50-digit evaluation of the radical definitions with central differences
DERIV_ORACLE = [
    (("i", 0.37, (0.001, 1.0, 6.0)), (0.50706626400324398, 1.2934790053283559, -0.53588913379280201)),
    (("i", 2.6, (0.001, 1.0, 6.0)), (2.7624277677454096, 0.95684594511928272, 0.015620386164197149)),
    (("e", 0.37, (0.001, 1.0, 6.0)), (33.730991444129088, 10.960665684718574, 26.072831347643978)),
    (("e", 2.6, (0.001, 1.0, 6.0)), (88.091594336962647, 29.514243688751395, 1.4638254205795145)),
    (("b", 0.37, (0.001, 1.0, 6.0)), (42.689577182258434, 52.003326023163808, 77.200438609595563)),
    (("b", 2.6, (0.001, 1.0, 6.0)), (203.86515150952112, 76.521170413332918, 0.70885326650304782)),
    (("i", 0.37, (0.0005, 10.0, 100.0)), (0.84540953215631009, 1.2176226470798386, -3.3351861814340611)),
    (("i", 2.6, (0.0005, 10.0, 100.0)), (2.7830598120667154, 0.93620886066915879, 0.042134033077917184)),
    (("e", 0.37, (0.0005, 10.0, 100.0)), (68.836198200677375, 107.49199990151078, 122.723322485423)),
    (("e", 2.6, (0.0005, 10.0, 100.0)), (370.40520322760379, 140.3867818854359, 0.78713182413616556)),
    (("b", 0.37, (0.0005, 10.0, 100.0)), (171.40886791528611, 431.71628691096872, 79.46524460180172)),
    (("b", 2.6, (0.0005, 10.0, 100.0)), (1163.6154863183972, 446.88301772714092, 0.25400870868349231)),
]


@pytest.mark.parametrize("key,expected", DERIV_ORACLE)
def test_closed_forms_match_high_precision_oracle(key, expected):
    branch, r, triple = key
    p = PlasmaParams(*triple)
    got = (float(lam(branch, r, p)), float(lam_prime(branch, r, p)), float(lam_second(branch, r, p)))
    np.testing.assert_allclose(got, expected, rtol=5e-12)


def test_frozen_branch_values():
    p = DEFAULT_PARAMS
    assert float(lam("i", 1.7, p)) == pytest.approx(1.9059617786526928, rel=1e-12)
    assert float(lam("e", 1.7, p)) == pytest.approx(62.371927256565634, rel=1e-12)
    assert float(lam("b", 1.7, p)) == pytest.approx(135.4289481610191, rel=1e-12)


def test_branch_values_at_origin():
    p = DEFAULT_PARAMS
    assert float(lam("i", 0.0, p)) == 0.0
    start = np.sqrt(1 / p.epsilon + 1)
    assert float(lam("e", 0.0, p)) == pytest.approx(start, rel=1e-14)
    assert float(lam("b", 0.0, p)) == pytest.approx(start, rel=1e-14)
    assert float(lam_prime("i", 0.0, p)) == pytest.approx(np.sqrt((1 + p.T) / (1 + p.epsilon)), rel=1e-12)


def test_invalid_branch_rejected():
    with pytest.raises(ValueError):
        lam("x", 1.0, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        jet("x", 1.0, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        find_R_sigma("i", DEFAULT_PARAMS)


@pytest.mark.parametrize("order", [-1, 3])
def test_jet_rejects_order_outside_0_to_2(order):
    with pytest.raises(ValueError, match="order"):
        jet("e", 1.0, DEFAULT_PARAMS, order)


def test_jet_orders_are_prefixes():
    r = np.linspace(0.0, 5.0, 7)
    for branch in ("i", "e", "b"):
        full = jet(branch, r, DEFAULT_PARAMS)
        assert len(full) == 3
        for order in range(3):
            part = jet(branch, r, DEFAULT_PARAMS, order)
            assert len(part) == order + 1
            for a, b in zip(part, full):
                np.testing.assert_array_equal(a, b)


def test_asymptotic_speeds():
    p = DEFAULT_PARAMS
    assert speed("i", p) == 1.0
    r = 1e4
    for branch in ("i", "e", "b"):
        assert float(lam_prime(branch, r, p)) == pytest.approx(speed(branch, p), rel=1e-6)


def test_ctx_frozen_values():
    assert find_r_star(DEFAULT_PARAMS) == pytest.approx(1.9107348810801443, rel=1e-12)
    assert find_R_sigma("e", DEFAULT_PARAMS) == pytest.approx(0.044810690422728866, rel=1e-10)
    assert find_R_sigma("b", DEFAULT_PARAMS) == pytest.approx(0.007454801253998202, rel=1e-10)


def test_r_star_is_inflection():
    for p in P5:
        r_star = find_r_star(p)
        assert p.T**-0.5 < r_star < 4 * (p.T**-0.5 + p.T**-0.25)
        assert abs(float(lam_second("i", r_star, p))) <= 1e-12 * p.T
        # sign change: concave below, convex above
        assert float(lam_second("i", 0.5 * r_star, p)) < 0
        assert float(lam_second("i", 2.0 * r_star, p)) > 0


def test_R_sigma_matches_maximal_ion_speed():
    for p in P5[:3]:
        target = float(lam_prime("i", 0.0, p))
        for branch in ("e", "b"):
            R = find_R_sigma(branch, p)
            assert abs(float(lam_prime(branch, R, p)) - target) <= 1e-10 * target


@pytest.mark.parametrize("branch", ["e", "b"])
def test_lam_prime_inverse_round_trip(branch):
    for p in P5:
        c = speed(branch, p)
        v = c * np.concatenate([np.geomspace(1e-8, 0.5, 40), 1.0 - np.geomspace(0.5, 1e-6, 40)[1:]])
        r = lam_prime_inverse(branch, v, p)
        assert r.shape == v.shape
        assert np.all(np.diff(r) > 0)
        # the root's 1e-15 absolute bracket tolerance dominates for tiny targets
        np.testing.assert_allclose(lam_prime(branch, r, p), v, rtol=1e-12, atol=1e-12)
    assert float(lam_prime_inverse(branch, 0.0, DEFAULT_PARAMS)) == 0.0


def test_lam_prime_inverse_rejects_ion_branch_and_values_outside_the_range():
    p = DEFAULT_PARAMS
    with pytest.raises(ValueError):
        lam_prime_inverse("i", 0.5, p)
    with pytest.raises(ValueError):
        lam_prime_inverse("x", 0.5, p)
    for branch in ("e", "b"):
        c = speed(branch, p)
        for bad in (-1e-12, c, 2.0 * c, np.nan, [0.5, c]):
            with pytest.raises(ValueError):
                lam_prime_inverse(branch, bad, p)


def test_root_solves_arrays_and_raises_on_a_bad_bracket():
    v = np.array([0.5, 2.0, 7.0])
    x = disp._root(lambda x, v: x**3 - v, 0.0, 2.0, args=(v,))
    np.testing.assert_allclose(x**3, v, rtol=1e-14)
    with pytest.raises(RuntimeError, match="1 of 3"):
        disp._root(lambda x, v: x**3 - v, 0.0, 1.5, args=(v + 1.0,))


def test_identity_suite_all_triples():
    for p in P5:
        rep = verify_identities(p)
        assert rep.passed, rep.summary()


def test_inequality_suite_default_triple():
    rep = verify_tech99(DEFAULT_PARAMS)
    assert rep.passed, rep.summary()


def test_factored_ion_form_matches_radical_away_from_origin():
    p = DEFAULT_PARAMS
    r = np.linspace(0.5, 10.0, 200)
    np.testing.assert_allclose(lam("i", r, p), disp._lambda_i_radical(r, p), rtol=1e-9)


def test_aux_R_range():
    p = DEFAULT_PARAMS
    r = np.linspace(0.0, 50.0, 500)
    R = coupling(r, p)
    root_eps = np.sqrt(p.epsilon)
    assert R[0] == pytest.approx(root_eps, rel=1e-13)
    assert np.all(R > 0) and np.all(R <= root_eps * (1 + 1e-15))
    assert np.all(np.diff(R) < 0)


def test_gap_functions_match_literal_differences():
    # away from the origin the literal float64 differences are accurate
    # enough to confirm the factored forms
    p = DEFAULT_PARAMS
    r = np.linspace(1.0, 8.0, 50)
    le2 = lam("e", r, p) ** 2
    li2 = lam("i", r, p) ** 2
    lb2 = lam("b", r, p) ** 2
    np.testing.assert_allclose(gap_e_i(r, p), le2 - li2, rtol=1e-10)
    np.testing.assert_allclose(gap_b_e(r, p), lb2 - le2, rtol=1e-8)


def test_auxiliary_symbols_match_their_definitions():
    # q_i = lambda_i / r continued by sqrt((1+T)/(1+eps)), H_eps = sqrt((1+T r^2)/eps),
    # and their derivatives against central differences
    p = DEFAULT_PARAMS
    r = np.linspace(0.2, 8.0, 40)
    h = 1e-5
    np.testing.assert_allclose(q_i(r, p), lam("i", r, p) / r, rtol=1e-14)
    assert q_i(0.0, p) == pytest.approx(np.sqrt((1 + p.T) / (1 + p.epsilon)), rel=1e-15)
    fd = (q_i(r + h, p) - q_i(r - h, p)) / (2 * h)
    np.testing.assert_allclose(disp.q_i_prime(r, p), fd, rtol=1e-6)
    H, dH, d2H = disp.h_eps(r, p)
    np.testing.assert_allclose(H, np.sqrt((1 + p.T * r**2) / p.epsilon), rtol=1e-15)
    for order, deriv in ((0, dH), (1, d2H)):
        fd = (disp.h_eps(r + h, p)[order] - disp.h_eps(r - h, p)[order]) / (2 * h)
        np.testing.assert_allclose(deriv, fd, rtol=1e-6)


def test_longdouble_pass_through():
    p = DEFAULT_PARAMS
    r = np.linspace(0.0, 5.0, 11).astype(np.longdouble)
    out = lam("e", r, p)
    assert out.dtype == np.longdouble


@settings(max_examples=40, deadline=None)
@given(
    r1=st.floats(0.0, 20.0),
    dr=st.floats(1e-6, 20.0),
    branch=st.sampled_from(["i", "e", "b"]),
)
def test_branches_increase(r1, dr, branch):
    p = DEFAULT_PARAMS
    assert float(lam(branch, r1 + dr, p)) > float(lam(branch, r1, p))


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.0, 20.0))
def test_ordering_everywhere(r):
    p = DEFAULT_PARAMS
    li, le, lb = (float(lam(b, r, p)) for b in ("i", "e", "b"))
    assert r <= li * (1 + 1e-12) and li <= le <= lb * (1 + 1e-15)

