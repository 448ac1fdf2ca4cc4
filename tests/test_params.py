import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid.params import PhysicalConstants, PlasmaParams, derive_params, validate_regime

# hydrogen-like plasma in Gaussian units: n_0 = 1e10 cm^-3, T_e = 10 T_i
HYDROGEN = PhysicalConstants(
    m_e=9.1094e-28,
    M_i=1.6726e-24,
    Z=1.0,
    e=4.8032e-10,
    c=2.9979e10,
    n_0=1.0e10,
    P_e=1.3807e-20,
    P_i=1.3807e-21,
)


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PhysicalConstants(m_e=-1, M_i=1, Z=1, e=1, c=1, n_0=1, P_e=1, P_i=1)
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=0.0, T=1.0, C_b=6.0)
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=1e-3, T=math.inf, C_b=6.0)


def test_constants_reject_bools():
    with pytest.raises(ValueError):
        PhysicalConstants(m_e=True, M_i=1, Z=1, e=1, c=1, n_0=1, P_e=1, P_i=1)


def test_params_reject_bools():
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=True, T=1.0, C_b=6.0)
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=1e-3, T=1.0, C_b=6.0, scale_beta=True)


def test_derive_params_formulas():
    p = derive_params(HYDROGEN)
    pc = HYDROGEN
    assert p.epsilon == pytest.approx(pc.Z * pc.m_e / pc.M_i, rel=1e-14)
    assert p.T == pytest.approx(pc.P_e / pc.P_i, rel=1e-14)
    # C_b = eps c^2 / V_i^2 collapses to c^2 m_e / (n_0 P_i)
    assert p.C_b == pytest.approx(pc.c**2 * pc.m_e / (pc.n_0 * pc.P_i), rel=1e-13)
    # the space/time scales reproduce the ion thermal speed
    assert p.scale_beta / p.scale_lambda == pytest.approx(pc.V_i, rel=1e-13)


def test_debye_length_combines_both_pressures():
    pc = HYDROGEN
    expected = (4 * math.pi * pc.e**2 * (1 / pc.P_e + 1 / pc.P_i)) ** -0.5
    assert pc.debye_length == pytest.approx(expected, rel=1e-14)


def test_regime_report():
    ok = validate_regime(PlasmaParams(1e-3, 1.0, 6.0))
    assert ok.passed
    bad_eps = validate_regime(PlasmaParams(2e-3, 1.0, 6.0))
    assert not bad_eps.passed
    assert [c.passed for c in bad_eps.checks] == [False, True, True]
    bad_cb = validate_regime(PlasmaParams(1e-3, 10.0, 59.0))
    assert [c.passed for c in bad_cb.checks] == [True, True, False]
    # reports never raise, and the hydrogen point sits inside the regime
    assert validate_regime(derive_params(HYDROGEN)).passed


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(1e-6, 1e-3),
    T=st.floats(1.0, 100.0),
    ratio=st.floats(6.0, 1e4),
)
def test_direct_params_always_validate_in_regime(eps, T, ratio):
    p = PlasmaParams(epsilon=eps, T=T, C_b=ratio * T)
    assert validate_regime(p).passed
