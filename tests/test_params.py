import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid.params import (
    PhysicalConstants,
    PlasmaParams,
    derive_params,
    params_from_config,
    read_config,
    rescale_to_normalized,
    rescale_to_physical,
    validate_regime,
)

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


def test_rescale_round_trip():
    rng = np.random.default_rng(7)
    shape = (5, 5, 5)
    pc = HYDROGEN
    phys = {
        "n_e": pc.n_0 * (1 + 0.01 * rng.standard_normal(shape)),
        "n_i": pc.n_0 / pc.Z * (1 + 0.01 * rng.standard_normal(shape)),
        "v_e": 1e5 * rng.standard_normal((3,) + shape),
        "v_i": 1e3 * rng.standard_normal((3,) + shape),
        "E": 1e-4 * rng.standard_normal((3,) + shape),
        "B": 1e-2 * rng.standard_normal((3,) + shape),
    }
    back = rescale_to_physical(rescale_to_normalized(phys, pc), pc)
    for key, val in phys.items():
        np.testing.assert_allclose(back[key], val, rtol=1e-12, atol=0.0)


def test_equilibrium_maps_to_zero():
    pc = HYDROGEN
    zero3 = np.zeros((3, 4, 4, 4))
    phys = {
        "n_e": np.full((4, 4, 4), pc.n_0),
        "n_i": np.full((4, 4, 4), pc.n_0 / pc.Z),
        "v_e": zero3,
        "v_i": zero3,
        "E": zero3,
        "B": zero3,
    }
    norm = rescale_to_normalized(phys, pc)
    for key in ("n", "rho", "v", "u", "E", "B"):
        np.testing.assert_array_equal(norm[key], 0.0)


def test_rescale_requires_all_fields():
    with pytest.raises(ValueError, match="missing"):
        rescale_to_normalized({"n_e": np.zeros(3)}, HYDROGEN)


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(1e-6, 1e-3),
    T=st.floats(1.0, 100.0),
    ratio=st.floats(6.0, 1e4),
)
def test_direct_params_always_validate_in_regime(eps, T, ratio):
    p = PlasmaParams(epsilon=eps, T=T, C_b=ratio * T)
    assert validate_regime(p).passed


def test_read_config(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# comment\nepsilon = 1e-3\nT=1.0\nC_b = 6.0  # inline\n\n")
    parsed = read_config(cfg)
    assert parsed == {"epsilon": "1e-3", "T": "1.0", "C_b": "6.0"}
    p = params_from_config(parsed)
    assert p == PlasmaParams(1e-3, 1.0, 6.0)


def test_read_config_reports_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epsilon = 1e-3\nnot a pair\n")
    with pytest.raises(ValueError, match=":2:"):
        read_config(cfg)


def test_params_from_physical_config():
    cfg = {
        "m_e": "9.1094e-28", "M_i": "1.6726e-24", "Z": "1", "e": "4.8032e-10",
        "c": "2.9979e10", "n_0": "1e10", "P_e": "1.3807e-20", "P_i": "1.3807e-21",
    }
    p = params_from_config(cfg)
    assert p == derive_params(HYDROGEN)


def test_params_from_config_rejects_mixed_and_incomplete():
    with pytest.raises(ValueError, match="mixes"):
        params_from_config({"epsilon": "1e-3", "T": "1", "C_b": "6", "m_e": "1"})
    with pytest.raises(ValueError, match="incomplete"):
        params_from_config({"m_e": "1", "M_i": "1"})
    with pytest.raises(ValueError, match="neither"):
        params_from_config({"foo": "1"})
