import math

import pytest

from twofluid.params import PlasmaParams


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=0.0, T=1.0, C_b=6.0)
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=1e-3, T=math.inf, C_b=6.0)


def test_params_reject_bools():
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=True, T=1.0, C_b=6.0)
    with pytest.raises(ValueError):
        PlasmaParams(epsilon=1e-3, T=1.0, C_b=True)
