import re

import numpy as np
import pytest

from twofluid import acceptance, dispersion
from twofluid.physics import _random_seed
from twofluid.spectral import Grid, to_physical

# the criteria that finish within seconds; [4], [5], [7], [9] and [10] run
# for minutes, so tier-1 runs them at small sizes below and leaves their
# results to a full acceptance run
FAST = (1, 2, 3, 6, 8)


@pytest.mark.parametrize("number", FAST)
def test_fast_criterion_passes(number):
    (res,) = acceptance.run(numbers=(number,), stream=None)
    assert res.number == number
    assert res.ok, res.line()


def test_unknown_criterion_numbers_raise(monkeypatch):
    # a selection naming no criterion must not pass vacuously, nor run the
    # criteria it does name
    ran = []

    def stub():
        ran.append(1)
        return True, "ran"

    stub.number, stub.crit_name, stub.budget = 1, "stub", 1.0
    monkeypatch.setattr(acceptance, "_RUNNERS", [stub])
    with pytest.raises(ValueError, match=r"\[11, 12\]"):
        acceptance.run(numbers=(1, 11, 12), stream=None)
    with pytest.raises(ValueError, match="no criterion"):
        acceptance.run(numbers=(), stream=None)
    assert ran == []
    (res,) = acceptance.run(numbers=(1,), stream=None)
    assert res.ok and ran == [1]


def test_partition_detail_reports_counts(monkeypatch):
    # criterion [7] at a coarse grid: only the shape of its detail line is
    # checked here, not whether the coarse census passes
    full = acceptance.verify_case_partition

    def coarse(p, **kw):
        kw.update(resolution=(48, 32, 16), refine=False)
        return full(p, **kw)

    monkeypatch.setattr(acceptance, "verify_case_partition", coarse)
    (res,) = acceptance.run(numbers=(7,), stream=None)
    assert "phases with hits" in res.detail
    assert "home triples" in res.detail
    assert "elliptic hits" in res.detail
    assert "{" not in res.detail and "raised" not in res.detail


def test_catalog_criterion_runs_on_small_supports(monkeypatch):
    # criterion [4]'s runner end to end on states with kmax = 1, in about a
    # second; its accuracy at kmax = 4 is left to a full acceptance run
    full = acceptance.random_irrotational

    def small(g, p, rng, **kw):
        kw.update(kmax=1)
        return full(g, p, rng, **kw)

    monkeypatch.setattr(acceptance, "random_irrotational", small)
    (res,) = acceptance.run(numbers=(4,), stream=None)
    assert res.ok, res.line()
    assert "10 states" in res.detail


_NUM = r"[+-]?\d\.\d+e[+-]\d+"
_EXPONENT = r"[+-]\d\.\d{4} (ok|FAIL \[[+-]\d\.\d\d,[+-]\d\.\d\d\])"


@pytest.mark.parametrize("number,sizes,shape", [
    pytest.param(
        5, {"CONSTRAINT_N": 8, "CONSTRAINT_STEPS": 5},
        rf"max residual {_NUM} \(dt\) / {_NUM} \(dt/2\), (roundoff floor|ratio \d+\.\d)",
        id="5"),
    pytest.param(  # decay_fit needs eight samples; early times are cheap
        9, {"DECAY_TIMES": (1.0, 10.0, 8)},
        rf"e k=0: {_EXPONENT}; b k=0: {_EXPONENT}; i k=-3: {_EXPONENT}; "
        rf"i k=1 \(inflection shell\): {_EXPONENT}; i shell slope: {_EXPONENT}",
        id="9"),
    pytest.param(
        10, {"ENERGY_N": 8, "ENERGY_STEPS": 8},
        r"fitted constant \d+\.\d{4} \(8\^3\) vs \d+\.\d{4} \(16\^3\), "
        r"drift \d+\.\d% \(tol 20%\)",
        id="10"),
])
def test_long_criterion_runs_at_a_small_size(monkeypatch, number, sizes, shape):
    # the runner end to end at a small size, through the whole RK4 loop for
    # [5] and [10]; only the shape of the detail line is checked, not whether
    # the small run lands in the criterion's window
    for name, value in sizes.items():
        monkeypatch.setattr(acceptance, name, value)
    (res,) = acceptance.run(numbers=(number,), stream=None)
    assert res.number == number
    assert re.fullmatch(shape, res.detail), res.line()


def test_gates_are_pinned():
    # no criterion's run reads back its own tolerance or ladder, so these
    # literal copies are what fails if one is widened or shortened: [1]'s
    # identity tolerance and [9]'s sample times, 8 from 1e2 to 1e4
    assert dispersion.IDENTITY_RTOL == 1e-10
    assert acceptance.DECAY_TIMES == (1e2, 1e4, 8)


def test_refine_seed_keeps_continuum_values():
    # criterion [10] embeds its 16^3 seed into 32^3; the fine field must take
    # the coarse field's values at the shared grid points, scalars and vectors
    coarse, fine = Grid(16), Grid(32)
    seed = _random_seed(coarse, np.random.default_rng(3), 0.05, 4, True)
    for key, coef in seed.items():
        refined = acceptance._refine_seed(coef, coarse, fine.n)
        assert refined.shape == coef.shape[:-3] + (fine.n, fine.n, fine.n // 2 + 1)
        want = to_physical(coarse, coef)
        got = to_physical(fine, refined)[..., ::2, ::2, ::2]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), key
