import re

import numpy as np
import pytest

from twofluid import acceptance, dispersion
from twofluid.physics import _random_seed, random_irrotational
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
        return {"failed checks": 0}, "ran"

    stub.number, stub.crit_name, stub.budget = 1, "stub", 1.0
    monkeypatch.setattr(acceptance, "_RUNNERS", [stub])
    with pytest.raises(ValueError, match=r"\[11, 12\]"):
        acceptance.run(numbers=(1, 11, 12), stream=None)
    with pytest.raises(ValueError, match="no criterion"):
        acceptance.run(numbers=(), stream=None)
    assert ran == []
    (res,) = acceptance.run(numbers=(1,), stream=None)
    assert res.ok and ran == [1]


@pytest.mark.parametrize("values,ok", [
    pytest.param({"x": -1.0, "y": 0.0}, True, id="lower-edge"),
    pytest.param({"x": 2.0, "y": 0.0}, True, id="upper-edge"),
    pytest.param({"x": 2.5, "y": 0.0}, False, id="above"),
    pytest.param({"x": np.nextafter(-1.0, -2.0), "y": 0.0}, False, id="below"),
    pytest.param({"x": 0.5, "y": 1e-300}, False, id="nonzero-count"),
    pytest.param({"x": np.nan, "y": 0.0}, False, id="nan"),
    pytest.param({"x": 0.5}, False, id="missing"),
    pytest.param({"x": 0.5, "y": 0.0, "z": 0.0}, False, id="extra"),
    pytest.param({"x": 0.5, "Y": 0.0}, False, id="misspelt"),
])
def test_run_decides_from_the_gates(monkeypatch, values, ok):
    # run() alone compares a runner's values with the gate table: a value
    # outside its closed window, NaN, and a missing, extra or misspelt name
    # each fail the criterion
    def stub():
        return values, "stub"

    stub.number, stub.crit_name, stub.budget = 1, "stub", 60.0
    monkeypatch.setattr(acceptance, "_RUNNERS", [stub])
    monkeypatch.setattr(acceptance, "GATES", {(1, "x"): (-1.0, 2.0), (1, "y"): (0.0, 0.0),
                                              (2, "z"): (0.0, 0.0)})
    (res,) = acceptance.run(numbers=(1,), stream=None)
    assert res.ok is ok, res.line()
    if ok:  # each value is printed beside the window of its table entry
        assert res.detail == f"stub; x {values['x']:g} in [-1, 2]; y 0 in [0, 0]"


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


def _kmax_1(g, p, rng, **kw):
    return random_irrotational(g, p, rng, **dict(kw, kmax=1))


def test_catalog_criterion_runs_on_small_supports(monkeypatch):
    # criterion [4]'s runner end to end on states with kmax = 1, in about a
    # second; its accuracy at kmax = 4 is left to a full acceptance run
    monkeypatch.setattr(acceptance, "random_irrotational", _kmax_1)
    (res,) = acceptance.run(numbers=(4,), stream=None)
    assert res.ok, res.line()
    assert "10 states" in res.detail


def _nan_from_the_second_call(monkeypatch, name, poison):
    """Replace ``acceptance.<name>`` by a wrapper whose outputs from the second
    call on are ``poison``-ed with NaN."""
    full, calls = getattr(acceptance, name), []

    def wrapped(*args, **kw):
        calls.append(1)
        out = full(*args, **kw)
        return poison(out) if len(calls) > 1 else out

    monkeypatch.setattr(acceptance, name, wrapped)


def _nan_state(s):
    s.buf[...] = np.nan
    return s


@pytest.mark.parametrize("number,name,poison,sizes", [
    pytest.param(3, "from_dispersive", _nan_state, {"Grid": lambda n: Grid(16)}, id="3"),
    pytest.param(4, "nonlinearity_multiplier", lambda rows: [r * np.nan for r in rows],
                 {"Grid": lambda n: Grid(16), "random_irrotational": _kmax_1}, id="4"),
    pytest.param(5, "constraints", lambda res: {**res, "girr_i": np.nan},
                 {"CONSTRAINT_N": 8, "CONSTRAINT_STEPS": 5}, id="5"),
    pytest.param(8, "xi_gradient", lambda grad: grad * np.nan, {}, id="8"),
])
def test_a_nan_after_the_first_sample_fails(monkeypatch, number, name, poison, sizes):
    # a max over samples or constraints must carry a NaN through to run():
    # Python's max(0.0, nan) is 0.0, which once dropped a NaN met after the
    # first sample, or in any but the first of [5]'s constraint residuals
    for key, value in sizes.items():
        monkeypatch.setattr(acceptance, key, value)
    _nan_from_the_second_call(monkeypatch, name, poison)
    (res,) = acceptance.run(numbers=(number,), stream=None)
    assert not res.ok and " nan OUTSIDE " in res.detail, res.line()


# a finite value as run() prints it, and its window, whatever the window holds
_G = r"-?\d+(\.\d+)?(e[+-]\d+)?"
_IN = rf"{_G} (in|OUTSIDE) \[{_G}, {_G}\]"


@pytest.mark.parametrize("number,sizes,shape", [
    pytest.param(
        5, {"CONSTRAINT_N": 8, "CONSTRAINT_STEPS": 5},
        rf"5 steps at 8\^3; residual at dt {_IN}; residual at dt/2 {_IN}",
        id="5"),
    pytest.param(  # decay_fit needs eight samples; early times are cheap
        9, {"DECAY_TIMES": (1.0, 10.0, 8)},
        rf"8 times from 1 to 10, i shells k = -7\.\.-2 at t = 10; e k=0 {_IN}; b k=0 {_IN}; "
        rf"i k=-3 {_IN}; i k=1 \(inflection shell\) {_IN}; i shell slope {_IN}",
        id="9"),
    pytest.param(
        10, {"ENERGY_N": 8, "ENERGY_STEPS": 8},
        rf"fitted constant \d+\.\d{{4}} \(8\^3\) vs \d+\.\d{{4}} \(16\^3\); drift {_IN}",
        id="10"),
])
def test_long_criterion_runs_at_a_small_size(monkeypatch, number, sizes, shape):
    # the runner end to end at a small size, through the whole RK4 loop for
    # [5] and [10]; only the shape of the detail line is checked, not whether
    # the small run lands in the criterion's windows: run() turns value names
    # that differ from the gates into a "raised" detail, and a NaN or inf
    # value fails the pattern
    for name, value in sizes.items():
        monkeypatch.setattr(acceptance, name, value)
    (res,) = acceptance.run(numbers=(number,), stream=None)
    assert re.fullmatch(shape, res.detail), res.line()


def test_gates_are_pinned():
    # literal copies of every window, of [1]'s identity tolerance, of [9]'s
    # sample times (8 from 1e2 to 1e4) and of the budgets: a gate that moves
    # fails here, so the change has to edit this test and say why
    assert acceptance.GATES == {
        (1, "failed checks"): (0.0, 0.0),
        (2, "failed checks"): (0.0, 0.0),
        (3, "worst field error"): (0.0, 1e-11),
        (4, "worst route difference"): (0.0, 1e-9),
        (5, "residual at dt"): (0.0, 1e-12),
        (5, "residual at dt/2"): (0.0, 1e-12),
        (6, "ratio"): (12.0, 20.0),
        (7, "unresolved"): (0.0, 0.0),
        (7, "elliptic hits"): (0.0, 0.0),
        (8, "worst |Xi|"): (0.0, 1e-10),
        (8, "equal-branch split error"): (0.0, 0.0),
        (8, "c-tilde disagreements"): (0.0, 0.0),
        (8, "case-B residual"): (0.0, 1e-12),
        (8, "case-B misplaced roots"): (0.0, 0.0),
        (9, "e k=0"): (-1.6, -1.4),
        (9, "b k=0"): (-1.6, -1.4),
        (9, "i k=-3"): (-1.6, -1.4),
        (9, "i k=1 (inflection shell)"): (-1.35, -1.15),
        (9, "i shell slope"): (0.4, 0.6),
        (10, "drift"): (0.0, 0.2),
    }
    assert {fn.number: fn.budget for fn in acceptance._RUNNERS} == {
        1: 1.0, 2: 10.0, 3: 30.0, 4: 300.0, 5: 300.0, 6: 120.0, 7: 1800.0, 8: 60.0,
        9: 600.0, 10: 600.0}
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
