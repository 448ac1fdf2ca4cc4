"""The three benchmark workloads: inputs, timed work lists, checks, probes.

Every call into ``twofluid`` that belongs to a work list goes through
``Ctx.call``: that call is timed into ``solve_s`` and wrapped in a span named
``<module>.<function>[.<variant>]``.  Checks run between calls and are not
timed.  Probes (traced runs only) call the public functions that a
top-level call hides, on the workload's own inputs.

Why these three workloads (ROADMAP items they are meant to separate):

* ``evolve``  -- nonlinear RK4 evolution at 32^3 through the public decay
  experiment; nearly all time is ``physics.rhs`` and ``spectral`` FFTs.  An
  rfft/fused-rhs change or a new integrator should move it.
* ``analyse`` -- analysis in the dispersive unknowns at 64^3 with no time
  stepping: single-field transforms of non-Hermitian arrays, the linear
  derivative monitor and two kernel_sup ladders.  Batched monitors should
  move it most.
* ``census``  -- FFT-free symbol work: the resonance census and the catalog
  nonlinearity.  A scan-engine or branch-jet change should move it; an
  FFT change should not.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from twofluid.decay import KernelQuery, decay_fit, free_evolve, kernel_sup, nonlinear_decay_experiment
from twofluid.diagonal import (CATALOG_PAIRS, from_dispersive, nonlinearity_direct,
                               nonlinearity_multiplier, profile, to_dispersive)
from twofluid.dispersion import BRANCHES, DEFAULT_PARAMS, lam, lam_prime, lam_second
from twofluid.physics import (FIELDS, cfl_dt, constraints, energy, gronwall_quantities,
                              random_irrotational, rhs, step)
from twofluid.resonance import PhaseSpec, scan_near_resonant, stronglyell_deltas, verify_case_partition
from twofluid.spectral import Grid, l2_norm, to_physical, to_spectral

P = DEFAULT_PARAMS
AMPLITUDE = 1e-3
PHASES = 63

# Sizes.  "full" is what the benchmark measures; "tiny" exists so the
# benchmark's own tests can run every workload in seconds.  ``tag`` is the
# grid size in span and metric names; tiny runs keep the full-size tags so
# they print the same metric names.
SIZES = {
    "full": {
        "evolve": {"n": 32, "tag": "32", "horizon": 0.04, "samples": 3},
        "analyse": {"n": 64, "tag": "64", "states": 2, "free_t": 0.5, "mon_horizon": 1.0,
                    "mon_samples": 2, "ts": (1e2, 1e3),
                    "ladders": (("e", "e_km1", "e", -1), ("i", "i_k1", "i", 1))},
        "census": {"resolution": (224, 112, 56), "shells": (-8, 5), "n": 18, "tag": "18",
                   "kmax": 3, "states": 2,
                   "scan": ("b;e+,b+", (-1, -1, -4), (128, 128, 64))},
    },
    "tiny": {
        "evolve": {"n": 16, "tag": "32", "horizon": 0.005, "samples": 2},
        "analyse": {"n": 16, "tag": "64", "states": 1, "free_t": 0.5, "mon_horizon": 1.0,
                    "mon_samples": 2, "ts": (1.0, 4.0),
                    "ladders": (("e", "e_km1", "e", -3), ("i", "i_k1", "i", -3))},
        "census": {"resolution": (16, 8, 4), "shells": (-2, 1), "n": 8, "tag": "18",
                   "kmax": 1, "states": 1,
                   "scan": ("b;e+,b+", (-1, -1, -4), (8, 8, 4))},
    },
}


# ---------------------------------------------------------------------------
# run context: timing, spans, checks


class Ctx:
    """One round of one workload: solve clock, spans, checks, reported values."""

    def __init__(self, tracer, refs: dict, first: dict | None):
        self.tracer = tracer
        self.refs = refs  # seed-commit references for this workload and seed
        self.first = first  # fingerprint of the first round, None in the first round
        self.solve_s = 0.0
        self.attempted = 0
        self.failed: list[str] = []
        self.values: dict[str, float] = {}
        self.fingerprint: dict = {}

    def call(self, name: str, fn, *args, **kw):
        t0 = time.perf_counter()
        with self.tracer.span(name):
            out = fn(*args, **kw)
        self.solve_s += time.perf_counter() - t0
        return out

    def check(self, name: str, fn) -> None:
        """Count one output check; a check that raises counts as failed."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a broken output must not crash the run
            ok = False
        if not ok:
            self.failed.append(name)


def rel_err(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def reset_caches(grids) -> None:
    """Empty every first-call cache, so each round pays what one user pays.

    Clears the ``lru_cache`` tables of every loaded twofluid module and the
    cached properties of the given grids; found by type, not by name.
    """
    for name, mod in list(sys.modules.items()):
        if not name.startswith("twofluid."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    for g in grids:
        for name, attr in vars(type(g)).items():
            if isinstance(attr, functools.cached_property):
                g.__dict__.pop(name, None)


# ---------------------------------------------------------------------------
# evolve


def evolve_inputs(seed: int, size: str) -> dict:
    cfg = SIZES[size]["evolve"]
    g = Grid(cfg["n"])
    return {"seed": seed, "grid": g, "cfg": cfg, "grids": [g]}


def evolve_run(inp: dict, ctx: Ctx) -> None:
    cfg, seed = inp["cfg"], inp["seed"]
    out = ctx.call("decay.nonlinear_decay_experiment.evolve", nonlinear_decay_experiment,
                   seed, AMPLITUDE, cfg["horizon"], P, grid=inp["grid"],
                   samples=cfg["samples"])
    sup = np.asarray(out["sup"])
    ctx.fingerprint = {"sup": sup}
    ctx.check("evolve.no_blowup", lambda: out["blowup_t"] is None)
    ctx.check("evolve.finite", lambda: sup.shape == (cfg["samples"],)
              and bool(np.all(np.isfinite(sup))) and bool(np.all(sup > 0)))
    if ctx.first is not None:
        ctx.check("evolve.repeatable", lambda: np.array_equal(sup, ctx.first["sup"]))
        return
    # t = 0 sample against the exact linear flow's, which passes through the
    # to_dispersive round trip (criterion [3]: 1e-11)
    lin = nonlinear_decay_experiment(seed, AMPLITUDE, cfg["horizon"], P,
                                     grid=Grid(cfg["n"]), linear=True, samples=1)["sup"]
    ctx.check("evolve.t0_matches_linear_flow", lambda: rel_err(sup[0], lin[0]) <= 1e-9)
    if "series" in ctx.refs:
        ref = ctx.refs["series"]
        ctx.check("evolve.series_matches_reference",
                  lambda: rel_err(sup, ref["series"]) <= ref["tolerance_rel"])


def evolve_probe(inp: dict, tr) -> None:
    """rhs, step and the 32^3 transforms on the experiment's own initial state."""
    cfg = inp["cfg"]
    n = cfg["tag"]
    g = Grid(cfg["n"])
    state = random_irrotational(g, P, np.random.default_rng(inp["seed"]), amplitude=AMPLITUDE)
    dt = cfl_dt(g, P)
    for _ in range(20):
        with tr.span(f"physics.rhs.n{n}"):
            rhs(state, P, check=False)
    cur = state
    for _ in range(100):
        with tr.span(f"physics.step.n{n}"):
            cur = step(cur, dt, P, check=False)
    real_v = to_physical(g, state.v).real
    for _ in range(20):
        with tr.span(f"spectral.to_physical.n{n}"):
            to_physical(g, state.v)
        with tr.span(f"spectral.to_spectral.n{n}"):
            to_spectral(g, real_v)
    # computed bytes: one read of the input plus one write of the output
    inp["fft_bytes"] = {f"spectral.to_physical.n{n}": 2 * state.v.nbytes,
                        f"spectral.to_spectral.n{n}": real_v.nbytes + state.v.nbytes}


# ---------------------------------------------------------------------------
# analyse


def analyse_inputs(seed: int, size: str) -> dict:
    cfg = SIZES[size]["analyse"]
    g = Grid(cfg["n"])
    rng = np.random.default_rng(seed)
    states = [random_irrotational(g, P, rng, amplitude=AMPLITUDE, kmax=4)
              for _ in range(cfg["states"])]
    return {"seed": seed, "grid": g, "states": states, "cfg": cfg, "grids": [g]}


def _field_scale(s) -> float:
    return max(l2_norm(s.grid, getattr(s, name)) for name in FIELDS)


def analyse_run(inp: dict, ctx: Ctx) -> None:
    cfg, g = inp["cfg"], inp["grid"]
    n = cfg["tag"]
    for i, s in enumerate(inp["states"]):
        d = ctx.call(f"diagonal.to_dispersive.n{n}", to_dispersive, s, P)
        back = ctx.call(f"diagonal.from_dispersive.n{n}", from_dispersive, d, P)
        d_t = ctx.call(f"decay.free_evolve.n{n}", free_evolve, d, cfg["free_t"], P)
        v0 = ctx.call(f"diagonal.profile.n{n}", profile, d, P)
        v_t = ctx.call(f"diagonal.profile.n{n}", profile, d_t, P)
        N = ctx.call(f"diagonal.nonlinearity_direct.n{n}", nonlinearity_direct, s, P)
        e2 = ctx.call(f"physics.energy.n{n}", energy, s, P, order=2)
        gq = ctx.call(f"physics.gronwall_quantities.n{n}", gronwall_quantities, s)

        # criterion [3]: round trip within 1e-11 per field
        ctx.check(f"analyse.round_trip[{i}]", lambda: max(
            l2_norm(g, getattr(back, f) - getattr(s, f)) / l2_norm(g, getattr(s, f))
            for f in FIELDS) <= 1e-11)
        # constraints of the reconstruction hold by construction: roundoff,
        # taken as 1e-12 of the field scale (each residual is one spectral
        # derivative of an O(scale) field, computed to ~1e-15 relative)
        ctx.check(f"analyse.constraints[{i}]",
                  lambda: max(constraints(back, P).values()) <= 1e-12 * _field_scale(back))
        # profiles are constant along the free flow; phases t*Lambda reach
        # ~2e3 rad at 64^3, so exp() carries ~1e-13 relative error
        ctx.check(f"analyse.profile_invariant[{i}]", lambda: max(
            l2_norm(g, getattr(v_t, f) - getattr(v0, f)) / l2_norm(g, getattr(v0, f))
            for f in ("U_e", "U_i", "U_b")) <= 1e-11)
        ctx.check(f"analyse.nonlinearity_finite[{i}]",
                  lambda: all(bool(np.all(np.isfinite(x))) for x in N))
        ctx.check(f"analyse.energy_positive[{i}]", lambda: np.isfinite(e2) and e2 > 0)
        ctx.check(f"analyse.gronwall_sum[{i}]", lambda: abs(
            gq["A"] - sum(v for k, v in gq.items() if k != "A")) <= 1e-12 * gq["A"])
        del d, back, d_t, v0, v_t, N

    mon = ctx.call(f"decay.nonlinear_decay_experiment.linear{n}", nonlinear_decay_experiment,
                   inp["seed"], AMPLITUDE, cfg["mon_horizon"], P, grid=g, linear=True,
                   samples=cfg["mon_samples"])
    sup = np.asarray(mon["sup"])
    ctx.check("analyse.monitor_finite", lambda: sup.shape == (cfg["mon_samples"],)
              and bool(np.all(np.isfinite(sup))) and bool(np.all(sup > 0)))
    if "monitor" in ctx.refs:
        ref = ctx.refs["monitor"]
        ctx.check("analyse.monitor_matches_reference",
                  lambda: rel_err(sup, ref["series"]) <= ref["tolerance_rel"])

    ts = np.geomspace(cfg["ts"][0], cfg["ts"][1], 8)
    for label, fit_label, branch, k in cfg["ladders"]:
        sups = np.array([ctx.call(f"decay.kernel_sup.{label}", kernel_sup,
                                  KernelQuery(branch, k, float(t)), P) for t in ts])
        fit = ctx.call(f"decay.decay_fit.{fit_label}", decay_fit, ts, sups)
        ctx.values[f"decay.decay_fit.{fit_label}.exponent"] = fit["exponent"]
        ctx.check(f"analyse.kernel_sup_finite.{fit_label}",
                  lambda: bool(np.all(np.isfinite(sups))) and bool(np.all(sups > 0)))
        if "kernel_sup" in ctx.refs:
            ref = ctx.refs["kernel_sup"]
            ctx.check(f"analyse.kernel_sup_matches_reference.{fit_label}",
                      lambda: rel_err(sups, ref[fit_label]) <= ref["tolerance_rel"])


def analyse_probe(inp: dict, tr) -> None:
    """The single-field 64^3 inverse transform the derivative monitor repeats."""
    n = inp["cfg"]["tag"]
    c = inp["states"][0].n
    for _ in range(20):
        with tr.span(f"spectral.to_physical.n{n}"):
            to_physical(inp["grid"], c)


# ---------------------------------------------------------------------------
# census


def census_inputs(seed: int, size: str) -> dict:
    cfg = SIZES[size]["census"]
    g = Grid(cfg["n"])
    rng = np.random.default_rng(seed)
    states = [random_irrotational(g, P, rng, amplitude=AMPLITUDE, kmax=cfg["kmax"])
              for _ in range(cfg["states"])]
    return {"seed": seed, "grid": g, "states": states, "cfg": cfg, "grids": [g]}


def hits_table(hits: dict) -> dict:
    """PartitionReport.hits in JSON form: phase -> "k,k1,k2" -> [n, min|Phi|, min|Xi|]."""
    return {key: {",".join(map(str, tr)): list(v) for tr, v in sorted(shells.items())}
            for key, shells in sorted(hits.items())}


def hits_match(table: dict, ref: dict, atol: float = 1e-9) -> bool:
    """Same phases, home triples and sample counts; minima within atol."""
    if table.keys() != ref.keys():
        return False
    for key, shells in table.items():
        if shells.keys() != ref[key].keys():
            return False
        for tr, (n, aphi, axi) in shells.items():
            rn, raphi, raxi = ref[key][tr]
            if n != rn or abs(aphi - raphi) > atol or abs(axi - raxi) > atol:
                return False
    return True


def support_pairs(d) -> int:
    """Sum over catalog pairs of the product of the two input support sizes."""
    size = {"e": np.count_nonzero(d.U_e), "i": np.count_nonzero(d.U_i)}
    for a in range(3):
        size[f"b{a + 1}"] = np.count_nonzero(d.U_b[a])

    def of(mu):  # conjugate tables have the reflected, equal-sized support
        return size[mu[0] + mu[2:]] if mu[0] == "b" else size[mu[0]]

    return int(sum(of(mu) * of(nu) for mu, nu in CATALOG_PAIRS))


def census_run(inp: dict, ctx: Ctx) -> None:
    cfg = inp["cfg"]
    n = cfg["tag"]
    lo, hi = cfg["shells"]
    rep = ctx.call("resonance.verify_case_partition", verify_case_partition, P,
                   shells=range(lo, hi), D_num=10, resolution=cfg["resolution"], refine=True)
    table = hits_table(rep.hits)
    ctx.values["resonance.verify_case_partition.hits"] = float(
        sum(v[0] for shells in table.values() for v in shells.values()))
    ctx.values["resonance.verify_case_partition.points"] = float(np.prod(cfg["resolution"]) * PHASES)
    ctx.check("census.partition_ok", lambda: rep.ok)
    # as in criterion [7]: every triple admitted only above D_num has a window
    ctx.check("census.violation_windows", lambda: all(bool(w) for _, _, w in rep.violations))
    if "partition" in ctx.refs:
        ctx.check("census.hits_match_reference",
                  lambda: hits_match(table, ctx.refs["partition"]["hits"]))

    pairs = 0
    for i, s in enumerate(inp["states"]):
        d = ctx.call(f"diagonal.to_dispersive.n{n}", to_dispersive, s, P)
        conv = ctx.call(f"diagonal.nonlinearity_multiplier.n{n}", nonlinearity_multiplier, d, P)
        direct = ctx.call(f"diagonal.nonlinearity_direct.n{n}", nonlinearity_direct, s, P)
        pairs += support_pairs(d)
        # criterion [4]: the two routes agree within 1e-9 on every component
        ctx.check(f"census.routes_agree[{i}]", lambda: max(
            l2_norm(inp["grid"], a - b) / l2_norm(inp["grid"], a)
            for a, b in zip(direct, conv)) <= 1e-9)
    ctx.values[f"diagonal.nonlinearity_multiplier.n{n}.pairs"] = float(pairs)


def census_probe(inp: dict, tr) -> None:
    """One shell triple of the resonance scan, and the branch symbols."""
    key, (k, k1, k2), res = inp["cfg"]["scan"]
    d1, d2 = stronglyell_deltas(k1, k2)
    spec = PhaseSpec.parse(key)
    for _ in range(3):
        with tr.span("resonance.scan_near_resonant"):
            scan_near_resonant(spec, k, k1, k2, d1, d2, P, resolution=res)
    r = np.geomspace(1e-3, 1e3, 10**6)
    for fn in (lam, lam_prime, lam_second):
        for _ in range(3):
            with tr.span(f"dispersion.{fn.__name__}"):
                for branch in BRANCHES:
                    fn(branch, r, P)
    inp["radii"] = r.size * len(BRANCHES)


class Workload(NamedTuple):
    inputs: Callable  # (seed, size) -> inputs; this is the set-up
    run: Callable  # (inputs, Ctx) -> None; one round of the work list, checked
    probe: Callable  # (inputs, Tracer) -> None; traced runs only


WORKLOADS = {
    "evolve": Workload(evolve_inputs, evolve_run, evolve_probe),
    "analyse": Workload(analyse_inputs, analyse_run, analyse_probe),
    "census": Workload(census_inputs, census_run, census_probe),
}
