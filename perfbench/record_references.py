"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_references.py

Writes perfbench/references.json.  Run it only at a commit whose outputs are
accepted as correct: every entry is stamped with that commit, and each
tolerance comes with its derivation.  Takes about ten minutes on 2 cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from run import HELD_OUT_SEED, _git_commit  # noqa: E402
from twofluid import decay  # noqa: E402
from twofluid.physics import cfl_dt, random_irrotational, step  # noqa: E402
from twofluid.spectral import Grid  # noqa: E402

REF_SEEDS = [*range(16), HELD_OUT_SEED]
RK4_SEEDS = range(6)


def evolve_series(seed: int, dt_divisor: int = 1) -> np.ndarray:
    """The evolve experiment's monitor series, stepped at cfl_dt / dt_divisor
    with the experiment's own sampling loop."""
    cfg = W.SIZES["full"]["evolve"]
    g = Grid(cfg["n"])
    cur = random_irrotational(g, W.P, np.random.default_rng(seed), amplitude=W.AMPLITUDE)
    dt = cfl_dt(g, W.P) / dt_divisor
    out = []
    for target in np.linspace(0.0, cfg["horizon"], cfg["samples"]):
        while cur.t < target - 1e-12:
            cur = step(cur, min(dt, target - cur.t), W.P, check=False)
        out.append(decay._sup_derivatives(cur))
    return np.array(out)


def record_evolve() -> dict:
    cfg = W.SIZES["full"]["evolve"]
    seeds = {}
    for seed in REF_SEEDS:
        sup = W.nonlinear_decay_experiment(seed, W.AMPLITUDE, cfg["horizon"], W.P,
                                           grid=Grid(cfg["n"]), samples=cfg["samples"])["sup"]
        seeds[str(seed)] = [float(x) for x in sup]
    # Richardson: RK4 error of the dt run is (16/15) |s(dt) - s(dt/2)|
    rk4 = {}
    for seed in RK4_SEEDS:
        full = evolve_series(seed)
        if not np.array_equal(full, seeds[str(seed)]):
            raise RuntimeError("sampling loop does not reproduce the experiment")
        rk4[str(seed)] = 16.0 / 15.0 * W.rel_err(full, evolve_series(seed, 2))
    return {"series": {
        "tolerance_rel": 2.0 * max(rk4.values()),
        "derivation": ("2 x the largest RK4 error at cfl_dt over seeds 0-5, each from one "
                       "dt/2 run (Richardson, 16/15 |s(dt) - s(dt/2)|): an integrator at "
                       "least as accurate as RK4 at this dt lies within e_rk4 of the exact "
                       "series, and so does the reference"),
        "rk4_error_rel": rk4,
        "seeds": seeds,
    }}


def record_analyse() -> dict:
    cfg = W.SIZES["full"]["analyse"]
    seeds = {}
    for seed in REF_SEEDS:
        sup = W.nonlinear_decay_experiment(seed, W.AMPLITUDE, cfg["mon_horizon"], W.P,
                                           grid=Grid(cfg["n"]), linear=True,
                                           samples=cfg["mon_samples"])["sup"]
        seeds[str(seed)] = [float(x) for x in sup]
    ts = np.geomspace(cfg["ts"][0], cfg["ts"][1], 8)
    kernel = {}
    worst = 0.0
    for _, fit_label, branch, k in cfg["ladders"]:
        base = np.array([W.kernel_sup(W.KernelQuery(branch, k, float(t)), W.P) for t in ts])
        fine = np.array([W.kernel_sup(W.KernelQuery(branch, k, float(t), points_per_cycle=128),
                                      W.P) for t in ts])
        kernel[fit_label] = [float(x) for x in base]
        worst = max(worst, W.rel_err(base, fine))
    kernel.update({
        "tolerance_rel": 2.0 * worst,
        "derivation": ("2 x the largest change of any ladder value from 64 to 128 "
                       "quadrature points per cycle: a correct evaluation at the same "
                       "nominal resolution lies within one discretization error of the "
                       "converged value, and so does the reference"),
        "ts": [float(t) for t in ts],
    })
    return {
        "monitor": {
            "tolerance_rel": 1e-10,
            "derivation": ("the linear monitor is the exact free flow; its state is exact "
                           "to the 1e-11 round trip of criterion [3], and the monitor is a "
                           "max of linear maps of it: 10 x that"),
            "seeds": seeds,
        },
        "kernel_sup": kernel,
    }


def record_census() -> dict:
    cfg = W.SIZES["full"]["census"]
    lo, hi = cfg["shells"]
    rep = W.verify_case_partition(W.P, shells=range(lo, hi), D_num=10,
                                  resolution=cfg["resolution"], refine=True)
    return {"partition": {
        "resolution": list(cfg["resolution"]),
        "derivation": ("the census is deterministic and seed-independent: phases, home "
                       "triples and sample counts must repeat exactly; minima of |Phi| and "
                       "|Xi| within 1e-9 absolute (hits_match in workloads.py)"),
        "hits": W.hits_table(rep.hits),
    }}


def main() -> None:
    refs = {"commit": _git_commit(), "census": record_census(),
            "analyse": record_analyse(), "evolve": record_evolve()}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
