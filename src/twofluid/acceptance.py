"""Quantitative acceptance suite.

Ten numbered criteria, each a runner with a wall-clock budget that returns
its measured values by name and a detail string of counts and context.
Every window lives in one table, :data:`GATES`, keyed by (criterion, value
name).  :func:`run` alone decides: a criterion passes when its value names
are exactly its gates, each value lies in its window, and it neither raises
nor blows its budget.  Runners use fixed seeds so reruns are bit-identical.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .params import PlasmaParams
from .dispersion import DEFAULT_PARAMS, find_R_sigma, verify_identities, verify_tech99
from .spectral import Grid, _axis_modes, l2_norm
from .physics import (
    FIELDS,
    _random_seed,
    cfl_dt,
    constraints,
    gronwall_constant,
    integrate,
    make_irrotational,
    random_irrotational,
)
from .diagonal import (
    from_dispersive,
    nonlinearity_direct,
    nonlinearity_multiplier,
    to_dispersive,
)
from .decay import KernelQuery, decay_fit, free_evolve, kernel_sup
from .resonance import (
    T_A,
    T_A_ORDERED,
    T_B,
    PhaseSpec,
    _interval,
    caseB_r,
    ctilde_report,
    p_res,
    verify_case_partition,
)
from .resonance import xi as xi_gradient

P = DEFAULT_PARAMS

# the regime corners exercised by the identity suite
_TRIPLES = (
    (1e-3, 1.0, 6.0),
    (1e-3, 1.0, 30.0),
    (1e-4, 4.0, 40.0),
    (5e-4, 10.0, 100.0),
    (1e-3, 100.0, 600.0),
)
# run sizes, which tests patch small; [9]'s sample times are (first, last, count)
CONSTRAINT_N, CONSTRAINT_STEPS = 32, 1000
DECAY_TIMES = (1e2, 1e4, 8)
ENERGY_N, ENERGY_STEPS = 16, 60


# Every acceptance window, keyed by (criterion, value name): run() passes a
# value inside the closed window [lo, hi] and prints the window beside it.
GATES = {
    (1, "failed checks"): (0.0, 0.0),  # each identity within dispersion.IDENTITY_RTOL
    (2, "failed checks"): (0.0, 0.0),  # each inequality at zero slack on the grid
    (3, "worst field error"): (0.0, 1e-11),  # exact inverse maps: roundoff; not derived
    (4, "worst route difference"): (0.0, 1e-9),  # two exact routes: roundoff; not derived
    (5, "residual at dt"): (0.0, 1e-12),  # RK4 commutes with the constraint algebra: roundoff
    (5, "residual at dt/2"): (0.0, 1e-12),  # the same floor at half the step; not derived
    (6, "ratio"): (12.0, 20.0),  # RK4 error falls 2^4 = 16-fold at dt/2; width not derived
    (7, "unresolved"): (0.0, 0.0),  # each near-resonant triple has an admissible case
    (7, "elliptic hits"): (0.0, 0.0),  # none on a proved elliptic or nonresonant phase
    (8, "worst |Xi|"): (0.0, 1e-10),  # Xi = 0 on the resonant curves; roundoff, not derived
    (8, "equal-branch split error"): (0.0, 0.0),  # identical legs halve xi exactly
    (8, "c-tilde disagreements"): (0.0, 0.0),  # the zeros of Psi carry the proved signs
    (8, "case-B residual"): (0.0, 1e-12),  # each root solves its equation; not derived
    (8, "case-B misplaced roots"): (0.0, 0.0),  # s - r has the sign of s - R_sigma
    (9, "e k=0"): (-1.6, -1.4),  # the paper's t^(-3/2) on a nondegenerate shell; width not derived
    (9, "b k=0"): (-1.6, -1.4),  # t^(-3/2) as for e k=0
    (9, "i k=-3"): (-1.6, -1.4),  # t^(-3/2) as for e k=0
    (9, "i k=1 (inflection shell)"): (-1.35, -1.15),  # the paper's t^(-4/3); width not derived
    (9, "i shell slope"): (0.4, 0.6),  # no derivation yet
    (10, "drift"): (0.0, 0.2),  # the constant should not depend on the grid; not derived
}


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    budget: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"[{self.number:2d}] {status}  {self.name}  ({self.seconds:.1f}s / {self.budget:.0f}s)"
        if self.detail:
            out += f"  {self.detail}"
        return out


_RUNNERS: list = []


def _criterion(number: int, name: str, budget: float):
    def deco(fn):
        fn.number, fn.crit_name, fn.budget = number, name, budget
        _RUNNERS.append(fn)
        return fn

    return deco


@_criterion(1, "dispersion identities", 1.0)
def _identities():
    worst = 0.0
    for tr in _TRIPLES:
        rep = verify_identities(PlasmaParams(*tr))
        worst = max(worst, max(c.worst for c in rep.checks))
        if rep.failed:
            return {"failed checks": rep.failed}, rep.summary()
    return {"failed checks": 0}, f"5 parameter triples, 200 radii each, worst residual {worst:.1e}"


@_criterion(2, "branch inequalities", 10.0)
def _inequalities():
    rep = verify_tech99(P)
    return {"failed checks": rep.failed}, rep.summary() if rep.failed else "checked on the 10^4-point grid"


@_criterion(3, "diagonalization round trip", 30.0)
def _round_trip():
    g = Grid(64)
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(20):
        s = random_irrotational(g, P, rng, amplitude=1e-3, kmax=4)
        back = from_dispersive(to_dispersive(s, P), P)
        for name in FIELDS:
            a = getattr(s, name)
            worst = np.maximum(worst, l2_norm(g, getattr(back, name) - a) / l2_norm(g, a))
    return {"worst field error": worst}, "20 states at 64^3"


@_criterion(4, "nonlinearity catalog vs direct", 300.0)
def _catalog():
    g = Grid(32)
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(10):
        s = random_irrotational(g, P, rng, amplitude=1e-3, kmax=4)
        direct = nonlinearity_direct(s, P)
        conv = nonlinearity_multiplier(to_dispersive(s, P), P)
        for a, b in zip(direct, conv):
            worst = np.maximum(worst, l2_norm(g, a - b) / l2_norm(g, a))
    return {"worst route difference": worst}, "10 states, all three components"


@_criterion(5, "constraint propagation", 300.0)
def _constraint_propagation():
    g = Grid(CONSTRAINT_N)
    rng = np.random.default_rng(117)
    s0 = random_irrotational(g, P, rng, amplitude=1e-3, kmax=4)
    steps, dt = CONSTRAINT_STEPS, 1e-3
    values = {}
    for name, h in (("residual at dt", dt), ("residual at dt/2", dt / 2)):
        *_, s = integrate(s0, [steps * dt], h, P)
        values[name] = np.max(list(constraints(s, P).values()))  # np.max keeps a NaN
    return values, f"{steps} steps at {g.n}^3"


@_criterion(6, "linear evolution oracle", 120.0)
def _linear_oracle():
    # kmax = 1 keeps omega*dt small enough that the error is in the
    # asymptotic fourth-order regime at both step sizes
    g = Grid(16)
    rng = np.random.default_rng(42)
    s0 = random_irrotational(g, P, rng, amplitude=1e-3, kmax=1)
    horizon = 0.2
    exact = from_dispersive(free_evolve(to_dispersive(s0, P), horizon, P), P)

    def global_err(dt: float) -> float:
        *_, s = integrate(s0, [horizon], dt, P, linear=True)
        num = den = 0.0
        for name in FIELDS:
            a = getattr(exact, name)
            num += l2_norm(g, getattr(s, name) - a) ** 2
            den += l2_norm(g, a) ** 2
        return float(np.sqrt(num / den))

    e1, e2 = global_err(1e-3), global_err(5e-4)
    return {"ratio": e1 / e2}, f"errors {e1:.2e} -> {e2:.2e} under dt halving"


@_criterion(7, "near-resonance partition", 1800.0)
def _partition():
    rep = verify_case_partition(
        P, shells=range(-8, 5), D_num=10, resolution=(1024, 512, 256), refine=True
    )
    hit = [shells for shells in rep.hits.values() if shells]
    samples = sum(v[0] for shells in hit for v in shells.values())
    return {"unresolved": len(rep.unresolved), "elliptic hits": len(rep.sell_or_nr_hits)}, (
        f"{len(hit)} phases with hits, {samples} near-resonant samples in "
        f"{sum(map(len, hit))} home triples, {len(rep.violations)} admitted only above D_num"
    )


@_criterion(8, "resonant curves", 60.0)
def _resonant_curves():
    direction = np.array([2.0, -1.0, 2.0]) / 3.0
    worst = 0.0
    for sp in sorted(T_A, key=lambda s: s.key):
        ordered = sp if sp in T_A_ORDERED else sp.swapped()
        lo, hi = _interval(ordered, P)
        lo = lo * (1.0 + 1e-3) if lo > 0.0 else (1e-3 * hi if np.isfinite(hi) else 1e-3)
        hi = hi * (1.0 - 1e-3) if np.isfinite(hi) else 8.0
        xiv = direction[:, None] * np.geomspace(lo, hi, 100)
        for variant in (ordered, ordered.swapped()):
            eta = p_res(variant, xiv, P)
            grad = xi_gradient(variant, xiv, eta, P)
            worst = np.maximum(worst, np.linalg.norm(grad, axis=0).max())
    probe = np.array([0.44, -1.3, 0.27])
    split = float(np.max(np.abs(p_res(PhaseSpec("b", "e+", "e+"), probe, P) - 0.5 * probe)))
    ctilde = sum(not row["agree"] for row in ctilde_report(P).values())
    # case-B roots at s = R_sigma (1 +- 1/2), inside the 2^{-D/5} window
    residuals, misplaced = [], 0
    for sp in sorted(T_B, key=lambda spec: spec.key):
        R = find_R_sigma(sp.branch2, P)
        for s in (0.5 * R, 1.5 * R):
            d = caseB_r(sp, s, P)
            residuals.append(abs(d["residual"]))
            misplaced += np.sign(s - d["r"]) != np.sign(s - R)
    return {"worst |Xi|": worst, "equal-branch split error": split, "c-tilde disagreements": ctilde,
            "case-B residual": float(np.max(residuals)), "case-B misplaced roots": misplaced}, (
        f"13 phases x 2 orders x 100 radii, {2 * len(T_B)} case-B roots")


@_criterion(9, "kernel decay exponents", 600.0)
def _decay_exponents():
    ts = np.geomspace(*DECAY_TIMES)
    ladders = (("e k=0", "e", 0), ("b k=0", "b", 0), ("i k=-3", "i", -3),
               ("i k=1 (inflection shell)", "i", 1))
    values = {}
    for label, branch, k in ladders:
        sups = np.array([kernel_sup(KernelQuery(branch, k, t), P) for t in ts])
        values[label] = decay_fit(ts, sups)["exponent"]
    ks = np.arange(-7, -1)
    sups = np.array([kernel_sup(KernelQuery("i", int(k), ts[-1]), P) for k in ks])
    values["i shell slope"] = float(np.polyfit(ks, np.log2(sups), 1)[0])
    return values, (f"{ts.size} times from {ts[0]:g} to {ts[-1]:g}, "
                    f"i shells k = {ks[0]}..{ks[-1]} at t = {ts[-1]:g}")


def _refine_seed(coef: np.ndarray, coarse: Grid, n_to: int) -> np.ndarray:
    """Embed half-layout coefficients on ``coarse`` into an n_to grid, continuum values fixed."""
    scale = (n_to / coarse.n) ** 1.5
    idx = _axis_modes(coarse.n)
    src = np.flatnonzero(np.abs(idx) < coarse.n // 2)  # drop the unpaired Nyquist row
    dst = idx[src] % n_to
    z = np.arange(coarse.n // 2)  # the z half axis holds the modes 0..n/2 - 1 first
    out = np.zeros(coef.shape[:-3] + (n_to, n_to, n_to // 2 + 1), dtype=complex)
    out[(..., *np.ix_(dst, dst, z))] = coef[(..., *np.ix_(src, src, z))] * scale
    return out


@_criterion(10, "energy growth bound", 600.0)
def _energy_bound():
    gc, gf = Grid(ENERGY_N), Grid(2 * ENERGY_N)
    seed_c = _random_seed(gc, np.random.default_rng(42), 0.05, 2, True)
    seed_f = {k: _refine_seed(v, gc, gf.n) for k, v in seed_c.items()}

    def run_grid(g: Grid, seed: dict, n_steps: int, sample_every: int):
        dt = 0.4 * cfl_dt(g, P)
        times = dt * sample_every * np.arange(n_steps // sample_every + 1)
        return list(integrate(make_irrotational(g, P, seed), times, dt, P))

    # fine dt is exactly half the coarse dt, so sample times coincide
    c_const, _ = gronwall_constant(run_grid(gc, seed_c, ENERGY_STEPS, 4), P, order=2)
    f_const, _ = gronwall_constant(run_grid(gf, seed_f, 2 * ENERGY_STEPS, 8), P, order=2)
    # a constant is >= 0: a zero coarse one raises here, a NaN one gives a NaN drift
    rel = abs(f_const - c_const) / c_const
    return {"drift": rel}, f"fitted constant {c_const:.4f} ({gc.n}^3) vs {f_const:.4f} ({gf.n}^3)"


def run(numbers=None, stream=sys.stdout) -> list[CriterionResult]:
    """Run the selected criteria (all by default), one printed line each; an
    empty selection and unknown criterion numbers raise before any criterion
    runs."""
    if numbers is not None and not numbers:
        raise ValueError("the selection names no criterion")
    unknown = set(numbers or ()) - {fn.number for fn in _RUNNERS}
    if unknown:
        raise ValueError(f"no criterion numbered {sorted(unknown)}")
    results = []
    for fn in _RUNNERS:
        if numbers is not None and fn.number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            values, detail = fn()
            names = {name for num, name in GATES if num == fn.number}
            if set(values) != names:  # a misspelt name must not skip its gate
                raise ValueError(f"values {sorted(values)} are not the gates {sorted(names)}")
            wins = [(name, v, *GATES[fn.number, name]) for name, v in values.items()]
            ok = all(lo <= v <= hi for _, v, lo, hi in wins)  # NaN lies in no window
            detail += "".join(f"; {name} {v:.6g} {'in' if lo <= v <= hi else 'OUTSIDE'} "
                              f"[{lo:g}, {hi:g}]" for name, v, lo, hi in wins)
        except Exception as exc:  # a crashed criterion is a failed criterion
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if seconds > fn.budget:
            ok, detail = False, f"{detail}; over budget"
        res = CriterionResult(fn.number, fn.crit_name, bool(ok), seconds, fn.budget, detail)
        results.append(res)
        if stream is not None:
            print(res.line(), file=stream, flush=True)
    return results
