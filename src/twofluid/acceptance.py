"""Quantitative acceptance suite.

Ten numbered criteria, each a standalone runner with a wall-clock budget.
Every caller, the pytest suite included, dispatches through :func:`run`; a
criterion that raises, misses its tolerance, or blows its budget fails.
Runners use fixed seeds so reruns are bit-identical.
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
        if not rep.passed:
            return False, rep.summary()
    return True, f"5 parameter triples, 200 radii each, worst residual {worst:.1e}"


@_criterion(2, "branch inequalities", 10.0)
def _inequalities():
    rep = verify_tech99(P)
    if not rep.passed:
        return False, rep.summary()
    return True, "zero violations on the 10^4-point grid"


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
            worst = max(worst, l2_norm(g, getattr(back, name) - a) / l2_norm(g, a))
    return worst <= 1e-11, f"20 states at 64^3, worst field error {worst:.1e} (tol 1e-11)"


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
            worst = max(worst, l2_norm(g, a - b) / l2_norm(g, a))
    return worst <= 1e-9, f"10 states, all three components, worst {worst:.1e} (tol 1e-9)"


@_criterion(5, "constraint propagation", 300.0)
def _constraint_propagation():
    # RK4 commutes with the linear constraint algebra on the grid, so the
    # residuals stay at assembly roundoff and the dt-halving ratio carries
    # no signal; a drift at the constructor floor passes outright
    g = Grid(CONSTRAINT_N)
    rng = np.random.default_rng(117)
    s0 = random_irrotational(g, P, rng, amplitude=1e-3, kmax=4)
    steps, dt, floor = CONSTRAINT_STEPS, 1e-3, 1e-12
    drift = {}
    for half in (1, 2):
        *_, s = integrate(s0, [steps * dt], dt / half, P)
        drift[half] = max(constraints(s, P).values())
    ratio = drift[1] / drift[2] if drift[2] > 0 else np.inf
    ok = (drift[1] <= floor and drift[2] <= floor) or ratio >= 12.0
    how = "roundoff floor" if drift[1] <= floor else f"ratio {ratio:.1f}"
    return ok, f"max residual {drift[1]:.1e} (dt) / {drift[2]:.1e} (dt/2), {how}"


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
    ratio = e1 / e2
    ok = 12.0 <= ratio <= 20.0
    return ok, f"errors {e1:.2e} -> {e2:.2e} under dt halving, ratio {ratio:.2f} (want [12, 20])"


@_criterion(7, "near-resonance partition", 1800.0)
def _partition():
    rep = verify_case_partition(
        P, shells=range(-8, 5), D_num=10, resolution=(1024, 512, 256), refine=True
    )
    # triples admitted only above D_num are reported with the D window that
    # admits them; an empty window would be a genuine classification failure
    windows_ok = all(bool(wins) for _, _, wins in rep.violations)
    ok = rep.ok and windows_ok
    hit = [shells for shells in rep.hits.values() if shells]
    samples = sum(v[0] for shells in hit for v in shells.values())
    return ok, (
        f"{len(hit)} phases with hits, {samples} near-resonant samples in "
        f"{sum(map(len, hit))} home triples, {len(rep.sell_or_nr_hits)} elliptic hits, "
        f"{len(rep.violations)} admitted only above D_num, "
        f"{len(rep.unresolved)} unresolved"
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
            worst = max(worst, float(np.linalg.norm(grad, axis=0).max()))
    even = PhaseSpec("b", "e+", "e+")
    probe = np.array([0.44, -1.3, 0.27])
    exact_split = np.array_equal(p_res(even, probe, P), 0.5 * probe)
    # the zeros of Psi carry the proved c-tilde signs
    ctilde = sum(row["agree"] for row in ctilde_report(P).values())
    # case-B roots at s = R_sigma (1 +- 1/2), inside the 2^{-D/5} window: the
    # root solves its equation, and s - r has the sign of s - R_sigma
    caseB = 0
    for sp in sorted(T_B, key=lambda spec: spec.key):
        R = find_R_sigma(sp.branch2, P)
        for s in (0.5 * R, 1.5 * R):
            d = caseB_r(sp, s, P)
            caseB += abs(d["residual"]) <= 1e-12 and np.sign(s - d["r"]) == np.sign(s - R)
    ok = worst <= 1e-10 and exact_split and ctilde == len(T_A_ORDERED) and caseB == 2 * len(T_B)
    return ok, (
        f"13 phases x 2 orders x 100 radii, worst |Xi| {worst:.1e} (tol 1e-10); "
        f"equal-branch split exact: {exact_split}; "
        f"c-tilde signs agree on {ctilde}/{len(T_A_ORDERED)} phases; "
        f"case-B roots {caseB}/{2 * len(T_B)} (residual <= 1e-12, s - r signed as s - R)"
    )


@_criterion(9, "kernel decay exponents", 600.0)
def _decay_exponents():
    ts = np.geomspace(*DECAY_TIMES)
    ladders = (
        ("e k=0", "e", 0, -1.6, -1.4),
        ("b k=0", "b", 0, -1.6, -1.4),
        ("i k=-3", "i", -3, -1.6, -1.4),
        ("i k=1 (inflection shell)", "i", 1, -1.35, -1.15),
    )
    parts, ok = [], True
    for label, branch, k, lo, hi in ladders:
        sups = np.array([kernel_sup(KernelQuery(branch, k, t), P) for t in ts])
        ex = decay_fit(ts, sups)["exponent"]
        good = lo <= ex <= hi
        ok = ok and good
        parts.append(f"{label}: {ex:+.4f} {'ok' if good else f'FAIL [{lo:+.2f},{hi:+.2f}]'}")
    ks = np.arange(-7, -1)
    sups = np.array([kernel_sup(KernelQuery("i", int(k), ts[-1]), P) for k in ks])
    slope = float(np.polyfit(ks, np.log2(sups), 1)[0])
    good = 0.4 <= slope <= 0.6
    ok = ok and good
    parts.append(f"i shell slope: {slope:+.4f} {'ok' if good else 'FAIL [+0.40,+0.60]'}")
    return ok, "; ".join(parts)


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
    rel = abs(f_const - c_const) / c_const
    ok = np.isfinite(c_const) and c_const > 0 and rel <= 0.2
    return ok, f"fitted constant {c_const:.4f} ({gc.n}^3) vs {f_const:.4f} ({gf.n}^3), drift {rel:.1%} (tol 20%)"


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
            ok, detail = fn()
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
