"""Plant one-line defects in a copy of the package and see which tier-1 kills.

Each entry of ``DEFECTS`` is (name, file, old text, new text).  The old text
must occur exactly once in its file.  For each defect the script copies
``src/``, ``tests/``, ``perfbench/`` (read by ``tests/test_exports.py``) and
``pyproject.toml`` into a temporary directory, applies that one defect and
runs tier-1 there with ``-x``.  A defect is killed when tier-1 fails on it
and survives when tier-1 passes.  An unchanged copy runs first, and the
script stops if it does not pass.  A survivor needs a test that kills it, or
a reason why it is equivalent to the original code.

Usage, from the repository root:

    python tools/plant_defects.py            # every defect, one at a time
    python tools/plant_defects.py NAME ...   # only the named defects

The exit status is 1 if any defect survived.  The run takes about as long
as one tier-1 run per defect, at most.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 1200

PHYSICS = "src/twofluid/physics.py"
DIAGONAL = "src/twofluid/diagonal.py"
DECAY = "src/twofluid/decay.py"
SPECTRAL = "src/twofluid/spectral.py"
RESONANCE = "src/twofluid/resonance.py"
DISPERSION = "src/twofluid/dispersion.py"
ACCEPTANCE = "src/twofluid/acceptance.py"

DEFECTS = (
    ("radial_kernel 4 pi -> 2 pi", DECAY,
     "return 4.0 * np.pi * h * out", "return 2.0 * np.pi * h * out"),
    ("v tendency E / eps -> E", PHYSICS,
     "np.subtract(grad(g, pot_e), E / eps, out=out.v)",
     "np.subtract(grad(g, pot_e), E, out=out.v)"),
    ("_products without the dealias mask", PHYSICS,
     "return np.multiply(hat, g.half.dealias_mask, out=hat)", "return hat"),
    ("_row_search half-open range", RESONANCE,
     "((lo <= bound) & (hi >= -bound))", "((lo < bound) & (hi >= -bound))"),
    ("_ANCHORS 25 -> 9", DECAY, "_ANCHORS = 25", "_ANCHORS = 9"),
    ("Ampere law 1.001 Ji", PHYSICS,
     "curl(g, state.B) + Je - Ji", "curl(g, state.B) + Je - 1.001 * Ji"),
    ("MANIFOLD_RTOL 16 -> 1024 roundings", PHYSICS,
     "MANIFOLD_RTOL = 16 * 2.0**-53", "MANIFOLD_RTOL = 1024 * 2.0**-53"),
    ("fold cluster w[-8, 3] -> w[-4, 3]", DECAY,
     "np.linspace(-8.0, 3.0, 28)", "np.linspace(-4.0, 3.0, 28)"),
    ("stationary_xs lambda_i''' doubled", DECAY,
     "lam_second(\"i\", s0 - h, p)) / (2 * h)", "lam_second(\"i\", s0 - h, p)) / h"),
    ("hermitize without conj", SPECTRAL,
     "0.5 * (planes + np.conj(_negate_modes(planes, (-3, -2))))",
     "0.5 * (planes + _negate_modes(planes, (-3, -2)))"),
    ("Nyquist zeroing skips the last axis", SPECTRAL,
     "coef[..., h, :, :] = coef[..., :, h, :] = coef[..., h] = 0.0",
     "coef[..., h, :, :] = coef[..., :, h, :] = 0.0"),
    ("random_real_field plain norm of the half layout", SPECTRAL,
     "norm = l2_norm(grid, coef)",
     "norm = (2.0 * grid.box_half / grid.n) ** 1.5 * np.linalg.norm(coef)"),
    ("_products n and rho factors swapped", PHYSICS,
     "v_p *= phys[0]\n    u_p *= phys[1]", "v_p *= phys[1]\n    u_p *= phys[0]"),
    ("nonlinearity_direct -1/2 -> -1 on |v|^2", DIAGONAL,
     "-0.5 * sym.r * hat[0]", "-1.0 * sym.r * hat[0]"),
    ("nonlinearity_direct E row Je + Ji", DIAGONAL,
     "-0.5 * sym.r * hat[1], Je - Ji)", "-0.5 * sym.r * hat[1], Je + Ji)"),
    ("nonlinearity_direct M rows not hermitized", DIAGONAL,
     "d.buf[7:10] = hermitize(d.buf[7:10])", "d.buf[7:10] = d.buf[7:10]"),
    ("_SIGNS same +- third sign flipped", DIAGONAL,
     "(\"same\", \"+\", \"-\"): (-1.0, 1.0, -1.0)", "(\"same\", \"+\", \"-\"): (-1.0, 1.0, 1.0)"),
    ("dispersive rows M_b sign", DIAGONAL,
     "M[2:] = -0.5 * q2_apply(tab, E)", "M[2:] = 0.5 * q2_apply(tab, E)"),
    ("from_dispersive u from +2a", DIAGONAL,
     "c.u = riesz(box, gg) - 2.0 * a", "c.u = riesz(box, gg) + 2.0 * a"),
    ("support box without mode 0", DIAGONAL,
     "sx, sy, sz = np.union1d(sx, 0), np.union1d(sy, 0), np.arange(max(sz.size, 1))",
     "sz = np.arange(max(sz.size, 1))"),
    ("support box of the first row only", DIAGONAL,
     "sx, sy, sz, sub = _support(grid, buf)\n        if not sz.size or sx[0] or sy[0]:",
     "sx, sy, sz, sub = _support(grid, buf[:1])\n        if True:"),
    ("box norm without the Hermitian multiplicity", DIAGONAL,
     "math.sqrt(float(np.sum(sq * self.weight)))", "math.sqrt(float(np.sum(sq)))"),
    ("rhs -1/2 -> -1 on |v|^2", PHYSICS,
     "pot_e -= 0.5 * hat[0]", "pot_e -= 1.0 * hat[0]"),
    ("rhs ion current from rho u only", PHYSICS,
     "hat[2:8] += state.buf[2:8]", "hat[2:5] += state.buf[2:5]"),
    ("electron pressure T / eps -> T", PHYSICS,
     "-(T / eps) * state.n", "-T * state.n"),
    # constants, bounds and acceptance gates
    ("BETA 0.01 -> 0.02", SPECTRAL, "BETA = 0.01", "BETA = 0.02"),
    ("D_WINDOW (4, 48) -> (4, 40)", RESONANCE, "D_WINDOW = (4, 48)", "D_WINDOW = (4, 40)"),
    ("_smoothstep exp(-1/t) -> exp(-2/t)", SPECTRAL,
     "s = np.exp(-1.0 / t)", "s = np.exp(-2.0 / t)"),
    ("D_NUM 10 -> 9", RESONANCE, "\nD_NUM = 10\n", "\nD_NUM = 9\n"),
    ("CFL_SAFETY 0.5 -> 0.6", PHYSICS, "CFL_SAFETY = 0.5", "CFL_SAFETY = 0.6"),
    ("radial_kernel without the Jacobian s", DECAY,
     "amp = s * w[lo:hi]", "amp = w[lo:hi].copy()"),
    ("_row_search without ~mono", RESONANCE,
     "np.nonzero(~mono | ((lo <= bound) & (hi >= -bound)))",
     "np.nonzero((lo <= bound) & (hi >= -bound))"),
    ("_xi2 without iota2", RESONANCE,
     "(2.0 * spec.iota1 * spec.iota2) * a * b * cosb", "(2.0 * spec.iota1) * a * b * cosb"),
    ("criterion [6] window 20 -> 30", ACCEPTANCE,
     '(6, "ratio"): (12.0, 20.0)', '(6, "ratio"): (12.0, 30.0)'),
    ("criterion [10] drift tolerance 0.2 -> 0.5", ACCEPTANCE,
     '(10, "drift"): (0.0, 0.2)', '(10, "drift"): (0.0, 0.5)'),
    ("criterion [3] bound 1e-11 -> 1e-8", ACCEPTANCE,
     '(3, "worst field error"): (0.0, 1e-11)', '(3, "worst field error"): (0.0, 1e-8)'),
    ("criterion [5] floor 1e-12 -> 1e-9", ACCEPTANCE,
     '(5, "residual at dt"): (0.0, 1e-12)', '(5, "residual at dt"): (0.0, 1e-9)'),
    ("criterion [9] inflection window -1.35 -> -1.40", ACCEPTANCE,
     '"i k=1 (inflection shell)"): (-1.35, -1.15)',
     '"i k=1 (inflection shell)"): (-1.40, -1.15)'),
    ("criterion [6] value name misspelt", ACCEPTANCE,
     'return {"ratio": e1 / e2}', 'return {"ratoi": e1 / e2}'),
    ("criterion [3] running max by Python max, which drops a later NaN", ACCEPTANCE,
     "worst = np.maximum(worst, l2_norm(g, getattr(back, name) - a)",
     "worst = max(worst, l2_norm(g, getattr(back, name) - a)"),
    ("criterion [5] residual max by Python max, which drops a later NaN", ACCEPTANCE,
     "np.max(list(constraints(s, P).values()))", "max(constraints(s, P).values())"),
    ("IDENTITY_RTOL 1e-10 -> 1e-6", DISPERSION, "IDENTITY_RTOL = 1e-10", "IDENTITY_RTOL = 1e-6"),
    ("DECAY_TIMES 8 -> 6 points", ACCEPTANCE,
     "DECAY_TIMES = (1e2, 1e4, 8)", "DECAY_TIMES = (1e2, 1e4, 6)"),
    ("_BOUND_MARGIN -> 1", DECAY, "_BOUND_MARGIN = 1.0 + 1e-12", "_BOUND_MARGIN = 1.0"),
    # equivalent: every product on a row skipped at equality is at least its
    # bound, which equals the floor, so the floor cannot fall there
    ("_elliptic_floor bound <= floor -> <", RESONANCE,
     "rest = np.nonzero(bound <= floor)", "rest = np.nonzero(bound < floor)"),
    # options without a caller, which the caller guard of test_exports rejects
    ("rhs linear= again", PHYSICS,
     "kind: SystemKind = SystemKind.euler_maxwell, check: bool = True) -> PhysState:",
     "kind: SystemKind = SystemKind.euler_maxwell, linear: bool = False,\n"
     "        check: bool = True) -> PhysState:"),
    ("cfl_dt with an unpassed keyword", PHYSICS,
     "def cfl_dt(grid: Grid, p: PlasmaParams) -> float:",
     "def cfl_dt(grid: Grid, p: PlasmaParams, *, safety: float = CFL_SAFETY) -> float:"),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)


def _tier1(dest: Path) -> tuple[bool, float, str]:
    """Whether tier-1 passes in ``dest``, its wall time in seconds and the
    first test that failed ("" if none did)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - t0, f"timeout after {TIMEOUT_S} s"
    failed = [line.split()[1] for line in done.stdout.decode().splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, time.perf_counter() - t0, (failed or [""])[0]


def _run(defect=None) -> tuple[bool, float, str]:
    with tempfile.TemporaryDirectory(prefix="plant_defects_") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if defect is not None:
            _, rel, old, new = defect
            path = dest / rel
            path.write_text(path.read_text().replace(old, new))
        return _tier1(dest)


def main(names) -> int:
    chosen = [d for d in DEFECTS if not names or d[0] in names]
    unknown = set(names) - {d[0] for d in DEFECTS}
    if unknown:
        raise SystemExit(f"unknown defects: {sorted(unknown)}")
    for name, rel, old, _ in chosen:
        count = (ROOT / rel).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{name}: the old text occurs {count} times in {rel}, not once")
    ok, seconds, failed = _run()
    print(f"unchanged copy: {'passes' if ok else 'FAILS ' + failed} ({seconds:.0f} s)", flush=True)
    if not ok:
        return 2
    survivors = []
    for defect in chosen:
        passed, seconds, failed = _run(defect)
        verdict = "SURVIVED" if passed else f"killed by {failed or 'a non-zero exit'}"
        print(f"{defect[0]}: {verdict} ({seconds:.0f} s)", flush=True)
        if passed:
            survivors.append(defect[0])
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
