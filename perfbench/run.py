"""twofluid benchmark: one workload per process, outputs checked.

    python3 perfbench/run.py --workload {evolve,analyse,census} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the workload's fixed work list runs for the number of
whole rounds whose solve time comes nearest S seconds (at least one round,
counted from the first); every first-call cache is emptied before each
round.  It reports the end-to-end metrics of BENCHMARK.json: ``setup_s`` (median over fresh child processes of
the time from process start to the first timed call), ``solve_s`` (median
round) and ``peak_rss_mb``.  The process and its set-up children run on one
CPU (see ``_pin_to_one_cpu``).  ``fail_frac`` (failed checks / checks attempted)
is printed in the summary and carried by ``failed``/``attempted``.

With ``--trace 1`` every workload runs one traced round, then every probe
pass; the per-layer metrics of BENCHMARK.json are reported, with
``trace.overhead_frac`` for the selected workload, and the raw spans are
written to ``perfbench/out/``.

The last line of standard output is the JSON result; the line before it is
the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
HELD_OUT_SEED = 1303  # kept out of tuning; for confirming later claims


def _pin_to_one_cpu() -> None:
    """Confine this process, its threads and its children to one CPU.

    twofluid's FFTs run one thread per CPU (``workers=-1``), so every
    transform waits for all CPUs.  On a shared host a CPU is taken away for
    milliseconds at a time (steal); on 2 vCPUs that stretched two-thread RK4
    steps by up to 1.6x while the same steps on one thread slowed by 1.1x.
    Pinning keeps the thread count the program chooses but takes the wait
    for a second CPU out of the measurement.  Must run before the FFT thread
    pool exists, since threads inherit the affinity they are created with.
    """
    if hasattr(os, "sched_setaffinity"):  # Linux only
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program():
    """Import twofluid from this checkout's src/ and nowhere else."""
    if not (SRC / "twofluid" / "__init__.py").is_file():
        sys.exit(f"benchmark: no twofluid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twofluid

    if Path(twofluid.__file__).resolve().parent != SRC / "twofluid":
        sys.exit(f"benchmark: imported twofluid from {twofluid.__file__}, not {SRC}")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("evolve", "analyse", "census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _references(workload: str, seed: int, size: str) -> dict:
    """Seed-commit references for this workload; seed-dependent ones
    (keyed by seed under "seeds") only where this seed was recorded."""
    if size != "full":
        return {}
    out = {}
    for key, entry in json.loads((HERE / "references.json").read_text())[workload].items():
        if "seeds" not in entry:
            out[key] = entry
        elif str(seed) in entry["seeds"]:
            out[key] = {"series": entry["seeds"][str(seed)],
                        "tolerance_rel": entry["tolerance_rel"]}
    return out


def _setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    t0 = time.time()  # the child reports its ready time on the same clock
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    word, _, stamp = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"setup child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(stamp) - t0


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, extra: dict) -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "twofluid").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # twofluid passes workers=-1, i.e. one FFT thread per CPU
        "scipy_fft_workers": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "scipy_fft_default_workers": scipy.fft.get_workers(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": args.size,
        **extra,
    }


def _round(wl, inp, ctx):
    """One round of a workload's work list, after emptying first-call caches."""
    from workloads import reset_caches

    reset_caches(inp["grids"])
    wl.run(inp, ctx)
    return ctx


def _timed(args):
    """Untraced rounds of one workload; the end-to-end metrics."""
    from spans import Tracer
    from workloads import WORKLOADS, Ctx

    wl = WORKLOADS[args.workload]
    refs = _references(args.workload, args.seed, args.size)
    inp = wl.inputs(args.seed, args.size)
    setup = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    solve, attempted, failed, first, values = [], 0, [], None, {}
    rounds = 1
    while len(solve) < rounds:
        ctx = _round(wl, inp, Ctx(Tracer(False), refs, first))
        solve.append(ctx.solve_s)
        attempted += ctx.attempted
        failed += ctx.failed
        if first is None:
            first, values = ctx.fingerprint, ctx.values
            # as many whole rounds as come nearest to --seconds
            rounds = max(1, round(args.seconds / ctx.solve_s))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the median round, not the fastest: over five minutes of one-thread RK4
    # steps the fastest step of each 15-30 s window spread 0.17-0.21, the
    # median step 0.04-0.09
    metrics = {"setup_s": statistics.median(setup), "solve_s": statistics.median(solve),
               "peak_rss_mb": peak}
    extra = {"rounds": len(solve), "solve_rounds_s": solve, "setup_samples_s": setup,
             "values": values, "failed_checks": failed}
    return metrics, attempted, failed, extra


def _layer_value(name, stats, values, inputs, overhead, fail_frac):
    """Value of one per-layer metric from span stats and reported values."""
    if name in values:
        return values[name]
    if name == "trace.overhead_frac":
        return overhead
    if name == "bench.fail_frac":
        return fail_frac
    if name == "spectral.fft.n32.gb_per_s":
        moved = sum(stats[s]["calls"] * b for s, b in inputs["evolve"]["fft_bytes"].items())
        busy = sum(stats[s]["self_s"] for s in inputs["evolve"]["fft_bytes"])
        return moved / busy / 1e9
    if name == "decay.kernel_sup.calls":
        return float(sum(r["calls"] for s, r in stats.items() if s.startswith("decay.kernel_sup.")))
    if name == "decay.nonlinear_decay_experiment.linear64.per_sample_s":
        row = stats["decay.nonlinear_decay_experiment.linear64"]
        return row["self_s"] / row["calls"] / inputs["analyse"]["cfg"]["mon_samples"]
    if name == "resonance.verify_case_partition.mpoints_per_s":
        row = stats["resonance.verify_case_partition"]
        return values["resonance.verify_case_partition.points"] * row["calls"] / row["self_s"] / 1e6
    if name == "diagonal.nonlinearity_multiplier.n18.p50_s":
        return stats["diagonal.nonlinearity_multiplier.n18"]["p50_ms"] / 1e3
    if name == "diagonal.nonlinearity_multiplier.n18.mpairs_per_s":
        row = stats["diagonal.nonlinearity_multiplier.n18"]
        return values["diagonal.nonlinearity_multiplier.n18.pairs"] / row["self_s"] / 1e6
    if name.startswith("dispersion.") and name.endswith(".mpts_per_s"):
        row = stats[name[: -len(".mpts_per_s")]]
        return inputs["census"]["radii"] / (row["p50_ms"] / 1e3) / 1e6
    span, stat = name.rsplit(".", 1)
    return float(stats[span][stat])


def _traced(args, names):
    """One traced round of every workload, then every probe pass."""
    from spans import Tracer, span_cost
    from workloads import WORKLOADS, Ctx

    tracer = Tracer(True)
    inputs = {w: wl.inputs(args.seed, args.size) for w, wl in WORKLOADS.items()}
    rounds = {}
    for w, wl in WORKLOADS.items():
        before = len(tracer.spans)
        rounds[w] = _round(wl, inputs[w], Ctx(tracer, _references(w, args.seed, args.size), None))
        if w == args.workload:
            spans_in_round = len(tracer.spans) - before
    for w, wl in WORKLOADS.items():
        wl.probe(inputs[w], tracer)

    attempted = sum(ctx.attempted for ctx in rounds.values())
    failed = [name for ctx in rounds.values() for name in ctx.failed]
    values = {k: v for ctx in rounds.values() for k, v in ctx.values.items()}
    # Traced minus untraced solve_s is exactly the spans' own cost (Ctx.call
    # times the span enter and exit); timing that cost on empty spans
    # resolves it, where a second untraced round would drown it in noise.
    traced = rounds[args.workload].solve_s
    added = spans_in_round * span_cost()
    overhead = added / (traced - added)
    stats = tracer.stats()
    fail_frac = len(failed) / attempted
    metrics = {name: _layer_value(name, stats, values, inputs, overhead, fail_frac)
               for name in names}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)), "values": values,
             "traced_solve_s": traced, "spans_in_round": spans_in_round,
             "failed_checks": failed}
    return metrics, attempted, failed, extra


def main(argv=None) -> int:
    args = _args(argv)
    _pin_to_one_cpu()
    _import_program()
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload].inputs(args.seed, args.size)
        print("ready", repr(time.time()), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, attempted, failed, extra = _traced(args, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics, attempted, failed, extra = _timed(args)
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    fail_frac = len(failed) / attempted
    for name in names:
        print(f"{name:58s} {metrics[name]:.6g} {units[name]}")
    print(f"{'fail_frac':58s} {fail_frac:.6g} 1  ({len(failed)} of {attempted} checks failed"
          + (f": {', '.join(failed)})" if failed else ")"))
    print(json.dumps({"env": _environment(args, extra)}, default=float))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
