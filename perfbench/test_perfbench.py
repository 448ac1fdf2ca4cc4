"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark command as the benchmark contract does and check
that every declared metric is printed with its unit, that a corrupted
output is counted as a failed check, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """The benchmark command, as the contract runs it from a checkout root."""
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc.stdout)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    summary = proc.stdout.splitlines()
    for name, unit in [*want.items(), ("fail_frac", "1")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in summary)
    env = json.loads(summary[-2])["env"]
    assert len(env["cpu_affinity"]) == 1  # timed on one CPU (run._pin_to_one_cpu)


def test_trace_prints_every_per_layer_metric():
    proc = bench("--workload", "evolve", "--seed", "5", "--seconds", "0.1",
                 "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc.stdout)
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert (ROOT / env["spans_file"]).is_file()


def test_same_seed_same_inputs():
    a = workloads.analyse_inputs(9, "tiny")["states"][0]
    b = workloads.analyse_inputs(9, "tiny")["states"][0]
    c = workloads.analyse_inputs(10, "tiny")["states"][0]
    assert (a.v == b.v).all() and not (a.v == c.v).all()


def test_corrupted_output_counts_in_fail_frac(monkeypatch):
    honest = workloads.nonlinear_decay_experiment

    def corrupted(*args, **kw):
        out = honest(*args, **kw)
        if not kw.get("linear"):
            out["sup"] = out["sup"] * (1.0 + 1e-6)  # t = 0 no longer matches the linear flow
        return out

    monkeypatch.setattr(workloads, "nonlinear_decay_experiment", corrupted)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.main(["--workload", "evolve", "--seed", "5", "--seconds", "0.1",
                  "--trace", "0", "--size", "tiny"])
    res = result_of(buf.getvalue())
    assert not res["correct"] and res["failed"] >= 1
    assert "evolve.t0_matches_linear_flow" in buf.getvalue()


def test_raising_check_counts_as_failed():
    ctx = workloads.Ctx(Tracer(False), {}, None)
    ctx.check("ok", lambda: True)
    ctx.check("raises", lambda: {}["missing"])
    assert ctx.attempted == 2 and ctx.failed == ["raises"]


def test_hits_match_needs_equal_counts():
    table = {"e;i+,e+": {"-5,-12,-5": [53, 1e-6, 0.0]}}
    assert workloads.hits_match(table, json.loads(json.dumps(table)))
    assert not workloads.hits_match(table, {"e;i+,e+": {"-5,-12,-5": [52, 1e-6, 0.0]}})
    assert not workloads.hits_match(table, {"e;i+,e+": {}})


def test_self_time_excludes_children():
    tr = Tracer(True)
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.05)
    stats = tr.stats()
    assert stats["inner"]["self_s"] >= 0.05
    assert 0.02 <= stats["outer"]["self_s"] < 0.05
    assert stats["outer"]["p50_ms"] >= 70


def test_fails_without_program_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "references.json", bare / "perfbench")
    try:
        proc = bench("--workload", "evolve", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
