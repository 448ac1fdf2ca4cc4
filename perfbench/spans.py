"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent) plus the process CPU time over the same
interval.  Spans are kept in a list and written out only when the run ends,
so recording costs two clock pairs and one list append per call.
Self time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; ``span`` is a no-op context when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "parent": parent, "start": time.perf_counter(),
               "cpu_start": time.process_time()}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp["parent"] is not None:
                children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
        out = []
        for i, sp in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(i, [])):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(sp["end"] - sp["start"] - covered)
        return out

    def stats(self) -> dict:
        """calls, self_s, p50_ms (and p90_ms from 100 calls) per span name."""
        selfs = self.self_times()
        by_name: dict[str, dict] = {}
        for sp, self_s in zip(self.spans, selfs):
            d = by_name.setdefault(sp["name"], {"durations": [], "self_s": 0.0,
                                                "wall": 0.0, "cpu": 0.0})
            dur = sp["end"] - sp["start"]
            d["durations"].append(dur)
            d["self_s"] += self_s
            d["wall"] += dur
            d["cpu"] += sp["cpu_end"] - sp["cpu_start"]
        out = {}
        for name, d in by_name.items():
            durs = d["durations"]
            row = {"calls": len(durs), "self_s": d["self_s"],
                   "p50_ms": 1e3 * statistics.median(durs),
                   "cpu_per_wall": d["cpu"] / d["wall"] if d["wall"] > 0 else 0.0}
            if len(durs) >= 100:
                row["p90_ms"] = 1e3 * statistics.quantiles(durs, n=10)[-1]
            out[name] = row
        return out

    def dump(self, path) -> None:
        """Write the raw spans, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [{"name": sp["name"], "parent": sp["parent"],
                 "start_s": sp["start"] - t0, "end_s": sp["end"] - t0,
                 "cpu_s": sp["cpu_end"] - sp["cpu_start"]} for sp in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def span_cost(n: int = 20000) -> float:
    """Seconds one recorded span adds over a disabled one, on empty bodies."""
    costs = []
    for enabled in (False, True):
        tr = Tracer(enabled)
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("empty"):
                pass
        costs.append((time.perf_counter() - t0) / n)
    return max(costs[1] - costs[0], 0.0)
