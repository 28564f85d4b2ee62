"""Smoke-size self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that every workload emits each metric named in BENCHMARK.json with
its unit, traced and untraced; that a traced run leaves no wrapper installed;
that self time is inclusive time minus child spans; and that the benchmark
exits non-zero without a result when the package sources are absent.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

import layers
import numpy as np
from spans import Tracer

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_metrics(sd, failures: list) -> None:
    from workloads import WORKLOADS

    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    expect(sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload", failures)
    for name in WORKLOADS:
        for trace in (0, 1):
            originals = {(m.__name__, a): getattr(m, a) for m, a, *_ in layers.wrap_list(sd)}
            res = run.run(sd, name, seed=3, seconds=0.05, trace=bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            tag = f"{name} trace={trace}"
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: correct with no failed command", failures)
            expect(got == wanted[trace], f"{tag}: every metric emitted with its unit", failures)
            expect(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                   f"{tag}: all values finite", failures)
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{tag}: end-to-end values are positive", failures)
            restored = all(getattr(sys.modules[mod], a) is fn for (mod, a), fn in originals.items())
            expect(restored, f"{tag}: no wrapper left installed", failures)


def check_self_time(failures: list) -> None:
    mod = types.ModuleType("fake")
    mod.child = lambda: time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        mod.child()

    mod.parent = parent
    tracer = Tracer([(mod, "parent", "p", None, None), (mod, "child", "c", None, None)])
    with tracer.installed():
        mod.parent()
    p, c = tracer.stats["p"], tracer.stats["c"]
    expect(abs(p.self_s - (p.s - c.s)) < 1e-9 and 0.005 < p.self_s < c.s,
           "self time is inclusive time minus child spans", failures)


def check_sorted_crps(sd, failures: list) -> None:
    from workloads import sorted_sample_crps

    rng = np.random.default_rng(0)
    x, y = rng.random((37, 24)), rng.random(24)
    expect(abs(sorted_sample_crps(x, y) - sd.metrics.crps(x, y)[1]) < 1e-12,
           "sorted-sample CRPS agrees with metrics.crps", failures)


def check_bare_directory(failures: list) -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result", failures)


def main() -> int:
    sd = run.import_package()
    failures: list[str] = []
    check_self_time(failures)
    check_sorted_crps(sd, failures)
    check_metrics(sd, failures)
    check_bare_directory(failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
