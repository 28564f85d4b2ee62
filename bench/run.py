"""Run one scendiff benchmark workload and print its result line.

    python3 bench/run.py --workload pv_backtest --seed 1 --seconds 10 --trace 0

Drives the real CLI in-process through `scendiff.cli.main(argv)`, one command
after another (a closed loop with one client), on inputs made from --seed.
Set-up runs several times and reports its median. The timed command sequence
then repeats until --seconds have passed. With --trace 0 the result carries
the end-to-end metrics; with --trace 1 untraced and traced iterations take
turns, and the result carries the per-layer metrics of the traced ones.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run manifest and the workload's own figures. Exit
code 2 means no result: the package sources under src/ are missing or the
arguments are bad.
"""
from __future__ import annotations

import os

# one BLAS thread, as in the ROADMAP baseline; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have passed
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 12, 2.0
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def import_package():
    """Import scendiff from this checkout's src/, never from elsewhere."""
    if not (SRC / "scendiff" / "__init__.py").is_file():
        raise ImportError(f"no scendiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scendiff
    from scendiff import cli, data, diffusion, metrics, nn, simplex, value  # noqa: F401

    if Path(scendiff.__file__).resolve().parent != (SRC / "scendiff").resolve():
        raise ImportError(f"scendiff imported from {scendiff.__file__}, not {SRC}")
    return scendiff


def _git_sha() -> str | None:
    """HEAD commit read from .git without running git (None outside a clone)."""
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


def manifest(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def call_cli(cli, argv) -> tuple[int, list[str], str]:
    """Run one CLI command; returns (exit code, printed paths, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        code, err = 1, io.StringIO(traceback.format_exc())
    return code, out.getvalue().split(), err.getvalue().strip()


def run_iteration(cli, wl, ctx, out: Path) -> tuple[dict, dict, int]:
    """Timed commands of one iteration, then the checks on their outputs.

    Returns (seconds per command, failure messages per command, attempted).
    """
    times, bad = {}, {}
    attempted = 0
    for name, argv in wl.commands(ctx, out):
        attempted += 1
        t0 = time.perf_counter()
        code, printed, err = call_cli(cli, argv)
        times[name] = time.perf_counter() - t0
        if code != 0:
            bad[name] = [f"exit {code}: {err}"]
            return times, bad, attempted
        missing = [p for p in printed if not Path(p).exists()]
        if missing:
            bad[name] = [f"printed paths that do not exist: {missing}"]
    try:
        for name, msgs in wl.check(ctx, out).items():
            bad.setdefault(name, []).extend(msgs)
    except Exception as e:  # outputs of an unexpected shape fail the check
        bad.setdefault("check", []).append(f"could not check outputs: {e!r}")
    return times, {k: v for k, v in bad.items() if v}, attempted


def set_up(wl, work: Path, seed: int) -> tuple[dict, list]:
    """Make the workload's inputs several times, each over the last; returns
    the context and the time of each repeat."""
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        gc.collect()
        t0 = time.perf_counter()
        ctx = wl.setup(work / "inputs", seed)
        setup_s.append(time.perf_counter() - t0)
    return ctx, setup_s


def main(argv=None) -> int:
    sd = import_package()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(sd, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(sd, workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; `sd` is the package returned by import_package()."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    wl = cls(cls.SMOKE if smoke else cls.FULL)
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx, setup_s = set_up(wl, work, seed)
        tracer = Tracer(layers.wrap_list(sd)) if trace else None
        timed: list[tuple[bool, float]] = []  # (traced, wall) of timed iterations
        per_cmd: dict[str, list] = {}
        failures: list[str] = []
        attempted = failed = 0
        certs = {"certified": 0, "cert_failed": 0}  # planner LPs so far
        cold_wall_s = None
        k = 0
        while True:
            # Iteration 0 pays the process's one-off costs (fresh heap pages,
            # first calls). It is checked but not timed; see cold_wall_s.
            # With tracing, every traced iteration sits between two untraced
            # ones, so the overhead estimate cancels a linear drift in speed.
            traced = trace and k > 0 and k % 2 == 0
            out = work / f"iter{k}"
            gc.collect()  # so no iteration collects its predecessor's garbage
            paused = tracer.excluded_s if traced else 0.0
            with tracer.installed() if traced else contextlib.nullcontext():
                times, bad, n = run_iteration(sd.cli, wl, ctx, out)
            wall = sum(times.values())
            if traced:
                wall -= tracer.excluded_s - paused
                large = tracer.stats.get("simplex.simplex_solve.large")
                now = {c: large.counters.get(c, 0) if large else 0 for c in certs}
                if now["cert_failed"] > certs["cert_failed"]:
                    bad.setdefault("value", []).append(
                        f"{now['cert_failed'] - certs['cert_failed']} planner LPs "
                        "failed verify_certificate")
                if wl.PLANNER_LPS and now["certified"] == certs["certified"]:
                    bad.setdefault("value", []).append("no planner LP was certified")
                certs = now
            shutil.rmtree(out, ignore_errors=True)
            attempted += n
            failed += len(bad)
            failures += [f"iteration {k} {cmd}: {m}" for cmd, msgs in bad.items() for m in msgs]
            if failures:
                break  # a failing workload would fail again; do not spend the budget
            if k == 0:
                cold_wall_s = wall
                t_start = time.perf_counter()
            else:
                timed.append((traced, wall))
                if not traced:
                    for cmd, t in times.items():
                        per_cmd.setdefault(cmd, []).append(t)
            k += 1
            if (time.perf_counter() - t_start >= seconds and timed and not timed[-1][0]
                    and (not trace or len(timed) >= 3)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = {t: [w for tr, w in timed if tr == t] for t in (False, True)}
    ok = not failures and bool(walls[False]) and (not trace or bool(walls[True]))
    if trace:
        overhead = 100.0 * (statistics.median(
            w / (timed[i - 1][1] + timed[i + 1][1]) * 2
            for i, (tr, w) in enumerate(timed) if tr) - 1.0) if ok else 0.0
        values = layers.per_layer_metrics(tracer.stats, len(walls[True]) or 1, overhead)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": statistics.median(walls[False]) if ok else 0.0,
                  "setup_s": statistics.median(setup_s), "peak_rss_mb": rss_kib * 1024 / 1e6}
        units = dict(END_TO_END)
    figures = {}
    if ok:
        cmd_med = {cmd: statistics.median(t) for cmd, t in per_cmd.items()}
        figures = {**wl.figures(ctx, cmd_med),
                   "error_rate": failed / attempted,
                   **{f"{cmd}_s": t for cmd, t in cmd_med.items()}}
    info = {"workload": workload, "trace": int(trace), "manifest": manifest(seed),
            "figures": figures, "setup_s_reps": setup_s, "cold_wall_s": cold_wall_s,
            "iteration_wall_s": walls[False],
            "traced_iteration_wall_s": walls[True], "failures": failures}
    for msg in failures:
        print(msg, file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name] if ok else 0.0, "unit": unit}
                          for name, unit in units.items()}}
    return result


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as e:
        print(f"bench: cannot import the package: {e}", file=sys.stderr)
        sys.exit(2)
