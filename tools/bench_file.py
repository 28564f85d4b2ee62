"""Run each benchmark workload untraced and traced on source trees in
alternating order; write BENCH_<name>.json per tree to the current directory.

    python3 tools/bench_file.py base=../parent-checkout new=. [--seed 1] [--seconds 10]
        [--pairs N] [--workload W ...]

Each run is `<tree>/bench/run.py --workload W --seed S --seconds T --trace 0|1`;
the file keeps its info line (manifest and workload figures) and result line.
Per workload, the untraced run repeats --pairs times and the traced run once,
and each next pair flips which tree goes first. At the end it prints, per workload
and end-to-end metric, each tree's median and quartiles over its untraced
runs, the last tree's median change against the first tree's, and in how
many pairs the last tree beats every other tree.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(spec: dict, names: list[str], runs: dict, workloads: list[str]) -> list[str]:
    """One text line per workload and end-to-end metric, over the untraced runs
    of correct results; a pair counts only when every tree's run is correct."""
    last = names[-1]
    lines = [f"{'workload':<12} {'metric':<12} "
             + " ".join(f"{name + ' median [q1, q3]':<30}" for name in names)
             + f" {'change':>8}  {last} wins"]
    for wl in workloads:
        untraced = {name: [r["result"] for r in runs[name]
                           if r["info"]["workload"] == wl and not r["info"]["trace"]]
                    for name in names}
        pairs = [dict(zip(names, results)) for results in zip(*untraced.values())
                 if all(r["correct"] for r in results)]
        if not pairs:
            lines.append(f"{wl:<12} no pair of correct runs")
            continue
        for metric in spec["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            values = {name: [p[name]["metrics"][key]["value"] for p in pairs] for name in names}
            stats = {name: _quartiles(v) for name, v in values.items()}
            cells = " ".join(f"{f'{m:.4g} [{q1:.4g}, {q3:.4g}]':<30}"
                             for q1, m, q3 in stats.values())
            first = stats[names[0]][1]
            change = f"{100 * (stats[last][1] - first) / first:+.1f}%" if first else "n/a"
            wins = sum(all(values[last][i] < values[n][i] if lower
                           else values[last][i] > values[n][i] for n in names[:-1])
                       for i in range(len(pairs)))
            lines.append(f"{wl:<12} {key:<12} {cells} {change:>8}  {wins}/{len(pairs)}")
    return lines


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="NAME=DIR")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--pairs", type=int, default=1,
                   help="untraced runs of each tree per workload (default 1)")
    p.add_argument("--workload", action="append", metavar="W",
                   help="run only this workload; repeat for more (default: all)")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    trees = [(name, Path(d).resolve()) for name, _, d in (t.partition("=") for t in args.trees)]
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]
                 if not args.workload or w["name"] in args.workload]
    unknown = set(args.workload or ()) - set(workloads)
    if unknown:
        p.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    runs = {name: [] for name, _ in trees}
    plan = [(wl, trace) for wl in workloads for trace in [0] * args.pairs + [1]]
    for k, (wl, trace) in enumerate(plan):
        for name, root in trees[::-1] if k % 2 else trees:  # alternate which tree runs first
            argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", wl, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
            info, result = (json.loads(line) for line in lines.splitlines()[-2:])
            runs[name].append({**info, "result": result})  # info is {"info": {...}}
    for name, _ in trees:
        Path(f"BENCH_{name}.json").write_text(json.dumps({"runs": runs[name]}, indent=1) + "\n")
    print("\n".join(summarize(spec, [name for name, _ in trees], runs, workloads)))


if __name__ == "__main__":
    main()
