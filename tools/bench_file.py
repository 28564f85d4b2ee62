"""Run each benchmark workload untraced and traced on source trees in
alternating order; write BENCH_<name>.json per tree to the current directory.

    python3 tools/bench_file.py base=../parent-checkout new=. [--seed 1] [--seconds 10]

Each run is `<tree>/bench/run.py --workload W --seed S --seconds T --trace 0|1`;
the file keeps its info line (manifest and workload figures) and result line.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="NAME=DIR")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args()
    trees = [(name, Path(d).resolve()) for name, _, d in (t.partition("=") for t in args.trees)]
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    runs = {name: [] for name, _ in trees}
    for k, (wl, trace) in enumerate((w["name"], t) for w in spec["workloads"] for t in (0, 1)):
        for name, root in trees[::-1] if k % 2 else trees:  # alternate which tree runs first
            argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", wl, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
            info, result = (json.loads(line) for line in lines.splitlines()[-2:])
            runs[name].append({**info, "result": result})  # info is {"info": {...}}
    for name, _ in trees:
        Path(f"BENCH_{name}.json").write_text(json.dumps({"runs": runs[name]}, indent=1) + "\n")


if __name__ == "__main__":
    main()
