"""Run every command of each source tree twice with one fixed config and
print the SHA-256 of every output file; exit 1 when a tree disagrees with
itself or with the first tree.

    python3 tools/digest.py head=. parent=../parent-checkout

Each run works in a fresh temporary directory, with `<tree>/src` first on the
path: `synth` for the three profiles, `train` and `generate` per track with a
tiny model, `evaluate` per track at `--base` 1 and 2.5, `value` over the three
tracks, and `value` again with state-of-charge targets 2 -> 8, so that every
bidding LP runs phase 1. One JSON line per tree gives each file's hash, plus
CRPS (%), MAE-r (pp) and the value aggregates (EUR). Hashes depend on numpy's
BLAS kernels, so compare trees on one machine.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRACKS = {"pv": "sine_pv", "wind": "ramp_wind", "load": "bimodal_load"}
TINY = {"schedule": {"n": 20, "beta_end": 0.5}, "model": {"hidden": [16], "embed_dim": 8},
        "optimizer": {"epochs": 2}, "m_scenarios": 10}
UNEQUAL_SOC = {"retailer": {"soc_start": 2.0, "soc_end": 8.0}}


def _run(src: Path, work: Path) -> dict:
    """One pass of every command in `work`; returns {file: sha256} and figures."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*argv):
        subprocess.run([sys.executable, "-m", "scendiff.cli", *argv], cwd=work, env=env,
                       check=True, stdout=subprocess.DEVNULL)

    (work / "config").mkdir()  # the configs are inputs, so they are not hashed
    value_args = []
    for track, profile in TRACKS.items():
        cli("synth", "--profile", profile, "--days", "80", "--seed", "1", "--out", f"{track}.csv")
        (work / f"config/{track}.json").write_text(json.dumps({**TINY, "track": track,
                                                               "data": f"{track}.csv"}))
        out = f"out_{track}"
        for command in ("train", "generate"):
            cli(command, "--config", f"config/{track}.json", "--seed", "1", "--out", out)
        scen, obs = f"{out}/scenarios_{track}_z1.csv", f"{out}/observations_{track}_z1.csv"
        for base in ("1", "2.5"):
            cli("evaluate", "--scenarios", scen, "--observations", obs, "--base", base,
                "--out", f"evaluate_{track}_{base}")
        value_args += [f"--scenarios-{track}", scen, f"--obs-{track}", obs]
    (work / "config/unequal_soc.json").write_text(json.dumps(UNEQUAL_SOC))
    cli("value", "--out", "value", *value_args)
    cli("value", "--config", "config/unequal_soc.json", "--out", "value_unequal_soc",
        *value_args)

    files = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.rglob("*")) if p.is_file() and p.parent.name != "config"}
    quality = {p.parent.name: json.loads(p.read_text()) for p in work.glob("evaluate_*/*.json")}
    values = {p.parent.name: json.loads(p.read_text())["aggregate"]
              for p in work.glob("value*/value_report.json")}
    return {"files": files,
            "crps_pct": {k: q["crps_pct"] for k, q in sorted(quality.items())},
            "mae_r_pp": {k: q["mae_r_pp"] for k, q in sorted(quality.items())},
            "value": dict(sorted(values.items()))}


def _differ(a: dict, b: dict) -> list:
    return sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="NAME=DIR")
    args = p.parse_args()
    trees = [(name, Path(d).resolve()) for name, _, d in (t.partition("=") for t in args.trees)]
    failed = False
    first = None
    for name, root in trees:
        runs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
                runs.append(_run(root / "src", Path(tmp)))
        print(json.dumps({"tree": name, **runs[0]}), flush=True)
        for other, what in ((runs[1], "its own second run"), (first, f"tree {trees[0][0]}")):
            bad = _differ(runs[0]["files"], other["files"]) if other else []
            if bad:
                failed = True
                print(f"{name} differs from {what} in: {', '.join(bad)}", file=sys.stderr)
        first = first or runs[0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
