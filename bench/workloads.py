"""The benchmark's workloads: inputs made from a seed, the timed CLI commands,
and the checks on what those commands wrote.

Why each workload exists (see README.md for the layer map):

- pv_backtest: train, generate and evaluate on synthetic PV. `nn` and
  `diffusion` do most of the work and `simplex` none. 25 test days x 100
  scenarios is more than one 2,048-row sampler chunk, so chunking shows.
- pv_score: one evaluate over 1,000 days of true-law scenarios. The CSV
  readers and `metrics` do the work; neither `nn` nor `simplex` runs.
- value_study: one value run over 20 days of wind, PV and load. `simplex`
  does nearly all the work; `nn` does not run.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from scendiff import data, diffusion, value


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def sorted_sample_crps(x: np.ndarray, y: np.ndarray) -> float:
    """Energy-form CRPS via order statistics, mean over marginals.

    (1 / 2M^2) sum_ij |x_i - x_j| = (1 / M^2) sum_i (2i - M - 1) x_(i).
    """
    m = x.shape[0]
    w = (2.0 * np.arange(1, m + 1) - m - 1) / (m * m)
    return float(np.mean(np.abs(x - y).mean(axis=0) - w @ np.sort(x, axis=0)))


def _read_quality(out: Path) -> dict:
    return json.loads((out / "quality_report.json").read_text())


class PvBacktest:
    name = "pv_backtest"
    PLANNER_LPS = False  # whether traced iterations must certify planner LPs
    FULL = {"days": 2000, "fractions": [0.85, 0.1375, 0.0125], "epochs": 15,
            "hidden": [128, 128, 128], "n": 200, "beta_end": 0.05, "m": 100}
    SMOKE = {"days": 240, "fractions": [0.75, 0.2, 0.05], "epochs": 1,
             "hidden": [16], "n": 20, "beta_end": 0.5, "m": 10}

    def __init__(self, size: dict):
        self.size = size

    def setup(self, work: Path, seed: int) -> dict:
        sz = self.size
        work.mkdir(parents=True, exist_ok=True)
        csv_path = work / "pv.csv"
        data.write_csv(data.generate_synthetic(sz["days"], seed, "sine_pv"), csv_path)
        cfg = _write_json(work / "config.json", {
            "track": "pv", "data": str(csv_path), "seed": seed,
            "split": {"fractions": sz["fractions"]},
            "schedule": {"kind": "linear", "n": sz["n"], "beta_end": sz["beta_end"]},
            "model": {"hidden": sz["hidden"], "embed_dim": 32},
            "optimizer": {"epochs": sz["epochs"], "batch_size": 64},
            "m_scenarios": sz["m"],
        })
        return {"config": cfg, "sha256": None}

    def commands(self, ctx: dict, out: Path):
        common = ["--config", ctx["config"], "--out", str(out)]
        return [
            ("train", ["train", *common]),
            ("generate", ["generate", *common, "--m", str(self.size["m"])]),
            ("evaluate", ["evaluate", *common,
                          "--scenarios", str(out / "scenarios_pv_z1.csv"),
                          "--observations", str(out / "observations_pv_z1.csv")]),
        ]

    def check(self, ctx: dict, out: Path) -> dict:
        bad: dict[str, list] = {"generate": [], "evaluate": []}
        split = json.loads((out / "manifest_pv.json").read_text())["split"]
        test_days = sorted(d for d, s in split.items() if s == "test")
        scen_path = out / "scenarios_pv_z1.csv"
        per_day: dict[str, int] = {}
        with open(scen_path, newline="", encoding="utf-8") as f:
            for row in list(csv.reader(f))[1:]:
                per_day[row[0]] = per_day.get(row[0], 0) + 1
                vals = [float(v) for v in row[2:]]
                if len(vals) != data.HOURS or not all(
                        math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
                    bad["generate"].append(f"day {row[0]}: value outside [0, 1] or not finite")
                    break
        if sorted(per_day) != test_days or set(per_day.values()) != {self.size["m"]}:
            bad["generate"].append(f"expected {self.size['m']} rows for each of "
                                   f"{len(test_days)} test days")
        sha = hashlib.sha256(scen_path.read_bytes()).hexdigest()
        if ctx["sha256"] is None:
            ctx["sha256"] = sha
        elif sha != ctx["sha256"]:
            bad["generate"].append("scenario CSV differs from the first iteration's")
        rep = _read_quality(out)
        if rep["n_days"] != len(test_days) or not math.isfinite(rep["crps_pct"]):
            bad["evaluate"].append("quality report does not cover the test days")
        ctx["test_days"] = len(test_days)
        ctx["learn_days"] = sum(s == "learn" for s in split.values())
        ctx["quality"] = rep
        return bad

    def figures(self, ctx: dict, times: dict) -> dict:
        rep = ctx["quality"]
        return {
            "train_rows_per_s": ctx["learn_days"] * self.size["epochs"] / times["train"],
            "scenarios_per_s": ctx["test_days"] * self.size["m"] / times["generate"],
            "score_days_per_s": ctx["test_days"] / times["evaluate"],
            "crps_pct": rep["crps_pct"],
            "mae_r_pp": rep["mae_r_pp"],
            "scenario_sha256": ctx["sha256"],
        }


class PvScore:
    name = "pv_score"
    PLANNER_LPS = False
    FULL = {"days": 1000, "m": 100}
    SMOKE = {"days": 30, "m": 10}
    N_CHECK_DAYS = 5

    def __init__(self, size: dict):
        self.size = size

    def setup(self, work: Path, seed: int) -> dict:
        n, m = self.size["days"], self.size["m"]
        work.mkdir(parents=True, exist_ok=True)
        ds = data.generate_synthetic(n, seed, "sine_pv")
        sets = [
            diffusion.ScenarioSet(day_id=s.day_id, m=m, condition=s.c,
                                  scenarios=data.conditional_scenarios("sine_pv", s.c, m, k))
            for s, k in zip(ds.samples, _seeds(seed, n))
        ]
        scen, obs = work / "scenarios.csv", work / "observations.csv"
        diffusion.write_scenarios(sets, scen)
        data.write_observations(ds, obs, split="learn")
        picks = [round(i * (n - 1) / (self.N_CHECK_DAYS - 1)) for i in range(self.N_CHECK_DAYS)]
        expected = {sets[i].day_id.isoformat():
                    100.0 * sorted_sample_crps(sets[i].scenarios, ds.samples[i].x)
                    for i in picks}
        return {"config": _write_json(work / "config.json", {"track": "pv", "seed": seed}),
                "scenarios": str(scen), "observations": str(obs), "expected_crps": expected}

    def commands(self, ctx: dict, out: Path):
        return [("evaluate", ["evaluate", "--config", ctx["config"], "--out", str(out),
                              "--scenarios", ctx["scenarios"],
                              "--observations", ctx["observations"]])]

    def check(self, ctx: dict, out: Path) -> dict:
        bad = []
        rep = _read_quality(out)
        if (rep["n_days"], rep["m"]) != (self.size["days"], self.size["m"]):
            bad.append(f"report has n_days={rep['n_days']} m={rep['m']}, expected "
                       f"{self.size['days']} and {self.size['m']}")
        for day, want in ctx["expected_crps"].items():
            got = rep["per_day"].get(day, {}).get("crps_pct", math.nan)
            if not abs(got - want) <= 1e-9:
                bad.append(f"CRPS on {day}: report {got!r}, sorted-sample {want!r}")
        ctx["quality"] = rep
        return {"evaluate": bad}

    def figures(self, ctx: dict, times: dict) -> dict:
        rep = ctx["quality"]
        return {"score_days_per_s": rep["n_days"] / times["evaluate"],
                "crps_pct": rep["crps_pct"], "mae_r_pp": rep["mae_r_pp"]}


class ValueStudy:
    name = "value_study"
    PLANNER_LPS = True
    FULL = {"days": 20, "m": 100}
    SMOKE = {"days": 3, "m": 5}
    # (profile, track, capacity in MW) as in release gate 7
    TRACKS = (("ramp_wind", "wind", 80.0), ("sine_pv", "pv", 40.0), ("bimodal_load", "load", 1.0))
    MODELS = ("oracle", "ddpm", "ddpm-det")

    def __init__(self, size: dict):
        self.size = size

    def setup(self, work: Path, seed: int) -> dict:
        n, m = self.size["days"], self.size["m"]
        work.mkdir(parents=True, exist_ok=True)
        seeds = _seeds(seed, 3 * (n + 1))
        ctx = {"config": _write_json(work / "config.json", {"track": "pv", "seed": seed}),
               "files": []}
        for k, (profile, track, cap) in enumerate(self.TRACKS):
            ds = data.generate_synthetic(n, seeds[k], profile)
            sets = [diffusion.ScenarioSet(
                        day_id=s.day_id, m=m, condition=s.c,
                        scenarios=cap * data.conditional_scenarios(
                            profile, s.c, m, seeds[3 + k * n + i]))
                    for i, s in enumerate(ds.samples)]
            scen, obs = work / f"scenarios_{track}.csv", work / f"observations_{track}.csv"
            diffusion.write_scenarios(sets, scen)
            scaled = data.Dataset(samples=[replace(s, x=cap * s.x) for s in ds.samples])
            data.write_observations(scaled, obs, split="learn")
            ctx["files"] += [f"--scenarios-{track}", str(scen), f"--obs-{track}", str(obs)]
        ctx["days"] = [s.day_id.isoformat() for s in ds.samples]
        return ctx

    def commands(self, ctx: dict, out: Path):
        return [("value", ["value", "--config", ctx["config"], "--out", str(out),
                           *ctx["files"]])]

    def check(self, ctx: dict, out: Path) -> dict:
        bad = []
        doc = json.loads((out / "value_report.json").read_text())
        have = {(r["model"], r["day"]) for r in doc["rows"]}
        want = {(mod, d) for mod in self.MODELS for d in ctx["days"]}
        if have != want or len(doc["rows"]) != len(want):
            bad.append(f"{len(want - have)} (model, day) rows missing, "
                       f"{len(doc['rows']) - len(want & have)} unexpected")
        try:
            value.ValueReport(**doc).validate()
        except value.ParameterError as e:
            bad.append(f"ValueReport.validate: {e}")
        ctx["report"] = doc
        return {"value": bad}

    def figures(self, ctx: dict, times: dict) -> dict:
        rep = ctx["report"]
        agg, n = rep["aggregate"], rep["n_simulated"]
        return {"value_days_per_s": n / times["value"],
                "ddpm_regret_eur_per_day": (agg["oracle"] - agg["ddpm"]) / n}


WORKLOADS = {w.name: w for w in (PvBacktest, PvScore, ValueStudy)}
