"""Command-line pipeline: synth, train, generate, evaluate, value.

All commands read a JSON config (deep-merged over documented defaults), are
deterministic under the config seed, print produced file paths on stdout,
and report failures as one structured JSON line on stderr with stable exit
codes: 2 config/input error, 3 divergence, 4 checkpoint mismatch,
5 day-alignment error, 6 scenario-coverage error.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, value
from .errors import (
    AlignmentError,
    CoverageError,
    ModelValidationError,
    SamplingDivergenceError,
    ScendiffError,
    TrainingDivergenceError,
)

DEFAULT_CONFIG = {
    "track": "pv",
    "data": None,
    "out_dir": "out",
    "seed": 0,
    "zones": [1],
    "split": {"fractions": [0.7, 0.15, 0.15]},
    "schedule": {"kind": "linear", "n": 200, "beta_start": 1e-4, "beta_end": 0.05,
                 "sigma_mode": "beta"},
    "model": {"hidden": [256, 256, 256], "activation": "silu", "embed_dim": 32},
    "optimizer": {"epochs": 200, "batch_size": 64, "lr": 1e-3, "beta1": 0.9,
                  "beta2": 0.999, "eps": 1e-8},
    "m_scenarios": 100,
    "metrics": {"crps_estimator": "nrg", "gamma": 0.5},
    "retailer": value.RetailerModel().to_dict(),
    "n_planner_scenarios": 5,
}

EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4
EXIT_ALIGNMENT = 5
EXIT_COVERAGE = 6


class ConfigError(ScendiffError):
    """Bad or incomplete run configuration."""


# retailer curves: 24 hourly values, or one value for every hour
_HOURLY_CURVES = ("retailer.price", "retailer.pen_surplus", "retailer.pen_deficit")


def _valid_value(default, val) -> bool:
    """Whether val may replace default: the same JSON kind (a list's items
    that of its first default item), integers non-negative, numbers finite;
    `data`, null by default, takes a path string."""
    if isinstance(default, list):
        return isinstance(val, list) and all(_valid_value(default[0], v) for v in val)
    if default is None or isinstance(default, str):
        return isinstance(val, str) or (default is None and val is None)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    if isinstance(default, int):
        return isinstance(val, int) and val >= 0
    return math.isfinite(val)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            out[key] = _merge(base[key], val, path + key + ".")
        elif not (_valid_value(base[key], val) or path + key in _HOURLY_CURVES
                  and _valid_value(base[key][0], val)):
            raise ConfigError(f"config key {path + key!r} has a bad value: {val!r}")
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    cfg = _merge(cfg, {k: v for k, v in (overrides or {}).items() if v is not None})
    if cfg["track"] not in data_mod.TRACKS:
        raise ConfigError(f"track must be one of {data_mod.TRACKS}, got {cfg['track']!r}")
    return cfg


def _load_split_dataset(cfg: dict) -> data_mod.Dataset:
    if not cfg["data"]:
        raise ConfigError("config field 'data' (input CSV path) is required")
    if not Path(cfg["data"]).is_file():
        raise ConfigError(f"data file not found: {cfg['data']}")
    ds = data_mod.load_csv(cfg["data"], cfg["track"])
    return data_mod.split_random(ds, tuple(cfg["split"]["fractions"]), cfg["seed"])


def _schedule_from(cfg: dict) -> diffusion.Schedule:
    s = cfg["schedule"]
    return diffusion.make_schedule(kind=s["kind"], n=s["n"], beta_start=s["beta_start"],
                                   beta_end=s["beta_end"], sigma_mode=s["sigma_mode"])


def _checkpoint_path(out_dir: Path, track: str, zone: int) -> Path:
    return out_dir / f"model_{track}_z{zone}.ckpt"


def cmd_synth(args) -> int:
    ds = data_mod.generate_synthetic(args.days, args.seed, args.profile)
    data_mod.write_csv(ds, args.out)
    print(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = data_mod.normalize(_load_split_dataset(cfg))
    sched = _schedule_from(cfg)
    data_mod.write_manifest(ds, out_dir / f"manifest_{cfg['track']}.json")
    print(out_dir / f"manifest_{cfg['track']}.json")
    for zone in cfg["zones"]:
        tc = diffusion.TrainConfig(
            epochs=cfg["optimizer"]["epochs"], batch_size=cfg["optimizer"]["batch_size"],
            lr=cfg["optimizer"]["lr"], beta1=cfg["optimizer"]["beta1"],
            beta2=cfg["optimizer"]["beta2"], eps=cfg["optimizer"]["eps"],
            hidden=tuple(cfg["model"]["hidden"]), activation=cfg["model"]["activation"],
            embed_dim=cfg["model"]["embed_dim"], seed=cfg["seed"], zone=zone,
        )
        params, log = diffusion.train(ds, tc, sched)
        ckpt = _checkpoint_path(out_dir, cfg["track"], zone)
        diffusion.save_checkpoint(ckpt, params, sched, ds.scaler, cfg["track"], zone)
        log_path = out_dir / f"loss_{cfg['track']}_z{zone}.csv"
        data_mod._write_table(log_path, ["epoch", "learn_loss", "val_loss"],
                              ("%s", "%.17g", "%.17g"),
                              ((r["epoch"], r["learn_loss"], r["val_loss"]) for r in log))
        print(ckpt)
        print(log_path)
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out,
                                    "m_scenarios": args.m})
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_split_dataset(cfg)
    checkpoints = ([Path(args.checkpoint)] if args.checkpoint
                   else [_checkpoint_path(out_dir, cfg["track"], z) for z in cfg["zones"]])
    for ckpt_path in checkpoints:
        if not ckpt_path.is_file():
            raise ConfigError(f"checkpoint not found: {ckpt_path}")
        params, sched, scaler, header = diffusion.load_checkpoint(ckpt_path)
        if scaler is None:
            raise ModelValidationError(f"checkpoint {ckpt_path} carries no scaler")
        if header["track"] != cfg["track"]:
            raise ModelValidationError(
                f"checkpoint {ckpt_path} is for track {header['track']!r}, "
                f"config says {cfg['track']!r}"
            )
        zone = int(header["zone"])
        test = [s for s in raw.subset(split="test", zone=zone)]
        if not test:
            raise ConfigError(f"no test days for zone {zone}")
        test.sort(key=lambda s: s.day_id)
        conditions = np.stack([scaler.transform_cov(s.c) for s in test])
        day_ids = [s.day_id for s in test]
        seed = np.random.SeedSequence([cfg["seed"], zone, data_mod.TRACKS.index(cfg["track"])])
        sets = diffusion.sample_days(params, conditions, day_ids, sched,
                                     cfg["m_scenarios"], seed, scaler=scaler)
        scen_path = out_dir / f"scenarios_{cfg['track']}_z{zone}.csv"
        diffusion.write_scenarios(sets, scen_path)
        obs_path = out_dir / f"observations_{cfg['track']}_z{zone}.csv"
        data_mod.write_observations(raw, obs_path, split="test", zone=zone)
        print(scen_path)
        print(obs_path)
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = metrics.evaluate_files(
        args.scenarios, args.observations, base=args.base,
        gamma=cfg["metrics"]["gamma"], crps_estimator=cfg["metrics"]["crps_estimator"],
        seed=cfg["seed"],
    )
    report_path = out_dir / "quality_report.json"
    report.write_json(report_path)
    rel_path = out_dir / "reliability.csv"
    report.write_reliability_csv(rel_path)
    print(report_path)
    print(rel_path)
    return 0


def _parse_zone_paths(specs: list[str], what: str) -> dict[int, Path]:
    out: dict[int, Path] = {}
    for spec in specs:
        zone, _, path = spec.partition("=")
        if path:
            try:
                z = int(zone)
            except ValueError:
                raise ConfigError(f"{what}: bad zone prefix in {spec!r}") from None
        else:
            z, path = 1, spec
        if z in out:
            raise ConfigError(f"{what}: duplicate zone {z}")
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"{what}: file not found: {p}")
        out[z] = p
    return out


def cmd_value(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scen: dict[str, dict] = {}
    obs: dict[str, dict] = {}
    zone_lists: dict[str, list[int]] = {}
    for track, s_specs, o_specs in (
        ("wind", args.scenarios_wind, args.obs_wind),
        ("pv", args.scenarios_pv, args.obs_pv),
        ("load", args.scenarios_load, args.obs_load),
    ):
        s_paths = _parse_zone_paths(s_specs, f"scenarios-{track}")
        o_paths = _parse_zone_paths(o_specs, f"obs-{track}")
        zone_lists[track] = sorted(s_paths)
        scen[track] = {}
        obs[track] = {}
        for z, p in s_paths.items():
            for day, arr in diffusion.read_scenarios(p).items():
                scen[track][(day, z)] = arr
        for z, p in o_paths.items():
            for day, arr in data_mod.read_observations(p).items():
                obs[track][(day, z)] = arr
    load_zone = zone_lists["load"][0] if zone_lists["load"] else 1
    days = sorted({d for (d, z) in obs["load"] if z == load_zone})
    retailer = value.RetailerModel.from_dict(cfg["retailer"])
    report = value.run_value_benchmark(
        {"ddpm": scen}, obs, retailer, days,
        pv_zones=zone_lists["pv"], wind_zones=zone_lists["wind"], load_zone=load_zone,
        n_planner_scenarios=cfg["n_planner_scenarios"],
    )
    json_path = out_dir / "value_report.json"
    csv_path = out_dir / "value_report.csv"
    report.write_json(json_path)
    report.write_csv(csv_path)
    print(json_path)
    print(csv_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scendiff",
        description="Conditional diffusion scenarios for day-ahead load, pv, and wind, "
                    "plus quality metrics and a bidding-value benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path (defaults apply otherwise)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")

    p = sub.add_parser("synth", help="emit a synthetic dataset CSV")
    p.add_argument("--profile", required=True, choices=data_mod.PROFILES)
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model per configured zone")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample scenarios for every test day")
    common(p)
    p.add_argument("--checkpoint", help="explicit checkpoint path (default: per-zone files in out dir)")
    p.add_argument("--m", type=int, help="scenarios per day override")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a scenario file against observations")
    common(p)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--base", type=float, default=1.0,
                   help="physical value equal to 100%% (nominal capacity or learn max)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("value", help="run the day-ahead bidding benchmark")
    common(p)
    for track in ("wind", "pv", "load"):
        p.add_argument(f"--scenarios-{track}", action="append", default=[],
                       metavar="[ZONE=]CSV", dest=f"scenarios_{track}")
        p.add_argument(f"--obs-{track}", action="append", default=[],
                       metavar="[ZONE=]CSV", dest=f"obs_{track}")
    p.set_defaults(func=cmd_value)
    return parser


_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (TrainingDivergenceError, EXIT_DIVERGENCE),
    (SamplingDivergenceError, EXIT_DIVERGENCE),
    (ModelValidationError, EXIT_CHECKPOINT),
    (AlignmentError, EXIT_ALIGNMENT),
    (CoverageError, EXIT_COVERAGE),
    (ScendiffError, EXIT_CONFIG),
    (OSError, EXIT_CONFIG),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _ in _ERROR_CODES) as e:
        code = next(c for t, c in _ERROR_CODES if isinstance(e, t))
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
