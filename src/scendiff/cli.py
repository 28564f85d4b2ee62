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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, value
from .errors import (
    AlignmentError,
    CoverageError,
    ModelValidationError,
    ParameterError,
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
    "schedule": {"kind": "linear", "n": 200, "beta_end": 0.05},
    "model": {"hidden": [256, 256, 256], "embed_dim": 32},
    "optimizer": {"epochs": 200, "batch_size": 64, "lr": 1e-3},
    "m_scenarios": 100,
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
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        except RecursionError:
            raise ConfigError("config is nested too deeply to parse") from None
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    cfg = _merge(cfg, {k: v for k, v in (overrides or {}).items() if v is not None})
    if cfg["track"] not in data_mod.TRACKS:
        raise ConfigError(f"track must be one of {data_mod.TRACKS}, got {cfg['track']!r}")
    zones, n_zones = cfg["zones"], data_mod.ZONE_COUNTS[cfg["track"]]
    if not zones or len(set(zones)) < len(zones) or not all(1 <= z <= n_zones for z in zones):
        raise ConfigError(f"zones must be one or more distinct zones in 1..{n_zones} for "
                          f"track {cfg['track']!r}, got {zones}")
    return cfg


def _load_dataset(cfg: dict) -> data_mod.Dataset:
    if not cfg["data"]:
        raise ConfigError("config field 'data' (input CSV path) is required")
    if not Path(cfg["data"]).is_file():
        raise ConfigError(f"data file not found: {cfg['data']}")
    return data_mod.load_csv(cfg["data"], cfg["track"])


def _checkpoint_path(out_dir: Path, track: str, zone: int) -> Path:
    return out_dir / f"model_{track}_z{zone}.ckpt"


def cmd_synth(args) -> int:
    ds = data_mod.generate_synthetic(args.days, args.seed, args.profile)
    data_mod.write_csv(ds, args.out)
    print(args.out)
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    # every zone's settings are checked before anything is written
    configs = [diffusion.TrainConfig(**cfg["optimizer"], **cfg["model"], seed=cfg["seed"],
                                     zone=zone) for zone in cfg["zones"]]
    ds = data_mod.split_random(_load_dataset(cfg), tuple(cfg["split"]["fractions"]), cfg["seed"])
    ds = data_mod.normalize(ds)
    sched = diffusion.make_schedule(**cfg["schedule"])
    for tc in configs:  # as are the days it reads: arrays() refuses a zone without them
        for split in ("learn", "validation") if tc.epochs else ("learn",):
            ds.arrays(split=split, zone=tc.zone)
    # every zone is trained before anything is written, so a diverging run leaves nothing
    trained = [(tc.zone, *diffusion.train(ds, tc, sched)) for tc in configs]
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    data_mod.write_manifest(ds, out_dir / f"manifest_{cfg['track']}.json")
    print(out_dir / f"manifest_{cfg['track']}.json")
    for zone, params, log in trained:
        ckpt = _checkpoint_path(out_dir, cfg["track"], zone)
        diffusion.save_checkpoint(ckpt, params, sched, ds.scaler, cfg["track"], zone,
                                  [s.day_id for s in ds.subset(split="test", zone=zone)])
        log_path = out_dir / f"loss_{cfg['track']}_z{zone}.csv"
        data_mod._write_table(log_path, ["epoch", "learn_loss", "val_loss"],
                              (("%s,%.17g,%.17g\r\n", (r["epoch"], r["learn_loss"], r["val_loss"]))
                               for r in log))
        print(ckpt)
        print(log_path)
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out,
                                    "m_scenarios": args.m})
    if cfg["m_scenarios"] < 1:
        raise ParameterError(f"m_scenarios must be >= 1, got {cfg['m_scenarios']}")
    out_dir = Path(cfg["out_dir"])
    raw = _load_dataset(cfg)
    checkpoints = ([Path(args.checkpoint)] if args.checkpoint
                   else [_checkpoint_path(out_dir, cfg["track"], z) for z in cfg["zones"]])
    # every checkpoint is loaded and checked against the data before anything is written
    runs = []
    for ckpt_path in checkpoints:
        if not ckpt_path.is_file():
            raise ConfigError(f"checkpoint not found: {ckpt_path}")
        params, sched, scaler, header = diffusion.load_checkpoint(ckpt_path)
        if header["track"] != cfg["track"]:
            raise ModelValidationError(
                f"checkpoint {ckpt_path} is for track {header['track']!r}, "
                f"config says {cfg['track']!r}"
            )
        zone = int(header["zone"])
        day_ids = header["test_days"]  # sorted, as train recorded them
        if not day_ids:
            raise ConfigError(f"no test days for zone {zone}")
        ds = replace(raw, split=dict.fromkeys(day_ids, "test"))
        test = sorted(ds.subset(split="test", zone=zone), key=lambda s: s.day_id)
        if len(test) != len(day_ids):
            missing = sorted(set(day_ids) - {s.day_id for s in test})[0]
            raise ConfigError(f"{cfg['data']} lacks test day {missing} of zone {zone} "
                              f"recorded in {ckpt_path}")
        if test[0].c.size != params.cond_dim:
            raise ModelValidationError(
                f"checkpoint {ckpt_path} needs {params.cond_dim // data_mod.HOURS} weather "
                f"channel(s), {cfg['data']} has {test[0].n_channels}")
        runs.append((params, sched, scaler, zone, ds, test))
    out_dir.mkdir(parents=True, exist_ok=True)
    for params, sched, scaler, zone, ds, test in runs:
        seed = [cfg["seed"], zone, data_mod.TRACKS.index(cfg["track"])]
        sets = diffusion.sample_days(params, np.stack([s.c for s in test]),
                                     [s.day_id for s in test], sched, cfg["m_scenarios"],
                                     seed, scaler=scaler)
        scen_path = out_dir / f"scenarios_{cfg['track']}_z{zone}.csv"
        diffusion.write_scenarios(sets, scen_path)
        obs_path = out_dir / f"observations_{cfg['track']}_z{zone}.csv"
        data_mod.write_observations(ds, obs_path, split="test", zone=zone)
        print(scen_path)
        print(obs_path)
    return 0


def cmd_evaluate(args) -> int:
    if not 0 < args.base < math.inf:  # nan fails both comparisons
        raise ParameterError(f"base must be positive and finite, got {args.base}")
    cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    report = metrics.evaluate(diffusion.read_scenarios(args.scenarios),
                              data_mod.read_observations(args.observations),
                              base=args.base, seed=cfg["seed"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "quality_report.json"
    report.write_json(report_path)
    rel_path = out_dir / "reliability.csv"
    report.write_reliability_csv(rel_path)
    print(report_path)
    print(rel_path)
    return 0


def _parse_zone_paths(specs: list[str], what: str) -> dict[int, Path]:
    track = what.partition("-")[2]  # `what` names the flag: "scenarios-pv", "obs-load"
    n_zones = data_mod.ZONE_COUNTS[track]
    out: dict[int, Path] = {}
    for spec in specs:
        zone, _, path = spec.partition("=")
        if path:
            try:
                z = int(zone)
            except ValueError:
                raise ConfigError(f"{what}: bad zone prefix in {spec!r}") from None
            if not 1 <= z <= n_zones:
                raise ConfigError(f"{what}: zone {z} in {spec!r} is not a {track} zone; "
                                  f"{track} has zones 1..{n_zones}")
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
    retailer = value.RetailerModel(**cfg["retailer"])
    # every flag is parsed before any file is read
    paths = {track: (_parse_zone_paths(s_specs, f"scenarios-{track}"),
                     _parse_zone_paths(o_specs, f"obs-{track}"))
             for track, s_specs, o_specs in (
                 ("wind", args.scenarios_wind, args.obs_wind),
                 ("pv", args.scenarios_pv, args.obs_pv),
                 ("load", args.scenarios_load, args.obs_load))}
    scen, obs = {}, {}
    for track, (s_paths, o_paths) in paths.items():
        scen[track] = {(day, z): arr for z, p in s_paths.items()
                       for day, arr in diffusion.read_scenarios(p).items()}
        obs[track] = {(day, z): arr for z, p in o_paths.items()
                      for day, arr in data_mod.read_observations(p).items()}
    # every zone either flag names is simulated: a missing file is a CoverageError
    zones = {track: sorted(s_paths.keys() | o_paths.keys())
             for track, (s_paths, o_paths) in paths.items()}
    report = value.run_value_benchmark(
        scen, obs, retailer, sorted({day for day, _ in obs["load"]}),
        pv_zones=zones["pv"], wind_zones=zones["wind"],
        n_planner_scenarios=cfg["n_planner_scenarios"],
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
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
