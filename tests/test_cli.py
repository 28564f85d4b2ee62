"""Command-line pipeline: tiny end-to-end runs, exit codes, structured
errors on stderr, and byte-level determinism."""
import json
from datetime import date

import numpy as np
import pytest

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff.cli import DEFAULT_CONFIG, ConfigError, load_config, main

TINY = {
    "split": {"fractions": [0.8, 0.1, 0.1]},
    "schedule": {"n": 25, "beta_end": 0.4},
    "model": {"hidden": [16, 16], "embed_dim": 8},
    "optimizer": {"epochs": 3, "batch_size": 16},
    "m_scenarios": 4,
}


def _write_config(tmp_path, track, data_path, name="cfg.json", **extra):
    cfg = json.loads(json.dumps(TINY))
    cfg["track"] = track
    cfg["data"] = str(data_path)
    cfg.update(extra)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _run_track(tmp_path, profile, track, seed=4, days=40):
    """synth -> train -> generate for one track; returns (scen, obs) paths."""
    data = tmp_path / f"{track}.csv"
    assert main(["synth", "--profile", profile, "--days", str(days),
                 "--seed", str(seed), "--out", str(data)]) == 0
    cfg = _write_config(tmp_path, track, data, name=f"cfg_{track}.json")
    out = tmp_path / f"out_{track}"
    assert main(["train", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert (out / f"model_{track}_z1.ckpt").exists()
    assert (out / f"manifest_{track}.json").exists()
    assert (out / f"loss_{track}_z1.csv").exists()
    assert main(["generate", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    scen = out / f"scenarios_{track}_z1.csv"
    obs = out / f"observations_{track}_z1.csv"
    assert scen.exists() and obs.exists()
    return scen, obs


def test_synth_emits_loadable_csv(tmp_path):
    p = tmp_path / "days.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "25",
                 "--seed", "9", "--out", str(p)]) == 0
    ds = dmod.load_csv(p, "pv")
    assert len(ds.days()) == 25
    assert ds.dropped == 0


def test_pipeline_pv_end_to_end(tmp_path, capsys):
    scen_path, obs_path = _run_track(tmp_path, "sine_pv", "pv", days=100)
    scen = dif.read_scenarios(scen_path)
    obs = dmod.read_observations(obs_path)
    assert sorted(scen) == sorted(obs)
    assert len(scen) == 10  # 10% of 100 days
    assert all(v.shape == (4, 24) for v in scen.values())

    out = tmp_path / "out_pv"
    assert main(["evaluate", "--scenarios", str(scen_path),
                 "--observations", str(obs_path), "--out", str(out)]) == 0
    report = json.loads((out / "quality_report.json").read_text())
    assert report["n_days"] == 10 and report["m"] == 4
    assert report["crps_pct"] > 0
    rel = (out / "reliability.csv").read_text().strip().splitlines()
    assert rel[0] == "nominal,empirical" and len(rel) == 100
    # stdout lists every produced file path
    lines = capsys.readouterr().out.strip().splitlines()
    assert str(out / "quality_report.json") in lines
    assert str(out / "reliability.csv") in lines


def test_pipeline_value_across_tracks(tmp_path):
    wind = _run_track(tmp_path, "ramp_wind", "wind")
    pv = _run_track(tmp_path, "sine_pv", "pv")
    load = _run_track(tmp_path, "bimodal_load", "load")
    out = tmp_path / "out_value"
    rc = main(["value",
               "--scenarios-wind", str(wind[0]), "--obs-wind", str(wind[1]),
               "--scenarios-pv", str(pv[0]), "--obs-pv", str(pv[1]),
               "--scenarios-load", str(load[0]), "--obs-load", str(load[1]),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "value_report.json").read_text())
    assert set(doc["aggregate"]) == {"oracle", "ddpm", "ddpm-det"}
    assert doc["n_simulated"] == 4
    assert doc["aggregate"]["ddpm"] <= doc["oracle_total"] + 1e-6
    csv_lines = (out / "value_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + len(doc["rows"])


def test_generate_is_byte_deterministic(tmp_path):
    scen_path, _ = _run_track(tmp_path, "sine_pv", "pv", seed=6)
    first = scen_path.read_bytes()
    cfg = tmp_path / "cfg_pv.json"
    out = tmp_path / "out_pv"
    assert main(["generate", "--config", str(cfg), "--seed", "6",
                 "--out", str(out)]) == 0
    assert scen_path.read_bytes() == first


def test_generate_m_override(tmp_path):
    scen_path, _ = _run_track(tmp_path, "sine_pv", "pv", seed=5)
    cfg = tmp_path / "cfg_pv.json"
    out = tmp_path / "out_pv"
    assert main(["generate", "--config", str(cfg), "--seed", "5",
                 "--out", str(out), "--m", "2"]) == 0
    scen = dif.read_scenarios(scen_path)
    assert all(v.shape[0] == 2 for v in scen.values())


# ------------------------------------------------------------------ failures


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert set(doc) == {"error", "message"}
    return doc


def test_exit_2_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"optimizer": {"lrx": 1}}))
    assert main(["train", "--config", str(bad)]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "ConfigError"
    assert "optimizer.lrx" in doc["message"]


def test_exit_2_missing_data_and_files(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"track": "pv"}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data" in _stderr_error(capsys)["message"]
    cfg.write_text(json.dumps({"track": "hydro"}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "hydro" in _stderr_error(capsys)["message"]
    cfg.write_text("{not json")
    assert main(["train", "--config", str(cfg)]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigError"
    cfg.write_text(json.dumps({"track": "pv", "data": str(tmp_path)}))  # a directory
    assert main(["train", "--config", str(cfg)]) == 2
    assert "not found" in _stderr_error(capsys)["message"]


def _leaves(doc, path=""):
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{path}{key}.")
        else:
            yield f"{path}{key}", val


def test_exit_2_bad_config_values(tmp_path, capsys):
    """Every setting is checked against the kind of its default before use."""
    cfg = tmp_path / "c.json"
    for dotted, default in _leaves(DEFAULT_CONFIG):
        item = default[0] if isinstance(default, list) else default
        if item is None or isinstance(item, str):
            bads = [1, ["x"]]
        elif isinstance(item, int):
            bads = ["1", 1.5, True, -1]
        else:
            bads = ["1", True, None, float("nan"), float("inf")]
        for bad in bads:
            doc = bad if not isinstance(default, list) else [bad]
            for key in reversed(dotted.split(".")):
                doc = {key: doc}
            cfg.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=dotted):
                load_config(str(cfg))
    for section in ("split", "schedule", "model", "optimizer", "metrics", "retailer"):
        cfg.write_text(json.dumps({section: [1]}))
        with pytest.raises(ConfigError, match=section):
            load_config(str(cfg))
    # an hourly retailer curve takes one number for every hour, or 24 numbers
    for price in (42.5, 40, [42.5] * 24):
        cfg.write_text(json.dumps({"retailer": {"price": price}}))
        assert load_config(str(cfg))["retailer"]["price"] == price
    cfg.write_text(json.dumps({"optimizer": {"epochs": -2}}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "optimizer.epochs" in _stderr_error(capsys)["message"]
    cfg.write_text(json.dumps({"track": "pv"}))
    assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed" in _stderr_error(capsys)["message"]


def test_exit_3_training_divergence(tmp_path, capsys):
    data = tmp_path / "pv.csv"
    main(["synth", "--profile", "sine_pv", "--days", "40", "--seed", "1",
          "--out", str(data)])
    cfg = _write_config(tmp_path, "pv", data)
    with open(cfg) as f:
        doc = json.load(f)
    doc["optimizer"]["lr"] = 1e160
    doc["optimizer"]["epochs"] = 2
    cfg.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
    assert _stderr_error(capsys)["error"] == "TrainingDivergenceError"


def test_exit_4_checkpoint_track_mismatch(tmp_path, capsys):
    _run_track(tmp_path, "sine_pv", "pv")
    wind_data = tmp_path / "wind.csv"
    main(["synth", "--profile", "ramp_wind", "--days", "40", "--seed", "4",
          "--out", str(wind_data)])
    wind_cfg = _write_config(tmp_path, "wind", wind_data, name="cfg_w.json")
    capsys.readouterr()
    rc = main(["generate", "--config", str(wind_cfg), "--out", str(tmp_path / "ow"),
               "--checkpoint", str(tmp_path / "out_pv" / "model_pv_z1.ckpt")])
    assert rc == 4
    doc = _stderr_error(capsys)
    assert doc["error"] == "ModelValidationError"
    assert "track" in doc["message"]

    # a scaler whose covariate arrays do not match the network's condition width
    ckpt = tmp_path / "out_pv" / "model_pv_z1.ckpt"
    raw = ckpt.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    header["scaler"]["cov_offset"] = header["scaler"]["cov_offset"] * 2
    ckpt.write_bytes(json.dumps(header).encode() + raw[nl:])
    rc = main(["generate", "--config", str(tmp_path / "cfg_pv.json"), "--out",
               str(tmp_path / "op"), "--checkpoint", str(ckpt)])
    assert rc == 4
    doc = _stderr_error(capsys)
    assert doc["error"] == "ModelValidationError"
    assert "cond_dim" in doc["message"]

    # a checkpoint without a scaler cannot map conditions or scenarios
    header = json.loads(raw[:nl])
    header["scaler"] = None
    ckpt.write_bytes(json.dumps(header).encode() + raw[nl:])
    rc = main(["generate", "--config", str(tmp_path / "cfg_pv.json"), "--out",
               str(tmp_path / "op"), "--checkpoint", str(ckpt)])
    assert rc == 4
    assert "scaler" in _stderr_error(capsys)["message"]


def test_exit_2_os_errors(tmp_path, capsys):
    """A path the OS refuses is one JSON error line, never a traceback."""
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "5", "--out", str(data)]) == 0
    capsys.readouterr()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cases = [
        (["--scenarios", str(tmp_path), "--observations", str(data),
          "--out", str(tmp_path / "o1")], "IsADirectoryError"),
        (["--scenarios", str(data), "--observations", str(data),
          "--out", str(a_file)], "FileExistsError"),
        (["--scenarios", str(data), "--observations", str(data),
          "--out", str(a_file / "sub")], "NotADirectoryError"),
    ]
    for args, error in cases:
        assert main(["evaluate"] + args) == 2
        assert _stderr_error(capsys)["error"] == error
    # a write that fails inside the CSV writer takes the same route
    assert main(["synth", "--profile", "sine_pv", "--days", "5", "--out", str(tmp_path)]) == 2
    assert _stderr_error(capsys)["error"] == "IsADirectoryError"


def test_exit_5_alignment(tmp_path, capsys):
    days = [date(2015, 1, 1), date(2015, 1, 2)]
    sets = [dif.ScenarioSet(d, 2, np.full((2, 24), 0.5), np.zeros(1)) for d in days]
    scen = tmp_path / "s.csv"
    dif.write_scenarios(sets, scen)
    obs = tmp_path / "o.csv"
    ds = dmod.Dataset(samples=[dmod.DaySample(days[0], "pv", 1,
                                              np.full(24, 0.5), np.zeros(24))])
    dmod.write_observations(ds, obs, split="learn", zone=1)
    assert main(["evaluate", "--scenarios", str(scen), "--observations",
                 str(obs), "--out", str(tmp_path / "oe")]) == 5
    assert _stderr_error(capsys)["error"] == "AlignmentError"


def test_exit_2_mixed_scenario_counts(tmp_path, capsys):
    """Day 1 carries 3 scenarios and the other 11 days 50: the report's `m`
    would be wrong for most days, so evaluate refuses the file."""
    rng = np.random.default_rng(0)
    days = [date(2015, 3, 1 + i) for i in range(12)]
    sets = [dif.ScenarioSet(d, m, rng.uniform(0, 1, (m, 24)), np.zeros(1))
            for d, m in zip(days, [3] + [50] * 11)]
    scen = tmp_path / "s.csv"
    dif.write_scenarios(sets, scen)
    obs = tmp_path / "o.csv"
    ds = dmod.Dataset(samples=[dmod.DaySample(d, "pv", 1, rng.uniform(0, 1, 24), np.zeros(24))
                               for d in days])
    dmod.write_observations(ds, obs, split="learn", zone=1)
    capsys.readouterr()
    assert main(["evaluate", "--scenarios", str(scen), "--observations",
                 str(obs), "--out", str(tmp_path / "oe")]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "DimensionError"
    assert "day 2015-03-02 has 50 scenarios" in doc["message"]
    assert "2015-03-01" in doc["message"]
    assert not (tmp_path / "oe" / "quality_report.json").exists()


def _value_args(tmp_path, days, load_days):
    """`value` arguments over one-zone wind, pv and load files: scenarios for
    `days` on every track, observations for `days` (load: `load_days`)."""
    rng = np.random.default_rng(0)

    def scen_file(name, day_list):
        sets = [dif.ScenarioSet(d, 2, rng.uniform(0.1, 0.9, (2, 24)), np.zeros(1))
                for d in day_list]
        p = tmp_path / name
        dif.write_scenarios(sets, p)
        return p

    def obs_file(name, day_list, track):
        ds = dmod.Dataset(samples=[
            dmod.DaySample(d, track, 1, rng.uniform(0.1, 0.9, 24), np.zeros(24))
            for d in day_list])
        p = tmp_path / name
        dmod.write_observations(ds, p, split="learn", zone=1)
        return p

    args = ["value", "--out", str(tmp_path / "ov")]
    for track, profile_days in (("wind", days), ("pv", days), ("load", load_days)):
        args += [f"--scenarios-{track}", str(scen_file(f"s_{track}.csv", days)),
                 f"--obs-{track}", str(obs_file(f"o_{track}.csv", profile_days, track))]
    return args


def test_exit_6_value_coverage(tmp_path, capsys):
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    assert main(_value_args(tmp_path, days, days + [date(2015, 2, 3)])) == 6
    doc = _stderr_error(capsys)
    assert doc["error"] == "CoverageError"
    assert "2015-02-03" in doc["message"]


def test_exit_2_bad_retailer_config(tmp_path, capsys):
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retailer": {"soc_start": 50.0, "capacity": 10.0}}))
    assert main(_value_args(tmp_path, days, days) + ["--config", str(cfg)]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "ParameterError"
    assert "soc_start" in doc["message"]


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
