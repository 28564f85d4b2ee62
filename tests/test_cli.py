"""Command-line pipeline: tiny end-to-end runs, exit codes, structured
errors on stderr, and byte-level determinism."""
import dataclasses
import inspect
import json
import warnings
from datetime import date

import numpy as np
import pytest

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff import nn
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
    assert doc["aggregate"]["ddpm"] <= doc["aggregate"]["oracle"] + 1e-6
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


def test_generate_seeds_sample_days_with_seed_zone_and_track(tmp_path):
    """The scenario file holds exactly what sample_days draws from the
    checkpoint for its sorted test days under entropy [seed, zone, track
    index]; comparing two draws here needs no pinned hash."""
    scen_path, _ = _run_track(tmp_path, "sine_pv", "pv", seed=6)
    params, sched, scaler, header = dif.load_checkpoint(
        tmp_path / "out_pv" / "model_pv_z1.ckpt")
    ds = dmod.load_csv(tmp_path / "pv.csv", "pv")
    test = sorted((s for s in ds.samples if s.day_id in header["test_days"]),
                  key=lambda s: s.day_id)
    conditions = np.stack([s.c for s in test])
    sets = dif.sample_days(params, conditions, [s.day_id for s in test], sched,
                           TINY["m_scenarios"], [6, 1, dmod.TRACKS.index("pv")], scaler)
    scen = dif.read_scenarios(scen_path)
    assert sorted(scen) == [s.day_id for s in sets]
    for s in sets:
        assert np.array_equal(scen[s.day_id], s.scenarios)


def test_generate_samples_the_checkpoints_test_days(tmp_path, capsys):
    """generate takes its days from the checkpoint, never from a split of
    its own: after `train --seed 7`, a generate seeded 0 and one with the
    config's seed both sample and observe exactly the days train held out."""
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "100", "--seed", "3",
                 "--out", str(data)]) == 0
    cfg = _write_config(tmp_path, "pv", data)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    split = json.loads((out / "manifest_pv.json").read_text())["split"]
    manifest_test = sorted(date.fromisoformat(d) for d, s in split.items() if s == "test")
    _, _, _, header = dif.load_checkpoint(out / "model_pv_z1.ckpt")
    assert header["test_days"] == manifest_test and len(manifest_test) == 10
    for seed in (["--seed", "0"], []):
        assert main(["generate", "--config", str(cfg), "--out", str(out), *seed]) == 0
        assert sorted(dif.read_scenarios(out / "scenarios_pv_z1.csv")) == manifest_test
        assert sorted(dmod.read_observations(out / "observations_pv_z1.csv")) == manifest_test

    # data that lack a recorded test day are refused, naming the day
    lines = data.read_text().splitlines(keepends=True)
    gone = manifest_test[3].isoformat()
    data.write_text("".join(line for line in lines if not line.startswith(gone)))
    capsys.readouterr()
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "ConfigError" and gone in doc["message"]


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


def test_config_sections_name_their_parameters():
    """train passes the schedule section to make_schedule and the optimizer and
    model sections to TrainConfig by keyword; a key that named no parameter
    would reach the user as a TypeError traceback."""
    schedule = set(inspect.signature(dif.make_schedule).parameters)
    assert set(DEFAULT_CONFIG["schedule"]) <= schedule
    train = {f.name for f in dataclasses.fields(dif.TrainConfig)} - {"seed", "zone"}
    optimizer, model = set(DEFAULT_CONFIG["optimizer"]), set(DEFAULT_CONFIG["model"])
    assert optimizer | model <= train and not optimizer & model


def test_exit_2_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = tmp_path / "out"
    # the model is a SiLU MLP trained by Adam at its published beta1, beta2 and
    # eps, on a linear schedule that starts at beta 1e-4, sampled with
    # sigma^2 = beta and scored with the energy-form CRPS and the gamma = 0.5
    # variogram score; the keys that once chose otherwise are unknown keys,
    # refused before anything is written
    for section, key, val, unknown in (
            ("optimizer", "lrx", 1, "optimizer.lrx"),
            ("model", "activation", "silu", "model.activation"),
            ("schedule", "sigma_mode", "beta", "schedule.sigma_mode"),
            ("schedule", "beta_start", 1e-4, "schedule.beta_start"),
            ("optimizer", "beta1", 0.9, "optimizer.beta1"),
            ("optimizer", "beta2", 0.999, "optimizer.beta2"),
            ("optimizer", "eps", 1e-8, "optimizer.eps"),
            ("metrics", "gamma", 0.5, "metrics"),
            ("metrics", "crps_estimator", "nrg", "metrics")):
        bad.write_text(json.dumps({section: {key: val}}))
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
        doc = _stderr_error(capsys)
        assert doc["error"] == "ConfigError"
        assert f"unknown config key '{unknown}'" in doc["message"]
        assert not out.exists()


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
    # evaluate reads both files before it makes its output directory
    out = tmp_path / "ev_out"
    assert main(["evaluate", "--scenarios", str(tmp_path / "none.csv"), "--observations",
                 str(tmp_path / "none.csv"), "--out", str(out)]) == 2
    assert _stderr_error(capsys)["error"] == "FileNotFoundError"
    assert not out.exists()


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
    for section in ("split", "schedule", "model", "optimizer", "retailer"):
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
    # a base that is not positive and finite is refused before either file is read
    out = tmp_path / "out"
    for base in ("nan", "inf", "-inf", "0", "-1"):
        assert main(["evaluate", "--scenarios", str(tmp_path / "none.csv"), "--observations",
                     str(tmp_path / "none.csv"), f"--base={base}", "--out", str(out)]) == 2
        doc = _stderr_error(capsys)
        assert doc["error"] == "ParameterError"
        assert "base must be positive and finite" in doc["message"]
        assert not (out / "quality_report.json").exists()
    # a step size that is not positive and a hidden layer without units are the
    # config's fault, not a divergence; Adam's beta1, beta2 and eps are no
    # settings, so out-of-range values for them are unknown keys
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "40", "--out", str(data)]) == 0
    capsys.readouterr()
    for section, key, bad, error, message in (
            ("optimizer", "lr", -0.5, "ParameterError", "optimizer needs lr > 0"),
            ("optimizer", "lr", 0.0, "ParameterError", "optimizer needs lr > 0"),
            ("model", "hidden", [0], "ParameterError", "hidden sizes must be >= 1"),
            ("model", "hidden", [16, 0], "ParameterError", "hidden sizes must be >= 1"),
            ("optimizer", "beta1", 1.5, "ConfigError", "unknown config key 'optimizer.beta1'"),
            ("optimizer", "beta1", -0.1, "ConfigError", "unknown config key 'optimizer.beta1'"),
            ("optimizer", "beta2", 1.0, "ConfigError", "unknown config key 'optimizer.beta2'"),
            ("optimizer", "eps", 0.0, "ConfigError", "unknown config key 'optimizer.eps'")):
        cfg = _write_config(tmp_path, "pv", data, optimizer={"epochs": 2})
        doc = json.loads(cfg.read_text())
        doc[section][key] = bad
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        doc = _stderr_error(capsys)
        assert doc["error"] == error and message in doc["message"]
        assert not (tmp_path / "o").exists()
    # zones: at least one, each named once, each a zone of the track; checked
    # before either command writes a file
    out = tmp_path / "zones"
    for track, zones in (("pv", []), ("pv", [4]), ("pv", [0]), ("pv", [1, 1]),
                         ("load", [2]), ("wind", [1, 11])):
        cfg = _write_config(tmp_path, track, data, zones=zones)
        for command in ("train", "generate"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            doc = _stderr_error(capsys)
            assert doc["error"] == "ConfigError" and "zones must be" in doc["message"]
            assert not out.exists()
    cfg = _write_config(tmp_path, "wind", data, zones=[10, 1])
    assert load_config(str(cfg))["zones"] == [10, 1]
    # a retailer that cannot exist is refused before value reads a file or
    # makes its output directory
    cfg.write_text(json.dumps({"retailer": {"capacity": -1}}))
    out = tmp_path / "ov"
    assert main(["value", "--config", str(cfg), "--out", str(out)]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "ParameterError" and "capacity must be >= 0" in doc["message"]
    assert not out.exists()


def test_exit_3_training_divergence(tmp_path, capsys):
    """A step size that blows the parameters up is reported by the finiteness
    checks as one JSON line and exit 3, with no RuntimeWarning before it, also
    when RuntimeWarnings are errors. Every zone trains before train writes,
    so the run leaves no output directory."""
    data = tmp_path / "pv.csv"
    main(["synth", "--profile", "sine_pv", "--days", "40", "--seed", "1",
          "--out", str(data)])
    cfg = _write_config(tmp_path, "pv", data)
    with open(cfg) as f:
        doc = json.load(f)
    doc["optimizer"]["lr"] = 1e160
    doc["optimizer"]["epochs"] = 2
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    args = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert _stderr_error(capsys)["error"] == "TrainingDivergenceError"
    assert not (tmp_path / "o").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 3
    assert _stderr_error(capsys)["error"] == "TrainingDivergenceError"
    assert not (tmp_path / "o").exists()


def test_train_checks_every_setting_before_writing(tmp_path, capsys):
    """A config refused with exit 2 leaves the output directory as it was,
    or makes none: no manifest, no checkpoint. A zone without learn days
    (the synthetic file holds zone 1 only) is refused before zone 1 trains."""
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "40", "--out", str(data)]) == 0
    out, new = tmp_path / "o", tmp_path / "new"
    out.mkdir()
    capsys.readouterr()
    for bad, error in (({"optimizer": {"epochs": 2, "lr": -0.5}}, "ParameterError"),
                       ({"model": {"embed_dim": 3}}, "ParameterError"),
                       ({"zones": [1, 2], "optimizer": {"batch_size": 0}}, "ParameterError"),
                       ({"zones": [1, 2]}, "InsufficientDataError")):
        cfg = _write_config(tmp_path, "pv", data, **bad)
        for target in (out, new):
            assert main(["train", "--config", str(cfg), "--out", str(target)]) == 2
            assert _stderr_error(capsys)["error"] == error
        assert list(out.iterdir()) == [] and not new.exists()


@pytest.mark.parametrize("scale", [1e12, 1e3])
def test_exit_3_sampling_divergence_is_one_line(tmp_path, capsys, scale):
    """A model whose parameters were scaled up diverges while sampling: the
    engine's finiteness check reports it as one JSON line and exit 3, with
    no RuntimeWarning before it, also when RuntimeWarnings are errors (the
    float32 denoiser overflows quietly into inf and nan)."""
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "80", "--seed", "1",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "schedule": {"n": 20, "beta_end": 0.5},
                               "model": {"hidden": [16], "embed_dim": 8},
                               "optimizer": {"epochs": 1}, "m_scenarios": 10}))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ckpt = out / "model_pv_z1.ckpt"
    params, sched, scaler, header = dif.load_checkpoint(ckpt)
    params.vector *= scale
    dif.save_checkpoint(ckpt, params, sched, scaler, "pv", 1, header["test_days"])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert _stderr_error(capsys)["error"] == "SamplingDivergenceError"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 3
    assert _stderr_error(capsys)["error"] == "SamplingDivergenceError"
    assert not (out / "scenarios_pv_z1.csv").exists()


def test_exit_4_checkpoint_track_mismatch(tmp_path, capsys):
    _run_track(tmp_path, "sine_pv", "pv")
    wind_data = tmp_path / "wind.csv"
    main(["synth", "--profile", "ramp_wind", "--days", "40", "--seed", "4",
          "--out", str(wind_data)])
    wind_cfg = _write_config(tmp_path, "wind", wind_data, name="cfg_w.json")
    capsys.readouterr()
    # a refused run makes no output directory and writes no file
    rc = main(["generate", "--config", str(wind_cfg), "--out", str(tmp_path / "ow"),
               "--checkpoint", str(tmp_path / "out_pv" / "model_pv_z1.ckpt")])
    assert rc == 4
    doc = _stderr_error(capsys)
    assert doc["error"] == "ModelValidationError"
    assert "track" in doc["message"]
    assert not (tmp_path / "ow").exists()

    # a data file with fewer or more weather channels than the network takes
    # is refused before sampling
    ckpt = tmp_path / "out_pv" / "model_pv_z1.ckpt"
    header, *rows = (tmp_path / "pv.csv").read_text().splitlines()
    assert header.endswith(",target,w1")
    for channels, lines in ((0, [header[: -len(",w1")]] + [r.rsplit(",", 1)[0] for r in rows]),
                            (2, [header + ",w2"] + [r + ",0.5" for r in rows])):
        data = tmp_path / f"pv_{channels}.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = _write_config(tmp_path, "pv", data, name=f"cfg_{channels}.json")
        out = tmp_path / f"o{channels}"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 4
        doc = _stderr_error(capsys)
        assert doc["error"] == "ModelValidationError"
        assert f"needs 1 weather channel(s), {data} has {channels}" in doc["message"]
        assert not out.exists()

    # every zone's checkpoint is checked before the first zone's files are
    # written: a corrupt zone-2 checkpoint leaves no zone-1 scenarios behind
    two = tmp_path / "two"
    two.mkdir()
    (two / "model_pv_z1.ckpt").write_bytes(ckpt.read_bytes())
    (two / "model_pv_z2.ckpt").write_bytes(b"not a checkpoint")
    cfg = _write_config(tmp_path, "pv", tmp_path / "pv.csv", name="cfg_two.json", zones=[1, 2])
    assert main(["generate", "--config", str(cfg), "--out", str(two)]) == 4
    assert _stderr_error(capsys)["error"] == "ModelValidationError"
    assert sorted(p.name for p in two.iterdir()) == ["model_pv_z1.ckpt", "model_pv_z2.ckpt"]
    # so are a missing checkpoint and a scenario count below 1 (exit 2)
    for args, message in ((["--out", str(tmp_path / "none")], "checkpoint not found"),
                          (["--out", str(tmp_path / "m0"), "--checkpoint", str(ckpt), "--m", "0"],
                           "m_scenarios must be >= 1")):
        assert main(["generate", "--config", str(cfg), *args]) == 2
        assert message in _stderr_error(capsys)["message"]
    assert not (tmp_path / "none").exists() and not (tmp_path / "m0").exists()

    # a scaler whose covariate arrays do not match the network's condition width
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
    assert not (tmp_path / "op").exists()

    # a version 3 checkpoint may ask for relu or the posterior variance, which
    # version 4 cannot sample; a test-day list must be a list of YYYY-MM-DD strings
    old = json.loads(raw[:nl])
    old.update(version=3, activation="relu")
    old["schedule"].update(n=len(old["schedule"]["beta"]), sigma_mode="posterior")
    old["scaler"]["target_scale"] = 1.0
    cases = [(old, "version 3, expected 4")]
    for bad in ("2012-01-02", [1], ["2012-02-30"], ["2012-W01-1"]):
        header = json.loads(raw[:nl])
        header["test_days"] = bad
        cases.append((header, "test_days" if bad == "2012-01-02" else "bad checkpoint"))
    # every checkpoint carries a scaler whose values fit its track and network;
    # a bad one is refused on load, before it can warn or sample. A load
    # scaler's target_scale is 1 / learn_max, so a subnormal learn_max gives
    # an infinite scale
    header = json.loads(raw[:nl])
    header["track"] = header["scaler"]["track"] = "load"
    header["scaler"]["learn_max"] = 1e-320
    cases.append((header, "target_scale must be finite and > 0"))
    k = len(json.loads(raw[:nl])["scaler"]["cov_scale"])
    for key, bad, message in (
        (None, None, "'scaler' is missing or mistyped"),
        ("track", "load", "track must be"),
        ("learn_max", float("nan"), "learn_max must be finite"),
        ("cov_scale", [float("inf")] * k, "cov_scale needs one finite entry > 0"),
        ("learn_max", KeyError, "lacks the field 'learn_max'"),
        ("target_fixed", [None, 0.0, None], "target_fixed needs 24 hours"),
    ):
        header = json.loads(raw[:nl])
        if key is None:
            header["scaler"] = bad
        elif bad is KeyError:
            del header["scaler"][key]
        else:
            header["scaler"][key] = bad
        cases.append((header, message))
    for header, message in cases:
        ckpt.write_bytes(json.dumps(header).encode() + raw[nl:])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["generate", "--config", str(tmp_path / "cfg_pv.json"), "--out",
                       str(tmp_path / "op"), "--checkpoint", str(ckpt)])
        assert rc == 4
        doc = _stderr_error(capsys)
        assert doc["error"] == "ModelValidationError" and message in doc["message"]
        assert not (tmp_path / "op").exists()

    # a consistent checkpoint whose network samples 12 hours, not a day's 24,
    # or one TrainConfig could not have built: a hidden layer without units
    # would sample noise, and an embedding width of 0 or 3 fails in the
    # step embedding
    ckpt.write_bytes(raw)
    params, sched, scaler, header = dif.load_checkpoint(ckpt)
    for hidden, sample_dim, embed_dim, message in (
            (params.hidden, 12, params.embed_dim, "sample_dim is 12, expected 24"),
            ((0,), 24, params.embed_dim, "hidden sizes must be >= 1, got [0]"),
            ((16, 0), 24, params.embed_dim, "hidden sizes must be >= 1, got [16, 0]"),
            (params.hidden, 24, 0, "embed_dim must be positive and even, got 0"),
            (params.hidden, 24, 3, "embed_dim must be positive and even, got 3")):
        net = nn.init_params(hidden, sample_dim=sample_dim, embed_dim=embed_dim,
                             cond_dim=params.cond_dim, seed=0)
        dif.save_checkpoint(ckpt, net, sched, scaler, "pv", 1, header["test_days"])
        rc = main(["generate", "--config", str(tmp_path / "cfg_pv.json"), "--out",
                   str(tmp_path / "op"), "--checkpoint", str(ckpt)])
        assert rc == 4
        doc = _stderr_error(capsys)
        assert doc["error"] == "ModelValidationError" and message in doc["message"]
        assert not (tmp_path / "op").exists()


def test_exit_2_os_errors(tmp_path, capsys):
    """A path the OS refuses is one JSON error line, never a traceback."""
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "5", "--out", str(data)]) == 0
    capsys.readouterr()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    # evaluate makes its output directory only after it has read both files,
    # so the output path cases read a valid pair
    rng = np.random.default_rng(0)
    days = [date(2015, 1, 1 + i) for i in range(10)]  # the fewest evaluate scores
    scen, obs = tmp_path / "s.csv", tmp_path / "obs.csv"
    dif.write_scenarios([dif.ScenarioSet(d, 2, rng.uniform(0, 1, (2, 24)), np.zeros(1))
                         for d in days], scen)
    dmod.write_observations(dmod.Dataset(samples=[
        dmod.DaySample(d, "pv", 1, rng.uniform(0, 1, 24), np.zeros(24)) for d in days]),
        obs, split="learn", zone=1)
    cases = [
        (["--scenarios", str(tmp_path), "--observations", str(data),
          "--out", str(tmp_path / "o1")], "IsADirectoryError"),
        (["--scenarios", str(scen), "--observations", str(obs),
          "--out", str(a_file)], "FileExistsError"),
        (["--scenarios", str(scen), "--observations", str(obs),
          "--out", str(a_file / "sub")], "NotADirectoryError"),
    ]
    for args, error in cases:
        assert main(["evaluate"] + args) == 2
        assert _stderr_error(capsys)["error"] == error
    # a write that fails inside the CSV writer takes the same route
    assert main(["synth", "--profile", "sine_pv", "--days", "5", "--out", str(tmp_path)]) == 2
    assert _stderr_error(capsys)["error"] == "IsADirectoryError"


def test_malformed_json_inputs_are_one_error_line(tmp_path, capsys):
    """A config that is not UTF-8 or that nests past the parser's depth, and a
    checkpoint header that nests past it, end in one JSON line, not a traceback."""
    deep = "[" * 200_000 + "]" * 200_000
    cfg = tmp_path / "c.json"
    for raw in (b'{"track": "pv\xff"}', deep.encode()):
        cfg.write_bytes(raw)
        assert main(["train", "--config", str(cfg)]) == 2
        assert _stderr_error(capsys)["error"] == "ConfigError"

    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "10", "--out", str(data)]) == 0
    ckpt = tmp_path / "deep.ckpt"
    ckpt.write_bytes(deep.encode() + b"\n")
    capsys.readouterr()
    rc = main(["generate", "--config", str(_write_config(tmp_path, "pv", data)),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert rc == 4
    doc = _stderr_error(capsys)
    assert doc["error"] == "ModelValidationError"
    assert "nested too deeply" in doc["message"]


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
    assert not (tmp_path / "oe").exists()


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
    assert not (tmp_path / "oe").exists()


def _overflow_argv(tmp_path, case):
    """argv and expected message for a finite input whose arithmetic
    overflows float range."""
    rng = np.random.default_rng(0)
    days = [date(2015, 3, 1 + i) for i in range(12)]

    def files(track, big):
        # every day's scenarios and observation, with hour 7 of the last day set to `big`
        sets = [dif.ScenarioSet(d, 3, rng.uniform(0.1, 0.9, (3, 24)), np.zeros(1)) for d in days]
        ds = dmod.Dataset(samples=[dmod.DaySample(d, track, 1, rng.uniform(0.1, 0.9, 24),
                                                  np.zeros(24)) for d in days])
        sets[-1].scenarios[:, 7] = big
        ds.samples[-1].x[7] = big
        scen, obs = tmp_path / f"s_{track}.csv", tmp_path / f"o_{track}.csv"
        dif.write_scenarios(sets, scen)
        dmod.write_observations(ds, obs, split="learn", zone=1)
        return ["--scenarios-" + track, str(scen), "--obs-" + track, str(obs)]

    out = str(tmp_path / "out")
    if case == "evaluate-base":
        argv = files("pv", 0.5)
        return (["evaluate", "--scenarios", argv[1], "--observations", argv[3], "--base",
                 "1e-300", "--out", out], "day 2015-03-01: a score is not finite at base 1e-300")
    if case == "evaluate-values":
        argv = files("pv", 1e308)
        return (["evaluate", "--scenarios", argv[1], "--observations", argv[3], "--out", out],
                "day 2015-03-12: a score is not finite at base 1.0")
    if case == "value":
        argv = files("wind", 1e308) + files("pv", 1e308) + files("load", 0.5)
        return (["value", "--out", out] + argv,
                "day 2015-03-12, pv zone 1, wind zone 1: the net position")
    if case == "value-lp":  # the net positions are finite, the LPs' arithmetic is not
        argv = files("wind", 1e308) + files("pv", 0.5) + files("load", 0.5)
        return (["value", "--out", out] + argv,
                "day 2015-03-12, pv zone 1, wind zone 1: the bidding LPs' arithmetic fails")
    data = tmp_path / "pv.csv"  # train: w1 alternates -1e308 and +1e308, so its range overflows
    assert main(["synth", "--profile", "sine_pv", "--days", "30", "--seed", "1",
                 "--out", str(data)]) == 0
    header, *lines = data.read_text().splitlines()
    assert header.endswith(",w1")
    lines = [line.rpartition(",")[0] + (",1e308" if k % 2 else ",-1e308")
             for k, line in enumerate(lines)]
    data.write_text("\n".join([header] + lines) + "\n")
    return (["train", "--config", str(_write_config(tmp_path, "pv", data)), "--out", out],
            "non-finite values in day 2012-01-01")


@pytest.mark.parametrize("case", ["evaluate-base", "evaluate-values", "value", "value-lp",
                                  "train"])
def test_exit_2_finite_inputs_whose_arithmetic_overflows(tmp_path, capsys, case):
    """`evaluate` at a base so small that the scores overflow, `evaluate` and
    `value` on files holding 1e308 (for `value-lp` only in wind, so the net
    positions stay finite), and `train` on a covariate whose range
    overflows: each exits 2 with one JSON line naming what overflowed, warns
    nothing, also when RuntimeWarnings are errors, and writes nothing."""
    argv, message = _overflow_argv(tmp_path, case)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert message in _stderr_error(capsys)["message"]
    assert not (tmp_path / "out").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert message in _stderr_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


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


def test_exit_6_value_observation_zone_without_scenarios(tmp_path, capsys):
    """Every track simulates the zones either of its flags names: a pv or
    wind observation zone with no scenarios is a coverage error, not a zone
    silently left out of the report."""
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    args = _value_args(tmp_path, days, days)
    for track in ("pv", "wind"):
        obs = args[args.index(f"--obs-{track}") + 1]
        capsys.readouterr()
        assert main(args + [f"--obs-{track}", "2=" + obs]) == 6
        doc = _stderr_error(capsys)
        assert doc["error"] == "CoverageError" and f"ddpm:{track}:2015-02-01:zone2" in doc["message"]
        assert not (tmp_path / "ov").exists()


def _without(args, *flags):
    """`args` with every flag in `flags` and its value removed."""
    out = []
    for flag, val in zip(args[1::2], args[2::2]):
        if flag not in flags:
            out += [flag, val]
    return args[:1] + out


def test_exit_6_value_with_nothing_to_simulate(tmp_path, capsys):
    """No load files (so no day), no pv or wind files, or no files at all:
    `value` would report zero rows, so it exits 6 naming what is empty and
    makes no output directory."""
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    args = _value_args(tmp_path, days, days)
    capsys.readouterr()
    for flags, empty in (
            (("--scenarios-load", "--obs-load"), "no days"),
            (("--scenarios-pv", "--obs-pv"), "no pv_zones"),
            (("--scenarios-wind", "--obs-wind"), "no wind_zones"),
            (("--scenarios-wind", "--obs-wind", "--scenarios-load", "--obs-load"),
             "no days, no wind_zones"),
            (("--scenarios-wind", "--obs-wind", "--scenarios-pv", "--obs-pv",
              "--scenarios-load", "--obs-load"), "no days, no pv_zones, no wind_zones")):
        assert main(_without(args, *flags)) == 6
        doc = _stderr_error(capsys)
        assert doc["error"] == "CoverageError"
        assert doc["message"] == f"nothing to simulate: {empty}"
        assert not (tmp_path / "ov").exists()


def test_exit_2_bad_retailer_config(tmp_path, capsys):
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retailer": {"soc_start": 50.0, "capacity": 10.0}}))
    assert main(_value_args(tmp_path, days, days) + ["--config", str(cfg)]) == 2
    doc = _stderr_error(capsys)
    assert doc["error"] == "ParameterError"
    assert "soc_start" in doc["message"]


def test_exit_2_value_names_more_than_one_load_zone(tmp_path, capsys):
    """A zone prefix must name a zone of its track: load has only zone 1, pv
    zones 1..3 and wind zones 1..10. A second load zone would be read and
    ignored, and an observation zone other than the scenarios' would leave no
    day to simulate. Each is refused before any file is read."""
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    args = _value_args(tmp_path, days, days)
    load_scen = args[args.index("--scenarios-load") + 1]
    load_obs = args.index("--obs-load") + 1
    moved = args[:load_obs] + ["2=" + args[load_obs]] + args[load_obs + 1:]
    for argv, flag, zone in (
            (args + ["--scenarios-load", "2=" + load_scen], "scenarios-load", 2),
            (moved, "obs-load", 2),
            (args + ["--scenarios-pv", "0=" + load_scen], "scenarios-pv", 0),
            (args + ["--scenarios-pv=-1=" + load_scen], "scenarios-pv", -1),
            (args + ["--scenarios-pv", "4=" + load_scen], "scenarios-pv", 4),
            (args + ["--obs-wind", "11=" + load_scen], "obs-wind", 11)):
        capsys.readouterr()
        assert main(argv) == 2
        doc = _stderr_error(capsys)
        track = flag.partition("-")[2]
        assert doc["error"] == "ConfigError"
        assert doc["message"].startswith(f"{flag}: zone {zone} in ")
        assert f"is not a {track} zone" in doc["message"]
        assert not (tmp_path / "ov").exists()
    # the range is checked before any file is read: a zone outside it with a
    # missing file is still the zone refusal, and so is one after a bad file
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,scenario,file\n")
    bad_wind = _without(args, "--scenarios-wind") + ["--scenarios-wind", str(bad)]
    for argv in (args + ["--obs-wind", f"11={tmp_path / 'none.csv'}"],
                 bad_wind + ["--scenarios-pv", "4=" + load_scen]):
        capsys.readouterr()
        assert main(argv) == 2
        assert "is not a" in _stderr_error(capsys)["message"]
        assert not (tmp_path / "ov").exists()


def test_value_with_a_zero_capacity_battery(tmp_path, capsys):
    """Every battery bound is zero (charge, discharge and state of charge are
    fixed at 0): the LPs still solve and `value` exits 0."""
    days = [date(2015, 2, 1), date(2015, 2, 2)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retailer": {"capacity": 0.0, "p_charge": 0.0,
                                            "p_discharge": 0.0, "soc_start": 0.0,
                                            "soc_end": 0.0}}))
    assert main(_value_args(tmp_path, days, days) + ["--config", str(cfg)]) == 0
    out = tmp_path / "ov"
    assert capsys.readouterr().out.split() == [str(out / "value_report.json"),
                                               str(out / "value_report.csv")]
    doc = json.loads((out / "value_report.json").read_text())
    assert doc["n_simulated"] == 2 and len(doc["rows"]) == 6
    assert doc["aggregate"]["ddpm"] <= doc["aggregate"]["oracle"] + 1e-6


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
