"""Every CSV writer against a csv.writer reference: the same bytes.

The reference bodies below are the csv.writer implementations the writers
replaced; each test feeds both the same awkward inputs (negative zero,
the smallest subnormal, large and tiny exponents, NaN and infinities where
the format allows them, numpy integer zones, text that needs quoting) and
compares the files byte for byte.
"""
import csv
import json
import math
from datetime import date, timedelta

import numpy as np

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff import metrics as met
from scendiff.cli import main
from scendiff.value import ValueReport

HOURS = 24
ODD = [-0.0, 5e-324, 1e22, 1e-300, -1.5e-308, 0.1, 1 / 3, 123456789.125]


def _odd_values(rng, shape):
    v = rng.normal(size=shape)
    flat = v.reshape(-1)
    flat[: len(ODD)] = ODD
    return v


def _ref_scenarios(sets, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["day", "scenario"] + [f"h{h}" for h in range(HOURS)])
        for s in sets:
            for m in range(s.m):
                writer.writerow(
                    [s.day_id.isoformat(), m + 1]
                    + [format(v, ".17g") for v in s.scenarios[m]]
                )


def _ref_observations(ds, path, split="test", zone=1):
    sel = ds.subset(split=split, zone=zone)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["day"] + [f"h{h}" for h in range(HOURS)])
        for s in sorted(sel, key=lambda s: s.day_id):
            writer.writerow([s.day_id.isoformat()] + [format(v, ".17g") for v in s.x])


def _ref_write_csv(ds, path):
    k = ds.samples[0].n_channels if ds.samples else 0
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["date", "hour", "zone", "target"] + [f"w{i+1}" for i in range(k)])
        for s in sorted(ds.samples, key=lambda s: (s.day_id, s.zone)):
            w = s.c.reshape(k, HOURS) if k else np.zeros((0, HOURS))
            for h in range(HOURS):
                row = [s.day_id.isoformat(), h, s.zone, format(s.x[h], ".17g")]
                row += [format(w[j, h], ".17g") for j in range(k)]
                writer.writerow(row)


def _ref_reliability(report, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["nominal", "empirical"])
        for q, freq in zip(met.QUANTILE_LEVELS, report.reliability_curve):
            writer.writerow([format(q * 100, ".17g"), format(freq * 100, ".17g")])


def _ref_value(report, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "day", "pv_zone", "wind_zone", "profit"])
        for r in report.rows:
            day = r["day"].isoformat() if isinstance(r["day"], date) else r["day"]
            writer.writerow([r["model"], day, r["pv_zone"], r["wind_zone"],
                             format(r["profit"], ".17g")])


def _ref_loss_log(log, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "learn_loss", "val_loss"])
        for row in log:
            writer.writerow([row["epoch"], format(row["learn_loss"], ".17g"),
                             format(row["val_loss"], ".17g")])


def _same_bytes(tmp_path, write, ref, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(*args, got)
    ref(*args, want)
    assert got.read_bytes() == want.read_bytes()
    return got


def test_write_scenarios_matches_csv_writer_and_round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    # 3 x 400 rows span more than one write block
    sets = [dif.ScenarioSet(date(2016, 2, 27) + timedelta(i), 400,
                            _odd_values(rng, (400, HOURS)), np.zeros(1)) for i in range(3)]
    got = _same_bytes(tmp_path, dif.write_scenarios, _ref_scenarios, sets)
    assert got.read_bytes().count(b"\r\n") == 1 + 3 * 400
    back = dif.read_scenarios(got)
    for s in sets:
        # bitwise: -0.0 keeps its sign, the subnormal its last bit
        assert back[s.day_id].tobytes() == s.scenarios.tobytes()


def test_write_observations_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(1)
    samples = [dmod.DaySample(date(2015, 1, 1) + timedelta(i), "pv", 1,
                              _odd_values(rng, HOURS), np.zeros(HOURS)) for i in (3, 0, 2)]
    ds = dmod.Dataset(samples=samples)
    _same_bytes(tmp_path, lambda d, p: dmod.write_observations(d, p, split="learn"),
                lambda d, p: _ref_observations(d, p, split="learn"), ds)


def test_write_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(2)
    samples = [dmod.DaySample(date(2015, 6, 1) + timedelta(i // 2), "pv", zone,
                              _odd_values(rng, HOURS), _odd_values(rng, 2 * HOURS))
               for i, zone in enumerate([np.int64(2), 1, 3, np.int64(1)])]
    _same_bytes(tmp_path, dmod.write_csv, _ref_write_csv, dmod.Dataset(samples=samples))
    # a dataset without weather channels
    bare = dmod.Dataset(samples=[dmod.DaySample(date(2015, 6, 1), "load", 1,
                                                _odd_values(rng, HOURS), np.zeros(0))])
    _same_bytes(tmp_path, dmod.write_csv, _ref_write_csv, bare)


def test_write_reliability_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    curve = rng.uniform(0, 1, 99).tolist()
    curve[:4] = [-0.0, 5e-324, 1e22, 1 / 3]
    report = met.QualityReport(crps=0.0, qs=0.0, mae_r=0.0, es=0.0, vs=0.0, n_days=1, m=1,
                               base=1.0, reliability_curve=curve)
    _same_bytes(tmp_path, lambda r, p: r.write_reliability_csv(p), _ref_reliability, report)


def test_value_report_csv_matches_csv_writer_and_quotes_text(tmp_path):
    rows = [
        {"model": "ddpm", "day": date(2017, 3, 4), "pv_zone": 1, "wind_zone": np.int64(7),
         "profit": -0.0},
        {"model": 'odd, "quoted"\nname', "day": date(2017, 3, 5), "pv_zone": np.int64(2),
         "wind_zone": 10, "profit": 5e-324},
        {"model": "cr\rname", "day": "not-a-date", "pv_zone": 3, "wind_zone": 1,
         "profit": 1e22},
        {"model": "oracle", "day": date(2017, 3, 6), "pv_zone": 1, "wind_zone": 1,
         "profit": 12345.678},
    ]
    got = _same_bytes(tmp_path, lambda r, p: r.write_csv(p), _ref_value, ValueReport(rows=rows))
    assert b'"odd, ""quoted""\nname"' in got.read_bytes()
    # rows without text that needs quoting, over more than one write block
    plain = ValueReport(rows=[dict(rows[0], profit=float(i)) for i in range(2500)])
    _same_bytes(tmp_path, lambda r, p: r.write_csv(p), _ref_value, plain)


def test_loss_log_matches_csv_writer(tmp_path, monkeypatch):
    log = [{"epoch": 0, "learn_loss": math.nan, "val_loss": math.inf},
           {"epoch": 1, "learn_loss": -math.inf, "val_loss": -0.0},
           {"epoch": 2, "learn_loss": 5e-324, "val_loss": 1e22},
           {"epoch": 3, "learn_loss": np.float64(0.1), "val_loss": 1 / 3}]
    real_train = dif.train
    monkeypatch.setattr(dif, "train", lambda *a, **k: (real_train(*a, **k)[0], log))
    data = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "30", "--seed", "2",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "split": {"fractions": [0.8, 0.1, 0.1]},
                               "schedule": {"n": 25, "beta_end": 0.4},
                               "optimizer": {"epochs": 1},
                               "model": {"hidden": [8], "embed_dim": 4}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _ref_loss_log(log, tmp_path / "want.csv")
    got = (tmp_path / "out" / "loss_pv_z1.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b"nan" in got and b"-inf" in got


def test_write_csv_multi_zone_out_of_order_with_missing_zones(tmp_path):
    """A wind dataset over four zones whose samples arrive in neither day nor
    zone order, with some zones missing on some days: each zone's cached
    template takes every date it meets, in (day, zone) order."""
    rng = np.random.default_rng(4)
    keys = [(d, z) for d in range(6) for z in (1, 2, 7, 10) if (d + z) % 3]
    order = rng.permutation(len(keys))
    samples = [dmod.DaySample(date(2014, 12, 30) + timedelta(keys[i][0]), "wind",
                              np.int64(keys[i][1]) if i % 2 else keys[i][1],
                              _odd_values(rng, HOURS), _odd_values(rng, 3 * HOURS))
               for i in order]
    ds = dmod.Dataset(samples=samples)
    assert {z for d, z in keys if d == 0} != {z for d, z in keys if d == 1}
    got = _same_bytes(tmp_path, dmod.write_csv, _ref_write_csv, ds)
    assert got.read_bytes().count(b"\r\n") == 1 + HOURS * len(keys)
    back = dmod.load_csv(got, "wind")
    assert [(s.day_id, s.zone) for s in back.samples] == sorted(
        (date(2014, 12, 30) + timedelta(d), z) for d, z in keys)


def test_write_scenarios_mixed_scenario_counts_in_one_file(tmp_path):
    """Days of M = 1, 3 and 100, each count seen more than once and not in
    turn, share one file; the template cached for one M serves its later
    days, and reading the file back gives every set bit for bit."""
    rng = np.random.default_rng(5)
    counts = [3, 100, 1, 3, 1, 100, 3]
    sets = [dif.ScenarioSet(date(2016, 12, 30) + timedelta(i), m, _odd_values(rng, (m, HOURS)),
                            np.zeros(1)) for i, m in enumerate(counts)]
    got = _same_bytes(tmp_path, dif.write_scenarios, _ref_scenarios, sets)
    assert got.read_bytes().count(b"\r\n") == 1 + sum(counts)
    back = dif.read_scenarios(got)
    for s in sets:
        assert back[s.day_id].tobytes() == s.scenarios.tobytes()


def test_write_observations_over_several_blocks(tmp_path):
    """More days than two blocks and a short last block, out of day order,
    among other zones and splits that the selection leaves out."""
    rng = np.random.default_rng(6)
    n = 2 * dmod.OBS_BLOCK + 5
    days = [date(2013, 1, 1) + timedelta(int(i)) for i in rng.permutation(n + 20)]
    samples = [dmod.DaySample(d, "wind", zone, _odd_values(rng, HOURS), np.zeros(HOURS))
               for d in days for zone in (1, 3)]
    split = {d: "test" if k < n else "validation" for k, d in enumerate(days)}
    ds = dmod.Dataset(samples=samples, split=split)
    for zone in (1, 3):
        got = _same_bytes(tmp_path, lambda d, p: dmod.write_observations(d, p, zone=zone),
                          lambda d, p: _ref_observations(d, p, zone=zone), ds)
        assert got.read_bytes().count(b"\r\n") == 1 + n
        back = dmod.read_observations(got)
        assert sorted(back) == sorted(days[:n])
        for s in ds.subset(split="test", zone=zone):
            assert back[s.day_id].tobytes() == s.x.tobytes()
