"""Dataset loading, splitting, normalization, and synthetic generators."""
import math
from datetime import date

import numpy as np
import pytest

from scendiff import data as dmod
from scendiff.errors import (
    DegenerateScaleError,
    InsufficientDataError,
    IntegrityError,
    ParameterError,
    ParseError,
    SchemaError,
)


def _mini_csv(path, rows, k=1):
    header = "date,hour,zone,target," + ",".join(f"w{i+1}" for i in range(k))
    path.write_text("\n".join([header] + rows) + "\n")


def _full_day(day, zone, k=1, target=0.5):
    return [f"{day},{h},{zone},{target}," + ",".join(["1.0"] * k) for h in range(24)]


# ---------------------------------------------------------------- DaySample


def test_day_sample_validates_shapes_and_zone():
    x = np.zeros(24)
    c = np.zeros(24)
    s = dmod.DaySample(date(2012, 1, 1), "pv", 1, x, c)
    s.validate()
    assert s.n_channels == 1

    with pytest.raises(IntegrityError):
        dmod.DaySample(date(2012, 1, 1), "pv", 9, x, c).validate()
    with pytest.raises(IntegrityError):
        dmod.DaySample(date(2012, 1, 1), "pv", 1, np.zeros(23), c).validate()
    with pytest.raises(IntegrityError):
        dmod.DaySample(date(2012, 1, 1), "pv", 1, x, np.zeros(25)).validate()
    with pytest.raises(ParameterError):
        dmod.DaySample(date(2012, 1, 1), "hydro", 1, x, c).validate()


def test_day_sample_rejects_non_finite():
    x = np.zeros(24)
    x[3] = np.nan
    with pytest.raises(IntegrityError):
        dmod.DaySample(date(2012, 1, 1), "pv", 1, x, np.zeros(24)).validate()


def test_day_sample_unit_range_check_applies_to_pv_wind_only():
    x = np.full(24, 1.5)
    dmod.DaySample(date(2012, 1, 1), "load", 1, x, np.zeros(24)).validate(
        check_unit_range=True
    )
    with pytest.raises(IntegrityError):
        dmod.DaySample(date(2012, 1, 1), "wind", 1, x, np.zeros(24)).validate(
            check_unit_range=True
        )


# ------------------------------------------------------------------ load_csv


def test_load_csv_round_trip(tmp_path, pv_dataset):
    p = tmp_path / "pv.csv"
    dmod.write_csv(pv_dataset, p)
    back = dmod.load_csv(p, "pv")
    assert back.days() == pv_dataset.days()
    assert back.dropped == 0
    orig = {(s.day_id, s.zone): s for s in pv_dataset.samples}
    for s in back.samples:
        o = orig[(s.day_id, s.zone)]
        np.testing.assert_array_equal(s.x, o.x)
        np.testing.assert_array_equal(s.c, o.c)


def test_load_csv_drops_and_counts_incomplete_days(tmp_path):
    rows = _full_day("2012-01-01", 1)
    rows += _full_day("2012-01-02", 1)[:23]  # hour 23 absent
    rows += [r for r in _full_day("2012-01-03", 1)]
    p = tmp_path / "d.csv"
    _mini_csv(p, rows)
    ds = dmod.load_csv(p, "pv")
    assert ds.dropped == 1
    assert ds.days() == [date(2012, 1, 1), date(2012, 1, 3)]


def test_load_csv_drops_days_with_empty_cells(tmp_path):
    rows = _full_day("2012-01-01", 1)
    bad = _full_day("2012-01-02", 1)
    bad[13] = "2012-01-02,13,1,,1.0"  # empty target cell
    rows += bad
    nanw = _full_day("2012-01-03", 1)
    nanw[5] = "2012-01-03,5,1,0.5,nan"  # missing weather cell
    rows += nanw
    p = tmp_path / "d.csv"
    _mini_csv(p, rows)
    ds = dmod.load_csv(p, "pv")
    assert ds.dropped == 2
    assert ds.days() == [date(2012, 1, 1)]


def test_load_csv_duplicate_row_is_an_integrity_error(tmp_path):
    rows = _full_day("2012-01-01", 1)
    rows.append("2012-01-01,7,1,0.5,1.0")
    p = tmp_path / "d.csv"
    _mini_csv(p, rows)
    with pytest.raises(IntegrityError, match="duplicate hour 7"):
        dmod.load_csv(p, "pv")


def test_load_csv_rejects_bad_hour_and_zone(tmp_path):
    p = tmp_path / "d.csv"
    _mini_csv(p, ["2012-01-01,24,1,0.5,1.0"])
    with pytest.raises(IntegrityError, match="hour 24"):
        dmod.load_csv(p, "pv")
    _mini_csv(p, ["2012-01-01,0,4,0.5,1.0"])
    with pytest.raises(IntegrityError, match="zone 4"):
        dmod.load_csv(p, "pv")


def test_load_csv_parse_errors_carry_row_numbers(tmp_path):
    p = tmp_path / "d.csv"
    _mini_csv(p, ["2012-01-01,0,1,abc,1.0"])
    with pytest.raises(ParseError, match="row 2"):
        dmod.load_csv(p, "pv")
    _mini_csv(p, ["01/02/2012,0,1,0.5,1.0"])
    with pytest.raises(ParseError, match="bad date"):
        dmod.load_csv(p, "pv")
    # hour and zone must be whole numbers; 1.0 is one
    for row in ("2012-01-01,0.7,1,0.5,1.0", "2012-01-01,0,1.5,0.5,1.0",
                "2012-01-01,nan,1,0.5,1.0"):
        _mini_csv(p, [row])
        with pytest.raises(ParseError, match="row 2"):
            dmod.load_csv(p, "pv")
    _mini_csv(p, [r.replace(",1,", ",1.0,", 1) for r in _full_day("2012-01-01", 1)])
    assert dmod.load_csv(p, "pv").days() == [date(2012, 1, 1)]


def test_load_csv_parses_each_date_cell_once(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    rows = _full_day("2012-01-01", 1)
    rows[1] = rows[5] = rows[1].replace("2012-01-01", "2012-13-01")  # file rows 3 and 7
    _mini_csv(p, rows)
    with pytest.raises(ParseError, match="row 3: bad date '2012-13-01'"):
        dmod.load_csv(p, "pv")
    calls = []
    parse = dmod._parse_date
    monkeypatch.setattr(dmod, "_parse_date", lambda cell, row_no: calls.append(cell)
                        or parse(cell, row_no))
    _mini_csv(p, _full_day("2012-01-01", 1) + _full_day("2012-01-02", 1)
              + _full_day("2012-01-01", 2))
    assert dmod.load_csv(p, "pv").days() == [date(2012, 1, 1), date(2012, 1, 2)]
    assert calls == ["2012-01-01", "2012-01-02"]


def test_load_csv_schema_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        dmod.load_csv(p, "pv")
    p.write_text("date,hour,zone,power,w1\n")
    with pytest.raises(SchemaError, match="header"):
        dmod.load_csv(p, "pv")
    p.write_text("date,hour,zone,target,wind1\n")
    with pytest.raises(SchemaError, match="w1"):
        dmod.load_csv(p, "pv")
    _mini_csv(p, ["2012-01-01,0,1,0.5"])  # one cell short
    with pytest.raises(SchemaError, match="expected 5 cells"):
        dmod.load_csv(p, "pv")
    with pytest.raises(ParameterError):
        dmod.load_csv(p, "tidal")


# -------------------------------------------------------------- split_random


def test_split_random_sizes_and_determinism(pv_dataset):
    learn = pv_dataset.split_days("learn")
    val = pv_dataset.split_days("validation")
    test = pv_dataset.split_days("test")
    assert (len(learn), len(val), len(test)) == (42, 9, 9)
    assert set(learn) | set(val) | set(test) == set(pv_dataset.days())
    assert not (set(learn) & set(test)) and not (set(val) & set(test))

    again = dmod.split_random(pv_dataset, (0.7, 0.15, 0.15), seed=5)
    assert again.split == pv_dataset.split
    other = dmod.split_random(pv_dataset, (0.7, 0.15, 0.15), seed=6)
    assert other.split != pv_dataset.split


def test_split_random_remainder_goes_to_learn():
    ds = dmod.generate_synthetic(10, 0, "sine_pv")
    out = dmod.split_random(ds, (1 / 3, 1 / 3, 1 / 3), seed=0)
    sizes = tuple(len(out.split_days(s)) for s in ("learn", "validation", "test"))
    assert sizes == (4, 3, 3)


def test_split_random_rejects_bad_fractions_and_tiny_datasets():
    ds = dmod.generate_synthetic(6, 0, "sine_pv")
    with pytest.raises(ParameterError, match="sum to 1"):
        dmod.split_random(ds, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ParameterError):
        dmod.split_random(ds, (1.0, 0.0, 0.0), seed=0)
    tiny = dmod.generate_synthetic(2, 0, "sine_pv")
    with pytest.raises(InsufficientDataError):
        dmod.split_random(tiny, (1 / 3, 1 / 3, 1 / 3), seed=0)


# ----------------------------------------------------------------- normalize


def test_normalize_pv_is_identity_on_targets(pv_dataset, pv_normalized):
    orig = {(s.day_id, s.zone): s for s in pv_dataset.samples}
    for s in pv_normalized.samples:
        np.testing.assert_allclose(s.x, orig[(s.day_id, s.zone)].x, atol=1e-12)
    assert pv_normalized.scaler.physical_bounds() == (0.0, 1.0)


def test_normalize_covariates_land_in_unit_interval(pv_normalized):
    learn_c = np.stack([s.c for s in pv_normalized.subset(split="learn")])
    assert learn_c.min() >= -1e-12 and learn_c.max() <= 1 + 1e-12


def test_normalize_load_divides_by_learn_max():
    ds = dmod.generate_synthetic(30, 3, "bimodal_load")
    ds = dmod.split_random(ds, (0.7, 0.15, 0.15), seed=1)
    norm = dmod.normalize(ds)
    learn_x = np.stack([s.x for s in ds.subset(split="learn")])
    assert norm.scaler.learn_max == pytest.approx(learn_x.max())
    nx = np.stack([s.x for s in norm.subset(split="learn")])
    assert nx.max() == pytest.approx(1.0)
    lo, hi = norm.scaler.physical_bounds()
    assert lo == 0.0 and hi == pytest.approx(1.2 * learn_x.max())


def test_normalize_then_denormalize_round_trips():
    ds = dmod.generate_synthetic(20, 9, "bimodal_load")
    ds = dmod.split_random(ds, (0.7, 0.15, 0.15), seed=2)
    back = dmod.denormalize(dmod.normalize(ds))
    for s, o in zip(back.samples, ds.samples):
        np.testing.assert_allclose(s.x, o.x, atol=1e-9)
        np.testing.assert_allclose(s.c, o.c, atol=1e-9)


def test_normalize_rejects_constant_covariate_channel():
    ds = dmod.generate_synthetic(12, 4, "sine_pv")
    for s in ds.samples:
        s.c = np.concatenate([s.c, np.full(24, 7.0)])  # add a flat channel
    with pytest.raises(DegenerateScaleError, match="w2"):
        dmod.normalize(ds)


def test_normalize_rejects_out_of_range_pv():
    ds = dmod.generate_synthetic(12, 4, "sine_pv")
    ds.samples[0].x = ds.samples[0].x + 2.0
    with pytest.raises(IntegrityError, match="outside"):
        dmod.normalize(ds)


def test_normalize_requires_learn_split():
    ds = dmod.generate_synthetic(5, 0, "sine_pv")
    ds.split = {d: "test" for d in ds.days()}
    with pytest.raises(InsufficientDataError):
        dmod.normalize(ds)


def test_scaler_dict_round_trip(pv_normalized):
    sc = pv_normalized.scaler
    back = dmod.Scaler.from_dict(sc.to_dict())
    assert back.track == sc.track
    assert back.target_scale == sc.target_scale
    np.testing.assert_array_equal(back.cov_offset, sc.cov_offset)
    x = np.linspace(0, 1, 24)
    np.testing.assert_allclose(back.inverse_target(back.transform_target(x)), x)


# ------------------------------------------------------- synthetic generators


def test_sine_pv_nights_are_exactly_zero(pv_dataset):
    night = dmod._daylight_shape() == 0.0
    assert night.sum() == 13  # hours 0-6 and 18-23; sin hits 0 at both ends
    for s in pv_dataset.samples:
        assert np.all(s.x[night] == 0.0)
        assert np.all(s.c[night] == 0.0)
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0


def test_sine_pv_covariates_encode_amplitude_times_shape(pv_dataset):
    s_shape = np.maximum(0.0, np.sin(np.pi * (np.arange(24) - 6) / 12))
    for s in pv_dataset.samples[:10]:
        a = s.c.max()  # shape peaks at 1, so max recovers the amplitude
        assert 0.3 <= a <= 0.8
        np.testing.assert_allclose(s.c, a * s_shape, atol=1e-12)


def test_ramp_wind_profile_properties(wind_dataset):
    for s in wind_dataset.samples:
        assert s.track == "wind"
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0
        assert s.n_channels == 1
    # power curve: higher mean wind speed should give higher mean output
    means = [(s.c.mean(), s.x.mean()) for s in wind_dataset.samples]
    means.sort()
    lo = np.mean([m[1] for m in means[:10]])
    hi = np.mean([m[1] for m in means[-10:]])
    assert hi > lo + 0.1


def test_bimodal_load_profile_properties():
    ds = dmod.generate_synthetic(28, 8, "bimodal_load")
    assert ds.track == "load"
    for s in ds.samples:
        assert s.n_channels == 2
        wkd = s.c[24:]
        assert np.all((wkd == 0.0) | (wkd == 1.0))
        assert wkd[0] == (1.0 if s.day_id.weekday() >= 5 else 0.0)
        assert s.x.min() >= 0.0
    # weekends run lighter than weekdays on average
    we = np.mean([s.x.mean() for s in ds.samples if s.day_id.weekday() >= 5])
    wd = np.mean([s.x.mean() for s in ds.samples if s.day_id.weekday() < 5])
    assert we < wd


def test_generate_synthetic_is_deterministic_and_validates_args():
    a = dmod.generate_synthetic(5, 42, "ramp_wind")
    b = dmod.generate_synthetic(5, 42, "ramp_wind")
    for s, t in zip(a.samples, b.samples):
        np.testing.assert_array_equal(s.x, t.x)
    with pytest.raises(ParameterError):
        dmod.generate_synthetic(0, 0, "sine_pv")
    with pytest.raises(ParameterError):
        dmod.generate_synthetic(5, 0, "square_pv")


def test_ar1_noise_has_unit_variance_and_target_autocorrelation():
    rng = np.random.default_rng(0)
    e = dmod._ar1(rng, 40000, 0.8)
    v = e.var(axis=0)
    assert np.all(np.abs(v - 1.0) < 0.05)
    r = np.mean(e[:, 1:] * e[:, :-1], axis=0)
    assert np.all(np.abs(r - 0.8) < 0.05)


# -------------------------------------------------- conditional law utilities


def test_clipped_normal_mean_matches_monte_carlo():
    rng = np.random.default_rng(1)
    mu = np.array([-0.1, 0.0, 0.3, 0.9, 2.0])
    sd = np.array([0.2, 0.05, 0.3, 0.2, 0.5])
    draws = np.clip(mu + sd * rng.standard_normal((400000, 5)), 0.0, 1.0)
    np.testing.assert_allclose(
        dmod._clipped_normal_mean(mu, sd, 0.0, 1.0), draws.mean(axis=0), atol=3e-3
    )


def test_clipped_normal_mean_handles_unbounded_top_and_zero_sd():
    rng = np.random.default_rng(2)
    mu = np.array([-0.5, 0.2, 1.5])
    sd = np.array([0.4, 0.3, 0.6])
    draws = np.maximum(0.0, mu + sd * rng.standard_normal((400000, 3)))
    np.testing.assert_allclose(
        dmod._clipped_normal_mean(mu, sd, 0.0, math.inf), draws.mean(axis=0), atol=3e-3
    )
    out = dmod._clipped_normal_mean(np.array([-1.0, 0.5]), np.array([0.0, 0.0]), 0.0, 1.0)
    np.testing.assert_array_equal(out, [0.0, 0.5])


def test_conditional_mean_matches_empirical_mean_of_scenarios(pv_dataset):
    s = pv_dataset.samples[0]
    scen = dmod.conditional_scenarios("sine_pv", s.c, m=60000, seed=3)
    mu = dmod.conditional_mean("sine_pv", s.c)
    np.testing.assert_allclose(scen.mean(axis=0), mu, atol=4e-3)
    night = s.c == 0.0
    assert np.all(scen[:, night] == 0.0)


def test_conditional_scenarios_cover_all_profiles(wind_dataset):
    w = wind_dataset.samples[0]
    scen = dmod.conditional_scenarios("ramp_wind", w.c, m=200, seed=4)
    assert scen.shape == (200, 24)
    assert scen.min() >= 0.0 and scen.max() <= 1.0
    ld = dmod.generate_synthetic(4, 5, "bimodal_load").samples[0]
    scen = dmod.conditional_scenarios("bimodal_load", ld.c, m=50, seed=5)
    assert scen.min() >= 0.0
    with pytest.raises(ParameterError):
        dmod.conditional_scenarios("sine_pv", w.c, m=0, seed=0)


def test_climatology_scenarios_resample_learn_days(pv_dataset):
    scen = dmod.climatology_scenarios(pv_dataset, m=50, seed=7)
    assert scen.shape == (50, 24)
    learn_rows = {tuple(s.x) for s in pv_dataset.subset(split="learn", zone=1)}
    for row in scen:
        assert tuple(row) in learn_rows


# ----------------------------------------------------------------- round-trips


def test_manifest_round_trip(tmp_path, pv_normalized):
    p = tmp_path / "manifest.json"
    dmod.write_manifest(pv_normalized, p)
    doc = dmod.read_manifest(p)
    assert doc["track"] == "pv"
    assert doc["n_days"] == 60
    assert doc["dropped"] == 0
    assert doc["split"] == pv_normalized.split
    assert doc["scaler"].learn_max == pv_normalized.scaler.learn_max


def test_observations_round_trip(tmp_path, pv_dataset):
    p = tmp_path / "obs.csv"
    dmod.write_observations(pv_dataset, p, split="test", zone=1)
    obs = dmod.read_observations(p)
    want = {s.day_id: s.x for s in pv_dataset.subset(split="test", zone=1)}
    assert set(obs) == set(want)
    for d, x in obs.items():
        np.testing.assert_array_equal(x, want[d])


def test_read_observations_rejects_bad_header_and_duplicates(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("day," + ",".join(f"hr{h}" for h in range(24)) + "\n")
    with pytest.raises(SchemaError):
        dmod.read_observations(p)
    header = "day," + ",".join(f"h{h}" for h in range(24))
    row = "2012-01-01," + ",".join(["0.1"] * 24)
    p.write_text("\n".join([header, row, row]) + "\n")
    with pytest.raises(IntegrityError, match="duplicate day"):
        dmod.read_observations(p)


# ------------------------------------------------------------- degenerate hours


def test_normalize_records_learn_constant_hours(pv_normalized):
    """Hours whose target never varies on the learn split (the night hours of
    this track) are recorded so samplers can reproduce the point mass."""
    fixed = pv_normalized.scaler.target_fixed
    assert fixed is not None and fixed.shape == (24,)
    shape = dmod._daylight_shape()
    assert np.all(fixed[shape == 0.0] == 0.0)
    assert np.all(np.isnan(fixed[shape > 0.0]))


def _plain_scaler(track="pv", target_fixed=None):
    return dmod.Scaler(track=track, target_offset=0.0, target_scale=1.0,
                       learn_max=1.0, cov_offset=np.zeros(24),
                       cov_scale=np.ones(24), target_fixed=target_fixed)


def test_pin_fixed_overwrites_only_recorded_hours():
    fixed = np.full(24, np.nan)
    fixed[3] = 0.0
    fixed[20] = 7.5
    scaler = _plain_scaler("load", fixed)
    x = np.random.default_rng(0).uniform(1, 2, (5, 24))
    pinned = scaler.pin_fixed(x)
    assert np.all(pinned[:, 3] == 0.0)
    assert np.all(pinned[:, 20] == 7.5)
    keep = [t for t in range(24) if t not in (3, 20)]
    np.testing.assert_array_equal(pinned[:, keep], x[:, keep])


def test_pin_fixed_without_record_is_identity():
    scaler = _plain_scaler()
    x = np.arange(24.0)[None, :]
    assert scaler.pin_fixed(x) is x


def test_scaler_dict_round_trip_keeps_fixed_hours():
    fixed = np.full(24, np.nan)
    fixed[0] = 0.0
    doc = _plain_scaler(target_fixed=fixed).to_dict()
    assert doc["target_fixed"][0] == 0.0
    assert doc["target_fixed"][1] is None
    back = dmod.Scaler.from_dict(doc)
    assert back.target_fixed[0] == 0.0
    assert np.isnan(back.target_fixed[1:]).all()


def test_scaler_from_dict_tolerates_missing_fixed_hours():
    doc = _plain_scaler().to_dict()
    doc.pop("target_fixed")
    assert dmod.Scaler.from_dict(doc).target_fixed is None
