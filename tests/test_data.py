"""Dataset loading, splitting, normalization, and synthetic generators."""
import math
from dataclasses import replace
from datetime import date, timedelta

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
from oracles import (climatology_scenarios, clipped_normal_mean, conditional_mean, read_manifest,
                     split_days)


def _mini_csv(path, rows, k=1):
    header = "date,hour,zone,target," + ",".join(f"w{i+1}" for i in range(k))
    path.write_text("\n".join([header] + rows) + "\n")


def _full_day(day, zone, k=1, target=0.5):
    return [f"{day},{h},{zone},{target}," + ",".join(["1.0"] * k) for h in range(24)]


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


@pytest.mark.parametrize("cell", [3, 4])  # the target, then w1
def test_load_csv_refuses_an_infinite_cell_naming_its_day(tmp_path, cell):
    """A day with an infinite cell is refused, not dropped, and the error
    names the first such day in date order, not file order; a day that also
    misses a cell is dropped first."""
    def day(name, value=None, missing=False):
        rows = _full_day(name, 1)
        if value is not None:
            cells = rows[7].split(",")
            cells[cell] = value
            rows[7] = ",".join(cells)
        if missing:
            rows[9] = f"{name},9,1,,1.0"
        return rows

    rows = (day("2012-01-05", "inf") + day("2012-01-01") + day("2012-01-02", "-inf", missing=True)
            + day("2012-01-03", "+inf"))
    p = tmp_path / "d.csv"
    _mini_csv(p, rows)
    with pytest.raises(IntegrityError, match="^non-finite values in day 2012-01-03$"):
        dmod.load_csv(p, "pv")


def test_load_csv_refuses_an_unknown_track(tmp_path):
    p = tmp_path / "d.csv"
    _mini_csv(p, _full_day("2012-01-01", 1))
    with pytest.raises(ParameterError, match="unknown track 'hydro'"):
        dmod.load_csv(p, "hydro")


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
    # a blank cell means missing; a bad cell after it still names its row
    _mini_csv(p, ["2012-01-01,0,1, ,1.0", "2012-01-01,1,1,0.5,1.0", "2012-01-01,2,1,0.5,abc"])
    with pytest.raises(ParseError, match="^row 4: could not convert string to float: 'abc'$"):
        dmod.load_csv(p, "pv")


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
    learn = split_days(pv_dataset, "learn")
    val = split_days(pv_dataset, "validation")
    test = split_days(pv_dataset, "test")
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
    sizes = tuple(len(split_days(out, s)) for s in ("learn", "validation", "test"))
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


def test_empty_split_selects_no_days():
    """Only a Dataset built with no split makes every day a learn day."""
    ds = dmod.generate_synthetic(5, 0, "sine_pv")
    assert split_days(ds, "learn") == ds.days()
    none = replace(ds, split={})
    assert none.split == {} and none.subset(split="learn") == []
    assert dmod.Dataset(samples=[], split=None).split == {}
    with pytest.raises(InsufficientDataError):
        dmod.normalize(none)


# ----------------------------------------------------------------- normalize


def test_normalize_pv_is_identity_on_targets(pv_dataset, pv_fitted):
    """normalize fits the scaler and leaves the samples alone; pv targets
    map to 2x - 1 and come back clipped to [0, 1]."""
    assert pv_fitted.samples is pv_dataset.samples
    assert pv_fitted.split == pv_dataset.split
    sc = pv_fitted.scaler
    x = np.stack([s.x for s in pv_dataset.samples])
    np.testing.assert_array_equal(sc.to_model(x), 2.0 * x - 1.0)
    free = np.isnan(sc.target_fixed)
    assert np.all(sc.to_physical(np.full((2, 24), 5.0))[:, free] == 1.0)
    assert np.all(sc.to_physical(np.full((2, 24), -5.0))[:, free] == 0.0)


def test_normalize_covariates_land_in_unit_interval(pv_fitted):
    learn_c = pv_fitted.scaler.transform_cov(
        np.stack([s.c for s in pv_fitted.subset(split="learn")]))
    assert learn_c.min() >= -1e-12 and learn_c.max() <= 1 + 1e-12


def test_normalize_load_divides_by_learn_max():
    ds = dmod.generate_synthetic(30, 3, "bimodal_load")
    ds = dmod.split_random(ds, (0.7, 0.15, 0.15), seed=1)
    norm = dmod.normalize(ds)
    learn_x = np.stack([s.x for s in ds.subset(split="learn")])
    assert norm.scaler.learn_max == pytest.approx(learn_x.max())
    assert norm.scaler.to_model(learn_x).max() == pytest.approx(1.0)
    assert np.all(norm.scaler.to_physical(np.full((1, 24), -5.0)) == 0.0)
    hi = norm.scaler.to_physical(np.full((1, 24), 5.0))
    np.testing.assert_allclose(hi, 1.2 * learn_x.max(), rtol=1e-15)


def test_normalize_then_inverse_target_round_trips():
    ds = dmod.generate_synthetic(20, 9, "bimodal_load")
    ds = dmod.split_random(ds, (0.7, 0.15, 0.15), seed=2)
    sc = dmod.normalize(ds).scaler
    for s in ds.samples:
        np.testing.assert_allclose(sc.to_physical(sc.to_model(s.x)), s.x, atol=1e-9)


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


def test_normalize_rejects_non_finite_mapped_values():
    """A raw NaN target, or a covariate whose map overflows, is refused."""
    ds = dmod.generate_synthetic(12, 4, "sine_pv")
    ds.samples[0].x = ds.samples[0].x.copy()
    ds.samples[0].x[12] = np.nan
    with pytest.raises(IntegrityError, match="non-finite"):
        dmod.normalize(ds)
    ds = dmod.generate_synthetic(12, 4, "bimodal_load")
    ds.samples[3].c = ds.samples[3].c.copy()
    ds.samples[3].c[:24] = 1e308  # the learn range overflows, so the map is 0 * inf
    ds.samples[5].c = ds.samples[5].c.copy()
    ds.samples[5].c[:24] = -1e308
    with pytest.raises(IntegrityError, match="non-finite"):  # and warns nothing
        dmod.normalize(ds)


def _first_refusal(ds, scaler):
    """normalize's checks as the per-sample loop they replace: the check and
    message for the first sample that fails, or None."""
    for s in ds.samples:
        if not (np.isfinite(s.x).all() and np.isfinite(s.c).all()):
            return "raw", f"non-finite values in day {s.day_id}"
        if ds.track != "load" and (s.x.min() < -1e-6 or s.x.max() > 1 + 1e-6):
            return "range", f"{ds.track} day {s.day_id} zone {s.zone} outside [0, 1]"
        if not (np.isfinite(scaler.to_model(s.x)).all()
                and np.isfinite(scaler.transform_cov(s.c)).all()):
            return "mapped", f"non-finite values in day {s.day_id}"
    return None


@pytest.mark.parametrize("profile", ["sine_pv", "bimodal_load"])
def test_normalize_refuses_the_sample_the_loop_would(profile):
    """Up to three days outside the learn split get a non-finite, out-of-range
    or overflowing value; the vectorized checks name the loop's sample."""
    rng = np.random.default_rng(7)
    bads = [("x", np.nan), ("x", np.inf), ("x", -np.inf), ("x", 1.5), ("x", -0.5),
            ("x", 1e308), ("c", np.nan), ("c", -np.inf), ("c", -1.7e308)]
    refused = set()
    for trial in range(60):
        ds = dmod.split_random(dmod.generate_synthetic(30, trial, profile), (0.5, 0.25, 0.25),
                               seed=trial)
        scaler = dmod.normalize(replace(ds, samples=ds.subset(split="learn"))).scaler
        held_out = [i for i, s in enumerate(ds.samples) if ds.split[s.day_id] != "learn"]
        for i in rng.choice(held_out, size=rng.integers(1, 4), replace=False):
            name, bad = bads[rng.integers(len(bads))]
            v = getattr(ds.samples[i], name).copy()
            v[rng.integers(v.size)] = bad
            ds.samples[i] = replace(ds.samples[i], **{name: v})
        with np.errstate(all="ignore"):
            expected = _first_refusal(ds, scaler)
        if expected is None:
            assert dmod.normalize(ds).scaler.to_dict() == scaler.to_dict()
            continue
        with pytest.raises(IntegrityError) as e:
            dmod.normalize(ds)
        assert str(e.value) == expected[1]
        refused.add(expected[0])
    # a load target has no range, and no load value here overflows its map
    assert refused == ({"raw", "range", "mapped"} if profile == "sine_pv" else {"raw"})


def test_normalize_requires_learn_split():
    ds = dmod.generate_synthetic(5, 0, "sine_pv")
    ds.split = {d: "test" for d in ds.days()}
    with pytest.raises(InsufficientDataError):
        dmod.normalize(ds)


def test_scaler_dict_round_trip(pv_fitted):
    sc = pv_fitted.scaler
    back = dmod.Scaler.from_dict(sc.to_dict())
    assert back.track == sc.track
    assert back.target_scale == sc.target_scale
    np.testing.assert_array_equal(back.cov_offset, sc.cov_offset)
    x = np.linspace(0, 1, 24)
    free = np.isnan(sc.target_fixed)
    np.testing.assert_allclose(back.to_physical(back.to_model(x))[free], x[free])


def _composed_to_model(sc, x):
    """The target map as normalize, then train's model-space map, wrote it
    before Scaler owned it: clip((x - 0) s, 0, 1) for pv/wind, then 2 y - 1."""
    y = (x - 0.0) * sc.target_scale
    if sc.track != "load":
        y = np.clip(y, 0.0, 1.0)
    return 2.0 * y - 1.0


def _composed_to_physical(sc, z):
    """The inverse as sample_days composed it before Scaler owned it: out of
    model space, divided by the scale, offset 0 added, clipped, pinned."""
    hi = 1.2 * sc.learn_max if sc.track == "load" else 1.0
    x = np.clip(0.5 * (z + 1.0) / sc.target_scale + 0.0, 0.0, hi)
    fixed = ~np.isnan(sc.target_fixed)
    x[..., fixed] = sc.target_fixed[fixed]
    return x


@pytest.mark.parametrize("profile", ["sine_pv", "ramp_wind", "bimodal_load"])
def test_scaler_map_keeps_the_composed_bits(profile):
    """to_model and to_physical give the values and sign bits of the chain
    of calls they replace, out-of-range values and signed zeros included."""
    ds = dmod.split_random(dmod.generate_synthetic(40, 8, profile), (0.7, 0.15, 0.15), seed=3)
    sc = dmod.normalize(ds).scaler
    rng = np.random.default_rng(5)
    top = sc.learn_max if sc.track == "load" else 1.0
    x = np.concatenate([rng.uniform(-0.5 * top, 1.5 * top, (50, 24)),
                        np.stack([s.x for s in ds.samples])])
    z = np.concatenate([rng.uniform(-1.5, 1.5, (50, 24)), sc.to_model(x)])
    for rows in (x, z):
        rows[:3, ::3] = [[0.0], [-0.0], [-1.0]]
        rows[3:5, 1::3] = [[1.0], [-1e-300]]
    for got, want in ((sc.to_model(x), _composed_to_model(sc, x)),
                      (sc.to_physical(z), _composed_to_physical(sc, z))):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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


def _reference_synthetic(n_days, seed, profile):
    """(targets, covariates) by each profile's own formula, written out with
    its constants, drawing from the generator in generate_synthetic's order."""
    rng = np.random.default_rng(seed)
    if profile == "sine_pv":
        s = dmod._daylight_shape()
        a = rng.uniform(0.3, 0.8, size=n_days)
        e = dmod._ar1(rng, n_days, 0.8)
        return np.clip(s[None, :] * (a[:, None] + 0.08 * e), 0.0, 1.0), a[:, None] * s[None, :]
    if profile == "ramp_wind":
        u = rng.uniform(4.0, 11.0, size=n_days)
        w = u[:, None] + 1.5 * dmod._ar1(rng, n_days, 0.7)
        e = dmod._ar1(rng, n_days, 0.6)
        g = 1.0 / (1.0 + np.exp(-(w - 7.5) / 1.2))
        return np.clip(g + 0.06 * e, 0.0, 1.0), w
    days = [date(2012, 1, 1) + timedelta(days=i) for i in range(n_days)]
    t = np.arange(24)
    delta = 3.0 * rng.standard_normal(n_days)
    theta = 10.0 + 8.0 * np.sin(np.pi * (t - 9) / 12)[None, :] + delta[:, None]
    wkd = np.array([1.0 if d.weekday() >= 5 else 0.0 for d in days])
    e = dmod._ar1(rng, n_days, 0.7)
    mu = dmod._load_base_shape()[None, :] * (1.0 - 0.10 * wkd[:, None]) + 0.012 * (15.0 - theta)
    x = 250.0 * np.maximum(0.0, mu + 0.04 * e)
    return x, np.concatenate([theta, np.repeat(wkd[:, None], 24, axis=1)], axis=1)


def _reference_conditional_mean(profile, c):
    """The clipped-Gaussian mean of one day's target by each profile's formula."""
    if profile == "sine_pv":
        s = dmod._daylight_shape()
        a = float(c.max())
        return clipped_normal_mean(a * s, 0.08 * s, 0.0, 1.0)
    if profile == "ramp_wind":
        g = 1.0 / (1.0 + np.exp(-(c - 7.5) / 1.2))
        return clipped_normal_mean(g, np.full(24, 0.06), 0.0, 1.0)
    mu = dmod._load_base_shape() * (1.0 - 0.10 * c[24]) + 0.012 * (15.0 - c[:24])
    return clipped_normal_mean(250.0 * mu, np.full(24, 250.0 * 0.04), 0.0, math.inf)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("profile", dmod.PROFILES)
def test_synthetic_law_matches_each_profiles_formula(profile):
    """generate_synthetic draws its targets through the law that
    conditional_mean and conditional_scenarios read, with the same bits,
    sign bits included, as each profile's own formula."""
    for seed in (1, 7, 300):
        ds = dmod.generate_synthetic(500, seed, profile)
        x, c = _reference_synthetic(500, seed, profile)
        np.testing.assert_array_equal(_bits(np.stack([s.x for s in ds.samples])), _bits(x))
        np.testing.assert_array_equal(_bits(np.stack([s.c for s in ds.samples])), _bits(c))
        for s in ds.samples[:40]:
            np.testing.assert_array_equal(_bits(conditional_mean(profile, s.c)),
                                          _bits(_reference_conditional_mean(profile, s.c)))


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
        clipped_normal_mean(mu, sd, 0.0, 1.0), draws.mean(axis=0), atol=3e-3
    )


def test_clipped_normal_mean_handles_unbounded_top_and_zero_sd():
    rng = np.random.default_rng(2)
    mu = np.array([-0.5, 0.2, 1.5])
    sd = np.array([0.4, 0.3, 0.6])
    draws = np.maximum(0.0, mu + sd * rng.standard_normal((400000, 3)))
    np.testing.assert_allclose(
        clipped_normal_mean(mu, sd, 0.0, math.inf), draws.mean(axis=0), atol=3e-3
    )
    out = clipped_normal_mean(np.array([-1.0, 0.5]), np.array([0.0, 0.0]), 0.0, 1.0)
    np.testing.assert_array_equal(out, [0.0, 0.5])


def test_conditional_mean_matches_empirical_mean_of_scenarios(pv_dataset):
    s = pv_dataset.samples[0]
    scen = dmod.conditional_scenarios("sine_pv", s.c, m=60000, seed=3)
    mu = conditional_mean("sine_pv", s.c)
    np.testing.assert_allclose(scen.mean(axis=0), mu, atol=4e-3)
    night = s.c == 0.0
    assert np.all(scen[:, night] == 0.0)
    # wind clipped to [0, 1] and load bounded at 0 and +inf, each at a
    # tolerance of 1/20 of its noise sd as for pv (0.08 -> 4e-3)
    for profile, atol in (("ramp_wind", 3e-3), ("bimodal_load", 0.5)):
        c = dmod.generate_synthetic(1, 3, profile).samples[0].c
        scen = dmod.conditional_scenarios(profile, c, m=60000, seed=3)
        mu = conditional_mean(profile, c)
        np.testing.assert_allclose(scen.mean(axis=0), mu, atol=atol)


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
    scen = climatology_scenarios(pv_dataset, m=50, seed=7)
    assert scen.shape == (50, 24)
    learn_rows = {tuple(s.x) for s in pv_dataset.subset(split="learn", zone=1)}
    for row in scen:
        assert tuple(row) in learn_rows


# ----------------------------------------------------------------- round-trips


def test_manifest_round_trip(tmp_path, pv_fitted):
    p = tmp_path / "manifest.json"
    dmod.write_manifest(pv_fitted, p)
    doc = read_manifest(p)
    assert doc["track"] == "pv"
    assert doc["n_days"] == 60
    assert doc["dropped"] == 0
    assert doc["split"] == pv_fitted.split
    assert doc["scaler"].learn_max == pv_fitted.scaler.learn_max


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


def test_normalize_records_learn_constant_hours(pv_fitted):
    """Hours whose target never varies on the learn split (the night hours of
    this track) are recorded so samplers can reproduce the point mass."""
    fixed = pv_fitted.scaler.target_fixed
    assert fixed is not None and fixed.shape == (24,)
    shape = dmod._daylight_shape()
    assert np.all(fixed[shape == 0.0] == 0.0)
    assert np.all(np.isnan(fixed[shape > 0.0]))


def _plain_scaler(track="pv", target_fixed=None):
    """A scaler with unit maps; no hour is pinned unless target_fixed says so."""
    if target_fixed is None:
        target_fixed = np.full(24, np.nan)
    return dmod.Scaler(track=track, learn_max=1.0, cov_offset=np.zeros(24),
                       cov_scale=np.ones(24), target_fixed=target_fixed)


def test_pin_fixed_overwrites_only_recorded_hours():
    fixed = np.full(24, np.nan)
    fixed[3] = 0.0
    fixed[20] = 7.5
    scaler = _plain_scaler("load", fixed)
    x = np.random.default_rng(0).uniform(1, 1.2, (5, 24))  # 2x - 1 and back are exact
    pinned = scaler.to_physical(scaler.to_model(x))
    assert np.all(pinned[:, 3] == 0.0)
    assert np.all(pinned[:, 20] == 7.5)
    keep = [t for t in range(24) if t not in (3, 20)]
    np.testing.assert_array_equal(pinned[:, keep], x[:, keep])


def test_pin_fixed_without_record_is_identity():
    scaler = _plain_scaler()
    x = np.arange(24.0)[None, :] / 32  # dyadic, so 2x - 1 and back are exact
    np.testing.assert_array_equal(scaler.to_physical(scaler.to_model(x)), x)


def test_scaler_dict_round_trip_keeps_fixed_hours():
    fixed = np.full(24, np.nan)
    fixed[0] = 0.0
    doc = _plain_scaler(target_fixed=fixed).to_dict()
    assert doc["target_fixed"][0] == 0.0
    assert doc["target_fixed"][1] is None
    back = dmod.Scaler.from_dict(doc)
    assert back.target_fixed[0] == 0.0
    assert np.isnan(back.target_fixed[1:]).all()


def test_scaler_from_dict_refuses_missing_fixed_hours():
    """Every scaler records its pinned hours; a record without them is refused
    (load_checkpoint reports it as a missing header field)."""
    doc = _plain_scaler().to_dict()
    assert doc["target_fixed"] == [None] * 24
    doc.pop("target_fixed")
    with pytest.raises(KeyError, match="target_fixed"):
        dmod.Scaler.from_dict(doc)
    with pytest.raises(TypeError):
        dmod.Scaler(track="pv", learn_max=1.0,
                    cov_offset=np.zeros(1), cov_scale=np.ones(1))
