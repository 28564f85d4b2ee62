"""Dataset ingestion, splitting, normalization, and synthetic-data generation.

The canonical CSV schema is one row per (day, hour, zone):

    date,hour,zone,target,w1,...,wK

with ``date`` in ISO-8601 (YYYY-MM-DD), ``hour`` in 0..23, ``zone`` >= 1,
and ``target``/``w*`` decimal floats. ``target`` holds power as a fraction
of nominal capacity for the pv and wind tracks, and MW for the load track.
The number of weather channels K is read from the header.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateScaleError,
    InsufficientDataError,
    IntegrityError,
    ParameterError,
    ParseError,
    SchemaError,
)

HOURS = 24
TRACKS = ("load", "pv", "wind")
ZONE_COUNTS = {"load": 1, "wind": 10, "pv": 3}
SPLITS = ("learn", "validation", "test")

PROFILES = ("sine_pv", "ramp_wind", "bimodal_load")
PROFILE_TRACK = {"sine_pv": "pv", "ramp_wind": "wind", "bimodal_load": "load"}

# synthetic-generator constants; the conditional distribution of every
# profile is a clipped Gaussian whose parameters are derivable from the
# covariates alone (see conditional_mean / conditional_scenarios)
_PV_SIGMA = 0.08
_PV_RHO = 0.8
_PV_AMP_RANGE = (0.3, 0.8)
_WIND_SIGMA = 0.06
_WIND_RHO = 0.6
_WIND_SPEED_RANGE = (4.0, 11.0)
_WIND_SPEED_SD = 1.5
_WIND_SPEED_RHO = 0.7
_WIND_CURVE_MID = 7.5
_WIND_CURVE_WIDTH = 1.2
_LOAD_SIGMA = 0.04
_LOAD_RHO = 0.7
_LOAD_SCALE_MW = 250.0
_LOAD_TEMP_COEF = 0.012
_LOAD_WEEKEND_FACTOR = 0.10


def _daylight_shape() -> np.ndarray:
    t = np.arange(HOURS)
    s = np.maximum(0.0, np.sin(np.pi * (t - 6) / 12))
    s[s < 1e-12] = 0.0  # sin(pi) evaluates to ~1e-16, not 0; night must be exact
    return s


def _load_base_shape() -> np.ndarray:
    t = np.arange(HOURS, dtype=float)
    morning = 0.18 * np.exp(-((t - 8.5) ** 2) / 8.0)
    evening = 0.25 * np.exp(-((t - 18.5) ** 2) / 18.0)
    return 0.45 + morning + evening


@dataclass
class DaySample:
    """One day's 24-value target profile plus its flattened covariate vector.

    ``c`` is laid out channel-major: channel k occupies c[24k : 24(k+1)].
    """

    day_id: date
    track: str
    zone: int
    x: np.ndarray
    c: np.ndarray

    def validate(self, check_unit_range: bool = False) -> None:
        if self.track not in TRACKS:
            raise ParameterError(f"unknown track {self.track!r}")
        if not 1 <= self.zone <= ZONE_COUNTS[self.track]:
            raise IntegrityError(
                f"zone {self.zone} outside 1..{ZONE_COUNTS[self.track]} for track {self.track}"
            )
        if self.x.shape != (HOURS,):
            raise IntegrityError(f"target length {self.x.shape} != ({HOURS},)")
        if self.c.size % HOURS != 0:
            raise IntegrityError("covariate length must be a multiple of 24")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.c)):
            raise IntegrityError(f"non-finite values in day {self.day_id}")
        if check_unit_range and self.track in ("pv", "wind"):
            if self.x.min() < -1e-9 or self.x.max() > 1 + 1e-9:
                raise IntegrityError(
                    f"{self.track} day {self.day_id} outside [0, 1] after normalization"
                )

    @property
    def n_channels(self) -> int:
        return self.c.size // HOURS


@dataclass
class Scaler:
    """Per-track affine normalization, fitted on the learn split only.

    Targets: pv/wind are kept as fractions of nominal (identity transform);
    load is divided by the learn-split maximum. Covariates get a per-channel
    min-max map. ``learn_max`` is retained as the physical base for load
    clipping bounds and percent-unit reporting.

    ``target_fixed`` records, in physical units, the hours whose target is
    constant across the whole learn split (NaN marks free hours). Generated
    scenarios are pinned to these constants: a sampler driven by continuous
    noise cannot reproduce such point masses (pv night hours are the textbook
    case — half its draws land a hair above zero and the rest clip onto it),
    while the constant itself is the provably correct conditional.
    """

    track: str
    target_offset: float
    target_scale: float
    learn_max: float
    cov_offset: np.ndarray
    cov_scale: np.ndarray
    target_fixed: np.ndarray | None = None

    def transform_target(self, x: np.ndarray) -> np.ndarray:
        return (x - self.target_offset) * self.target_scale

    def inverse_target(self, x: np.ndarray) -> np.ndarray:
        return x / self.target_scale + self.target_offset

    def transform_cov(self, c: np.ndarray) -> np.ndarray:
        k = self.cov_offset.size
        out = (c.reshape(k, HOURS) - self.cov_offset[:, None]) * self.cov_scale[:, None]
        return out.reshape(-1)

    def inverse_cov(self, c: np.ndarray) -> np.ndarray:
        k = self.cov_offset.size
        out = c.reshape(k, HOURS) / self.cov_scale[:, None] + self.cov_offset[:, None]
        return out.reshape(-1)

    def physical_bounds(self) -> tuple[float, float]:
        """Clipping range for generated scenarios, in physical units."""
        if self.track == "load":
            return 0.0, 1.2 * self.learn_max
        return 0.0, 1.0

    def pin_fixed(self, x: np.ndarray) -> np.ndarray:
        """Overwrite learn-split-constant hours with their constants (rows =
        scenarios, physical units). No-op when nothing is degenerate."""
        if self.target_fixed is None:
            return x
        mask = ~np.isnan(self.target_fixed)
        if mask.any():
            x = np.array(x, dtype=float, copy=True)
            x[..., mask] = self.target_fixed[mask]
        return x

    def to_dict(self) -> dict:
        fixed = None
        if self.target_fixed is not None:
            fixed = [None if math.isnan(v) else v for v in self.target_fixed]
        return {
            "track": self.track,
            "target_offset": self.target_offset,
            "target_scale": self.target_scale,
            "learn_max": self.learn_max,
            "cov_offset": self.cov_offset.tolist(),
            "cov_scale": self.cov_scale.tolist(),
            "target_fixed": fixed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        fixed = d.get("target_fixed")
        if fixed is not None:
            fixed = np.array([math.nan if v is None else float(v) for v in fixed])
        return cls(
            track=d["track"],
            target_offset=float(d["target_offset"]),
            target_scale=float(d["target_scale"]),
            learn_max=float(d["learn_max"]),
            cov_offset=np.asarray(d["cov_offset"], dtype=float),
            cov_scale=np.asarray(d["cov_scale"], dtype=float),
            target_fixed=fixed,
        )


@dataclass
class Dataset:
    """Ordered day samples with a split assignment and optional scaler."""

    samples: list[DaySample]
    split: dict[date, str] = field(default_factory=dict)
    scaler: Scaler | None = None
    dropped: int = 0

    def __post_init__(self):
        if self.samples and not self.split:
            self.split = {s.day_id: "learn" for s in self.samples}

    @property
    def track(self) -> str:
        return self.samples[0].track

    def days(self) -> list[date]:
        return sorted({s.day_id for s in self.samples})

    def zones(self) -> list[int]:
        return sorted({s.zone for s in self.samples})

    def split_days(self, name: str) -> list[date]:
        return sorted(d for d, s in self.split.items() if s == name)

    def subset(self, split: str | None = None, zone: int | None = None) -> list[DaySample]:
        out = []
        for s in self.samples:
            if split is not None and self.split.get(s.day_id) != split:
                continue
            if zone is not None and s.zone != zone:
                continue
            out.append(s)
        return out

    def arrays(self, split: str | None = None, zone: int | None = None):
        """Stacked (X, C, day_ids) for the selected samples."""
        sel = self.subset(split, zone)
        if not sel:
            raise InsufficientDataError(f"no samples for split={split} zone={zone}")
        x = np.stack([s.x for s in sel])
        c = np.stack([s.c for s in sel])
        return x, c, [s.day_id for s in sel]


def _read_table(path: str | Path):
    """Yield a CSV file's header, then (row_no, row) for each non-blank row.

    Raises SchemaError on an empty file or a row whose width differs from the
    header's, and ParseError on non-UTF-8 bytes or a line csv rejects.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            yield header
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(
                        f"{path} row {row_no}: expected {len(header)} cells, got {len(row)}"
                    )
                yield row_no, row
        except (csv.Error, UnicodeDecodeError) as e:
            raise ParseError(f"{path} line {reader.line_num + 1}: {e}") from None


def _parse_date(cell: str, row_no: int) -> date:
    try:
        return date.fromisoformat(cell.strip())
    except ValueError:
        raise ParseError(f"row {row_no}: bad date {cell!r}") from None


def load_csv(path: str | Path, track: str) -> Dataset:
    """Read the canonical CSV for one track into a Dataset.

    A (day, zone) pair with missing hours or missing (blank or NaN)
    target/weather cells is dropped and counted; duplicate (day, hour, zone)
    rows or out-of-range hours raise IntegrityError, and an hour or zone that
    is not a whole number raises ParseError.
    """
    if track not in TRACKS:
        raise ParameterError(f"unknown track {track!r}")
    table = _read_table(path)
    header = [h.strip() for h in next(table)]
    expected = ["date", "hour", "zone", "target"]
    if header[:4] != expected:
        raise SchemaError(f"{path}: header must start with {','.join(expected)}")
    k = len(header) - 4
    if header[4:] != [f"w{i+1}" for i in range(k)]:
        raise SchemaError(f"{path}: weather columns must be named w1..w{k}")

    # (day, zone) -> hour -> [target, w1..wK]
    cells: dict[tuple[date, int], dict[int, list]] = {}
    for row_no, row in table:
        day = _parse_date(row[0], row_no)
        try:
            hour, zone = float(row[1]), float(row[2])
            values = [float(v) if v.strip() else math.nan for v in row[3:]]
        except ValueError as e:
            raise ParseError(f"row {row_no}: {e}") from None
        if not (hour.is_integer() and zone.is_integer()):
            raise ParseError(f"row {row_no}: hour {row[1]!r} and zone {row[2]!r} "
                             "must be whole numbers")
        hour, zone = int(hour), int(zone)
        if not 0 <= hour <= 23:
            raise IntegrityError(f"row {row_no}: hour {hour} outside 0..23")
        if not 1 <= zone <= ZONE_COUNTS[track]:
            raise IntegrityError(
                f"row {row_no}: zone {zone} outside 1..{ZONE_COUNTS[track]} for {track}"
            )
        hours = cells.setdefault((day, zone), {})
        if hour in hours:
            raise IntegrityError(f"row {row_no}: duplicate hour {hour} for {day} zone {zone}")
        hours[hour] = values

    samples: list[DaySample] = []
    dropped = 0
    for (day, zone), hours in sorted(cells.items()):
        v = np.array([hours[h] for h in sorted(hours)])  # (hours, 1 + K)
        if len(hours) != HOURS or np.isnan(v).any():
            dropped += 1
            continue
        c = v[:, 1:].T.reshape(-1)  # channel-major
        sample = DaySample(day_id=day, track=track, zone=zone, x=v[:, 0].copy(), c=c)
        sample.validate()
        samples.append(sample)
    return Dataset(samples=samples, dropped=dropped)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to the canonical schema (17 significant digits)."""
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


def split_random(ds: Dataset, fractions: tuple[float, float, float], seed: int) -> Dataset:
    """Randomly assign days to learn/validation/test.

    Sizes are floor-rounded; the remainder goes to the learn split.
    Deterministic for a fixed seed.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ParameterError("fractions must be three positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"fractions must sum to 1, got {sum(fractions)}")
    days = ds.days()
    n = len(days)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 days to split, got {n}")
    n_learn = int(n * fractions[0] + 1e-9)
    n_val = int(n * fractions[1] + 1e-9)
    n_test = int(n * fractions[2] + 1e-9)
    n_learn += n - (n_learn + n_val + n_test)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    split: dict[date, str] = {}
    for rank, idx in enumerate(order):
        if rank < n_learn:
            split[days[idx]] = "learn"
        elif rank < n_learn + n_val:
            split[days[idx]] = "validation"
        else:
            split[days[idx]] = "test"
    return replace(ds, split=split)


def normalize(ds: Dataset) -> Dataset:
    """Fit the per-track scaler on the learn split and map every sample.

    Raises DegenerateScaleError naming the zero-range feature.
    """
    learn = ds.subset(split="learn")
    if not learn:
        raise InsufficientDataError("learn split is empty; cannot fit scaler")
    learn_x = np.stack([s.x for s in learn])
    learn_max = float(learn_x.max())
    # hours that never move on the learn split are degenerate marginals;
    # remember their constants (physical units) so sampling can pin them
    per_hour_lo = learn_x.min(axis=0)
    per_hour_hi = learn_x.max(axis=0)
    target_fixed = np.where(per_hour_hi == per_hour_lo, per_hour_lo, math.nan)
    if ds.track == "load":
        if learn_max <= 0:
            raise DegenerateScaleError("target: learn-split maximum is not positive")
        target_scale = 1.0 / learn_max
    else:
        # pv/wind targets are already fractions of nominal capacity
        target_scale = 1.0
    k = learn[0].n_channels
    cov_offset = np.zeros(k)
    cov_scale = np.ones(k)
    if k:
        learn_c = np.stack([s.c for s in learn]).reshape(len(learn), k, HOURS)
        lo = learn_c.min(axis=(0, 2))
        hi = learn_c.max(axis=(0, 2))
        for j in range(k):
            if hi[j] - lo[j] <= 0:
                raise DegenerateScaleError(f"w{j+1}: zero range on the learn split")
        cov_offset = lo
        cov_scale = 1.0 / (hi - lo)
    scaler = Scaler(
        track=ds.track,
        target_offset=0.0,
        target_scale=target_scale,
        learn_max=learn_max,
        cov_offset=cov_offset,
        cov_scale=cov_scale,
        target_fixed=target_fixed,
    )
    samples = []
    for s in ds.samples:
        ns = replace(s, x=scaler.transform_target(s.x), c=scaler.transform_cov(s.c))
        if ds.track in ("pv", "wind"):
            if ns.x.min() < -1e-6 or ns.x.max() > 1 + 1e-6:
                raise IntegrityError(
                    f"{ds.track} day {s.day_id} zone {s.zone} outside [0, 1]"
                )
            ns.x = np.clip(ns.x, 0.0, 1.0)
        ns.validate(check_unit_range=True)
        samples.append(ns)
    return replace(ds, samples=samples, scaler=scaler)


def denormalize(ds: Dataset) -> Dataset:
    """Inverse of normalize; recovers original units to 1e-12."""
    if ds.scaler is None:
        raise ParameterError("dataset has no scaler")
    samples = [
        replace(s, x=ds.scaler.inverse_target(s.x), c=ds.scaler.inverse_cov(s.c))
        for s in ds.samples
    ]
    return replace(ds, samples=samples, scaler=None)


def _ar1(rng: np.random.Generator, n_days: int, rho: float) -> np.ndarray:
    """(n_days, 24) stationary AR(1) noise with unit marginal variance."""
    w = rng.standard_normal((n_days, HOURS))
    e = np.empty_like(w)
    e[:, 0] = w[:, 0]
    c = math.sqrt(1 - rho * rho)
    for t in range(1, HOURS):
        e[:, t] = rho * e[:, t - 1] + c * w[:, t]
    return e


def generate_synthetic(n_days: int, seed: int, profile: str) -> Dataset:
    """Generate a synthetic one-zone Dataset with a known conditional law.

    sine_pv:      x_t = clip(s_t (a + 0.08 e_t), 0, 1) with daylight shape
                  s_t = max(0, sin(pi (t-6)/12)), per-day amplitude a in the
                  covariates (c = a s), and AR(1) noise e. Night hours are
                  exactly zero.
    ramp_wind:    logistic power curve of an AR(1) wind-speed covariate plus
                  additive AR(1) noise, clipped to [0, 1].
    bimodal_load: morning/evening-peaked base shape modulated by temperature
                  and a weekend flag (two covariate channels), in MW.
    """
    if n_days < 1:
        raise ParameterError("n_days must be >= 1")
    if profile not in PROFILES:
        raise ParameterError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed)
    days = [date(2012, 1, 1) + timedelta(days=i) for i in range(n_days)]
    track = PROFILE_TRACK[profile]

    if profile == "sine_pv":
        s = _daylight_shape()
        a = rng.uniform(*_PV_AMP_RANGE, size=n_days)
        e = _ar1(rng, n_days, _PV_RHO)
        x = np.clip(s[None, :] * (a[:, None] + _PV_SIGMA * e), 0.0, 1.0)
        c = a[:, None] * s[None, :]
    elif profile == "ramp_wind":
        u = rng.uniform(*_WIND_SPEED_RANGE, size=n_days)
        w = u[:, None] + _WIND_SPEED_SD * _ar1(rng, n_days, _WIND_SPEED_RHO)
        e = _ar1(rng, n_days, _WIND_RHO)
        g = 1.0 / (1.0 + np.exp(-(w - _WIND_CURVE_MID) / _WIND_CURVE_WIDTH))
        x = np.clip(g + _WIND_SIGMA * e, 0.0, 1.0)
        c = w
    else:  # bimodal_load
        b = _load_base_shape()
        t = np.arange(HOURS)
        delta = 3.0 * rng.standard_normal(n_days)
        theta = 10.0 + 8.0 * np.sin(np.pi * (t - 9) / 12)[None, :] + delta[:, None]
        wkd = np.array([1.0 if d.weekday() >= 5 else 0.0 for d in days])
        e = _ar1(rng, n_days, _LOAD_RHO)
        mu = (
            b[None, :] * (1.0 - _LOAD_WEEKEND_FACTOR * wkd[:, None])
            + _LOAD_TEMP_COEF * (15.0 - theta)
        )
        x = _LOAD_SCALE_MW * np.maximum(0.0, mu + _LOAD_SIGMA * e)
        c = np.concatenate([theta, np.repeat(wkd[:, None], HOURS, axis=1)], axis=1)

    samples = [
        DaySample(day_id=days[i], track=track, zone=1, x=x[i].copy(), c=c[i].copy())
        for i in range(n_days)
    ]
    return Dataset(samples=samples)


_ERF = np.vectorize(math.erf)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1 + _ERF(np.clip(z, -40.0, 40.0) / math.sqrt(2)))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -40.0, 40.0)
    return np.exp(-0.5 * zc * zc) / math.sqrt(2 * math.pi)


def _clipped_normal_mean(mu, sd, lo, hi):
    """E[clip(Y, lo, hi)] for Y ~ N(mu, sd^2), elementwise; lo must be finite."""
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    safe_sd = np.where(sd > 0, sd, 1.0)
    alpha = (lo - mu) / safe_sd
    if math.isinf(hi):
        val = mu * (1 - _norm_cdf(alpha)) + safe_sd * _norm_pdf(alpha) + lo * _norm_cdf(alpha)
    else:
        beta = (hi - mu) / safe_sd
        val = (
            mu * (_norm_cdf(beta) - _norm_cdf(alpha))
            + safe_sd * (_norm_pdf(alpha) - _norm_pdf(beta))
            + hi * (1 - _norm_cdf(beta))
            + lo * _norm_cdf(alpha)
        )
    return np.where(sd > 0, val, np.clip(mu, lo, hi))


def _profile_params(profile: str, c: np.ndarray):
    """Recover (mu, sd) of the pre-clip Gaussian target from the covariates."""
    if profile == "sine_pv":
        s = _daylight_shape()
        a = float(c.max())  # c = a s and max(s) = 1
        return a * s, _PV_SIGMA * s, 0.0, 1.0
    if profile == "ramp_wind":
        g = 1.0 / (1.0 + np.exp(-(c - _WIND_CURVE_MID) / _WIND_CURVE_WIDTH))
        return g, np.full(HOURS, _WIND_SIGMA), 0.0, 1.0
    if profile == "bimodal_load":
        theta = c[:HOURS]
        wkd = c[HOURS]
        mu = _load_base_shape() * (1.0 - _LOAD_WEEKEND_FACTOR * wkd) + _LOAD_TEMP_COEF * (
            15.0 - theta
        )
        return _LOAD_SCALE_MW * mu, np.full(HOURS, _LOAD_SCALE_MW * _LOAD_SIGMA), 0.0, math.inf
    raise ParameterError(f"unknown profile {profile!r}")


def conditional_mean(profile: str, c: np.ndarray) -> np.ndarray:
    """Closed-form conditional mean of a synthetic day given its covariates."""
    mu, sd, lo, hi = _profile_params(profile, c)
    return _clipped_normal_mean(mu, sd, lo, hi)


def conditional_scenarios(profile: str, c: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Draw m fresh days from the true conditional law given covariates c.

    Uses the same AR(1) temporal correlation as generate_synthetic, so the
    draws carry the generator's correlation structure, not just its marginals.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    rng = np.random.default_rng(seed)
    mu, sd, lo, hi = _profile_params(profile, c)
    rho = {"sine_pv": _PV_RHO, "ramp_wind": _WIND_RHO, "bimodal_load": _LOAD_RHO}[profile]
    e = _ar1(rng, m, rho)
    return np.clip(mu[None, :] + sd[None, :] * e, lo, hi)


def climatology_scenarios(ds: Dataset, m: int, seed: int, zone: int = 1) -> np.ndarray:
    """Baseline ensemble: m target profiles sampled from the learn split."""
    learn = ds.subset(split="learn", zone=zone)
    if not learn:
        raise InsufficientDataError("learn split is empty")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(learn), size=m)
    return np.stack([learn[i].x for i in idx])


def write_manifest(ds: Dataset, path: str | Path) -> None:
    """Record split assignment, scaler parameters, and drop counts as JSON."""
    doc = {
        "track": ds.track if ds.samples else None,
        "n_days": len(ds.days()),
        "dropped": ds.dropped,
        "split": {d.isoformat(): name for d, name in sorted(ds.split.items())},
        "scaler": ds.scaler.to_dict() if ds.scaler else None,
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def write_report_json(doc: dict, path: str | Path) -> None:
    """Write a report as strict JSON; a NaN or infinity raises ParameterError."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise ParameterError(f"{path}: {e}") from None
    Path(path).write_text(text)


def read_manifest(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("scaler"):
        doc["scaler"] = Scaler.from_dict(doc["scaler"])
    doc["split"] = {date.fromisoformat(k): v for k, v in doc["split"].items()}
    return doc


def write_observations(ds: Dataset, path: str | Path, split: str = "test", zone: int = 1) -> None:
    """Write one `day,h0..h23` row per selected day, in the dataset's units."""
    sel = ds.subset(split=split, zone=zone)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["day"] + [f"h{h}" for h in range(HOURS)])
        for s in sorted(sel, key=lambda s: s.day_id):
            writer.writerow([s.day_id.isoformat()] + [format(v, ".17g") for v in s.x])


def read_observations(path: str | Path) -> dict[date, np.ndarray]:
    """Inverse of write_observations: {day: (24,) array}."""
    table = _read_table(path)
    if next(table) != ["day"] + [f"h{h}" for h in range(HOURS)]:
        raise SchemaError(f"{path}: bad observation header")
    out = {}
    for row_no, row in table:
        day = _parse_date(row[0], row_no)
        if day in out:
            raise IntegrityError(f"row {row_no}: duplicate day {day}")
        try:
            out[day] = np.array(list(map(float, row[1:])))
        except ValueError as e:
            raise ParseError(f"row {row_no}: {e}") from None
        if not np.isfinite(out[day]).all():
            raise ParseError(f"row {row_no}: day {day} has a non-finite value")
    return out
