"""Dataset ingestion, splitting, scaling, and synthetic-data generation.

The canonical CSV schema is one row per (day, hour, zone):

    date,hour,zone,target,w1,...,wK

with ``date`` in ISO-8601 (YYYY-MM-DD), ``hour`` in 0..23, ``zone`` >= 1,
and ``target``/``w*`` decimal floats. ``target`` holds power as a fraction
of nominal capacity for the pv and wind tracks, and MW for the load track.
The number of weather channels K is read from the header.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace
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
OBS_BLOCK = 64  # observation rows per write: less text than one 100-scenario day

PROFILES = ("sine_pv", "ramp_wind", "bimodal_load")
PROFILE_TRACK = {"sine_pv": "pv", "ramp_wind": "wind", "bimodal_load": "load"}

# synthetic-generator constants; every profile's target is a clipped Gaussian
# whose law _profile_law derives from the covariates alone
_TARGET_RHO = {"sine_pv": 0.8, "ramp_wind": 0.6, "bimodal_load": 0.7}  # AR(1) target noise
_PV_SIGMA = 0.08
_PV_AMP_RANGE = (0.3, 0.8)
_WIND_SIGMA = 0.06
_WIND_SPEED_RANGE = (4.0, 11.0)
_WIND_SPEED_SD = 1.5
_WIND_SPEED_RHO = 0.7
_WIND_CURVE_MID = 7.5
_WIND_CURVE_WIDTH = 1.2
_LOAD_SIGMA = 0.04
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

    @property
    def n_channels(self) -> int:
        return self.c.size // HOURS


@dataclass
class Scaler:
    """The one map between physical units and the network's space, fitted
    on the learn split only.

    `to_model` maps target rows x to 2 (x s) - 1 with s = ``target_scale``:
    1 for pv/wind, already fractions of nominal (clipped to [-1, 1]), and
    1 / ``learn_max`` for load. The network needs that zero-centered space:
    the forward chain ends in a standard Gaussian centered at zero, and
    targets on one side of that center leave the sampler with a systematic
    shrinkage bias toward zero. `to_physical` inverts the map, clips to
    [0, 1] ([0, 1.2 learn_max] for load) and pins the ``target_fixed``
    hours; `transform_cov` min-max scales each covariate channel.

    ``target_fixed`` records, in physical units, the hours whose target is
    constant across the whole learn split (NaN marks free hours). Generated
    scenarios are pinned to these constants: a sampler driven by continuous
    noise cannot reproduce such point masses (pv night hours are the textbook
    case — half its draws land a hair above zero and the rest clip onto it),
    while the constant itself is the provably correct conditional.
    """

    track: str
    learn_max: float
    cov_offset: np.ndarray
    cov_scale: np.ndarray
    target_fixed: np.ndarray

    @property
    def target_scale(self) -> float:
        """1 / learn_max for load; pv/wind targets are already fractions of nominal."""
        return 1.0 / self.learn_max if self.track == "load" else 1.0

    def to_model(self, x: np.ndarray) -> np.ndarray:
        """Physical target rows (..., 24) in the network's space."""
        z = 2.0 * (np.asarray(x, dtype=float) * self.target_scale) - 1.0
        return z if self.track == "load" else np.clip(z, -1.0, 1.0)

    @property
    def upper(self) -> float:
        """The largest physical target: 1 for pv/wind, 1.2 learn_max for load."""
        return 1.2 * self.learn_max if self.track == "load" else 1.0

    def to_physical(self, z: np.ndarray) -> np.ndarray:
        """Network-space rows (..., 24) in physical units, clipped and pinned."""
        x = np.clip(0.5 * (np.asarray(z, dtype=float) + 1.0) / self.target_scale, 0.0, self.upper)
        fixed = ~np.isnan(self.target_fixed)
        x[..., fixed] = self.target_fixed[fixed]
        return x

    def transform_cov(self, c: np.ndarray) -> np.ndarray:
        """Physical covariate rows (..., 24K) in the network's space."""
        k = self.cov_offset.size
        out = (c.reshape(*c.shape[:-1], k, HOURS) - self.cov_offset[:, None]) * self.cov_scale[:, None]
        return out.reshape(c.shape)

    def to_dict(self) -> dict:
        return {
            "track": self.track,
            "learn_max": self.learn_max,
            "cov_offset": self.cov_offset.tolist(),
            "cov_scale": self.cov_scale.tolist(),
            "target_fixed": [None if math.isnan(v) else v for v in self.target_fixed],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(
            track=d["track"],
            learn_max=float(d["learn_max"]),
            cov_offset=np.asarray(d["cov_offset"], dtype=float),
            cov_scale=np.asarray(d["cov_scale"], dtype=float),
            target_fixed=np.array([math.nan if v is None else float(v) for v in d["target_fixed"]]),
        )


@dataclass
class Dataset:
    """Ordered day samples in physical units, a split (every day learn when
    none is given; an empty one selects no day) and `normalize`'s Scaler."""

    samples: list[DaySample]
    split: dict[date, str] | None = None
    scaler: Scaler | None = None
    dropped: int = 0

    def __post_init__(self):
        if self.split is None:
            self.split = {s.day_id: "learn" for s in self.samples}

    @property
    def track(self) -> str:
        return self.samples[0].track

    def days(self) -> list[date]:
        return sorted({s.day_id for s in self.samples})

    def subset(self, split: str | None = None, zone: int | None = None) -> list[DaySample]:
        return [s for s in self.samples if (split is None or self.split.get(s.day_id) == split)
                and (zone is None or s.zone == zone)]

    def arrays(self, split: str | None = None, zone: int | None = None):
        """Stacked (X, C, day_ids) for the selected samples."""
        sel = self.subset(split, zone)
        if not sel:
            raise InsufficientDataError(f"no samples for split={split} zone={zone}")
        return np.stack([s.x for s in sel]), np.stack([s.c for s in sel]), [s.day_id for s in sel]


# a date cell this wide may have been cut short by the parser's string field
_DATE_WIDTH = 16
# a blank cell after the first column, for readers where blank means missing
_BLANK = re.compile(r",[^\S\n]*(?=,|\n|\Z)")


def _loadtxt(lines, dtype: np.dtype, skiprows: int = 0, max_rows: int | None = None) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                          skiprows=skiprows, max_rows=max_rows, encoding="utf-8")


def _parses(lines: list[str], dtype: np.dtype) -> bool:
    try:
        return _loadtxt(lines, dtype).size == len(lines)  # a blank cell alone is skipped
    except ValueError:
        return False


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(file line, text) of each data line, skipping empty lines as np.loadtxt does."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    return [(n, text) for n, text in enumerate(lines[1:], start=2) if text]


def _line_ends(path: str | Path) -> int:
    """The number of line ends (LF, CR or CRLF) in a file, a bound on its
    data rows. Raises ParseError naming the file line of the first NUL
    character: numpy's string fields drop a trailing NUL, so `2012-01-01\\0`
    would pass as a date."""
    ends, last = 0, b""
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            if b"\0" in block:
                break
            ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            ends -= last == b"\r" and block[:1] == b"\n"  # a CRLF split between blocks
            last = block[-1:]
        else:
            return ends
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    line = text.count("\n", 0, text.index("\0")) + 1
    raise ParseError(f"row {line}: NUL character")


def _read_table(path: str | Path, header_dtype, missing: bool = False) -> np.ndarray:
    """Read a CSV file into a structured array with one np.loadtxt pass.

    `header_dtype(cells)` checks the header's cells and returns a structured
    dtype whose fields cover every column (a subarray field covers several).
    numpy's C parser reads every cell: no quoting, `#` is no comment, and a
    number takes no `_` separator or non-ASCII digit. Empty lines are skipped.
    With `missing`, a blank cell after the first column reads as NaN.

    Raises SchemaError on an empty file or a row of the wrong width, and
    ParseError on non-UTF-8 bytes, a NUL character or a cell that does not
    parse; each names its file line, which only this error path looks for.
    """
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline()
        if not header:
            raise SchemaError(f"{path}: empty file")
        dtype = np.dtype(header_dtype(header.rstrip("\n").split(",")))
        before = os.stat(path)
        ends = _line_ends(path)
        try:
            # numpy reads a named file in blocks (an open file it reads line by
            # line); an absolute path is never taken for a URL. With max_rows
            # it allocates the table once instead of growing it by repeated
            # reallocation, whose heap layout, and so peak RSS, varied by run.
            table = _loadtxt(os.path.abspath(path), dtype, skiprows=1, max_rows=ends)
        except UnicodeDecodeError:  # a ValueError, but reported below
            raise
        except ValueError:
            pass
        else:
            after = os.stat(path)
            if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
                raise ParseError(f"{path}: changed while it was read")
            return table
        numbered = _data_lines(path)
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            head = raw[: e.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(f"{path} line {line}: {e}") from None
        raise ParseError(f"{path}: changed while it was read") from None
    lines = [text for _, text in numbered]
    if missing:
        lines = _BLANK.sub(",nan", "\n".join(lines)).split("\n")
        try:
            return _loadtxt(lines, dtype)
        except ValueError:
            pass
    # the first line that fails lies in lines[lo:hi]
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _parses(lines[lo:mid], dtype) else (lo, mid)
    row_no, text = numbered[lo]
    cells = text.split(",")
    kinds = [dtype[name].base for name in dtype.names
             for _ in range(int(np.prod(dtype[name].shape)))]
    if len(cells) != len(kinds):
        raise SchemaError(f"{path} row {row_no}: expected {len(kinds)} cells, got {len(cells)}")
    for cell, kind in zip(cells, kinds):
        if kind.kind == "f" and not (missing and not cell.strip()) and not _parses([cell], kind):
            raise ParseError(f"row {row_no}: could not convert string to float: {cell!r}")
    raise ParseError(f"{path} row {row_no}: np.loadtxt rejects this line")


def _row_line(path: str | Path, i: int) -> int:
    """The file line of data row i (error messages only)."""
    return _data_lines(path)[i][0]


def _first_repeat(key: np.ndarray) -> int | None:
    """The first row whose key an earlier row already has, or None."""
    order = np.argsort(key, kind="stable")
    repeat = order[1:][key[order][1:] == key[order][:-1]]
    return int(repeat.min()) if repeat.size else None


def _day_index(path: str | Path, cells: np.ndarray) -> tuple[list[date], np.ndarray]:
    """Parse each distinct date cell once; returns the dates in order of first
    appearance and each row's index into them (cells naming one date share it)."""
    if not cells.size:
        return [], np.zeros(0, dtype=np.intp)
    heads = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])  # runs of one cell
    distinct, first, inverse = np.unique(cells[heads], return_index=True, return_inverse=True)
    index: dict[date, int] = {}
    of_cell = np.empty(len(distinct), dtype=np.intp)
    for k in np.argsort(first):  # in file order
        i = int(heads[first[k]])
        day = _parse_date(str(distinct[k]), lambda i=i: _row_line(path, i))
        of_cell[k] = index.setdefault(day, len(index))
    runs = np.diff(np.r_[heads, cells.size])
    return list(index), np.repeat(of_cell[inverse.reshape(-1)], runs)


def _float_lines(prefixes, n_floats: int) -> str:
    """A %-template of one CSV line per prefix: its text, then n_floats "%.17g" cells."""
    return "".join([p + ",%.17g" * n_floats + "\r\n" for p in prefixes])


def _write_table(path: str | Path, header: list[str], blocks) -> None:
    """Write the bytes csv.writer writes, one `%` call per block of lines.

    `blocks` yields (template, values). A template holds its fixed cells
    (dates, hours, zones, numbers) as text and a conversion for each other
    cell: "%.17g" for floats, "%s" for text; `values` is the flat tuple those
    take. Lines end in CRLF. No cell is quoted: the one writer given text by a
    library caller, ValueReport.write_csv, quotes it first.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\r\n")
        for template, values in blocks:
            f.write(template % values)


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_day(text: str) -> date:
    """A YYYY-MM-DD date, else ValueError. From Python 3.11 date.fromisoformat
    alone also takes `20120101` and week dates such as `2012-W01-1`."""
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def _parse_date(cell: str, find_row) -> date:
    """A YYYY-MM-DD cell, spaces around it allowed; `find_row()` returns the
    cell's file line, asked for only on error."""
    try:
        if len(cell) < _DATE_WIDTH:
            return _iso_day(cell.strip())
    except ValueError:
        pass
    raise ParseError(f"row {find_row()}: bad date {cell!r}")


def load_csv(path: str | Path, track: str) -> Dataset:
    """Read the canonical CSV for one track into a Dataset.

    A (day, zone) pair with missing hours or missing (blank or NaN)
    target/weather cells is dropped and counted; duplicate (day, hour, zone)
    rows, out-of-range hours or zones and an infinite cell in a kept day raise
    IntegrityError, and an hour or zone that is not a whole number raises
    ParseError.
    """
    if track not in TRACKS:
        raise ParameterError(f"unknown track {track!r}")
    expected = ["date", "hour", "zone", "target"]

    def header_dtype(cells):
        header = [h.strip() for h in cells]
        if header[:4] != expected:
            raise SchemaError(f"{path}: header must start with {','.join(expected)}")
        k = len(header) - 4
        if header[4:] != [f"w{i+1}" for i in range(k)]:
            raise SchemaError(f"{path}: weather columns must be named w1..w{k}")
        return [("date", f"U{_DATE_WIDTH}"), ("hour", "f8"), ("zone", "f8"), ("v", "f8", (1 + k,))]

    rows = _read_table(path, header_dtype, missing=True)
    days, day = _day_index(path, rows["date"])
    hour, zone, v = (np.array(rows[name]) for name in ("hour", "zone", "v"))
    del rows  # its date strings are most of its bytes
    whole = np.isfinite(hour) & np.isfinite(zone) & (hour == np.floor(hour)) & (zone == np.floor(zone))
    if not whole.all():
        row_no, text = _data_lines(path)[int(np.argmin(whole))]
        cells = text.split(",")
        raise ParseError(f"row {row_no}: hour {cells[1]!r} and zone {cells[2]!r} "
                         "must be whole numbers")
    hour, zone = hour.astype(np.intp), zone.astype(np.intp)
    n_zones = ZONE_COUNTS[track]
    if ((hour < 0) | (hour > 23)).any():
        i = int(np.argmax((hour < 0) | (hour > 23)))
        raise IntegrityError(f"row {_row_line(path, i)}: hour {hour[i]} outside 0..23")
    if ((zone < 1) | (zone > n_zones)).any():
        i = int(np.argmax((zone < 1) | (zone > n_zones)))
        raise IntegrityError(
            f"row {_row_line(path, i)}: zone {zone[i]} outside 1..{n_zones} for {track}"
        )
    group = day * n_zones + zone - 1  # one group per (day, zone)
    i = _first_repeat(group * HOURS + hour)
    if i is not None:
        raise IntegrityError(f"row {_row_line(path, i)}: duplicate hour {hour[i]} "
                             f"for {days[day[i]]} zone {zone[i]}")

    groups, slot = np.unique(group, return_inverse=True)  # the (day, zone) pairs present
    block = np.full((groups.size, HOURS, v.shape[1]), np.nan)
    block[slot.reshape(-1), hour] = v
    date_rank = np.argsort(np.argsort(np.array(days, dtype="datetime64[D]")))
    order = np.lexsort((groups % n_zones, date_rank[groups // n_zones]))
    order = order[~np.isnan(block).any(axis=(1, 2))[order]]  # a missing cell drops the day
    infinite = np.isinf(block).any(axis=(1, 2))[order]
    if infinite.any():
        day = days[groups[order[infinite.argmax()]] // n_zones]
        raise IntegrityError(f"non-finite values in day {day}")
    samples = [DaySample(day_id=days[groups[k] // n_zones], track=track,
                         zone=int(groups[k] % n_zones) + 1, x=block[k, :, 0].copy(),
                         c=block[k, :, 1:].T.flatten())  # channel-major
               for k in order]
    return Dataset(samples=samples, dropped=groups.size - len(samples))


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to the canonical schema (17 significant digits), one
    `%` block per (day, zone) sample from its zone's template, "\0" standing for the date."""
    sel = sorted(ds.samples, key=lambda s: (s.day_id, s.zone))
    k = sel[0].n_channels if sel else 0
    lines = functools.cache(lambda zone: _float_lines([f"\0,{h},{zone}" for h in range(HOURS)],
                                                      k + 1))
    _write_table(path, ["date", "hour", "zone", "target"] + [f"w{i+1}" for i in range(k)],
                 ((lines(str(s.zone)).replace("\0", s.day_id.isoformat()),
                   tuple(np.concatenate([s.x, s.c]).reshape(k + 1, HOURS).T.ravel().tolist()))
                  for s in sel))


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
    """Fit the track's Scaler on the learn split; the samples are not copied.

    Raises InsufficientDataError on an empty learn split,
    DegenerateScaleError naming a zero-range feature, and IntegrityError
    on a pv/wind target outside [0, 1] or a mapped value that is not finite.
    """
    learn = np.array([ds.split.get(s.day_id) == "learn" for s in ds.samples], dtype=bool)
    if not learn.any():
        raise InsufficientDataError("learn split is empty; cannot fit scaler")
    x = np.stack([s.x for s in ds.samples])
    c = np.stack([s.c for s in ds.samples])
    learn_x = x[learn]
    learn_max = float(learn_x.max())
    # hours that never move on the learn split are degenerate marginals;
    # remember their constants (physical units) so sampling can pin them
    per_hour_lo = learn_x.min(axis=0)
    per_hour_hi = learn_x.max(axis=0)
    target_fixed = np.where(per_hour_hi == per_hour_lo, per_hour_lo, math.nan)
    if ds.track == "load" and learn_max <= 0:
        raise DegenerateScaleError("target: learn-split maximum is not positive")
    k = c.shape[1] // HOURS
    cov_offset = np.zeros(k)
    cov_scale = np.ones(k)
    if k:
        learn_c = c[learn].reshape(len(learn_x), k, HOURS)
        lo = learn_c.min(axis=(0, 2))
        hi = learn_c.max(axis=(0, 2))
        with np.errstate(over="ignore"):  # an infinite range maps to non-finite values
            span = hi - lo
        for j in range(k):
            if span[j] <= 0:
                raise DegenerateScaleError(f"w{j+1}: zero range on the learn split")
        cov_offset = lo
        cov_scale = 1.0 / span
    scaler = Scaler(
        track=ds.track,
        learn_max=learn_max,
        cov_offset=cov_offset,
        cov_scale=cov_scale,
        target_fixed=target_fixed,
    )
    # a sample is checked for finite values, then its range, then finite
    # mapped values; the first sample that fails names the error
    finite = np.isfinite(x).all(axis=1) & np.isfinite(c).all(axis=1)
    outside = finite & (ds.track != "load") & ((x.min(axis=1) < -1e-6) | (x.max(axis=1) > 1 + 1e-6))
    with np.errstate(over="ignore", invalid="ignore"):  # the check reports these
        finite &= np.isfinite(scaler.to_model(x)).all(axis=1)
        finite &= np.isfinite(scaler.transform_cov(c)).all(axis=1)
    bad = np.flatnonzero(outside | ~finite)
    if bad.size:
        s = ds.samples[bad[0]]
        if outside[bad[0]]:
            raise IntegrityError(f"{ds.track} day {s.day_id} zone {s.zone} outside [0, 1]")
        raise IntegrityError(f"non-finite values in day {s.day_id}")
    return replace(ds, scaler=scaler)


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
        a = rng.uniform(*_PV_AMP_RANGE, size=n_days)
        c = a[:, None] * _daylight_shape()[None, :]
    elif profile == "ramp_wind":
        u = rng.uniform(*_WIND_SPEED_RANGE, size=n_days)
        c = u[:, None] + _WIND_SPEED_SD * _ar1(rng, n_days, _WIND_SPEED_RHO)
    else:  # bimodal_load
        t = np.arange(HOURS)
        delta = 3.0 * rng.standard_normal(n_days)
        theta = 10.0 + 8.0 * np.sin(np.pi * (t - 9) / 12)[None, :] + delta[:, None]
        wkd = np.array([1.0 if d.weekday() >= 5 else 0.0 for d in days])
        c = np.concatenate([theta, np.repeat(wkd[:, None], HOURS, axis=1)], axis=1)
    x = _draw_target(profile, c, rng, n_days)

    samples = [
        DaySample(day_id=days[i], track=track, zone=1, x=x[i].copy(), c=c[i].copy())
        for i in range(n_days)
    ]
    return Dataset(samples=samples)


def _profile_law(profile: str, c: np.ndarray):
    """A profile's target law given covariate rows c (one day's (24K,) or
    (n, 24K)): (scale, mean, sd, lo, hi), with the target
    clip(scale (mean + sd e), lo, hi) for the profile's AR(1) noise e.
    Each part broadcasts against the (..., 24) target."""
    if profile == "sine_pv":
        a = c.max(axis=-1, keepdims=True)  # c = a s and max(s) = 1
        return _daylight_shape(), a, _PV_SIGMA, 0.0, 1.0
    if profile == "ramp_wind":
        g = 1.0 / (1.0 + np.exp(-(c - _WIND_CURVE_MID) / _WIND_CURVE_WIDTH))
        return 1.0, g, _WIND_SIGMA, 0.0, 1.0
    if profile == "bimodal_load":
        theta, wkd = c[..., :HOURS], c[..., HOURS : HOURS + 1]
        mu = (_load_base_shape() * (1.0 - _LOAD_WEEKEND_FACTOR * wkd)
              + _LOAD_TEMP_COEF * (15.0 - theta))
        return _LOAD_SCALE_MW, mu, _LOAD_SIGMA, 0.0, math.inf
    raise ParameterError(f"unknown profile {profile!r}")


def _draw_target(profile: str, c: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 24) targets given covariate rows c, drawing the AR(1) noise from rng."""
    scale, mean, sd, lo, hi = _profile_law(profile, c)
    e = _ar1(rng, n, _TARGET_RHO[profile])
    return np.clip(scale * (mean + sd * e), lo, hi)


def conditional_scenarios(profile: str, c: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Draw m fresh days from the true conditional law given covariates c.

    Uses the same AR(1) temporal correlation as generate_synthetic, so the
    draws carry the generator's correlation structure, not just its marginals.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    return _draw_target(profile, c, np.random.default_rng(seed), m)


def write_manifest(ds: Dataset, path: str | Path) -> None:
    """Record split assignment, scaler parameters, and drop counts as JSON."""
    doc = {
        "track": ds.track if ds.samples else None,
        "n_days": len(ds.days()),
        "dropped": ds.dropped,
        "split": {d.isoformat(): name for d, name in sorted(ds.split.items())},
        "scaler": ds.scaler.to_dict() if ds.scaler else None,
    }
    write_report_json(doc, path)


def write_report_json(doc: dict, path: str | Path) -> None:
    """Write a report as strict JSON; a NaN or infinity raises ParameterError."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise ParameterError(f"{path}: {e}") from None
    Path(path).write_text(text)


def write_observations(ds: Dataset, path: str | Path, split: str = "test", zone: int = 1) -> None:
    """Write one `day,h0..h23` row per selected day, in the dataset's
    units, which `normalize` leaves physical; OBS_BLOCK days per `%` block."""
    sel = sorted(ds.subset(split=split, zone=zone), key=lambda s: s.day_id)
    blocks = (sel[i:i + OBS_BLOCK] for i in range(0, len(sel), OBS_BLOCK))
    _write_table(path, ["day"] + [f"h{h}" for h in range(HOURS)],
                 ((_float_lines([s.day_id.isoformat() for s in b], HOURS),
                   tuple(np.concatenate([s.x for s in b]).tolist())) for b in blocks))


def read_observations(path: str | Path) -> dict[date, np.ndarray]:
    """Inverse of write_observations: {day: (24,) array}."""
    def header_dtype(cells):
        if cells != ["day"] + [f"h{h}" for h in range(HOURS)]:
            raise SchemaError(f"{path}: bad observation header")
        return [("day", f"U{_DATE_WIDTH}"), ("h", "f8", (HOURS,))]

    rows = _read_table(path, header_dtype)
    days, day = _day_index(path, rows["day"])
    i = _first_repeat(day)
    if i is not None:
        raise IntegrityError(f"row {_row_line(path, i)}: duplicate day {days[day[i]]}")
    finite = np.isfinite(rows["h"]).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ParseError(f"row {_row_line(path, i)}: day {days[day[i]]} has a non-finite value")
    return dict(zip(days, np.ascontiguousarray(rows["h"])))
