"""tools/compare.py: paired per-day score differences and their DM statistic."""
import importlib.util
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from scendiff import metrics as met

_SPEC = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parent.parent / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

SCORES = ("crps_pct", "qs_pct", "es_pct", "vs")


def _days(n, start=date(2021, 3, 1)):
    return [(start + timedelta(days=k)).isoformat() for k in range(n)]


def _report(tmp_path, name, per_day):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"crps_pct": 0.0, "per_day": per_day}))
    return str(path)


def _run(capsys, *paths):
    rc = compare.main(list(paths))
    out, err = capsys.readouterr()
    return rc, [json.loads(line) for line in out.splitlines()], err


def test_matches_a_numpy_reference(tmp_path, capsys):
    rng = np.random.default_rng(3)
    days = _days(9)
    a = {d: dict(zip(SCORES, rng.uniform(0, 5, 4))) for d in days}
    b = {d: dict(zip(SCORES, rng.uniform(0, 5, 4))) for d in reversed(days)}  # key order is free
    rc, lines, err = _run(capsys, _report(tmp_path, "a", a), _report(tmp_path, "b", b))
    assert rc == 0 and err == ""
    assert [line["score"] for line in lines] == list(SCORES)
    for line in lines:
        d = np.array([a[day][line["score"]] - b[day][line["score"]] for day in days])
        se = d.std() / math.sqrt(d.size)  # lag 0: the variance divides by N
        assert line["days"] == 9
        assert line["mean_diff"] == pytest.approx(d.mean(), rel=1e-12)
        assert line["se"] == pytest.approx(se, rel=1e-12)
        assert line["dm"] == pytest.approx(d.mean() / se, rel=1e-12)
        assert line["p"] == pytest.approx(2 * scipy.stats.norm.sf(abs(d.mean() / se)), rel=1e-9)
    # swapping the reports flips the sign and keeps the rest
    _, swapped, _ = _run(capsys, _report(tmp_path, "b", b), _report(tmp_path, "a", a))
    for x, y in zip(lines, swapped):
        assert (y["mean_diff"], y["dm"]) == pytest.approx((-x["mean_diff"], -x["dm"]), rel=1e-12)
        assert y["se"] == pytest.approx(x["se"], rel=1e-12)


def test_a_report_against_itself_is_zero(tmp_path, capsys):
    """A real evaluate report paired with itself: every difference, SE and
    statistic is 0 and p is 1, with no division error."""
    rng = np.random.default_rng(5)
    days = [date(2020, 1, 1) + timedelta(days=k) for k in range(30)]
    scen = {d: rng.uniform(0, 1, (10, 24)) for d in days}
    obs = {d: rng.uniform(0, 1, 24) for d in days}
    path = tmp_path / "quality_report.json"
    met.evaluate(scen, obs, base=1.0, seed=0).write_json(path)
    rc, lines, _ = _run(capsys, str(path), str(path))
    assert rc == 0 and len(lines) == 4
    for line in lines:
        assert (line["days"], line["mean_diff"], line["se"], line["dm"], line["p"]) == (
            30, 0.0, 0.0, 0.0, 1.0)


def test_a_constant_difference_is_infinitely_significant(tmp_path, capsys):
    days = _days(3)
    a = {d: dict.fromkeys(SCORES, 2.0) for d in days}
    b = {d: dict.fromkeys(SCORES, 1.5) for d in days}
    rc, lines, _ = _run(capsys, _report(tmp_path, "a", a), _report(tmp_path, "b", b))
    assert rc == 0
    assert all(line["se"] == 0.0 and line["dm"] == math.inf and line["p"] == 0.0
               for line in lines)


def test_different_day_sets_exit_1_naming_the_first_missing_day(tmp_path, capsys):
    days = _days(5)
    full = {d: dict.fromkeys(SCORES, 1.0) for d in days}
    short = {d: v for d, v in full.items() if d not in (days[1], days[3])}
    a, b = _report(tmp_path, "full", full), _report(tmp_path, "short", short)
    for paths, lacks in (((a, b), "B"), ((b, a), "A")):
        rc, lines, err = _run(capsys, *paths)
        assert rc == 1 and lines == []
        assert err.strip().splitlines() == [f"compare: ValueError: report {lacks} lacks day {days[1]}"]
    # an unreadable report is one stderr line and exit 1 too
    rc, lines, err = _run(capsys, a, str(tmp_path / "missing.json"))
    assert rc == 1 and lines == [] and len(err.strip().splitlines()) == 1
