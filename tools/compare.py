"""Pair the per-day scores of two quality reports and test their difference;
print one JSON line per score.

    python3 tools/compare.py A/quality_report.json B/quality_report.json

For each of crps_pct, qs_pct, es_pct and vs, d_t is day t's score in A minus
its score in B. A line gives the days N, the mean difference, its standard
error sqrt(g0 / N) with g0 = mean((d - mean d)^2), the Diebold-Mariano
statistic mean / SE at lag 0 and its two-sided normal p-value (Diebold &
Mariano 1995). A negative mean favours A. With SE 0 the statistic is 0 when
the mean is 0 (a report against itself) and +-Infinity otherwise. Exit 1,
with one line on stderr, when the reports hold different days (naming the
first day one of them lacks) or cannot be read.
"""
import argparse
import json
import math
import sys

import numpy as np

SCORES = ("crps_pct", "qs_pct", "es_pct", "vs")


def compare(a: dict, b: dict) -> list[dict]:
    """One dict per score for the per_day entries of reports a and b, which
    must hold the same days."""
    missing = sorted(a.keys() ^ b.keys())
    if missing:
        lacks = "A" if missing[0] in b else "B"
        raise ValueError(f"report {lacks} lacks day {missing[0]}")
    days = sorted(a)
    lines = []
    for score in SCORES:
        d = np.array([a[day][score] - b[day][score] for day in days])
        mean = float(d.mean())
        se = math.sqrt(float(np.mean((d - mean) ** 2)) / d.size)
        dm = mean / se if se > 0 else (0.0 if mean == 0 else math.copysign(math.inf, mean))
        lines.append({"score": score, "days": d.size, "mean_diff": mean, "se": se, "dm": dm,
                      "p": math.erfc(abs(dm) / math.sqrt(2.0))})
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", metavar="A/quality_report.json")
    p.add_argument("b", metavar="B/quality_report.json")
    args = p.parse_args(argv)
    try:
        reports = [json.loads(open(path, encoding="utf-8").read())["per_day"]
                   for path in (args.a, args.b)]
        lines = compare(*reports)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"compare: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
