"""Scenario quality metrics and the aggregated quality report.

Five scores: continuous ranked probability score (energy-form estimator),
quantile (pinball) score over the 1..99 percent levels, reliability deviation
(MAE-r, percentage points), multivariate energy score, and variogram score.
No score builds an (M, M, L) pairwise tensor: the CRPS spread term is a
weighted sum of order statistics, the energy score sums over the M(M-1)/2
unordered scenario pairs, the variogram score over the L(L-1)/2 unordered
hour pairs, and the reliability curve reads its 99 coverage counts off one
sorted rank array. The quantile score reads its quantiles off one sort of
each day's scenarios, and the index plans (quantile positions, scenario and
hour pairs) are built once per size and shared read-only.
Averaging follows one convention throughout: per-day values first, then the
mean over test days; CRPS/QS/ES are reported in percent of the track's
nominal base, VS stays unitless (computed on base-normalized values).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import _write_table, write_report_json
from .errors import (
    AlignmentError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
)

QUANTILE_LEVELS = np.arange(1, 100) / 100.0  # 0.01 .. 0.99


def _check_pair(scenarios: np.ndarray, y: np.ndarray):
    scenarios = np.asarray(scenarios, dtype=float)
    y = np.asarray(y, dtype=float)
    if scenarios.ndim != 2:
        raise DimensionError(f"scenarios must be (M, L), got {scenarios.shape}")
    if y.shape != (scenarios.shape[1],):
        raise DimensionError(f"observation shape {y.shape} != ({scenarios.shape[1]},)")
    return scenarios, y


def crps(scenarios: np.ndarray, y: np.ndarray):
    """Energy-form CRPS per marginal and its mean over marginals.

    Per marginal t: mean_m |x_mt - y_t| - (1/(2 M^2)) sum_{m,m'} |x_mt - x_m't|.
    With M = 1 the score reduces to the MAE.

    The pair sum is read off the sorted sample (Gneiting & Raftery 2007):
    sum_{m,m'} |x_m - x_m'| = 2 sum_i (2i - M - 1) x_(i), O(M log M) per
    marginal. At M = 1 the weight is exactly 0, so the MAE identity is exact.
    """
    scenarios, y = _check_pair(scenarios, y)
    m = scenarios.shape[0]
    term1 = np.mean(np.abs(scenarios - y[None, :]), axis=0)
    rank_weight = 2.0 * np.arange(1, m + 1) - m - 1
    half_pair = rank_weight @ np.sort(scenarios, axis=0)
    per_marginal = term1 - half_pair / (m * m)
    return per_marginal, float(per_marginal.mean())


@lru_cache(maxsize=16)
def _hazen_plan(m: int):
    """Indices and weights of the hazen quantiles of M values at QUANTILE_LEVELS,
    by numpy's own virtual-index, clamp and gamma steps (read-only arrays)."""
    q = QUANTILE_LEVELS
    alpha = beta = 0.5  # hazen: plotting positions (k - 0.5)/M
    virtual = m * q + (alpha + q * (1 - alpha - beta)) - 1
    lower = np.floor(virtual)
    upper = lower + 1
    lower[virtual >= m - 1] = upper[virtual >= m - 1] = -1
    lower[virtual < 0] = upper[virtual < 0] = 0
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    gamma = virtual - lower
    plan = (lower, upper, gamma, 1 - gamma, gamma >= 0.5)
    for a in plan:
        a.flags.writeable = False
    return plan


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): the n(n-1)/2 unordered index pairs (read-only)."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def empirical_quantiles(scenarios: np.ndarray) -> np.ndarray:
    """(99, L) quantiles at QUANTILE_LEVELS via linear interpolation of order
    statistics at plotting positions (k - 0.5)/M.

    The quantiles are read off one np.sort of the sample, with the index and
    weight plan built once per M and numpy's own interpolation
    (its `_lerp`), so they equal np.quantile(method="hazen") bit for bit: a
    partition and a sort leave the same order statistics. Only the sign of a
    zero quantile may differ, where a column holds both 0.0 and -0.0, as
    the two algorithms may order those equal values differently.
    """
    scenarios = np.asarray(scenarios, dtype=float)
    plan = _hazen_plan(scenarios.shape[0])
    lower, upper = plan[:2]
    gamma, one_minus, high = (a.reshape((-1,) + (1,) * (scenarios.ndim - 1)) for a in plan[2:])
    ordered = np.sort(scenarios, axis=0)
    a, b = ordered[lower], ordered[upper]
    diff = b - a
    out = np.add(a, diff * gamma)
    np.subtract(b, diff * one_minus, out=out, where=high)
    nan_cols = np.isnan(ordered[-1])  # NaN sorts last; np.quantile gives NaN there
    if nan_cols.any():
        np.copyto(out, ordered[-1], where=nan_cols)
    return out


def quantile_score(scenarios: np.ndarray, y: np.ndarray) -> float:
    """Pinball loss against empirical scenario quantiles, averaged over
    QUANTILE_LEVELS and marginals."""
    scenarios, y = _check_pair(scenarios, y)
    if scenarios.shape[0] < 2:
        raise InsufficientDataError("quantile score needs at least 2 scenarios")
    q = QUANTILE_LEVELS[:, None]
    xq = empirical_quantiles(scenarios)
    diff = y[None, :] - xq
    loss = np.where(diff >= 0, q * diff, (1.0 - q) * (-diff))
    return float(loss.mean())


def reliability(scenario_list, obs_list, seed: int = 0):
    """Reliability curve over nominal levels 1..99% and its MAE-r.

    For each (day, marginal) pair the observation's position within the
    scenario ensemble is computed as a randomized rank: ties between the
    observation and scenario values are resolved by a seeded uniform draw,
    which keeps degenerate marginals (e.g. identically-zero night hours)
    calibrated instead of counting as full coverage. A pair counts as covered
    at level q when that position is <= q. Returns (empirical curve as
    fractions, MAE-r in percentage points).
    """
    if len(scenario_list) == 0:
        raise ParameterError("no scenario sets given")
    if len(scenario_list) != len(obs_list):
        raise AlignmentError(f"{len(scenario_list)} scenario sets vs {len(obs_list)} observations")
    if len(scenario_list) < 10:
        raise InsufficientDataError(f"reliability needs >= 10 days, got {len(scenario_list)}")
    rng = np.random.default_rng(seed)
    ranks = []
    for scens, y in zip(scenario_list, obs_list):
        scens, y = _check_pair(scens, y)
        m = scens.shape[0]
        below = (scens < y[None, :]).sum(axis=0)
        at_or_below = (scens <= y[None, :]).sum(axis=0)
        v = rng.uniform(size=y.shape)
        ranks.append((below + v * (at_or_below - below)) / m)
    r = np.sort(np.concatenate(ranks))
    curve = np.searchsorted(r, QUANTILE_LEVELS, side="right") / r.size
    mae_r = float(np.mean(np.abs(curve - QUANTILE_LEVELS))) * 100.0
    return curve, mae_r


def energy_score(scenarios: np.ndarray, y: np.ndarray) -> float:
    """Multivariate generalization of the CRPS over the full 24-vector:
    mean_m ||x_m - y|| - (1/(2 M^2)) sum_{m,m'} ||x_m - x_m'||.

    The pair sum runs over the M(M-1)/2 unordered pairs and is doubled. Each
    norm is taken of the difference itself, not by the Gram form
    ||a||^2 + ||b||^2 - 2 a.b, which cancels on identical rows.
    """
    scenarios, y = _check_pair(scenarios, y)
    m = scenarios.shape[0]
    term1 = np.mean(np.linalg.norm(scenarios - y[None, :], axis=1))
    i, j = _pairs(m)
    diff = np.take(scenarios, i, axis=0)  # np.take gathers rows faster than x[i]
    diff -= np.take(scenarios, j, axis=0)
    half_pair = np.sqrt(np.einsum("pl,pl->p", diff, diff)).sum()
    return float(term1 - half_pair / (m * m))


def variogram_score(scenarios: np.ndarray, y: np.ndarray, gamma: float = 0.5,
                    weights: np.ndarray | None = None) -> float:
    """sum_{t,t'} w_tt' (|y_t - y_t'|^g - mean_m |x_mt - x_mt'|^g)^2 over
    ordered pairs; unit weights by default.

    The summand is symmetric in (t, t') and zero on the diagonal, so the sum
    runs over the L(L-1)/2 unordered pairs with weight w_tt' + w_t't.
    """
    scenarios, y = _check_pair(scenarios, y)
    if not 0 < gamma < np.inf:
        raise ParameterError(f"gamma must be positive and finite, got {gamma}")
    l = y.size
    if weights is None:
        weights = np.ones((l, l))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (l, l):
        raise DimensionError(f"weights shape {weights.shape} != ({l}, {l})")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ParameterError("weights must be finite and non-negative")
    t, u = _pairs(l)
    vy = np.abs(y[t] - y[u]) ** gamma
    vx = np.mean(np.abs(scenarios[:, t] - scenarios[:, u]) ** gamma, axis=0)
    return float(np.sum((weights[t, u] + weights[u, t]) * (vy - vx) ** 2))


@dataclass
class QualityReport:
    """Aggregated scores plus per-day breakdowns and the reliability curve."""

    crps: float
    qs: float
    mae_r: float
    es: float
    vs: float
    n_days: int
    m: int
    base: float  # physical value corresponding to 100%
    per_day: dict = field(default_factory=dict)
    reliability_curve: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "crps_pct": self.crps,
            "qs_pct": self.qs,
            "mae_r_pp": self.mae_r,
            "es_pct": self.es,
            "vs": self.vs,
            "n_days": self.n_days,
            "m": self.m,
            "base": self.base,
            "per_day": {k.isoformat() if isinstance(k, date) else str(k): v
                        for k, v in self.per_day.items()},
            "reliability_curve": list(self.reliability_curve),
        }

    def write_json(self, path: str | Path) -> None:
        write_report_json(self.to_dict(), path)

    def write_reliability_csv(self, path: str | Path) -> None:
        """Rows `nominal,empirical`, both in percent."""
        _write_table(path, ["nominal", "empirical"],
                     (("%.17g,%.17g\r\n", row) for row in
                      zip(QUANTILE_LEVELS * 100, np.multiply(self.reliability_curve, 100))))


def evaluate(scenarios_by_day: dict, obs_by_day: dict, base: float = 1.0,
             seed: int = 0) -> QualityReport:
    """Score a full test set; inputs are {day: (M, L) array} and {day: (L,)}.

    `base` is the physical value equal to 100% (nominal capacity for pv and
    wind, learn-split maximum for load). CRPS/QS/ES are means over days in
    percent, MAE-r is in percentage points, VS (gamma = 0.5) is computed on
    base-normalized values and left unitless. Day sets must match exactly, and
    every day must carry the same number of scenarios (DimensionError otherwise).
    """
    if not 0 < base < np.inf:  # nan fails both comparisons
        raise ParameterError(f"base must be positive and finite, got {base}")
    missing = sorted(set(scenarios_by_day) - set(obs_by_day))
    extra = sorted(set(obs_by_day) - set(scenarios_by_day))
    if missing or extra:
        raise AlignmentError(
            f"day mismatch: {len(missing)} days lack observations {missing[:5]}, "
            f"{len(extra)} days lack scenarios {extra[:5]}"
        )
    if not scenarios_by_day:
        raise ParameterError("no days to evaluate")
    days = sorted(scenarios_by_day)
    per_day = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused
        for d in days:  # a day is scaled only for CRPS, QS, ES and VS: ranks are unit-free
            x = np.asarray(scenarios_by_day[d], dtype=float) / base
            y = np.asarray(obs_by_day[d], dtype=float) / base
            _, c = crps(x, y)
            if d == days[0]:
                m = x.shape[0]
            elif x.shape[0] != m:
                raise DimensionError(f"day {d} has {x.shape[0]} scenarios, but day {days[0]} "
                                     f"has {m}; every day needs the same count")
            per_day[d] = {
                "crps_pct": c * 100.0,
                "qs_pct": quantile_score(x, y) * 100.0,
                "es_pct": energy_score(x, y) * 100.0,
                "vs": variogram_score(x, y),
            }
            if not np.isfinite(list(per_day[d].values())).all():
                raise ParameterError(f"day {d}: a score is not finite at base {base}; "
                                     "its values over base leave the float range")
    curve, mae_r = reliability([scenarios_by_day[d] for d in days],
                               [obs_by_day[d] for d in days], seed=seed)
    report = QualityReport(
        crps=float(np.mean([v["crps_pct"] for v in per_day.values()])),
        qs=float(np.mean([v["qs_pct"] for v in per_day.values()])),
        mae_r=mae_r,
        es=float(np.mean([v["es_pct"] for v in per_day.values()])),
        vs=float(np.mean([v["vs"] for v in per_day.values()])),
        n_days=len(days),
        m=m,
        base=base,
        per_day=per_day,
        reliability_curve=curve.tolist(),
    )
    return report
