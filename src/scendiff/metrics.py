"""Scenario quality metrics and the aggregated quality report.

Five scores: continuous ranked probability score (energy-form estimator),
quantile (pinball) score over the 1..99 percent levels, reliability deviation
(MAE-r, percentage points), multivariate energy score, and variogram score.
No score builds an (M, M, L) pairwise tensor: the CRPS spread term is a
weighted sum of order statistics, the energy score sums over the M(M-1)/2
unordered scenario pairs, the variogram score over the L(L-1)/2 unordered
hour pairs, and the reliability curve reads its 99 coverage counts off one
sorted rank array.
Averaging follows one convention throughout: per-day values first, then the
mean over test days; CRPS/QS/ES are reported in percent of the track's
nominal base, VS stays unitless (computed on base-normalized values).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
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


def crps(scenarios: np.ndarray, y: np.ndarray, estimator: str = "nrg"):
    """Energy-form CRPS per marginal and its mean over marginals.

    Per marginal t: mean_m |x_mt - y_t| - (1/(2 M^2)) sum_{m,m'} |x_mt - x_m't|.
    estimator="fair" swaps the second factor for 1/(2 M (M-1)), the unbiased
    variant (needs M >= 2). With M = 1 the score reduces to the MAE.

    The pair sum is read off the sorted sample (Gneiting & Raftery 2007):
    sum_{m,m'} |x_m - x_m'| = 2 sum_i (2i - M - 1) x_(i), O(M log M) per
    marginal. At M = 1 the weight is exactly 0, so the MAE identity is exact.
    """
    scenarios, y = _check_pair(scenarios, y)
    m = scenarios.shape[0]
    if estimator not in ("nrg", "fair"):
        raise ParameterError(f"estimator must be nrg or fair, got {estimator!r}")
    if estimator == "fair" and m < 2:
        raise InsufficientDataError("fair estimator needs at least 2 scenarios")
    term1 = np.mean(np.abs(scenarios - y[None, :]), axis=0)
    rank_weight = 2.0 * np.arange(1, m + 1) - m - 1
    half_pair = rank_weight @ np.sort(scenarios, axis=0)
    denom = m * m if estimator == "nrg" else m * (m - 1)
    per_marginal = term1 - half_pair / denom
    return per_marginal, float(per_marginal.mean())


def empirical_quantiles(scenarios: np.ndarray, levels: np.ndarray = QUANTILE_LEVELS) -> np.ndarray:
    """(n_levels, L) quantiles via linear interpolation of order statistics
    at plotting positions (k - 0.5)/M."""
    return np.quantile(np.asarray(scenarios, dtype=float), levels, axis=0, method="hazen")


def quantile_score(scenarios: np.ndarray, y: np.ndarray,
                   levels: np.ndarray = QUANTILE_LEVELS) -> float:
    """Pinball loss against empirical scenario quantiles, averaged over
    levels and marginals."""
    scenarios, y = _check_pair(scenarios, y)
    if scenarios.shape[0] < 2:
        raise InsufficientDataError("quantile score needs at least 2 scenarios")
    q = np.asarray(levels, dtype=float)[:, None]
    xq = empirical_quantiles(scenarios, levels)
    diff = y[None, :] - xq
    loss = np.where(diff >= 0, q * diff, (1.0 - q) * (-diff))
    return float(loss.mean())


def pinball(xq: float, y: float, q: float) -> float:
    """Single pinball term: (y - xq) q if y >= xq else (xq - y)(1 - q)."""
    return (y - xq) * q if y >= xq else (xq - y) * (1.0 - q)


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
    i, j = np.triu_indices(m, 1)
    diff = scenarios[i] - scenarios[j]
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
    t, u = np.triu_indices(l, 1)
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
        _write_table(path, ["nominal", "empirical"], ("%.17g", "%.17g"),
                     zip(QUANTILE_LEVELS * 100, np.multiply(self.reliability_curve, 100)))


def evaluate(scenarios_by_day: dict, obs_by_day: dict, base: float = 1.0,
             gamma: float = 0.5, weights: np.ndarray | None = None,
             crps_estimator: str = "nrg", seed: int = 0) -> QualityReport:
    """Score a full test set; inputs are {day: (M, L) array} and {day: (L,)}.

    `base` is the physical value equal to 100% (nominal capacity for pv and
    wind, learn-split maximum for load). CRPS/QS/ES are means over days in
    percent, MAE-r is in percentage points, VS is computed on base-normalized
    values and left unitless. Day sets must match exactly, and every day
    must carry the same number of scenarios (DimensionError otherwise).
    """
    if base <= 0:
        raise ParameterError(f"base must be positive, got {base}")
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
    scen_norm = []
    obs_norm = []
    for d in days:
        x = np.asarray(scenarios_by_day[d], dtype=float) / base
        y = np.asarray(obs_by_day[d], dtype=float) / base
        scen_norm.append(x)
        obs_norm.append(y)
        _, c = crps(x, y, estimator=crps_estimator)
        if x.shape[0] != scen_norm[0].shape[0]:
            raise DimensionError(
                f"day {d} has {x.shape[0]} scenarios, but day {days[0]} has "
                f"{scen_norm[0].shape[0]}; every day needs the same count"
            )
        per_day[d] = {
            "crps_pct": c * 100.0,
            "qs_pct": quantile_score(x, y) * 100.0,
            "es_pct": energy_score(x, y) * 100.0,
            "vs": variogram_score(x, y, gamma=gamma, weights=weights),
        }
    curve, mae_r = reliability(scen_norm, obs_norm, seed=seed)
    report = QualityReport(
        crps=float(np.mean([v["crps_pct"] for v in per_day.values()])),
        qs=float(np.mean([v["qs_pct"] for v in per_day.values()])),
        mae_r=mae_r,
        es=float(np.mean([v["es_pct"] for v in per_day.values()])),
        vs=float(np.mean([v["vs"] for v in per_day.values()])),
        n_days=len(days),
        m=scen_norm[0].shape[0],
        base=base,
        per_day=per_day,
        reliability_curve=curve.tolist(),
    )
    return report


def evaluate_files(scenario_path: str | Path, obs_path: str | Path, **kwargs) -> QualityReport:
    """evaluate() over a scenario CSV and an observation CSV."""
    from .data import read_observations
    from .diffusion import read_scenarios

    return evaluate(read_scenarios(scenario_path), read_observations(obs_path), **kwargs)
