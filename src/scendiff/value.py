"""Forecast-value harness: scenario-based day-ahead bidding with a battery.

A retailer with a wind + pv + load portfolio and a battery bids energy
quantities b_t into the day-ahead market at known prices. The first stage
fixes the 24 bids; the second stage (per scenario) operates the battery and
settles imbalances at asymmetric surplus/deficit penalties. The
deterministic equivalent is one standard-form LP solved by the bundled
simplex. Realized profit comes from replaying the bids against the day's
observations; an oracle (observations as the single scenario) and a
deterministic point-forecast planner (scenario-mean) are the baselines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .data import HOURS, _write_table, write_report_json
from .errors import (
    CoverageError,
    DimensionError,
    ParameterError,
)
from .simplex import LPProblem, LPSolution, simplex_solve

SOLVE_TOL = 1e-6


def _as_curve(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = np.full(HOURS, float(arr))
    if arr.shape != (HOURS,):
        raise DimensionError(f"{name} must be scalar or length {HOURS}, got {arr.shape}")
    return arr


@dataclass
class RetailerModel:
    """Battery ratings, state-of-charge targets, prices, and penalties.

    Energy in MWh, power in MW (hourly steps, so MW == MWh per period),
    prices and penalties in EUR/MWh. A zero-capacity battery is allowed and
    simply disables storage recourse.
    """

    capacity: float = 10.0
    p_charge: float = 5.0
    p_discharge: float = 5.0
    eta_c: float = 0.95
    eta_d: float = 0.95
    soc_start: float = 5.0
    soc_end: float = 5.0
    price: np.ndarray = field(default_factory=lambda: np.full(HOURS, 50.0))
    pen_surplus: np.ndarray = field(default_factory=lambda: np.full(HOURS, 25.0))
    pen_deficit: np.ndarray = field(default_factory=lambda: np.full(HOURS, 100.0))

    def __post_init__(self):
        self.price = _as_curve(self.price, "price")
        self.pen_surplus = _as_curve(self.pen_surplus, "pen_surplus")
        self.pen_deficit = _as_curve(self.pen_deficit, "pen_deficit")

    def validate(self) -> None:
        if self.capacity < 0:
            raise ParameterError(f"capacity must be >= 0, got {self.capacity}")
        if not (0 < self.eta_c <= 1 and 0 < self.eta_d <= 1):
            raise ParameterError("efficiencies must lie in (0, 1]")
        if self.p_charge < 0 or self.p_discharge < 0:
            raise ParameterError("power limits must be >= 0")
        for name in ("soc_start", "soc_end"):
            v = getattr(self, name)
            if not 0 <= v <= self.capacity:
                raise ParameterError(f"{name}={v} outside [0, {self.capacity}]")
        if np.any(self.pen_surplus < 0) or np.any(self.pen_deficit < 0):
            raise ParameterError("penalties must be >= 0")
        if not np.all(np.isfinite(self.price)):
            raise ParameterError("prices must be finite")
        max_rise = HOURS * self.eta_c * self.p_charge
        max_fall = HOURS * self.p_discharge / self.eta_d
        if self.soc_end - self.soc_start > max_rise + 1e-9:
            raise ParameterError("final state of charge unreachable: cannot charge enough")
        if self.soc_start - self.soc_end > max_fall + 1e-9:
            raise ParameterError("final state of charge unreachable: cannot discharge enough")

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity, "p_charge": self.p_charge,
            "p_discharge": self.p_discharge, "eta_c": self.eta_c, "eta_d": self.eta_d,
            "soc_start": self.soc_start, "soc_end": self.soc_end,
            "price": self.price.tolist(), "pen_surplus": self.pen_surplus.tolist(),
            "pen_deficit": self.pen_deficit.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RetailerModel":
        return cls(**{k: d[k] for k in d})


def _net_scenarios(scenarios) -> np.ndarray:
    """Stack (wind, pv, load) triples into (S, 24) net renewable positions."""
    rows = []
    for s, triple in enumerate(scenarios):
        wind, pv, load = (np.asarray(v, dtype=float) for v in triple)
        for name, v in (("wind", wind), ("pv", pv), ("load", load)):
            if v.shape != (HOURS,):
                raise DimensionError(f"scenario {s} {name} has shape {v.shape}")
        rows.append(wind + pv - load)
    return np.stack(rows)


def build_two_stage_lp(model: RetailerModel, scenarios, bids: np.ndarray | None = None) -> LPProblem:
    """Deterministic equivalent of the two-stage bidding problem.

    Variables per scenario: charge, discharge (24 each), state of charge for
    hours 1..23 (the terminal value is substituted as a constant), surplus and
    deficit (24 each), plus slacks for the charge/discharge/SoC upper bounds.
    First-stage bids are free, split into positive and negative parts; passing
    `bids` instead pins them and drops the first stage (dispatch replay).
    The objective is min of (penalty cost - day-ahead revenue).
    """
    model.validate()
    net = _net_scenarios(scenarios)
    n_s = net.shape[0]
    if bids is not None:
        bids = _as_curve(bids, "bids")

    free_bids = bids is None
    n_first = 2 * HOURS if free_bids else 0
    per_s = 5 * HOURS - 1 + 2 * HOURS + (HOURS - 1)  # ch,dis,soc,sur,def + slacks
    n = n_first + n_s * per_s
    rows_per_s = 2 * HOURS + 2 * HOURS + (HOURS - 1)  # imbalance, soc, bounds
    m = n_s * rows_per_s

    a = np.zeros((m, n))
    b = np.zeros(m)
    c = np.zeros(n)
    names: dict[str, int] = {}

    if free_bids:
        for t in range(HOURS):
            names[f"bid_pos_{t}"] = t
            names[f"bid_neg_{t}"] = HOURS + t
            c[t] = -model.price[t]
            c[HOURS + t] = model.price[t]

    for s in range(n_s):
        base = n_first + s * per_s
        ch = base
        dis = base + HOURS
        soc = base + 2 * HOURS  # 23 variables: end-of-hour SoC for t=1..23
        sur = base + 3 * HOURS - 1
        dfc = base + 4 * HOURS - 1
        sl_ch = base + 5 * HOURS - 1
        sl_dis = base + 6 * HOURS - 1
        sl_soc = base + 7 * HOURS - 1  # 23 slack columns
        for t in range(HOURS):
            names[f"ch_{s}_{t}"] = ch + t
            names[f"dis_{s}_{t}"] = dis + t
            names[f"sur_{s}_{t}"] = sur + t
            names[f"def_{s}_{t}"] = dfc + t
            c[sur + t] = model.pen_surplus[t] / n_s
            c[dfc + t] = model.pen_deficit[t] / n_s
        for t in range(HOURS - 1):
            names[f"soc_{s}_{t + 1}"] = soc + t

        row = s * rows_per_s
        # imbalance: b_t - (net_t + dis_t - ch_t) = def_t - sur_t
        for t in range(HOURS):
            r = row + t
            if free_bids:
                a[r, t] = 1.0
                a[r, HOURS + t] = -1.0
            a[r, dis + t] = -1.0
            a[r, ch + t] = 1.0
            a[r, dfc + t] = -1.0
            a[r, sur + t] = 1.0
            b[r] = net[s, t] - (0.0 if free_bids else bids[t])
        # state of charge: soc_t = soc_{t-1} + eta_c ch_t - dis_t / eta_d,
        # with soc_0 = soc_start and soc_24 = soc_end substituted as constants
        for t in range(HOURS):
            r = row + HOURS + t
            a[r, ch + t] = -model.eta_c
            a[r, dis + t] = 1.0 / model.eta_d
            if t == 0:
                a[r, soc + 0] = 1.0
                b[r] = model.soc_start
            elif t < HOURS - 1:
                a[r, soc + t] = 1.0
                a[r, soc + t - 1] = -1.0
                b[r] = 0.0
            else:
                a[r, soc + t - 1] = -1.0
                b[r] = -model.soc_end
        # bounds: ch <= p_charge, dis <= p_discharge, soc <= capacity
        for t in range(HOURS):
            r = row + 2 * HOURS + t
            a[r, ch + t] = 1.0
            a[r, sl_ch + t] = 1.0
            b[r] = model.p_charge
            r2 = row + 3 * HOURS + t
            a[r2, dis + t] = 1.0
            a[r2, sl_dis + t] = 1.0
            b[r2] = model.p_discharge
        for t in range(HOURS - 1):
            r = row + 4 * HOURS + t
            a[r, soc + t] = 1.0
            a[r, sl_soc + t] = 1.0
            b[r] = model.capacity

    lp = LPProblem(c=c, a=a, b=b, names=names)
    lp.validate()
    return lp


def extract_bids(lp: LPProblem, sol: LPSolution) -> np.ndarray:
    return np.array(
        [sol.value_of(lp, f"bid_pos_{t}") - sol.value_of(lp, f"bid_neg_{t}") for t in range(HOURS)]
    )


def extract_schedule(lp: LPProblem, sol: LPSolution, model: RetailerModel, s: int = 0) -> dict:
    """Per-scenario battery/imbalance schedule; soc has 25 entries (hours 0..24)."""
    ch = np.array([sol.value_of(lp, f"ch_{s}_{t}") for t in range(HOURS)])
    dis = np.array([sol.value_of(lp, f"dis_{s}_{t}") for t in range(HOURS)])
    soc_mid = [sol.value_of(lp, f"soc_{s}_{t}") for t in range(1, HOURS)]
    soc = np.array([model.soc_start, *soc_mid, model.soc_end])
    sur = np.array([sol.value_of(lp, f"sur_{s}_{t}") for t in range(HOURS)])
    dfc = np.array([sol.value_of(lp, f"def_{s}_{t}") for t in range(HOURS)])
    return {"charge": ch, "discharge": dis, "soc": soc, "surplus": sur, "deficit": dfc}


def solve_bidding(model: RetailerModel, scenarios) -> tuple[LPProblem, LPSolution]:
    """Build and solve the free-bid problem; raises unless optimal."""
    lp = build_two_stage_lp(model, scenarios)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ParameterError(f"bidding problem is {sol.status}; check prices vs penalties")
    return lp, sol


def realtime_dispatch(model: RetailerModel, bids: np.ndarray, observations,
                      return_detail: bool = False):
    """Replay fixed bids against one day's (wind, pv, load) observations.

    Net profit = day-ahead revenue at the given prices minus realized
    imbalance penalties after optimal battery recourse.
    """
    bids = _as_curve(bids, "bids")
    lp = build_two_stage_lp(model, [observations], bids=bids)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ParameterError(f"dispatch problem is {sol.status}")
    revenue = float(model.price @ bids)
    profit = revenue - sol.objective
    if not return_detail:
        return profit
    detail = extract_schedule(lp, sol, model, s=0)
    detail.update({"revenue": revenue, "penalty": sol.objective, "profit": profit})
    return profit, detail


def oracle_profit(model: RetailerModel, observations) -> float:
    """Best possible profit with perfect knowledge of the day (S=1 free-bid LP)."""
    _, sol = solve_bidding(model, [observations])
    return -sol.objective


def deterministic_bids(model: RetailerModel, scenarios) -> np.ndarray:
    """Point-forecast baseline: plan against the scenario-mean day."""
    triples = list(scenarios)
    wind = np.mean([np.asarray(t[0], dtype=float) for t in triples], axis=0)
    pv = np.mean([np.asarray(t[1], dtype=float) for t in triples], axis=0)
    load = np.mean([np.asarray(t[2], dtype=float) for t in triples], axis=0)
    lp, sol = solve_bidding(model, [(wind, pv, load)])
    return extract_bids(lp, sol)


@dataclass
class ValueReport:
    """Per-simulated-day profit rows and per-model aggregates (EUR)."""

    rows: list = field(default_factory=list)  # {model, day, pv_zone, wind_zone, profit}
    aggregate: dict = field(default_factory=dict)
    oracle_total: float = 0.0
    n_simulated: int = 0

    def validate(self) -> None:
        oracle = {}
        for r in self.rows:
            if r["model"] == "oracle":
                oracle[(r["day"], r["pv_zone"], r["wind_zone"])] = r["profit"]
        for r in self.rows:
            if r["model"] == "oracle":
                continue
            bound = oracle.get((r["day"], r["pv_zone"], r["wind_zone"]))
            if bound is None:
                continue
            if r["profit"] > bound + SOLVE_TOL * (1.0 + abs(bound)):
                raise ParameterError(
                    f"{r['model']} profit {r['profit']:.6f} exceeds oracle {bound:.6f} "
                    f"on {r['day']} pv{r['pv_zone']} wind{r['wind_zone']}"
                )

    def to_dict(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "oracle_total": self.oracle_total,
            "n_simulated": self.n_simulated,
            "rows": [
                {**r, "day": r["day"].isoformat() if isinstance(r["day"], date) else r["day"]}
                for r in self.rows
            ],
        }

    def write_json(self, path: str | Path) -> None:
        write_report_json(self.to_dict(), path)

    def write_csv(self, path: str | Path) -> None:
        rows = ((r["model"], r["day"].isoformat() if isinstance(r["day"], date) else r["day"],
                 r["pv_zone"], r["wind_zone"], r["profit"]) for r in self.rows)
        _write_table(path, ["model", "day", "pv_zone", "wind_zone", "profit"],
                     ("%s", "%s", "%s", "%s", "%.17g"), rows)


def run_value_benchmark(
    model_scenarios: dict, observations: dict, retailer: RetailerModel,
    days, pv_zones, wind_zones, load_zone: int = 1, n_planner_scenarios: int = 5,
) -> ValueReport:
    """Simulate day-ahead bidding for every (day, pv zone, wind zone) combo.

    model_scenarios: {model_name: {track: {(day, zone): (M, 24) scenarios}}}
    observations:    {track: {(day, zone): (24,) observed values}}

    For each simulated day and model: solve the stochastic planner on the
    first n_planner_scenarios index-paired scenario triples, dispatch the
    bids against observations, and record net profit. Adds `oracle` rows
    (perfect knowledge) and one `<name>-det` deterministic point-forecast
    baseline per model. Raises CoverageError listing missing combinations.
    """
    retailer.validate()
    if n_planner_scenarios < 1:
        raise ParameterError(f"n_planner_scenarios must be >= 1, got {n_planner_scenarios}")
    days = list(days)
    missing = []
    for day in days:
        for track, zones in (("pv", pv_zones), ("wind", wind_zones), ("load", [load_zone])):
            for z in zones:
                if (day, z) not in observations.get(track, {}):
                    missing.append(f"obs:{track}:{day}:zone{z}")
                for name, scen in model_scenarios.items():
                    if (day, z) not in scen.get(track, {}):
                        missing.append(f"{name}:{track}:{day}:zone{z}")
    if missing:
        raise CoverageError(
            f"{len(missing)} missing (day, zone) combinations, e.g. {missing[:5]}"
        )

    rows = []
    for day in days:
        obs_l = observations["load"][(day, load_zone)]
        for pz in pv_zones:
            obs_p = observations["pv"][(day, pz)]
            for wz in wind_zones:
                obs_w = observations["wind"][(day, wz)]
                key = {"day": day, "pv_zone": pz, "wind_zone": wz}
                oracle = oracle_profit(retailer, (obs_w, obs_p, obs_l))
                rows.append({"model": "oracle", **key, "profit": oracle})
                for name, scen in model_scenarios.items():
                    s_w = np.asarray(scen["wind"][(day, wz)], dtype=float)
                    s_p = np.asarray(scen["pv"][(day, pz)], dtype=float)
                    s_l = np.asarray(scen["load"][(day, load_zone)], dtype=float)
                    s = min(n_planner_scenarios, s_w.shape[0], s_p.shape[0], s_l.shape[0])
                    triples = [(s_w[i], s_p[i], s_l[i]) for i in range(s)]
                    lp, sol = solve_bidding(retailer, triples)
                    bids = extract_bids(lp, sol)
                    profit = realtime_dispatch(retailer, bids, (obs_w, obs_p, obs_l))
                    rows.append({"model": name, **key, "profit": profit})
                    det = deterministic_bids(retailer, triples)
                    det_profit = realtime_dispatch(retailer, det, (obs_w, obs_p, obs_l))
                    rows.append({"model": f"{name}-det", **key, "profit": det_profit})

    aggregate: dict[str, float] = {}
    for r in rows:
        aggregate[r["model"]] = aggregate.get(r["model"], 0.0) + r["profit"]
    report = ValueReport(
        rows=rows,
        aggregate=aggregate,
        oracle_total=aggregate.get("oracle", 0.0),
        n_simulated=len(days) * len(list(pv_zones)) * len(list(wind_zones)),
    )
    report.validate()
    return report
