"""Forecast-value harness: scenario-based day-ahead bidding with a battery.

A retailer with a wind + pv + load portfolio and a battery bids energy
quantities b_t into the day-ahead market at known prices. The first stage
fixes the 24 bids; the second stage (per scenario) operates the battery and
settles imbalances at asymmetric surplus/deficit penalties. The
deterministic equivalent is one LP in equality form with the battery's
ratings as column bounds, solved by the bundled simplex. Realized profit
comes from replaying the bids against the day's observations; an oracle
(observations as the single scenario) and a deterministic point-forecast
planner (scenario-mean) are the baselines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .data import HOURS, _write_table, write_report_json
from .errors import CoverageError, DimensionError, LPOverflowError, ParameterError
from .simplex import LPProblem, LPSolution, simplex_solve
from .workers import fork_map

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
    simply disables storage recourse. A bad field, a non-finite one
    included, raises ParameterError naming it (a curve of the wrong length
    DimensionError) when the model is built.
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
        for name in ("capacity", "p_charge", "p_discharge", "eta_c", "eta_d", "soc_start",
                     "soc_end", "price", "pen_surplus", "pen_deficit"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} must be finite")
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


# The bidding LP's columns: the free bids, positive then negative parts
# (none when the bids are pinned), then one block per scenario. Scenario s's
# block starts at n_first + s * PER_SCENARIO and holds charge and discharge
# (24 each), the state of charge at the end of hours 1..23 (hours 0 and 24
# are the constants soc_start and soc_end), surplus and deficit (24 each).
BID_POS = slice(0, HOURS)
BID_NEG = slice(HOURS, 2 * HOURS)
CHARGE = slice(0, HOURS)
DISCHARGE = slice(HOURS, 2 * HOURS)
SOC = slice(2 * HOURS, 3 * HOURS - 1)
SURPLUS = slice(3 * HOURS - 1, 4 * HOURS - 1)
DEFICIT = slice(4 * HOURS - 1, 5 * HOURS - 1)
PER_SCENARIO = 5 * HOURS - 1
ROWS_PER_SCENARIO = 2 * HOURS  # imbalance rows, then state-of-charge rows


def build_two_stage_lp(model: RetailerModel, scenarios, bids: np.ndarray | None = None) -> LPProblem:
    """Deterministic equivalent of the two-stage bidding problem.

    Variables per scenario: charge, discharge (24 each), state of charge for
    hours 1..23 (the terminal value is substituted as a constant), surplus and
    deficit (24 each). The battery's power and energy ratings are the upper
    bounds of the charge, discharge and state-of-charge variables, not rows.
    First-stage bids are free, split into positive and negative parts; passing
    `bids` instead pins them and drops the first stage (dispatch replay).
    Rows per scenario: 24 imbalance rows, then 24 state-of-charge rows.
    The objective is min of (penalty cost - day-ahead revenue).
    `scenarios` is an (S, 24) array of net positions, wind + pv - load in MW.
    """
    net = np.asarray(scenarios, dtype=float)
    if net.ndim != 2 or net.shape[0] < 1 or net.shape[1] != HOURS:
        raise DimensionError(f"scenarios must be an (S, {HOURS}) array of net positions "
                             f"with S >= 1, got shape {net.shape}")
    n_s = net.shape[0]
    free_bids = bids is None
    if not free_bids:
        bids = _as_curve(bids, "bids")

    # one scenario's rows over its own block; every scenario has the same
    hours = np.arange(HOURS)
    block = np.zeros((ROWS_PER_SCENARIO, PER_SCENARIO))
    # imbalance: b_t - (net_t + dis_t - ch_t) = def_t - sur_t
    block[hours, DISCHARGE.start + hours] = -1.0
    block[hours, CHARGE.start + hours] = 1.0
    block[hours, DEFICIT.start + hours] = -1.0
    block[hours, SURPLUS.start + hours] = 1.0
    # state of charge: soc_t = soc_{t-1} + eta_c ch_t - dis_t / eta_d,
    # with soc_0 = soc_start and soc_24 = soc_end substituted as constants
    soc_rows = HOURS + hours
    block[soc_rows, CHARGE.start + hours] = -model.eta_c
    block[soc_rows, DISCHARGE.start + hours] = 1.0 / model.eta_d
    block[soc_rows[:-1], SOC.start + hours[:-1]] = 1.0
    block[soc_rows[1:], SOC.start + hours[:-1]] = -1.0
    soc_rhs = np.zeros(HOURS)
    soc_rhs[0] = model.soc_start
    soc_rhs[-1] = -model.soc_end
    cost = np.zeros(PER_SCENARIO)
    cost[SURPLUS] = model.pen_surplus / n_s
    cost[DEFICIT] = model.pen_deficit / n_s
    bound = np.full(PER_SCENARIO, np.inf)
    bound[CHARGE] = model.p_charge
    bound[DISCHARGE] = model.p_discharge
    bound[SOC] = model.capacity

    n_first = 2 * HOURS if free_bids else 0
    m = n_s * ROWS_PER_SCENARIO
    a = np.zeros((m, n_first + n_s * PER_SCENARIO))
    b = np.zeros(m)
    for s in range(n_s):
        row = s * ROWS_PER_SCENARIO
        col = n_first + s * PER_SCENARIO
        a[row:row + ROWS_PER_SCENARIO, col:col + PER_SCENARIO] = block
        if free_bids:
            a[row + hours, BID_POS.start + hours] = 1.0
            a[row + hours, BID_NEG.start + hours] = -1.0
        b[row:row + HOURS] = net[s] - (0.0 if free_bids else bids)
        b[row + HOURS:row + ROWS_PER_SCENARIO] = soc_rhs
    first_cost = [-model.price, model.price] if free_bids else []
    c = np.concatenate([*first_cost, np.tile(cost, n_s)])
    upper = np.concatenate([np.full(n_first, np.inf), np.tile(bound, n_s)])

    return LPProblem(c=c, a=a, b=b, upper=upper)


def extract_bids(sol: LPSolution) -> np.ndarray:
    return sol.x[BID_POS] - sol.x[BID_NEG]


def solve_bidding(model: RetailerModel, scenarios) -> tuple[LPProblem, LPSolution]:
    """Build and solve the free-bid problem; raises unless optimal."""
    lp = build_two_stage_lp(model, scenarios)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ParameterError(f"bidding problem is {sol.status}; check prices vs penalties")
    return lp, sol


def realtime_dispatch(model: RetailerModel, bids: np.ndarray, observations) -> float:
    """Replay fixed bids against one day's observed (24,) net position.

    Net profit = day-ahead revenue at the given prices minus realized
    imbalance penalties after optimal battery recourse.
    """
    bids = _as_curve(bids, "bids")
    lp = build_two_stage_lp(model, [observations], bids=bids)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ParameterError(f"dispatch problem is {sol.status}")
    return float(model.price @ bids) - sol.objective


def oracle_profit(model: RetailerModel, observations) -> float:
    """Best possible profit knowing the day's (24,) net position (S=1 free-bid LP)."""
    _, sol = solve_bidding(model, [observations])
    return -sol.objective


def deterministic_bids(model: RetailerModel, scenarios) -> np.ndarray:
    """Point-forecast baseline: plan against the scenario-mean day."""
    _, sol = solve_bidding(model, np.mean(scenarios, axis=0, keepdims=True))
    return extract_bids(sol)


@dataclass
class ValueReport:
    """Per-simulated-day profit rows and per-model aggregates (EUR)."""

    rows: list = field(default_factory=list)  # {model, day, pv_zone, wind_zone, profit}
    aggregate: dict = field(default_factory=dict)
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
            "n_simulated": self.n_simulated,
            "rows": [
                {**r, "day": r["day"].isoformat() if isinstance(r["day"], date) else r["day"]}
                for r in self.rows
            ],
        }

    def write_json(self, path: str | Path) -> None:
        write_report_json(self.to_dict(), path)

    def write_csv(self, path: str | Path) -> None:
        """Rows `model,day,pv_zone,wind_zone,profit`, text quoted as csv's QUOTE_MINIMAL."""
        def quote(cell):
            if isinstance(cell, str) and any(c in cell for c in ',"\r\n'):
                return '"' + cell.replace('"', '""') + '"'
            return cell

        _write_table(path, ["model", "day", "pv_zone", "wind_zone", "profit"], (
            ("%s,%s,%s,%s,%.17g\r\n",
             (*map(quote, (r["model"], r["day"], r["pv_zone"], r["wind_zone"])), r["profit"]))
            for r in self.to_dict()["rows"]))


def run_value_benchmark(
    scenarios: dict, observations: dict, retailer: RetailerModel,
    days, pv_zones, wind_zones, n_planner_scenarios: int = 5,
) -> ValueReport:
    """Simulate day-ahead bidding for every (day, pv zone, wind zone) combo.

    scenarios:    {track: {(day, zone): (M, 24) scenarios}}, the model's
    observations: {track: {(day, zone): (24,) observed values}}

    For each simulated day: solve the stochastic planner on the net
    positions (wind + pv - load) of the first n_planner_scenarios
    index-paired scenarios, dispatch the bids against the observed net
    position, and record net profit as a `ddpm` row. Adds `oracle` rows
    (perfect knowledge) and `ddpm-det` rows, the deterministic point-forecast
    baseline. Load is zone 1. Raises CoverageError when days or zones are
    empty or when combinations are missing, and DimensionError for an array
    of another shape, naming its track, day and zone, before any LP is built.
    A net position that is not finite, or whose LPs overflow, raises
    ParameterError naming the day and zones. workers.fork_map runs the combos
    on every usable CPU; an error is the first failing combo's in this order.
    """
    if n_planner_scenarios < 1:
        raise ParameterError(f"n_planner_scenarios must be >= 1, got {n_planner_scenarios}")
    days, pv_zones, wind_zones = list(days), list(pv_zones), list(wind_zones)
    empty = [name for name, v in (("days", days), ("pv_zones", pv_zones),
                                  ("wind_zones", wind_zones)) if not v]
    if empty:
        raise CoverageError(f"nothing to simulate: no {', no '.join(empty)}")
    missing = []
    for day in days:
        for track, zones in (("pv", pv_zones), ("wind", wind_zones), ("load", [1])):
            for z in zones:
                for kind, given, ndim in (("obs", observations, 1), ("ddpm", scenarios, 2)):
                    if (day, z) not in given.get(track, {}):
                        missing.append(f"{kind}:{track}:{day}:zone{z}")
                        continue
                    shape = np.shape(given[track][(day, z)])
                    if len(shape) != ndim or shape[-1] != HOURS or 0 in shape:
                        raise DimensionError(
                            f"{kind}:{track}:{day}:zone{z} has shape {shape}: observations "
                            f"are ({HOURS},), scenarios (M, {HOURS}) with M >= 1")
    if missing:
        raise CoverageError(
            f"{len(missing)} missing (day, zone) combinations, e.g. {missing[:5]}"
        )

    def simulate(combo) -> dict:
        day, pz, wz = combo
        obs, scen = ([np.asarray(given[t][(day, z)], dtype=float)
                      for t, z in (("wind", wz), ("pv", pz), ("load", 1))]
                     for given in (observations, scenarios))
        s = min(n_planner_scenarios, *(x.shape[0] for x in scen))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            net = scen[0][:s] + scen[1][:s] - scen[2][:s]
            observed = obs[0] + obs[1] - obs[2]
        if not (np.isfinite(net).all() and np.isfinite(observed).all()):
            raise ParameterError(f"day {day}, pv zone {pz}, wind zone {wz}: the net "
                                 "position wind + pv - load is not finite")
        try:  # finite net positions may still overflow the LPs' arithmetic
            with np.errstate(all="raise", under="ignore"):
                profit = {"oracle": oracle_profit(retailer, observed)}
                _, sol = solve_bidding(retailer, net)
                for model, bids in (("ddpm", extract_bids(sol)),
                                    ("ddpm-det", deterministic_bids(retailer, net))):
                    profit[model] = realtime_dispatch(retailer, bids, observed)
        except (FloatingPointError, LPOverflowError) as e:
            raise ParameterError(f"day {day}, pv zone {pz}, wind zone {wz}: the "
                                 f"bidding LPs' arithmetic fails: {e}") from None
        return profit

    combos = [(day, pz, wz) for day in days for pz in pv_zones for wz in wind_zones]
    rows = [{"model": model, "day": day, "pv_zone": pz, "wind_zone": wz, "profit": v}
            for (day, pz, wz), profit in zip(combos, fork_map(simulate, combos))
            for model, v in profit.items()]

    aggregate: dict[str, float] = {}
    for r in rows:
        aggregate[r["model"]] = aggregate.get(r["model"], 0.0) + r["profit"]
    report = ValueReport(rows=rows, aggregate=aggregate,
                         n_simulated=len(days) * len(pv_zones) * len(wind_zones))
    report.validate()
    return report
