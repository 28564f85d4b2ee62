"""Bidding value harness: LP structure, newsvendor and collapse oracles,
oracle dominance, battery effects, and the benchmark runner."""
import json
import re
from datetime import date, timedelta

import numpy as np
import pytest
from scipy.optimize import linprog

from scendiff import data as dmod
from scendiff.errors import (
    CoverageError,
    DimensionError,
    ParameterError,
)
from scendiff.value import (
    BID_NEG,
    BID_POS,
    CHARGE,
    DEFICIT,
    DISCHARGE,
    PER_SCENARIO,
    SOC,
    SURPLUS,
    RetailerModel,
    ValueReport,
    build_two_stage_lp,
    deterministic_bids,
    extract_bids,
    oracle_profit,
    realtime_dispatch,
    run_value_benchmark,
    solve_bidding,
)
from scendiff.simplex import LPProblem, simplex_solve

HOURS = 24


def _no_battery(**kw):
    return RetailerModel(capacity=0.0, p_charge=0.0, p_discharge=0.0,
                         soc_start=0.0, soc_end=0.0, **kw)


# --------------------------------------------------------------- model guards


def test_price_curves_broadcast_and_check_length():
    m = RetailerModel(price=42.0)
    assert m.price.shape == (HOURS,)
    assert np.all(m.price == 42.0)
    with pytest.raises(DimensionError):
        RetailerModel(price=np.ones(23))


def test_model_validation_catches_bad_fields():
    bad = [
        dict(capacity=-1.0),
        dict(eta_c=0.0),
        dict(eta_d=1.5),
        dict(p_charge=-2.0),
        dict(soc_start=11.0),  # above default capacity 10
        dict(pen_surplus=-1.0),
        dict(price=np.inf),
    ]
    for kw in bad:
        with pytest.raises(ParameterError):
            RetailerModel(**kw)
    # a non-finite field is refused by name, not later as an LP coefficient
    for name, v in (("pen_surplus", np.nan), ("pen_deficit", np.inf), ("capacity", np.nan),
                    ("price", np.inf)):
        with pytest.raises(ParameterError, match=f"^{name} must be finite$"):
            RetailerModel(**{name: v})
    # terminal state of charge that cannot be reached within a day
    with pytest.raises(ParameterError, match="charge enough"):
        RetailerModel(capacity=1000.0, p_charge=0.01, soc_start=0.0,
                      soc_end=900.0)
    with pytest.raises(ParameterError, match="discharge enough"):
        RetailerModel(capacity=1000.0, p_discharge=0.01, soc_start=900.0,
                      soc_end=0.0)


def test_model_dict_round_trip():
    m = RetailerModel(capacity=8.0, price=np.linspace(30, 70, HOURS))
    m2 = RetailerModel(**json.loads(json.dumps(m.to_dict())))
    for k in ("capacity", "p_charge", "eta_c", "soc_end"):
        assert getattr(m2, k) == getattr(m, k)
    np.testing.assert_array_equal(m2.price, m.price)
    np.testing.assert_array_equal(m2.pen_deficit, m.pen_deficit)


# ----------------------------------------------------------------- LP anatomy


def _block(x, s, n_first=2 * HOURS):
    """Scenario s's columns of x: they start at n_first + s * PER_SCENARIO."""
    start = n_first + s * PER_SCENARIO
    return x[start:start + PER_SCENARIO]


def test_lp_dimensions_and_names():
    """Battery ratings are column bounds, not rows; the module's slices
    address every variable block of the column vector."""
    rng = np.random.default_rng(0)
    scens = rng.uniform(0, 1, (3, HOURS))
    model = RetailerModel()
    lp = build_two_stage_lp(model, scens)
    per_s = 5 * HOURS - 1
    rows_per_s = 2 * HOURS
    assert PER_SCENARIO == per_s
    assert lp.a.shape == (3 * rows_per_s, 2 * HOURS + 3 * per_s)
    np.testing.assert_array_equal(lp.c[BID_POS], -model.price)
    np.testing.assert_array_equal(lp.c[BID_NEG], model.price)
    assert np.all(np.isinf(lp.upper[:2 * HOURS]))
    last = _block(lp.upper, 2)
    assert 2 * HOURS + 3 * per_s == lp.a.shape[1]  # the last block ends the vector
    want = [(CHARGE, model.p_charge), (DISCHARGE, model.p_discharge),
            (SOC, model.capacity), (SURPLUS, np.inf), (DEFICIT, np.inf)]
    for part, bound in want:
        assert np.all(last[part] == bound)
    assert last[SOC].size == HOURS - 1  # hours 1..23; 0 and 24 are fixed

    # pinned bids drop the first stage: scenario 0's block starts at column 0
    pinned = build_two_stage_lp(model, scens, bids=np.zeros(HOURS))
    assert pinned.a.shape == (3 * rows_per_s, 3 * per_s)
    first = _block(pinned.upper, 0, n_first=0)
    for part, bound in want:
        assert np.all(first[part] == bound)
    np.testing.assert_array_equal(_block(pinned.c, 0, n_first=0)[SURPLUS], model.pen_surplus / 3)


def _slack_row_lp(model, net, bids=None) -> LPProblem:
    """Reference: the bidding LP over (S, 24) net positions with every charge,
    discharge and SoC limit as its own row and slack column, 119 rows per
    scenario, as the value module built it before battery limits became
    column bounds."""
    n_s = net.shape[0]
    free = bids is None
    n_first = 2 * HOURS if free else 0
    per_s = 5 * HOURS - 1 + 2 * HOURS + (HOURS - 1)
    rows_per_s = 4 * HOURS + (HOURS - 1)
    a = np.zeros((n_s * rows_per_s, n_first + n_s * per_s))
    b = np.zeros(n_s * rows_per_s)
    c = np.zeros(a.shape[1])
    if free:
        c[:HOURS] = -model.price
        c[HOURS:2 * HOURS] = model.price
    for s in range(n_s):
        ch = n_first + s * per_s
        dis, soc = ch + HOURS, ch + 2 * HOURS
        sur, dfc = ch + 3 * HOURS - 1, ch + 4 * HOURS - 1
        sl_ch, sl_dis, sl_soc = ch + 5 * HOURS - 1, ch + 6 * HOURS - 1, ch + 7 * HOURS - 1
        c[sur:sur + HOURS] = model.pen_surplus / n_s
        c[dfc:dfc + HOURS] = model.pen_deficit / n_s
        row = s * rows_per_s
        for t in range(HOURS):
            r = row + t
            if free:
                a[r, t], a[r, HOURS + t] = 1.0, -1.0
            a[r, dis + t], a[r, ch + t], a[r, dfc + t], a[r, sur + t] = -1.0, 1.0, -1.0, 1.0
            b[r] = net[s, t] - (0.0 if free else bids[t])
            r = row + HOURS + t
            a[r, ch + t], a[r, dis + t] = -model.eta_c, 1.0 / model.eta_d
            if t < HOURS - 1:
                a[r, soc + t] = 1.0
            if t > 0:
                a[r, soc + t - 1] = -1.0
            b[r] = model.soc_start if t == 0 else (-model.soc_end if t == HOURS - 1 else 0.0)
            r = row + 2 * HOURS + t
            a[r, ch + t], a[r, sl_ch + t], b[r] = 1.0, 1.0, model.p_charge
            r = row + 3 * HOURS + t
            a[r, dis + t], a[r, sl_dis + t], b[r] = 1.0, 1.0, model.p_discharge
        for t in range(HOURS - 1):
            r = row + 4 * HOURS + t
            a[r, soc + t], a[r, sl_soc + t], b[r] = 1.0, 1.0, model.capacity
    return LPProblem(c=c, a=a, b=b)


def _gate7_nets(day: int, n_s: int) -> np.ndarray:
    """Day `day` (of 3) of gate 7's synthetic wind, PV and load: the
    (n_s, 24) net positions of n_s conditional scenarios of each track."""
    w = dmod.generate_synthetic(3, 100, "ramp_wind").samples[day]
    p = dmod.generate_synthetic(3, 200, "sine_pv").samples[day]
    l = dmod.generate_synthetic(3, 300, "bimodal_load").samples[day]
    return (80 * dmod.conditional_scenarios("ramp_wind", w.c, n_s, seed=1000 + day)
            + 40 * dmod.conditional_scenarios("sine_pv", p.c, n_s, seed=2000 + day)
            - dmod.conditional_scenarios("bimodal_load", l.c, n_s, seed=3000 + day))


def _scipy_objective(lp) -> float:
    ref = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, method="highs",
                  bounds=[(0.0, None if np.isinf(u) else u) for u in lp.upper])
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("n_s", [1, 5, 10])
def test_bounded_lp_matches_slack_row_formulation(n_s):
    """Gate-7-style days (synthetic wind, PV and load with conditional
    scenarios): bounds as columns give the same optimum as bounds as rows,
    for the free-bid planner and for dispatch at pinned bids."""
    models = [RetailerModel(), RetailerModel(capacity=20.0, p_charge=4.0, p_discharge=6.0,
                                             eta_c=0.9, soc_start=2.0, soc_end=12.0,
                                             price=np.linspace(30, 70, HOURS))]
    for i in range(3):
        nets = _gate7_nets(i, n_s)
        model = models[i % 2]
        lp, sol = solve_bidding(model, nets)
        ref = simplex_solve(_slack_row_lp(model, nets))
        assert ref.status == "optimal"
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9), f"day {i}"
        bids = extract_bids(sol)
        pinned = simplex_solve(build_two_stage_lp(model, nets, bids=bids))
        ref = simplex_solve(_slack_row_lp(model, nets, bids=bids))
        assert pinned.status == ref.status == "optimal"
        assert pinned.objective == pytest.approx(ref.objective, rel=1e-9), f"day {i}"


@pytest.mark.parametrize("n_s", [1, 5, 10])
def test_bidding_lps_start_feasible(n_s):
    """With soc_start = soc_end the crash basis of a bidding LP (the SoC
    columns plus one charge or discharge column per scenario, a surplus or
    deficit column per imbalance row) is feasible: no phase-1 iteration,
    for free bids and for dispatch at pinned bids."""
    model = RetailerModel()
    for day in range(3):
        nets = _gate7_nets(day, n_s)
        lp, sol = solve_bidding(model, nets)
        assert sol.phase1_iterations == 0, f"day {day}"
        pinned = simplex_solve(build_two_stage_lp(model, nets, bids=extract_bids(sol)))
        assert pinned.status == "optimal" and pinned.phase1_iterations == 0, f"day {day}"


def test_unreachable_soc_target_falls_back_to_phase_1():
    """soc_start = 10 and soc_end = 0 on a 10 MWh battery: the last SoC row
    would need 9.5 MW of discharge in one hour, above the 5 MW rating, so it
    starts on an artificial; phase 1 removes it and the optimum is scipy's."""
    model = RetailerModel(capacity=10.0, soc_start=10.0, soc_end=0.0)
    for n_s in (1, 5):
        nets = _gate7_nets(0, n_s)
        lp, sol = solve_bidding(model, nets)
        assert sol.phase1_iterations > 0
        assert sol.objective == pytest.approx(_scipy_objective(lp), rel=1e-9)
        pinned = build_two_stage_lp(model, nets, bids=extract_bids(sol))
        sol = simplex_solve(pinned)
        assert sol.status == "optimal" and sol.phase1_iterations > 0
        assert sol.objective == pytest.approx(_scipy_objective(pinned), rel=1e-9)


@pytest.mark.parametrize("n_s,n_days", [(5, 3), (10, 2), (20, 1)])
def test_planner_lps_match_scipy(n_s, n_days):
    """Gate-7-style planner LPs up to S = 20 reach scipy's HiGHS optimum."""
    for day in range(n_days):
        lp, sol = solve_bidding(RetailerModel(), _gate7_nets(day, n_s))
        assert sol.objective == pytest.approx(_scipy_objective(lp), rel=1e-9), f"day {day}"


def test_scenario_shape_errors():
    """Scenarios are an (S, 24) array of net positions: 23 hours, a single
    1-D row and an empty set are refused."""
    for bad in (np.zeros((2, HOURS - 1)), np.zeros(HOURS), np.zeros((0, HOURS))):
        with pytest.raises(DimensionError, match="net positions"):
            build_two_stage_lp(RetailerModel(), bad)


# ------------------------------------------------------------ planner oracles


def test_zero_battery_newsvendor_quantile_bids():
    """Without storage the stage decouples per hour into a newsvendor: the
    optimal bid is the net-position order statistic at the critical fractile
    (price + surplus penalty) / (surplus + deficit penalty)."""
    model = _no_battery(price=50.0, pen_surplus=25.0, pen_deficit=90.0)
    rng = np.random.default_rng(1)
    nets = rng.uniform(0.0, 1.0, (5, HOURS))
    lp, sol = solve_bidding(model, nets)
    bids = extract_bids(sol)
    # fractile 75/115 ~ 0.652 lies strictly inside the (0.6, 0.8] jump:
    # the 4th of 5 order statistics per hour is the unique optimum
    want = np.sort(nets, axis=0)[3]
    np.testing.assert_allclose(bids, want, atol=1e-7)

    expected_cost = 0.0
    for t in range(HOURS):
        b = want[t]
        pen = np.mean(90.0 * np.maximum(b - nets[:, t], 0.0)
                      + 25.0 * np.maximum(nets[:, t] - b, 0.0))
        expected_cost += -50.0 * b + pen
    assert sol.objective == pytest.approx(expected_cost, rel=1e-9)


def test_single_scenario_bids_equal_net_position():
    """S=1 with flat prices: a battery with round-trip losses stays idle and
    the optimal bid is exactly the scenario's net position."""
    rng = np.random.default_rng(2)
    net = rng.uniform(-0.5, 1.5, HOURS)
    for model in (_no_battery(), RetailerModel()):
        lp, sol = solve_bidding(model, net[None])
        np.testing.assert_allclose(extract_bids(sol), net, atol=1e-7)
        assert sol.objective == pytest.approx(-float(model.price @ net), abs=1e-6)


def test_perfect_information_recovers_oracle_profit():
    rng = np.random.default_rng(3)
    obs = rng.uniform(0, 2, HOURS)
    model = RetailerModel(price=np.linspace(30, 70, HOURS))
    lp, sol = solve_bidding(model, obs[None])
    profit = realtime_dispatch(model, extract_bids(sol), obs)
    want = oracle_profit(model, obs)
    assert profit == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_oracle_dominates_any_bids():
    rng = np.random.default_rng(4)
    model = RetailerModel(price=np.r_[np.full(12, 35.0), np.full(12, 65.0)])
    for trial in range(12):
        obs = rng.uniform(0, 2, HOURS)
        bound = oracle_profit(model, obs)
        scens = rng.uniform(0, 2, (4, HOURS))
        lp, sol = solve_bidding(model, scens)
        profit = realtime_dispatch(model, extract_bids(sol), obs)
        assert profit <= bound + 1e-6 * (1 + abs(bound)), f"trial {trial}"
        arbitrary = rng.uniform(-1, 2, HOURS)
        assert realtime_dispatch(model, arbitrary, obs) <= bound + 1e-6 * (1 + abs(bound))


def test_battery_arbitrage_adds_value():
    """With a wide peak/off-peak spread, storage strictly beats no storage
    even under perfect information."""
    price = np.r_[np.full(12, 30.0), np.full(12, 70.0)]
    obs = np.full(HOURS, 1.0)
    with_batt = RetailerModel(price=price)
    without = _no_battery(price=price)
    gain = oracle_profit(with_batt, obs) - oracle_profit(without, obs)
    assert gain > 10.0  # 70 * 0.9025 - 30 > 0 per shifted MWh, several MWh shift


def test_dispatch_detail_is_physically_consistent():
    rng = np.random.default_rng(5)
    model = RetailerModel(price=np.linspace(20, 80, HOURS))
    obs = rng.uniform(0, 2, HOURS)
    bids = rng.uniform(0, 2, HOURS)
    profit = realtime_dispatch(model, bids, obs)
    lp = build_two_stage_lp(model, obs[None], bids=bids)
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    x = _block(sol.x, 0, n_first=0)
    detail = {"charge": x[CHARGE], "discharge": x[DISCHARGE], "surplus": x[SURPLUS],
              "deficit": x[DEFICIT], "revenue": float(model.price @ bids),
              "penalty": sol.objective,
              "soc": np.concatenate([[model.soc_start], x[SOC], [model.soc_end]])}
    net = obs
    assert profit == pytest.approx(detail["revenue"] - detail["penalty"], abs=1e-9)
    assert detail["revenue"] == pytest.approx(float(model.price @ bids), abs=1e-9)
    lhs = bids - (net + detail["discharge"] - detail["charge"])
    np.testing.assert_allclose(lhs, detail["deficit"] - detail["surplus"], atol=1e-6)
    soc = detail["soc"]
    assert soc.shape == (HOURS + 1,)
    assert soc[0] == model.soc_start and soc[-1] == model.soc_end
    steps = model.eta_c * detail["charge"] - detail["discharge"] / model.eta_d
    np.testing.assert_allclose(np.diff(soc), steps, atol=1e-6)
    assert np.all(detail["charge"] <= model.p_charge + 1e-9)
    assert np.all(detail["discharge"] <= model.p_discharge + 1e-9)
    assert np.all(soc <= model.capacity + 1e-9) and np.all(soc >= -1e-9)


def test_unbounded_without_penalties():
    model = _no_battery(pen_surplus=0.0, pen_deficit=0.0)
    with pytest.raises(ParameterError, match="unbounded"):
        solve_bidding(model, np.ones((1, HOURS)))


def test_deterministic_bids_match_mean_scenario_plan():
    rng = np.random.default_rng(6)
    scens = rng.uniform(0, 1, (4, HOURS))
    model = RetailerModel()
    det = deterministic_bids(model, scens)
    mean_net = np.mean(scens, axis=0)
    lp, sol = solve_bidding(model, mean_net[None])
    np.testing.assert_allclose(det, extract_bids(sol), atol=1e-7)


def test_scenario_blocks_hold_each_scenarios_schedule():
    """After the bids, each scenario's block balances the shared bids against
    its own net position and carries its own state-of-charge chain."""
    rng = np.random.default_rng(7)
    scens = rng.uniform(0, 1, (2, HOURS))
    model = RetailerModel()
    lp, sol = solve_bidding(model, scens)
    assert sol.x.size == 2 * HOURS + 2 * PER_SCENARIO
    bids = extract_bids(sol)
    for s, net in enumerate(scens):
        x = _block(sol.x, s)
        lhs = bids - (net + x[DISCHARGE] - x[CHARGE])
        np.testing.assert_allclose(lhs, x[DEFICIT] - x[SURPLUS], atol=1e-6)
        soc = np.concatenate([[model.soc_start], x[SOC], [model.soc_end]])
        steps = model.eta_c * x[CHARGE] - x[DISCHARGE] / model.eta_d
        np.testing.assert_allclose(np.diff(soc), steps, atol=1e-6)
        assert np.all(soc <= model.capacity + 1e-9) and np.all(soc >= -1e-9)


# ------------------------------------------------------------------ benchmark


def _benchmark_inputs(n_days=2, m=6, seed=8):
    rng = np.random.default_rng(seed)
    days = [date(2014, 6, 1) + timedelta(days=i) for i in range(n_days)]
    obs = {"wind": {}, "pv": {}, "load": {}}
    scen = {"wind": {}, "pv": {}, "load": {}}
    for d in days:
        for track, zones in (("wind", [1, 2]), ("pv", [1]), ("load", [1])):
            for z in zones:
                obs[track][(d, z)] = rng.uniform(0.2, 1.0, HOURS)
                scen[track][(d, z)] = rng.uniform(0.2, 1.0, (m, HOURS))
    return days, obs, scen


def test_run_value_benchmark_end_to_end(tmp_path):
    days, obs, scen = _benchmark_inputs()
    retailer = RetailerModel(capacity=2.0, p_charge=1.0, p_discharge=1.0,
                             soc_start=1.0, soc_end=1.0,
                             price=np.r_[np.full(12, 35.0), np.full(12, 65.0)])
    report = run_value_benchmark(scen, obs, retailer, days,
                                 pv_zones=[1], wind_zones=[1, 2])
    combos = len(days) * 1 * 2
    assert report.n_simulated == combos
    assert len(report.rows) == combos * 3  # oracle + ddpm + ddpm-det
    assert set(report.aggregate) == {"oracle", "ddpm", "ddpm-det"}
    for name in ("oracle", "ddpm", "ddpm-det"):
        total = sum(r["profit"] for r in report.rows if r["model"] == name)
        assert report.aggregate[name] == pytest.approx(total, abs=1e-9)
    assert report.aggregate["ddpm"] <= report.aggregate["oracle"] + 1e-6
    # the planner and the oracle see the net position wind + pv - load
    day = days[1]
    observed = obs["wind"][(day, 2)] + obs["pv"][(day, 1)] - obs["load"][(day, 1)]
    row = next(r for r in report.rows if r["model"] == "oracle" and r["day"] == day
               and r["wind_zone"] == 2)
    assert row["profit"] == oracle_profit(retailer, observed)

    jp = tmp_path / "value.json"
    report.write_json(jp)
    doc = json.loads(jp.read_text())
    assert doc["n_simulated"] == combos
    assert set(doc) == {"aggregate", "n_simulated", "rows"}
    assert doc["aggregate"]["ddpm"] == report.aggregate["ddpm"]
    assert len(doc["rows"]) == len(report.rows)

    cp = tmp_path / "value.csv"
    report.write_csv(cp)
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "model,day,pv_zone,wind_zone,profit"
    assert len(lines) == 1 + len(report.rows)
    total = sum(float(l.split(",")[4]) for l in lines[1:] if l.startswith("ddpm,"))
    assert total == pytest.approx(report.aggregate["ddpm"], rel=1e-12)


def test_run_value_benchmark_takes_any_iterable():
    """Days and zones may come as tuples or one-shot iterators: the report
    equals the one built from lists."""
    days, obs, scen = _benchmark_inputs(m=2)  # S = 2 planners keep it quick
    retailer = RetailerModel(capacity=2.0, p_charge=1.0, p_discharge=1.0,
                             soc_start=1.0, soc_end=1.0)
    want = run_value_benchmark(scen, obs, retailer, days,
                               pv_zones=[1], wind_zones=[1, 2]).to_dict()
    assert want["n_simulated"] == 4
    for kind in (tuple, iter, lambda v: (x for x in v)):
        got = run_value_benchmark(scen, obs, retailer, kind(days),
                                  pv_zones=kind([1]), wind_zones=kind([1, 2]))
        assert got.to_dict() == want


def test_run_value_benchmark_coverage_error():
    days, obs, scen = _benchmark_inputs()
    del obs["wind"][(days[1], 2)]
    with pytest.raises(CoverageError, match="obs:wind"):
        run_value_benchmark(scen, obs, RetailerModel(), days,
                            pv_zones=[1], wind_zones=[1, 2])
    days, obs, scen = _benchmark_inputs()
    del scen["pv"][(days[0], 1)]
    with pytest.raises(CoverageError, match="ddpm:pv"):
        run_value_benchmark(scen, obs, RetailerModel(), days,
                            pv_zones=[1], wind_zones=[1, 2])
    with pytest.raises(ParameterError, match="n_planner_scenarios"):
        run_value_benchmark(scen, obs, RetailerModel(), days,
                            pv_zones=[1], wind_zones=[1, 2], n_planner_scenarios=0)


@pytest.mark.parametrize("empty,args", [
    ("no days", ([], [1], [1])),
    ("no pv_zones", ([date(2014, 6, 1)], [], [1])),
    ("no wind_zones", ([date(2014, 6, 1)], [1], [])),
    ("no days, no pv_zones, no wind_zones", ([], [], [])),
])
def test_run_value_benchmark_refuses_nothing_to_simulate(empty, args):
    """A run with no day or no zone of a track would report zero rows."""
    _, obs, scen = _benchmark_inputs()
    days, pv_zones, wind_zones = args
    with pytest.raises(CoverageError, match=f"nothing to simulate: {empty}$"):
        run_value_benchmark(scen, obs, RetailerModel(), days,
                            pv_zones=pv_zones, wind_zones=wind_zones)


@pytest.mark.parametrize("kind,track,key,shape", [
    ("obs", "wind", 2, (23,)),
    ("ddpm", "pv", 1, (5, 23)),
    ("ddpm", "load", 1, (0, 24)),
    ("ddpm", "wind", 1, (24,)),
    ("obs", "load", 1, (1, 24)),
])
def test_run_value_benchmark_refuses_a_misshapen_array(monkeypatch, kind, track, key, shape):
    """An observation that is not (24,), or a scenario block that is not
    (M, 24) with M >= 1, is one DimensionError naming its track, day and
    zone, raised before any LP is built (the bad array is on the last day)."""
    days, obs, scen = _benchmark_inputs()
    (obs if kind == "obs" else scen)[track][(days[-1], key)] = np.ones(shape)

    def no_lp(*_):
        raise AssertionError("an LP was solved")
    monkeypatch.setattr("scendiff.value.simplex_solve", no_lp)
    with pytest.raises(DimensionError,
                       match=re.escape(f"{kind}:{track}:{days[-1]}:zone{key} has shape {shape}:")):
        run_value_benchmark(scen, obs, RetailerModel(), days, pv_zones=[1], wind_zones=[1, 2])


def test_value_report_validate_rejects_super_oracle_rows():
    rows = [
        {"model": "oracle", "day": date(2014, 1, 1), "pv_zone": 1, "wind_zone": 1,
         "profit": 100.0},
        {"model": "m1", "day": date(2014, 1, 1), "pv_zone": 1, "wind_zone": 1,
         "profit": 100.5},
    ]
    with pytest.raises(ParameterError, match="exceeds oracle"):
        ValueReport(rows=rows).validate()
