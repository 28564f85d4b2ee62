"""End-to-end release gates for the scenario pipeline.

Each test checks one gate and prints a single machine-greppable
``CRITERION n: PASS/FAIL`` line with the measured numbers before asserting,
so a verbose run doubles as a report:

1. denoiser backward pass against central finite differences,
2. step-by-step noising chain against its closed-form marginals,
3. scoring-rule micro-instances with hand-computed values,
4. trained-sampler quality on held-out synthetic pv days,
5. variogram-score sensitivity to temporal decorrelation,
6. simplex solver against a vertex-enumeration oracle plus status cases,
7. bidding pipeline: oracle dominance, perfect-information recovery, and
   the stochastic-vs-point-forecast profit gap on synthetic days,
8. real wind-track quality and value bands (opt-in via GEFCOM_WIND_CSV).
"""
import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff import metrics as met
from scendiff import nn
from scendiff.simplex import LPProblem, simplex_solve, verify_certificate
from scendiff.value import (
    RetailerModel,
    deterministic_bids,
    extract_bids,
    oracle_profit,
    realtime_dispatch,
    solve_bidding,
)
from oracles import chain_forward, pinball

HOURS = dmod.HOURS


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


# ------------------------------------------------- 1. gradient correctness


def _loss_and_grads(params, x, i, c, g):
    """Scalar probe s(theta) = sum g * f_theta and its analytic gradient."""
    cache = []
    out = nn.forward_batch(params, x, i, c, cache)
    return float(np.sum(g * out)), nn.backward_batch(params, x, i, c, g, cache)


def _max_fd_error(params, x, i, c, g, n_probe, seed, h=1e-6):
    _, grads = _loss_and_grads(params, x, i, c, g)
    vec = params.vector
    gvec = grads
    idx = np.random.default_rng(seed).choice(vec.size, size=min(n_probe, vec.size),
                                             replace=False)
    worst = 0.0
    for j in idx:
        vp = vec.copy()
        vp[j] += h
        sp, _ = _loss_and_grads(replace(params, vector=vp), x, i, c, g)
        vm = vec.copy()
        vm[j] -= h
        sm, _ = _loss_and_grads(replace(params, vector=vm), x, i, c, g)
        fd = (sp - sm) / (2 * h)
        worst = max(worst, abs(fd - gvec[j]) / max(abs(fd), abs(gvec[j]), 1e-8))
    return worst, idx.size


def test_criterion_1_gradients_match_finite_differences():
    """Backward pass agrees with central differences on three architectures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, HOURS))
    c = rng.standard_normal((4, 3))
    g = rng.standard_normal((4, HOURS))
    i = np.array([1, 3, 7, 20])
    worst, probed = 0.0, 0
    for arch in ((), (32,), (24, 16)):
        p = nn.init_params(arch, sample_dim=HOURS, embed_dim=8, cond_dim=3, seed=5)
        err, n = _max_fd_error(p, x, i, c, g, n_probe=70, seed=len(arch))
        worst, probed = max(worst, err), probed + n
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and probed >= 200 and dt < 10.0
    _report(1, ok, f"max rel err {worst:.2e} over {probed} params, "
                   f"3 architectures, {dt:.1f}s")
    assert ok, f"worst={worst:.3e} probed={probed} dt={dt:.1f}s"


# ------------------------------------------- 2. forward-process consistency


def test_criterion_2_chain_matches_closed_form_marginals():
    """Sequential noising has the closed-form Gaussian marginal at every probe
    step: standardized draws pass a KS test against N(0, 1)."""
    t0 = time.perf_counter()
    sched = dif.make_schedule("linear", n=50, beta_start=1e-4, beta_end=0.2)
    rng = np.random.default_rng(2)
    x0 = rng.uniform(-1.0, 1.0, 10_000)
    chain = chain_forward(x0, sched, rng)
    pvals = {}
    for step in (1, sched.n // 2, sched.n):
        abar = sched.alpha_bar[step - 1]
        z = (chain[step - 1] - np.sqrt(abar) * x0) / np.sqrt(1.0 - abar)
        pvals[step] = stats.ks_1samp(z, stats.norm.cdf).pvalue
    dt = time.perf_counter() - t0
    ok = all(p > 0.01 for p in pvals.values()) and dt < 30.0
    _report(2, ok, "KS p-values " +
            ", ".join(f"step {s}: {p:.3f}" for s, p in pvals.items()) +
            f" (10000 draws, {dt:.1f}s)")
    assert ok, f"pvals={pvals} dt={dt:.1f}s"


# --------------------------------------------------- 3. scoring-rule oracles


def test_criterion_3_metric_micro_instances():
    """Hand-computed scoring values, plus the exact CRPS/MAE identity for a
    single scenario."""
    checks = {
        "crps": met.crps(np.array([[0.0], [1.0]]), np.array([0.0]))[1] - 0.25,
        "pinball": pinball(0.0, 1.0, 0.5) - 0.5,
        "es": met.energy_score(np.array([[0.0, 0.0], [1.0, 0.0]]),
                               np.array([0.0, 0.0])) - 0.25,
        "vs": met.variogram_score(np.array([[0.0, 2.0]]), np.array([0.0, 1.0]),
                                  gamma=1.0) - 2.0,
    }
    rng = np.random.default_rng(3)
    x = rng.random(HOURS)
    y = rng.random(HOURS)
    exact = met.crps(x[None, :], y)[1] == float(np.mean(np.abs(x - y)))
    worst = max(abs(v) for v in checks.values())
    ok = worst <= 1e-9 and exact
    _report(3, ok, f"max micro-instance error {worst:.1e}, "
                   f"single-scenario CRPS == MAE: {exact}")
    assert ok, f"checks={checks} exact={exact}"


# ------------------------------------------------- 4. synthetic calibration


def test_criterion_4_trained_sampler_beats_climatology():
    """Full pipeline on the solar profile: train on 5000 days, sample 100
    scenarios for each of 500 held-out days, and require (a) CRPS at least
    20% below the climatological ensemble and (b) reliability MAE within
    5 percentage points, inside a 15-minute budget."""
    t0 = time.perf_counter()
    ds = dmod.generate_synthetic(6000, 11, "sine_pv")
    ds = dmod.split_random(ds, fractions=(5000 / 6000, 500 / 6000, 500 / 6000),
                           seed=12)
    norm = dmod.normalize(ds)
    n_learn = len(norm.split_days("learn"))

    sched = dif.make_schedule("linear", n=200, beta_start=1e-4, beta_end=0.05)
    cfg = dif.TrainConfig(epochs=200, batch_size=64, lr=1e-3,
                          hidden=(128, 128, 128),
                          embed_dim=32, seed=7, zone=1)
    params, _ = dif.train(norm, cfg, sched)

    raw_by_day = {s.day_id: s for s in ds.samples if s.zone == 1}
    test_days = sorted(norm.split_days("test"))
    conds = np.stack([raw_by_day[d].c for d in test_days])
    obs = {d: raw_by_day[d].x for d in test_days}

    sets = dif.sample_days(params, conds, test_days, sched, m=100, seed=99,
                           scaler=norm.scaler)
    scen = {s.day_id: s.scenarios for s in sets}
    rep = met.evaluate(scen, obs, base=1.0, seed=5)

    clim = {d: dmod.climatology_scenarios(ds, 100, seed=31_000 + i)
            for i, d in enumerate(test_days)}
    crep = met.evaluate(clim, obs, base=1.0, seed=5)

    improvement = 1.0 - rep.crps / crep.crps
    dt = time.perf_counter() - t0
    ok = improvement >= 0.20 and rep.mae_r <= 5.0 and dt < 900.0
    _report(4, ok, f"CRPS {rep.crps:.3f}% vs climatology {crep.crps:.3f}% "
                   f"({100 * improvement:.1f}% better, need >= 20%), "
                   f"MAE-r {rep.mae_r:.2f}pp (need <= 5pp), "
                   f"{n_learn} learn / {len(test_days)} test days, {dt:.0f}s")
    assert ok, (f"improvement={improvement:.3f} mae_r={rep.mae_r:.2f} "
                f"dt={dt:.0f}s")


# -------------------------------------------- 5. VS correlation sensitivity


def _ar1_paths(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """n stationary AR(1) day paths with unit marginal variance."""
    x = np.zeros((n, HOURS))
    x[:, 0] = rng.standard_normal(n)
    for t in range(1, HOURS):
        x[:, t] = rho * x[:, t - 1] + np.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    return x


def test_criterion_5_variogram_score_detects_decorrelation():
    """Shuffling each hour's scenario values independently preserves every
    marginal but destroys temporal correlation; on AR(1) data the variogram
    score must get strictly worse on at least 95 of 100 days."""
    rng = np.random.default_rng(0)
    lag = np.abs(np.arange(HOURS)[:, None] - np.arange(HOURS)[None, :])
    w = np.where(lag > 0, 1.0 / np.maximum(lag, 1), 0.0)
    wins = 0
    for _ in range(100):
        y = _ar1_paths(rng, 1, rho=0.9)[0]
        scens = _ar1_paths(rng, 100, rho=0.9)
        shuffled = np.column_stack([rng.permutation(scens[:, t])
                                    for t in range(HOURS)])
        wins += (met.variogram_score(shuffled, y, weights=w)
                 > met.variogram_score(scens, y, weights=w))
    ok = wins >= 95
    _report(5, ok, f"shuffling increased VS on {wins}/100 days (need >= 95)")
    assert ok, f"wins={wins}"


# --------------------------------------------------------- 6. simplex solver


def _vertex_oracle(lp: LPProblem) -> float:
    """Minimum objective over all basic feasible solutions (bounded LPs)."""
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        bmat = a[:, cols]
        if abs(np.linalg.det(bmat)) < 1e-10:
            continue
        xb = np.linalg.solve(bmat, b)
        if np.all(xb >= -1e-9):
            best = min(best, float(c[list(cols)] @ xb))
    return best


def _random_bounded_lp(rng: np.random.Generator) -> LPProblem:
    """Random equality-form LP with an interior feasible point and a budget
    row that keeps the feasible region bounded."""
    m = int(rng.integers(2, 5))
    n = m + int(rng.integers(2, 5))
    a = rng.uniform(-2, 2, (m, n))
    x_feas = rng.uniform(0.5, 2.0, n)
    b = a @ x_feas
    cap = float(x_feas.sum() * (2.0 + rng.uniform(0, 1)))
    a_ext = np.zeros((m + 1, n + 1))
    a_ext[:m, :n] = a
    a_ext[m, :n] = 1.0
    a_ext[m, n] = 1.0
    return LPProblem(c=np.concatenate([rng.uniform(-1, 1, n), [0.0]]),
                     a=a_ext, b=np.concatenate([b, [cap]]))


def test_criterion_6_simplex_statuses_and_random_oracle():
    """Textbook optimum, infeasible and unbounded statuses, and 20 random
    bounded LPs against exhaustive vertex enumeration."""
    # max x + y subject to x <= 1, y <= 1: optimum 2 at (1, 1)
    box = simplex_solve(LPProblem(
        c=np.array([-1.0, -1.0, 0.0, 0.0]),
        a=np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        b=np.array([1.0, 1.0]),
    ))
    textbook = (box.status == "optimal" and abs(box.objective + 2.0) <= 1e-9
                and np.allclose(box.x[:2], [1.0, 1.0], atol=1e-9))

    infeasible = simplex_solve(LPProblem(
        c=np.array([0.0, 0.0]), a=np.array([[1.0, 1.0]]), b=np.array([-1.0])))
    unbounded = simplex_solve(LPProblem(
        c=np.array([-1.0, 0.0]), a=np.array([[1.0, -1.0]]), b=np.array([0.0])))
    statuses = (infeasible.status == "infeasible" and np.isnan(infeasible.objective)
                and unbounded.status == "unbounded"
                and unbounded.objective == -np.inf)

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        lp = _random_bounded_lp(rng)
        sol = simplex_solve(lp)
        assert sol.status == "optimal" and verify_certificate(lp, sol)["ok"]
        worst = max(worst, abs(sol.objective - _vertex_oracle(lp)))
    ok = textbook and statuses and worst <= 1e-6
    _report(6, ok, f"textbook optimum {'ok' if textbook else 'WRONG'}, "
                   f"statuses {'ok' if statuses else 'WRONG'}, "
                   f"20 random LPs max objective gap {worst:.1e}")
    assert ok, f"textbook={textbook} statuses={statuses} worst={worst:.2e}"


# --------------------------------------------------------- 7. value pipeline


def _random_retailer(rng: np.random.Generator) -> RetailerModel:
    cap = float(rng.choice([0.0, 5.0, 10.0, 20.0]))
    price = rng.uniform(30, 70, HOURS)
    return RetailerModel(
        capacity=cap, p_charge=cap / 2, p_discharge=cap / 2,
        eta_c=float(rng.uniform(0.85, 1.0)), eta_d=float(rng.uniform(0.85, 1.0)),
        soc_start=cap / 2, soc_end=cap / 2,
        price=price, pen_surplus=rng.uniform(5, 40, HOURS),
        pen_deficit=price + rng.uniform(20, 80, HOURS),
    )


def _random_day(rng: np.random.Generator):
    """One day's (wind, pv, load) tracks."""
    return (80 * rng.random(HOURS), 40 * rng.random(HOURS),
            100 + 100 * rng.random(HOURS))


def _noisy_nets(rng: np.random.Generator, tracks, s: int) -> np.ndarray:
    """(s, 24) net positions of the day's tracks, each perturbed and clipped
    at 0 before netting."""
    out = []
    for _ in range(s):
        wind, pv, load = (np.clip(v + rng.normal(0, 10, HOURS), 0, None) for v in tracks)
        out.append(wind + pv - load)
    return np.stack(out)


def test_criterion_7_value_pipeline():
    """Oracle dominance on 100 random instances, perfect-information recovery
    on 10, and the scenario planner at least matching the point-forecast
    planner in mean profit over 200 synthetic days (3-standard-error margin)."""
    rng = np.random.default_rng(17)
    worst_dom = -np.inf
    for k in range(100):
        model = _random_retailer(rng)
        tracks = _random_day(rng)
        obs = tracks[0] + tracks[1] - tracks[2]
        if k % 3 == 0:
            bids = rng.uniform(-50, 150, HOURS)
        elif k % 3 == 1:
            bids = deterministic_bids(model, _noisy_nets(rng, tracks, 3))
        else:
            _, sol = solve_bidding(model, _noisy_nets(rng, tracks, 3))
            bids = extract_bids(sol)
        oracle = oracle_profit(model, obs)
        gap = (realtime_dispatch(model, bids, obs) - oracle) / max(1.0, abs(oracle))
        worst_dom = max(worst_dom, gap)
    dominance = worst_dom <= 1e-6

    worst_rec = 0.0
    for _ in range(10):
        model = _random_retailer(rng)
        wind, pv, load = _random_day(rng)
        obs = wind + pv - load
        _, sol = solve_bidding(model, obs[None])
        profit = realtime_dispatch(model, extract_bids(sol), obs)
        oracle = oracle_profit(model, obs)
        worst_rec = max(worst_rec, abs(profit - oracle) / max(1.0, abs(oracle)))
    recovery = worst_rec <= 1e-6

    wind_cap, pv_cap, n_days = 80.0, 40.0, 200
    wind_ds = dmod.generate_synthetic(n_days, 100, "ramp_wind")
    pv_ds = dmod.generate_synthetic(n_days, 200, "sine_pv")
    load_ds = dmod.generate_synthetic(n_days, 300, "bimodal_load")
    retailer = RetailerModel()
    diffs = []
    for i in range(n_days):
        w, p, l = wind_ds.samples[i], pv_ds.samples[i], load_ds.samples[i]
        obs = wind_cap * w.x + pv_cap * p.x - l.x
        sw = wind_cap * dmod.conditional_scenarios("ramp_wind", w.c, 5, seed=1000 + i)
        sp = pv_cap * dmod.conditional_scenarios("sine_pv", p.c, 5, seed=2000 + i)
        sl = dmod.conditional_scenarios("bimodal_load", l.c, 5, seed=3000 + i)
        nets = sw + sp - sl
        _, sol = solve_bidding(retailer, nets)
        stoch = realtime_dispatch(retailer, extract_bids(sol), obs)
        det = realtime_dispatch(retailer, deterministic_bids(retailer, nets), obs)
        diffs.append(stoch - det)
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(n_days)
    planner = diffs.mean() >= -3 * se

    ok = dominance and recovery and planner
    _report(7, ok, f"dominance worst rel gap {worst_dom:.1e} (100 instances), "
                   f"perfect-info worst rel gap {worst_rec:.1e}, "
                   f"stochastic-vs-point gap {diffs.mean():+.1f} EUR/day "
                   f"(SE {se:.1f}, {n_days} days, need >= -3 SE)")
    assert ok, (f"dominance={worst_dom:.2e} recovery={worst_rec:.2e} "
                f"mean={diffs.mean():.2f} se={se:.2f}")


# ------------------------------------------------- 8. real wind-track bands


def test_criterion_8_gefcom_wind_track():
    """Opt-in real-data gate: on the GEFCom 2014 wind track the trained
    sampler must land in broad quality bands (CRPS 6-13%, MAE-r <= 10pp) and
    its scenarios must be worth at least as much as a climatological ensemble
    in mean bidding profit. Set GEFCOM_WIND_CSV to the track CSV to run."""
    path = os.environ.get("GEFCOM_WIND_CSV")
    if not path:
        print("CRITERION 8: SKIP — GEFCOM_WIND_CSV not set")
        pytest.skip("GEFCOM_WIND_CSV not set")

    t0 = time.perf_counter()
    ds = dmod.load_csv(path, "wind")
    ds = dmod.split_random(ds, fractions=(0.7, 0.15, 0.15), seed=1)
    norm = dmod.normalize(ds)
    zones = sorted({s.zone for s in ds.samples})
    sched = dif.make_schedule("linear", n=200, beta_start=1e-4, beta_end=0.05)

    scen, obs = {}, {}
    for z in zones:
        cfg = dif.TrainConfig(epochs=200, batch_size=64, lr=1e-3,
                              hidden=(128, 128, 128),
                              embed_dim=32, seed=100 + z, zone=z)
        params, _ = dif.train(norm, cfg, sched)
        raw = sorted(ds.subset(split="test", zone=z), key=lambda s: s.day_id)
        days = [s.day_id for s in raw]
        conds = np.stack([s.c for s in raw])
        sets = dif.sample_days(params, conds, days, sched, m=100, seed=900 + z,
                               scaler=norm.scaler)
        for s_raw, s_gen in zip(raw, sets):
            scen[(s_gen.day_id, z)] = s_gen.scenarios
            obs[(s_raw.day_id, z)] = s_raw.x
    rep = met.evaluate(scen, obs, base=1.0, seed=5)

    # value: wind-only portfolio on zone 1, scenario planner vs climatology
    wind_cap = 80.0
    retailer = RetailerModel()
    z1_days = sorted(d for d, z in obs if z == zones[0])
    model_profit, clim_profit = [], []
    for i, d in enumerate(z1_days):
        day_obs = wind_cap * obs[(d, zones[0])]
        for source, sink in (
            (wind_cap * scen[(d, zones[0])][:5], model_profit),
            (wind_cap * dmod.climatology_scenarios(ds, 5, seed=71_000 + i,
                                                   zone=zones[0]), clim_profit),
        ):
            _, sol = solve_bidding(retailer, source)
            sink.append(realtime_dispatch(retailer, extract_bids(sol), day_obs))
    gain = float(np.mean(model_profit) - np.mean(clim_profit))

    dt = time.perf_counter() - t0
    ok = 6.0 <= rep.crps <= 13.0 and rep.mae_r <= 10.0 and gain >= 0.0 and dt <= 7200.0
    _report(8, ok, f"CRPS {rep.crps:.2f}% (band 6-13%), MAE-r {rep.mae_r:.2f}pp "
                   f"(need <= 10pp), mean profit gain over climatology "
                   f"{gain:+.1f} EUR/day on {len(z1_days)} days, "
                   f"{len(zones)} zones, {dt:.0f}s")
    assert ok, f"crps={rep.crps:.2f} mae_r={rep.mae_r:.2f} gain={gain:.1f} dt={dt:.0f}"
