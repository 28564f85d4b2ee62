"""Scoring rules: hand-computed micro-oracles, brute-force recomputations,
calibration self-consistency, and report plumbing."""
import json
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from scendiff import metrics as met
from scendiff.errors import (
    AlignmentError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
)
from oracles import pinball


def _crps_brute(scens, y):
    """Double-loop energy-form estimator, one marginal at a time."""
    m, l = scens.shape
    out = np.zeros(l)
    for t in range(l):
        t1 = np.mean([abs(x - y[t]) for x in scens[:, t]])
        t2 = sum(abs(a - b) for a in scens[:, t] for b in scens[:, t]) / (m * m)
        out[t] = t1 - 0.5 * t2
    return out


def _es_brute(scens, y):
    m = scens.shape[0]
    t1 = np.mean([np.linalg.norm(x - y) for x in scens])
    t2 = np.mean([np.linalg.norm(a - b) for a in scens for b in scens])
    return t1 - 0.5 * t2


def _vs_brute(scens, y, gamma, w=None):
    l = y.size
    total = 0.0
    for t in range(l):
        for u in range(l):
            vy = abs(y[t] - y[u]) ** gamma
            vx = np.mean([abs(x[t] - x[u]) ** gamma for x in scens])
            wt = 1.0 if w is None else w[t, u]
            total += wt * (vy - vx) ** 2
    return total


def _qs_brute(scens, y):
    levels = met.QUANTILE_LEVELS
    xq = met.empirical_quantiles(scens, levels)
    total = 0.0
    for iq, q in enumerate(levels):
        for t in range(y.size):
            total += pinball(xq[iq, t], y[t], q)
    return total / (levels.size * y.size)


# ------------------------------------------------------------- micro-oracles


def test_crps_two_scenario_hand_value():
    """Scenarios {0, 2} against y = 1: E|X-y| = 1, E|X-X'| = 1, CRPS = 0.5."""
    per, mean = met.crps(np.array([[0.0], [2.0]]), np.array([1.0]))
    assert per[0] == pytest.approx(0.5, abs=1e-9)
    assert mean == pytest.approx(0.5, abs=1e-9)


def test_crps_point_mass_equals_absolute_error():
    per, mean = met.crps(np.array([[0.3, 0.9]]), np.array([0.5, 0.4]))
    np.testing.assert_allclose(per, [0.2, 0.5], atol=1e-12)
    assert mean == pytest.approx(0.35, abs=1e-12)


def test_energy_score_hand_value():
    """Two 2-vector scenarios, y between them: ES = mean dist - half spread."""
    scens = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([1.0, 0.0])
    want = 1.0 - 0.25 * math.sqrt(2.0)  # term1 = 1, pair mean = sqrt(2)/2
    assert met.energy_score(scens, y) == pytest.approx(want, abs=1e-9)


def test_variogram_score_hand_value():
    """One scenario [0, 1], obs [1, 0], gamma 0.5: both variograms are 1,
    so VS = 0; against obs [2, 0] it is 2 (sqrt(2)-1)^2."""
    scens = np.array([[0.0, 1.0]])
    assert met.variogram_score(scens, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    want = 2.0 * (math.sqrt(2.0) - 1.0) ** 2
    assert met.variogram_score(scens, np.array([2.0, 0.0])) == pytest.approx(want, abs=1e-9)


def test_pinball_hand_values():
    assert pinball(0.5, 1.0, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert pinball(1.0, 0.5, 0.9) == pytest.approx(0.05, abs=1e-12)
    assert pinball(0.2, 0.2, 0.3) == 0.0


def test_quantile_score_two_scenarios_hand_value():
    """M=2 scenarios {0, 1}: Hazen quantiles are clamped order statistics,
    xq = 0 for q <= 0.25, 1 for q >= 0.75, 2q - 0.5 between; y = 0."""
    scens = np.array([[0.0], [1.0]])
    levels = met.QUANTILE_LEVELS
    xq = np.clip(2 * levels - 0.5, 0.0, 1.0)
    want = np.mean([(x - 0.0) * (1 - q) for x, q in zip(xq, levels)])
    got = met.quantile_score(scens, np.array([0.0]))
    assert got == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------- brute-force parity


def test_crps_matches_brute_force():
    rng = np.random.default_rng(0)
    scens = rng.standard_normal((7, 5))
    y = rng.standard_normal(5)
    per, mean = met.crps(scens, y)
    want = _crps_brute(scens, y)
    np.testing.assert_allclose(per, want, atol=1e-12)
    assert mean == pytest.approx(want.mean(), abs=1e-12)


def test_energy_and_variogram_match_brute_force():
    rng = np.random.default_rng(2)
    scens = rng.uniform(0, 1, (5, 6))
    y = rng.uniform(0, 1, 6)
    assert met.energy_score(scens, y) == pytest.approx(_es_brute(scens, y), abs=1e-12)
    assert met.variogram_score(scens, y, gamma=0.5) == pytest.approx(
        _vs_brute(scens, y, 0.5), abs=1e-10
    )
    w = rng.uniform(0, 2, (6, 6))
    assert met.variogram_score(scens, y, gamma=1.0, weights=w) == pytest.approx(
        _vs_brute(scens, y, 1.0, w), abs=1e-10
    )


def _tie_heavy(m, seed):
    """PV-like (m, 24) scenarios and observation: night hours are exactly
    zero everywhere, and every third scenario repeats its predecessor."""
    rng = np.random.default_rng(seed)
    scens = rng.uniform(0, 1, (m, 24))
    scens[:, :6] = 0.0
    scens[:, 20:] = 0.0
    scens[1::3] = scens[0:m - 1:3]
    y = rng.uniform(0, 1, 24)
    y[:6] = 0.0
    y[20:] = 0.0
    y[10] = scens[0, 10]  # an observation tied with scenario values
    return scens, y


@pytest.mark.parametrize("m", [1, 2, 100])
def test_scores_match_brute_force_on_tie_heavy_inputs(m):
    """The order-statistics CRPS and the unordered-pair ES and VS agree with
    the double loops on zero night hours, duplicated rows and few or many
    scenarios."""
    scens, y = _tie_heavy(m, seed=20 + m)
    per, mean = met.crps(scens, y)
    want = _crps_brute(scens, y)
    np.testing.assert_allclose(per, want, rtol=1e-12)
    assert np.all(per[:6] == 0.0) and np.all(per[20:] == 0.0)
    assert mean == pytest.approx(want.mean(), rel=1e-12)
    if m == 1:
        np.testing.assert_array_equal(met.crps(scens, y)[0], np.abs(scens[0] - y))
    assert met.energy_score(scens, y) == pytest.approx(_es_brute(scens, y), rel=1e-12)
    w = np.random.default_rng(m).uniform(0, 2, (24, 24))
    for gamma in (0.5, 1.0):
        assert met.variogram_score(scens, y, gamma=gamma) == pytest.approx(
            _vs_brute(scens, y, gamma), rel=1e-12)
        assert met.variogram_score(scens, y, gamma=gamma, weights=w) == pytest.approx(
            _vs_brute(scens, y, gamma, w), rel=1e-12)


def test_quantile_score_matches_per_term_pinball():
    rng = np.random.default_rng(3)
    scens = rng.uniform(0, 1, (9, 4))
    y = rng.uniform(0, 1, 4)
    assert met.quantile_score(scens, y) == pytest.approx(_qs_brute(scens, y), abs=1e-12)
    with pytest.raises(InsufficientDataError):
        met.quantile_score(scens[:1], y)


def test_empirical_quantiles_match_numpy_hazen():
    """Read off one sort, the quantiles equal np.quantile's bit for bit, on
    continuous, tied and all-zero columns, at the default and custom levels."""
    rng = np.random.default_rng(4)
    for m in (2, 3, 7, 10, 20, 100, 257):
        scens = rng.standard_normal((m, 5))
        scens[:, 1] = np.round(scens[:, 1]) + 2.0  # ties
        scens[:, 2] = 0.0
        scens[: m // 2, 3] = 1.5  # a point mass beside a continuous part
        for levels in (met.QUANTILE_LEVELS, np.array([0.0, 0.001, 0.25, 0.5, 0.999, 1.0])):
            got = met.empirical_quantiles(scens, levels)
            want = np.quantile(scens, levels, axis=0, method="hazen")
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
    # median of an even ensemble is the midpoint of the central pair
    two = np.array([[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(
        met.empirical_quantiles(two, np.array([0.5]))[0], [0.5, 1.0]
    )


def test_score_plans_are_cached_and_read_only():
    """The index pairs and quantile plans are built once per size and shared,
    so no caller may write into them."""
    i, j = met._pairs(100)
    assert met._pairs(100)[0] is i
    np.testing.assert_array_equal(np.stack([i, j]), np.triu_indices(100, 1))
    plan = met._hazen_plan(100, met.QUANTILE_LEVELS.tobytes())
    for a in (i, j) + plan:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    with pytest.raises(ParameterError):
        met.empirical_quantiles(np.zeros((3, 2)), np.array([0.5, 1.5]))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        met.crps(np.zeros(5), np.zeros(5))
    with pytest.raises(DimensionError):
        met.energy_score(np.zeros((3, 4)), np.zeros(5))
    with pytest.raises(DimensionError):
        met.variogram_score(np.zeros((3, 4)), np.zeros(4), weights=np.ones((3, 3)))
    for gamma in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="gamma"):
            met.variogram_score(np.zeros((3, 4)), np.zeros(4), gamma=gamma)
    with pytest.raises(ParameterError):
        met.variogram_score(np.zeros((3, 4)), np.zeros(4), weights=-np.ones((4, 4)))
    for bad in (np.nan, np.inf, -np.inf):  # NaN < 0 is False: non-finite needs its own check
        w = np.ones((4, 4))
        w[1, 2] = bad
        with pytest.raises(ParameterError, match="finite and non-negative"):
            met.variogram_score(np.zeros((3, 4)), np.zeros(4), weights=w)


# ---------------------------------------------------------------- reliability


def test_reliability_self_consistency_on_continuous_data():
    """Scenarios and observations from the same continuous law calibrate."""
    rng = np.random.default_rng(5)
    scen_list = [rng.standard_normal((50, 24)) for _ in range(500)]
    obs_list = [rng.standard_normal(24) for _ in range(500)]
    curve, mae_r = met.reliability(scen_list, obs_list, seed=0)
    assert mae_r <= 2.0
    assert curve[0] < 0.05 and curve[-1] > 0.95


def test_reliability_strictly_covering_scenarios_score_fifty():
    """All scenarios above every observation: frequency 1 at every level,
    MAE-r = mean(100 - q) = 50 exactly."""
    scen_list = [np.full((20, 24), 5.0) for _ in range(12)]
    obs_list = [np.zeros(24) for _ in range(12)]
    curve, mae_r = met.reliability(scen_list, obs_list, seed=0)
    assert np.all(curve == 1.0)
    assert mae_r == pytest.approx(float(np.mean(100 - met.QUANTILE_LEVELS * 100)), abs=1e-12)
    assert mae_r == pytest.approx(50.0, abs=1e-9)


def test_reliability_randomizes_ties_so_point_masses_calibrate():
    """Perfect forecasts of a constant (all scenarios equal the observation)
    must read as calibrated, not as degenerate full coverage."""
    scen_list = [np.zeros((30, 24)) for _ in range(400)]
    obs_list = [np.zeros(24) for _ in range(400)]
    curve, mae_r = met.reliability(scen_list, obs_list, seed=1)
    assert mae_r <= 2.0


def test_reliability_mixed_atom_and_continuous_hours():
    """A half-weight atom at the bound overcovers: the rank is uniform on
    (0, 1/2), so coverage doubles the nominal level below one half."""
    rng = np.random.default_rng(6)
    scen_list = []
    obs_list = []
    for _ in range(600):
        col = np.concatenate([np.zeros(50), rng.uniform(0.01, 1.0, 50)])
        scen_list.append(col[:, None])
        obs_list.append(np.zeros(1))
    curve, mae_r = met.reliability(scen_list, obs_list, seed=2)
    assert curve[24] == pytest.approx(0.5, abs=0.08)  # nominal 25% covers ~50%
    assert mae_r > 10.0


def test_reliability_input_validation():
    scen = [np.zeros((5, 24))] * 12
    obs = [np.zeros(24)] * 12
    with pytest.raises(ParameterError):
        met.reliability([], [])
    with pytest.raises(AlignmentError):
        met.reliability(scen, obs[:11])
    with pytest.raises(InsufficientDataError):
        met.reliability(scen[:9], obs[:9])


def _reliability_loop(scenario_list, obs_list, seed):
    """Randomized ranks as in `reliability`, then one coverage pass per level."""
    rng = np.random.default_rng(seed)
    ranks = []
    for scens, y in zip(scenario_list, obs_list):
        below = (scens < y[None, :]).sum(axis=0)
        at_or_below = (scens <= y[None, :]).sum(axis=0)
        v = rng.uniform(size=y.shape)
        ranks.append((below + v * (at_or_below - below)) / scens.shape[0])
    r = np.concatenate(ranks)
    curve = np.array([(r <= q).mean() for q in met.QUANTILE_LEVELS])
    return curve, float(np.mean(np.abs(curve - met.QUANTILE_LEVELS))) * 100.0


@pytest.mark.parametrize("m", [10, 100])
def test_reliability_curve_equals_per_level_loop(m):
    """The sorted-rank curve is bit-identical to 99 boolean passes, also
    when ranks land exactly on a level (ties at zero night hours, M = 10 or
    100 makes k/M a level)."""
    pairs = [_tie_heavy(m, seed) for seed in range(30)]
    scen_list = [s for s, _ in pairs]
    obs_list = [y for _, y in pairs]
    curve, mae_r = met.reliability(scen_list, obs_list, seed=4)
    want_curve, want_mae_r = _reliability_loop(scen_list, obs_list, seed=4)
    assert np.array_equal(curve, want_curve)
    assert mae_r == want_mae_r


def test_reliability_is_deterministic_in_seed():
    rng = np.random.default_rng(7)
    scen_list = [rng.uniform(0, 1, (10, 24)) for _ in range(15)]
    obs_list = [rng.uniform(0, 1, 24) for _ in range(15)]
    c1, m1 = met.reliability(scen_list, obs_list, seed=3)
    c2, m2 = met.reliability(scen_list, obs_list, seed=3)
    np.testing.assert_array_equal(c1, c2)
    assert m1 == m2


# ------------------------------------------------------------------ evaluate


def _toy_days(n_days=12, m=8, seed=0):
    rng = np.random.default_rng(seed)
    days = [date(2013, 1, 1 + i) for i in range(n_days)]
    scen = {d: rng.uniform(0, 1, (m, 24)) for d in days}
    obs = {d: rng.uniform(0, 1, 24) for d in days}
    return scen, obs


def test_evaluate_aggregates_per_day_means():
    scen, obs = _toy_days()
    rep = met.evaluate(scen, obs, base=1.0)
    crps_days = [met.crps(scen[d], obs[d])[1] * 100 for d in scen]
    assert rep.crps == pytest.approx(np.mean(crps_days), abs=1e-10)
    es_days = [met.energy_score(scen[d], obs[d]) * 100 for d in scen]
    assert rep.es == pytest.approx(np.mean(es_days), abs=1e-10)
    assert rep.n_days == 12 and rep.m == 8
    assert len(rep.per_day) == 12
    assert len(rep.reliability_curve) == 99


def test_evaluate_base_scaling():
    """Halving the base doubles percent scores; VS scales with 1/base^(2g)
    folded into its normalized inputs. Ranks are unit-free, so the curve and
    MAE-r are the same at every base, also on a day whose scenarios sit one
    float below its observation, where division by 0.37 rounds both to one
    value."""
    scen, obs = _toy_days(seed=1)
    y = next(v for v in np.linspace(1.5, 1.9, 1001) if np.nextafter(v, 0) / 0.37 == v / 0.37)
    tie_day = date(2013, 2, 1)
    scen[tie_day] = np.full((8, 24), np.nextafter(y, 0))
    obs[tie_day] = np.full(24, y)
    r1 = met.evaluate(scen, obs, base=1.0)
    r2 = met.evaluate(scen, obs, base=0.5)
    assert r2.crps == pytest.approx(2 * r1.crps, rel=1e-9)
    assert r2.qs == pytest.approx(2 * r1.qs, rel=1e-9)
    assert r2.es == pytest.approx(2 * r1.es, rel=1e-9)
    assert r2.vs > r1.vs
    for rep in (r2, met.evaluate(scen, obs, base=0.37)):
        assert rep.mae_r == r1.mae_r
        assert rep.reliability_curve == r1.reliability_curve
    for base in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="positive and finite"):
            met.evaluate(scen, obs, base=base)


def test_evaluate_keeps_no_scaled_copy_of_the_test_set():
    """Each day is scaled only while its four scores read it: from 200 to
    400 days of 100 scenarios (3.84 MB more input), the traced peak grows by
    less than a quarter of that."""
    rng = np.random.default_rng(0)
    days = [date(2013, 1, 1) + timedelta(days=i) for i in range(400)]
    scen = {d: rng.uniform(0, 1, (100, 24)) for d in days}
    obs = {d: rng.uniform(0, 1, 24) for d in days}

    def peak(n):
        tracemalloc.start()
        try:
            met.evaluate({d: scen[d] for d in days[:n]}, {d: obs[d] for d in days[:n]},
                         base=2.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    met.evaluate({d: scen[d] for d in days[:10]}, {d: obs[d] for d in days[:10]})  # warm caches
    added = 200 * 100 * 24 * 8
    assert peak(400) - peak(200) < added / 4


def test_evaluate_perfect_scenarios():
    """Every scenario equals the observation: all distance scores vanish and
    the tie-randomized reliability stays near the diagonal."""
    rng = np.random.default_rng(2)
    days = [date(2013, 2, 1 + i) for i in range(20)]
    obs = {d: rng.uniform(0, 1, 24) for d in days}
    scen = {d: np.repeat(obs[d][None, :], 10, axis=0) for d in days}
    rep = met.evaluate(scen, obs)
    assert rep.crps == pytest.approx(0.0, abs=1e-12)
    assert rep.qs == pytest.approx(0.0, abs=1e-12)
    assert rep.es == pytest.approx(0.0, abs=1e-12)
    assert rep.vs == pytest.approx(0.0, abs=1e-12)
    assert rep.mae_r <= 6.0  # 480 pairs of pure ties, seeded uniform ranks


def test_evaluate_alignment_error_lists_missing_days():
    scen, obs = _toy_days()
    d0 = sorted(scen)[0]
    obs2 = dict(obs)
    del obs2[d0]
    with pytest.raises(AlignmentError, match="lack observations"):
        met.evaluate(scen, obs2)
    scen2 = dict(scen)
    del scen2[d0]
    with pytest.raises(AlignmentError, match="lack scenarios"):
        met.evaluate(scen2, obs)
    with pytest.raises(ParameterError):
        met.evaluate({}, {})


def test_quality_report_round_trip(tmp_path):
    scen, obs = _toy_days(seed=3)
    rep = met.evaluate(scen, obs, base=1.0)
    jp = tmp_path / "report.json"
    rep.write_json(jp)
    doc = json.loads(jp.read_text())
    assert doc["crps_pct"] == rep.crps
    assert doc["mae_r_pp"] == rep.mae_r
    assert doc["vs"] == rep.vs
    assert len(doc["per_day"]) == 12
    assert set(next(iter(doc["per_day"].values()))) == {"crps_pct", "qs_pct", "es_pct", "vs"}

    cp = tmp_path / "reliability.csv"
    rep.write_reliability_csv(cp)
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "nominal,empirical"
    assert len(lines) == 100
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)


def test_evaluate_files_round_trip(tmp_path):
    """Scores over written and read-back scenario and observation files equal
    those over the arrays."""
    from scendiff import data as dmod
    from scendiff import diffusion as dif

    rng = np.random.default_rng(8)
    days = [date(2014, 3, 1 + i) for i in range(11)]
    sets = [dif.ScenarioSet(d, 6, rng.uniform(0, 1, (6, 24)), np.zeros(1)) for d in days]
    sp = tmp_path / "scen.csv"
    dif.write_scenarios(sets, sp)

    ds = dmod.Dataset(samples=[
        dmod.DaySample(d, "pv", 1, rng.uniform(0, 1, 24), np.zeros(24)) for d in days
    ])
    op = tmp_path / "obs.csv"
    dmod.write_observations(ds, op, split="learn", zone=1)

    rep = met.evaluate(dif.read_scenarios(sp), dmod.read_observations(op), base=1.0)
    direct = met.evaluate({s.day_id: s.scenarios for s in sets},
                          {s.day_id: s.x for s in ds.samples})
    assert rep.crps == pytest.approx(direct.crps, rel=1e-12)
    assert rep.n_days == 11


# ------------------------------------------------------------------ invariants


def test_scores_are_non_negative_on_arbitrary_inputs():
    rng = np.random.default_rng(10)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        l = int(rng.integers(1, 30))
        scens = rng.standard_normal((m, l)) * rng.uniform(0.1, 5)
        y = rng.standard_normal(l)
        per, mean = met.crps(scens, y)
        assert np.all(per >= -1e-12) and mean >= -1e-12
        assert met.energy_score(scens, y) >= -1e-12
        assert met.variogram_score(scens, y) >= 0.0
        if m >= 2:
            assert met.quantile_score(scens, y) >= 0.0


def test_scores_are_invariant_to_scenario_order():
    rng = np.random.default_rng(11)
    scens = rng.standard_normal((9, 6))
    y = rng.standard_normal(6)
    perm = rng.permutation(9)
    assert met.crps(scens, y)[1] == pytest.approx(met.crps(scens[perm], y)[1], abs=1e-12)
    assert met.energy_score(scens, y) == pytest.approx(
        met.energy_score(scens[perm], y), abs=1e-12)
    assert met.variogram_score(scens, y) == pytest.approx(
        met.variogram_score(scens[perm], y), abs=1e-12)
    assert met.quantile_score(scens, y) == pytest.approx(
        met.quantile_score(scens[perm], y), abs=1e-12)


def test_energy_score_equals_crps_for_single_marginal():
    rng = np.random.default_rng(12)
    scens = rng.standard_normal((8, 1))
    y = rng.standard_normal(1)
    assert met.energy_score(scens, y) == pytest.approx(met.crps(scens, y)[1], abs=1e-12)


def test_propriety_true_law_beats_shifted_law():
    """Scenarios from the observation's own law must not score worse (beyond
    Monte-Carlo noise) than scenarios from a mean-shifted law."""
    rng = np.random.default_rng(13)
    d_crps, d_es = [], []
    for _ in range(300):
        y = rng.standard_normal(8)
        good = rng.standard_normal((20, 8))
        bad = rng.standard_normal((20, 8)) + 0.5
        d_crps.append(met.crps(good, y)[1] - met.crps(bad, y)[1])
        d_es.append(met.energy_score(good, y) - met.energy_score(bad, y))
    for d in (np.array(d_crps), np.array(d_es)):
        se = d.std(ddof=1) / np.sqrt(d.size)
        assert d.mean() <= 3 * se
        assert d.mean() < 0  # the advantage is real, not just within noise


def test_quantile_score_matches_pinball_integral_for_gaussian():
    """M=100 standard-normal scenarios against y=0: the empirical QS must sit
    within 10% of the closed-form pinball loss at the true quantiles."""
    from scipy.stats import norm

    rng = np.random.default_rng(14)
    scens = rng.standard_normal((100, 1))
    got = met.quantile_score(scens, np.zeros(1))
    q = met.QUANTILE_LEVELS
    xq = norm.ppf(q)
    want = float(np.mean(np.where(xq <= 0, -xq * q, xq * (1 - q))))
    assert got == pytest.approx(want, rel=0.10)


def test_reports_refuse_non_finite_values(tmp_path, monkeypatch, capsys):
    """NaN and infinity are not JSON: writing such a report raises a package
    error, and `evaluate` exits 2 with one JSON error line and no report."""
    from scendiff.cli import main
    from scendiff.value import ValueReport

    nan_quality = met.QualityReport(crps=math.nan, qs=1.0, mae_r=1.0, es=1.0, vs=1.0,
                                    n_days=1, m=2, base=1.0)
    for report in (nan_quality, ValueReport(aggregate={"oracle": math.inf})):
        with pytest.raises(ParameterError, match="JSON"):
            report.write_json(tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    from scendiff import data as dmod
    from scendiff import diffusion as dif

    monkeypatch.setattr(dif, "read_scenarios", lambda path: {})
    monkeypatch.setattr(dmod, "read_observations", lambda path: {})
    monkeypatch.setattr(met, "evaluate", lambda *a, **k: nan_quality)
    capsys.readouterr()
    rc = main(["evaluate", "--scenarios", "s.csv", "--observations", "o.csv",
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParameterError"
    assert not (tmp_path / "out" / "quality_report.json").exists()
