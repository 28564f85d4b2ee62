"""Schedules, forward/reverse processes, training loop, and checkpoints."""
import json
import math
import warnings
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
import scipy.stats

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff import nn
from scendiff.errors import (
    DimensionError,
    InsufficientDataError,
    IntegrityError,
    ModelValidationError,
    ParameterError,
    SamplingDivergenceError,
    SchemaError,
    ScheduleTooShortError,
    TrainingDivergenceError,
)


def _zero_denoiser(x, steps, c):
    return np.zeros_like(x)


# ----------------------------------------------------------------- schedules


def test_linear_schedule_defaults():
    s = dif.make_schedule()
    assert s.kind == "linear" and s.n == 200
    assert s.beta[0] == 1e-4 and s.beta[-1] == 0.05
    assert np.all(np.diff(s.beta) > 0)
    assert s.alpha_bar[-1] < dif.TERMINAL_ALPHA_BAR


def test_schedule_identities_hold_exactly():
    for s in (dif.make_schedule(), dif.make_schedule("cosine", n=60)):
        assert np.all(np.diff(s.alpha_bar) < 0)
        np.testing.assert_allclose(s.alpha_bar, np.cumprod(1.0 - s.beta), rtol=1e-15)
        assert np.all((s.beta > 0) & (s.beta < 1))


def test_too_short_schedule_is_rejected_with_escape_hatch():
    # a gentle 200-step ramp to 0.02 leaves ~13% of the signal at the end,
    # far from the near-standard-normal terminal the sampler assumes
    with pytest.raises(ScheduleTooShortError):
        dif.make_schedule("linear", n=200, beta_start=1e-4, beta_end=0.02)
    s = dif.make_schedule("linear", n=200, beta_start=1e-4, beta_end=0.02,
                          enforce_terminal=False)
    assert 0.12 < s.alpha_bar[-1] < 0.14
    with pytest.raises(ScheduleTooShortError):
        s.validate(enforce_terminal=True)


def test_cosine_schedule_matches_squared_cosine_ramp():
    n = 50
    s = dif.make_schedule("cosine", n=n)
    off = 0.008
    i = np.arange(n + 1, dtype=float)
    f = np.cos(((i / n + off) / (1 + off)) * math.pi / 2) ** 2
    # the final ratio hits the 0.999 beta clip (f(n) is ~0), so compare the rest
    np.testing.assert_allclose(s.alpha_bar[:-1], (f / f[0])[1:-1], rtol=1e-10)
    assert s.alpha_bar[-1] < 1e-6
    assert np.all(s.beta <= 0.999)


def test_schedule_parameter_validation():
    with pytest.raises(ParameterError):
        dif.make_schedule("linear", n=0)
    with pytest.raises(ParameterError):
        dif.make_schedule("linear", beta_start=0.0)
    with pytest.raises(ParameterError):
        dif.make_schedule("linear", beta_start=0.5, beta_end=0.1)
    with pytest.raises(ParameterError):
        dif.make_schedule("quadratic")
    with pytest.raises(ParameterError):
        dif.from_betas(np.array([0.1, 0.2]), sigma_mode="learned")
    with pytest.raises(ParameterError):
        dif.from_betas(np.array([0.1, 1.5]), enforce_terminal=False)


def test_sigma_modes():
    s = dif.make_schedule("linear", n=40, beta_end=0.3)
    np.testing.assert_allclose(s.sigma, np.sqrt(s.beta), rtol=1e-15)
    p = dif.make_schedule("linear", n=40, beta_end=0.3, sigma_mode="posterior")
    assert p.sigma[0] == 0.0  # no uncertainty one step from the data
    abar_prev = np.concatenate([[1.0], p.alpha_bar[:-1]])
    want = np.sqrt(p.beta * (1 - abar_prev) / (1 - p.alpha_bar))
    np.testing.assert_allclose(p.sigma, want, rtol=1e-12)
    # posterior variance never exceeds the beta-mode variance
    assert np.all(p.sigma <= np.sqrt(p.beta) + 1e-15)


def test_schedule_dict_round_trip():
    s = dif.make_schedule("cosine", n=25, sigma_mode="posterior")
    back = dif.Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
    assert back.kind == s.kind and back.n == s.n and back.sigma_mode == s.sigma_mode
    np.testing.assert_allclose(back.beta, s.beta, rtol=1e-15)
    np.testing.assert_allclose(back.sigma, s.sigma, rtol=1e-12)


# ----------------------------------------------------------- forward process


def test_forward_sample_formula_and_range():
    s = dif.make_schedule("linear", n=10, beta_end=0.5, enforce_terminal=False)
    x0 = np.array([1.0, -2.0])
    eps = np.array([0.5, 0.25])
    for i in (1, 5, 10):
        abar = s.alpha_bar[i - 1]
        want = math.sqrt(abar) * x0 + math.sqrt(1 - abar) * eps
        np.testing.assert_allclose(dif.forward_sample(x0, i, eps, s), want, rtol=1e-15)
    with pytest.raises(ParameterError):
        dif.forward_sample(x0, 0, eps, s)
    with pytest.raises(ParameterError):
        dif.forward_sample(x0, 11, eps, s)


def test_chain_forward_marginals_match_closed_form():
    """Step-by-step noising agrees with the one-shot marginal in law.

    Uses a long vector of identical components as a bank of independent
    chains and compares moments at early/middle/terminal steps.
    """
    s = dif.make_schedule("cosine", n=30)
    n_draws = 6000
    x0 = np.full(n_draws, 0.7)
    chain = dif.chain_forward(x0, s, np.random.default_rng(0))
    assert chain.shape == (30, n_draws)
    for i in (1, 15, 30):
        vals = chain[i - 1]
        abar = s.alpha_bar[i - 1]
        mean_se = math.sqrt((1 - abar) / n_draws)
        assert abs(vals.mean() - math.sqrt(abar) * 0.7) < 4 * mean_se
        assert abs(vals.var() - (1 - abar)) < 5 * (1 - abar) * math.sqrt(2 / n_draws)


@pytest.mark.parametrize("sigma_mode", ["beta", "posterior"])
def test_schedule_from_dict_rejects_bad_betas_without_warnings(sigma_mode):
    """Betas outside (0, 1) are rejected before sigma takes their square roots."""
    d = dif.make_schedule("linear", n=10, sigma_mode=sigma_mode, enforce_terminal=False).to_dict()
    for bad in (-0.1, 0.0, 1.0, 1.5, float("nan")):
        d["beta"][3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="betas"):
                dif.Schedule.from_dict(d)


# ------------------------------------------------------------- training loss


def test_training_loss_matches_manual_recompute():
    s = dif.make_schedule("cosine", n=20)
    p = nn.init_params((8,), sample_dim=4, embed_dim=4, cond_dim=2, seed=0)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((5, 4))
    c = rng.standard_normal((5, 2))
    steps = np.array([1, 7, 13, 20, 4])
    noise = rng.standard_normal((5, 4))
    loss, grads = dif.training_loss(p, x0, c, s, steps=steps, noise=noise)
    abar = s.alpha_bar[steps - 1]
    x_noisy = np.sqrt(abar)[:, None] * x0 + np.sqrt(1 - abar)[:, None] * noise
    eps_hat = nn.forward_batch(p, x_noisy, steps, c)
    assert loss == pytest.approx(float(np.mean((eps_hat - noise) ** 2)), rel=1e-12)
    assert grads.shape == p.vector.shape


def test_training_loss_gradients_match_finite_differences():
    s = dif.make_schedule("linear", n=12, beta_end=0.4, enforce_terminal=False)
    p = nn.init_params((6,), sample_dim=3, embed_dim=2, cond_dim=1, seed=1)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((4, 3))
    c = rng.standard_normal((4, 1))
    steps = np.array([2, 5, 9, 12])
    noise = rng.standard_normal((4, 3))
    _, grads = dif.training_loss(p, x0, c, s, steps=steps, noise=noise)
    vec = p.vector
    gvec = grads
    idx = np.random.default_rng(5).choice(vec.size, size=12, replace=False)
    h = 1e-6
    for j in idx:
        vp, vm = vec.copy(), vec.copy()
        vp[j] += h
        vm[j] -= h
        lp, _ = dif.training_loss(nn.vector_to_params(vp, p), x0, c, s,
                                  steps=steps, noise=noise, want_grads=False)
        lm, _ = dif.training_loss(nn.vector_to_params(vm, p), x0, c, s,
                                  steps=steps, noise=noise, want_grads=False)
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gvec[j]) <= 1e-4 * max(abs(fd), abs(gvec[j]), 1e-8)


def test_training_loss_callable_params_and_rng_contract():
    s = dif.make_schedule("cosine", n=10)
    x0 = np.zeros((3, 2))
    c = np.zeros((3, 0))
    loss, grads = dif.training_loss(
        _zero_denoiser, x0, c, s, steps=np.array([1, 2, 3]), noise=np.ones((3, 2))
    )
    assert grads is None
    assert loss == pytest.approx(1.0)  # eps_hat = 0 vs eps = 1
    with pytest.raises(ParameterError, match="rng"):
        dif.training_loss(_zero_denoiser, x0, c, s)
    rng = np.random.default_rng(0)
    loss2, _ = dif.training_loss(_zero_denoiser, x0, c, s, rng)
    assert math.isfinite(loss2)


def test_training_loss_uniform_step_coverage():
    s = dif.make_schedule("cosine", n=6)
    seen = set()
    rng = np.random.default_rng(9)
    for _ in range(60):
        steps = rng.integers(1, s.n + 1, size=8)
        seen.update(int(v) for v in steps)
    assert seen == set(range(1, 7))


# -------------------------------------------------------------------- train


def test_train_is_deterministic_and_logs_losses(pv_normalized, tiny_schedule, tiny_model):
    params, log = tiny_model
    assert len(log) == 8
    assert [e["epoch"] for e in log] == list(range(1, 9))
    assert all(math.isfinite(e["learn_loss"]) and math.isfinite(e["val_loss"]) for e in log)
    # learning actually reduces the noise-MSE from its ~1.0 starting level
    assert log[-1]["learn_loss"] < log[0]["learn_loss"]

    cfg = dif.TrainConfig(epochs=2, batch_size=16, hidden=(16,), embed_dim=4, seed=3)
    a, la = dif.train(pv_normalized, cfg, tiny_schedule)
    b, lb = dif.train(pv_normalized, cfg, tiny_schedule)
    np.testing.assert_array_equal(a.vector, b.vector)
    assert la == lb


def test_train_zero_epochs_returns_init(pv_normalized, tiny_schedule):
    cfg = dif.TrainConfig(epochs=0, hidden=(8,), embed_dim=4, seed=1)
    params, log = dif.train(pv_normalized, cfg, tiny_schedule)
    assert log == []
    params.validate()


def test_train_requires_scaler_and_validation_split(pv_dataset, tiny_schedule):
    cfg = dif.TrainConfig(epochs=1, hidden=(8,), embed_dim=4)
    with pytest.raises(ParameterError, match="normalized"):
        dif.train(pv_dataset, cfg, tiny_schedule)
    norm = dmod.normalize(pv_dataset)
    norm = type(norm)(samples=norm.samples,
                      split={d: ("learn" if s != "validation" else "test")
                             for d, s in norm.split.items()},
                      scaler=norm.scaler)
    with pytest.raises(InsufficientDataError, match="validation"):
        dif.train(norm, cfg, tiny_schedule)
    with pytest.raises(ParameterError, match="batch_size"):
        dif.train(dmod.normalize(pv_dataset), dif.TrainConfig(epochs=1, batch_size=0),
                  tiny_schedule)


def test_train_divergence_reports_epoch(pv_normalized, tiny_schedule):
    cfg = dif.TrainConfig(epochs=3, batch_size=16, lr=1e160, hidden=(8,), embed_dim=4, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError, match="epoch"):
        dif.train(pv_normalized, cfg, tiny_schedule)


def test_train_validation_divergence_reports_epoch(pv_normalized, tiny_schedule):
    """A validation day whose covariate overflows the network fails the epoch."""
    samples = list(pv_normalized.samples)
    j = next(j for j, s in enumerate(samples) if pv_normalized.split[s.day_id] == "validation")
    samples[j] = replace(samples[j], c=np.full_like(samples[j].c, 1e300))
    ds = replace(pv_normalized, samples=samples)
    cfg = dif.TrainConfig(epochs=2, batch_size=16, hidden=(8,), embed_dim=4, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError,
                                                  match="^epoch 1: non-finite loss$"):
        dif.train(ds, cfg, tiny_schedule)


# ----------------------------------------------------------- reverse sampler


def test_reverse_engine_draw_order_contract():
    """Stream layout is pinned: initial noise first, then z for steps n..2,
    applied with sigma_i after the step-i update, and no noise at step 1."""
    s = dif.make_schedule("linear", n=3, beta_start=0.2, beta_end=0.6,
                          enforce_terminal=False)
    seed = np.random.SeedSequence(123)
    out = dif.reverse_chain(_zero_denoiser, np.zeros(0), s, m=2, seed=seed, l=4)

    children = np.random.SeedSequence(123).spawn(2)
    for j in range(2):
        rng = np.random.default_rng(children[j])
        x = rng.standard_normal(4)
        z = rng.standard_normal((2, 4))
        x = x / math.sqrt(1 - s.beta[2]) + s.sigma[2] * z[0]  # step 3
        x = x / math.sqrt(1 - s.beta[1]) + s.sigma[1] * z[1]  # step 2
        x = x / math.sqrt(1 - s.beta[0])                      # step 1: no noise
        np.testing.assert_allclose(out[j], x, rtol=1e-12)


def test_reverse_chain_is_deterministic_and_order_independent():
    s = dif.make_schedule("cosine", n=8)
    p = nn.init_params((6,), sample_dim=2, embed_dim=4, cond_dim=1, seed=0)
    c = np.array([0.3])
    a = dif.reverse_chain(p, c, s, m=5, seed=7, l=2)
    b = dif.reverse_chain(p, c, s, m=5, seed=7, l=2)
    np.testing.assert_array_equal(a, b)
    # drawing more samples must not change the earlier streams
    wide = dif.reverse_chain(p, c, s, m=9, seed=7, l=2)
    np.testing.assert_array_equal(wide[:5], a)
    assert not np.array_equal(dif.reverse_chain(p, c, s, m=5, seed=8, l=2), a)
    with pytest.raises(ParameterError):
        dif.reverse_chain(p, c, s, m=0, seed=7, l=2)


def test_reverse_engine_chunking_is_invisible():
    s = dif.make_schedule("cosine", n=6)
    c_rows = np.linspace(0, 1, 10)[:, None]
    seqs = np.random.SeedSequence(5).spawn(10)
    big = dif._reverse_engine(_zero_denoiser, c_rows, s, seqs, l=3, chunk=1000)
    small = dif._reverse_engine(_zero_denoiser, c_rows, s, seqs, l=3, chunk=3)
    np.testing.assert_array_equal(big, small)

    # With a real network a row's bits must not depend on how many rows share
    # its matrix products: the scenario file's bytes, and their agreement with
    # earlier releases that used other chunk sizes, rely on it. A product of
    # a few rows (chunk 3 here) goes through OpenBLAS's small-matrix kernel,
    # which rounds differently, so that case is held to 1e-12 only.
    p = nn.init_params((128, 128), sample_dim=24, embed_dim=8, cond_dim=24, seed=4)
    c_rows = np.random.default_rng(6).uniform(0, 1, (600, 24))
    seqs = np.random.SeedSequence(8).spawn(600)
    default = dif._reverse_engine(p, c_rows, s, seqs, l=24)
    for chunk in (128, 300, 1000):
        np.testing.assert_array_equal(
            dif._reverse_engine(p, c_rows, s, seqs, l=24, chunk=chunk), default)
    np.testing.assert_allclose(dif._reverse_engine(p, c_rows, s, seqs, l=24, chunk=3),
                               default, rtol=1e-12, atol=1e-12)


def test_reverse_sampler_matches_analytic_gaussian_law():
    """With the exact posterior-mean denoiser for x0 ~ N(mu0, 1), ancestral
    sampling has a closed-form Gaussian terminal law; a KS test checks the
    sampler reproduces it (draw order, coefficients, final noiseless step)."""
    s = dif.make_schedule("linear", n=40, beta_start=0.01, beta_end=0.25)
    mu0 = 0.8

    def oracle(x, steps, c):
        i = int(np.asarray(steps).ravel()[0])
        abar = s.alpha_bar[i - 1]
        return math.sqrt(1 - abar) * (x - math.sqrt(abar) * mu0)

    m_star, v_star = 0.0, 1.0
    for i in range(s.n, 0, -1):
        abar_prev = 1.0 if i == 1 else s.alpha_bar[i - 2]
        alpha = 1 - s.beta[i - 1]
        m_star = math.sqrt(alpha) * m_star + s.beta[i - 1] * math.sqrt(abar_prev) * mu0
        v_star = alpha * v_star + (s.sigma[i - 1] ** 2 if i > 1 else 0.0)

    draws = dif.reverse_chain(oracle, np.zeros(0), s, m=8000, seed=17, l=1).ravel()
    assert abs(draws.mean() - m_star) < 4 * math.sqrt(v_star / draws.size)
    stat, p = scipy.stats.kstest(draws, "norm", args=(m_star, math.sqrt(v_star)))
    assert p > 0.01
    # the terminal mean is within the schedule's leftover-signal bias of mu0
    assert abs(m_star - mu0) < 2 * s.alpha_bar[-1] ** 0.5 * abs(mu0) + 1e-6


def test_reverse_sample_applies_scaler_and_clipping(tiny_model, tiny_schedule, pv_normalized):
    params, _ = tiny_model
    sample = pv_normalized.subset(split="test", zone=1)[0]
    out = dif.reverse_sample(params, sample.c, tiny_schedule, m=16, seed=3,
                             scaler=pv_normalized.scaler, day_id=sample.day_id)
    out.validate()
    assert out.scenarios.shape == (16, 24)
    assert out.scenarios.min() >= 0.0 and out.scenarios.max() <= 1.0
    raw = dif.reverse_sample(params, sample.c, tiny_schedule, m=16, seed=3)
    assert raw.scenarios.min() < 0.0  # unclipped values stray below zero


def test_sample_days_matches_standalone_calls(tiny_model, tiny_schedule, pv_normalized):
    params, _ = tiny_model
    x, c, days = pv_normalized.arrays(split="test", zone=1)
    sets = dif.sample_days(params, c[:3], days[:3], tiny_schedule, m=4, seed=11,
                           scaler=pv_normalized.scaler)
    assert [s.day_id for s in sets] == list(days[:3])
    master = np.random.SeedSequence(11)
    day_seqs = master.spawn(3)
    for j, s in enumerate(sets):
        alone = dif.reverse_sample(params, c[j], tiny_schedule, m=4, seed=day_seqs[j],
                                   scaler=pv_normalized.scaler, day_id=days[j])
        np.testing.assert_array_equal(s.scenarios, alone.scenarios)
    with pytest.raises(DimensionError):
        dif.sample_days(params, c[:3], days[:2], tiny_schedule, m=2, seed=0)


def test_sampling_divergence_is_reported_with_step():
    s = dif.make_schedule("linear", n=4, beta_start=0.2, beta_end=0.5,
                          enforce_terminal=False)

    def exploding(x, steps, c):
        return np.full_like(x, np.inf)

    with pytest.raises(SamplingDivergenceError, match="step"):
        dif.reverse_chain(exploding, np.zeros(0), s, m=2, seed=0, l=2)


def test_scenario_set_validation():
    good = dif.ScenarioSet(date(2012, 1, 1), 2, np.zeros((2, 24)), np.zeros(1))
    good.validate()
    with pytest.raises(DimensionError):
        dif.ScenarioSet(date(2012, 1, 1), 2, np.zeros((3, 24)), np.zeros(1)).validate()
    bad = np.zeros((2, 24))
    bad[0, 0] = np.inf
    with pytest.raises(SamplingDivergenceError):
        dif.ScenarioSet(date(2012, 1, 1), 2, bad, np.zeros(1)).validate()
    with pytest.raises(ParameterError):
        dif.ScenarioSet(date(2012, 1, 1), 0, np.zeros((0, 24)), np.zeros(1)).validate()


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_is_exact(tmp_path, tiny_model, tiny_schedule, pv_normalized):
    params, _ = tiny_model
    p = tmp_path / "model.ckpt"
    dif.save_checkpoint(p, params, tiny_schedule, pv_normalized.scaler, "pv", 1)
    loaded, sched, scaler, header = dif.load_checkpoint(p)
    np.testing.assert_array_equal(loaded.vector, params.vector)
    assert loaded.activation == params.activation
    np.testing.assert_allclose(sched.beta, tiny_schedule.beta, rtol=1e-15)
    assert scaler.track == "pv" and scaler.learn_max == pv_normalized.scaler.learn_max
    assert header["track"] == "pv" and header["zone"] == 1

    out = dif.reverse_sample(loaded, pv_normalized.samples[0].c, sched, m=3, seed=1,
                             scaler=scaler)
    want = dif.reverse_sample(params, pv_normalized.samples[0].c, tiny_schedule, m=3,
                              seed=1, scaler=pv_normalized.scaler)
    np.testing.assert_array_equal(out.scenarios, want.scenarios)


def test_checkpoint_rejects_corruption(tmp_path, tiny_model, tiny_schedule, pv_normalized):
    params, _ = tiny_model
    p = tmp_path / "model.ckpt"
    dif.save_checkpoint(p, params, tiny_schedule, None, "pv", 1)
    raw = p.read_bytes()

    (tmp_path / "a.ckpt").write_bytes(raw.replace(b"scendiff-checkpoint", b"other-checkpoint"))
    with pytest.raises(ModelValidationError, match="not a model checkpoint"):
        dif.load_checkpoint(tmp_path / "a.ckpt")

    (tmp_path / "b.ckpt").write_bytes(raw[:-8])
    with pytest.raises(ModelValidationError, match="bytes"):
        dif.load_checkpoint(tmp_path / "b.ckpt")

    nl = raw.find(b"\n")
    # one flipped byte in the parameter block breaks its SHA-256
    flipped = bytearray(raw)
    flipped[nl + 1 + 8 * 5 + 3] ^= 0x01
    (tmp_path / "f.ckpt").write_bytes(bytes(flipped))
    with pytest.raises(ModelValidationError, match="SHA-256"):
        dif.load_checkpoint(tmp_path / "f.ckpt")

    header = json.loads(raw[:nl])
    header["version"] = 1
    (tmp_path / "v.ckpt").write_bytes(json.dumps(header).encode() + raw[nl:])
    with pytest.raises(ModelValidationError, match="version"):
        dif.load_checkpoint(tmp_path / "v.ckpt")

    header = json.loads(raw[:nl])
    header["hidden"] = [64, 64]
    (tmp_path / "c.ckpt").write_bytes(json.dumps(header).encode() + raw[nl:])
    with pytest.raises(ModelValidationError, match="architecture"):
        dif.load_checkpoint(tmp_path / "c.ckpt")

    (tmp_path / "d.ckpt").write_bytes(b"\xff\xfe garbage")
    with pytest.raises(ModelValidationError):
        dif.load_checkpoint(tmp_path / "d.ckpt")

    # header fields that are missing or of the wrong type, and a header that
    # is not a JSON object, are rejected before any of them is used
    def with_header(doc):
        (tmp_path / "e.ckpt").write_bytes(json.dumps(doc).encode() + raw[nl:])
        return tmp_path / "e.ckpt"

    for key in ("n_params", "hidden", "schedule", "activation", "sha256"):
        broken = json.loads(raw[:nl])
        del broken[key]
        with pytest.raises(ModelValidationError, match=key):
            dif.load_checkpoint(with_header(broken))
    for key, bad in (("n_params", "abc"), ("hidden", [16, "x"]), ("hidden", [-4]),
                     ("activation", "tanh"), ("schedule", {"kind": "linear"})):
        broken = json.loads(raw[:nl])
        broken[key] = bad
        with pytest.raises(ModelValidationError):
            dif.load_checkpoint(with_header(broken))
    with pytest.raises(ModelValidationError, match="not a model checkpoint"):
        dif.load_checkpoint(with_header([json.loads(raw[:nl])]))

    # a scaler must carry one covariate offset and scale per cond_dim / 24 channel
    dif.save_checkpoint(p, params, tiny_schedule, pv_normalized.scaler, "pv", 1)
    raw = p.read_bytes()
    nl = raw.find(b"\n")
    dif.load_checkpoint(p)
    for key in ("cov_offset", "cov_scale"):
        broken = json.loads(raw[:nl])
        broken["scaler"][key] = broken["scaler"][key] * 2
        with pytest.raises(ModelValidationError, match="cond_dim"):
            dif.load_checkpoint(with_header(broken))
    # pinned hours need one entry per hour of the day
    broken = json.loads(raw[:nl])
    broken["scaler"]["target_fixed"] = [None, 0.0]
    with pytest.raises(ModelValidationError, match="target_fixed"):
        dif.load_checkpoint(with_header(broken))


# -------------------------------------------------------------- scenario CSV


def test_scenario_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sets = [
        dif.ScenarioSet(date(2012, 1, 1), 3, rng.uniform(0, 1, (3, 24)), np.zeros(1)),
        dif.ScenarioSet(date(2012, 1, 2), 3, rng.uniform(0, 1, (3, 24)), np.zeros(1)),
    ]
    p = tmp_path / "scen.csv"
    dif.write_scenarios(sets, p)
    back = dif.read_scenarios(p)
    assert set(back) == {date(2012, 1, 1), date(2012, 1, 2)}
    for s in sets:
        np.testing.assert_array_equal(back[s.day_id], s.scenarios)


def test_read_scenarios_rejects_bad_numbering_and_header(tmp_path):
    p = tmp_path / "scen.csv"
    header = "day,scenario," + ",".join(f"h{h}" for h in range(24))
    row = lambda m: f"2012-01-01,{m}," + ",".join(["0.5"] * 24)
    p.write_text("\n".join([header, row(1), row(3)]) + "\n")
    with pytest.raises(IntegrityError, match="numbering"):
        dif.read_scenarios(p)
    p.write_text("day,id," + ",".join(f"h{h}" for h in range(24)) + "\n")
    with pytest.raises(SchemaError):
        dif.read_scenarios(p)


def test_model_space_round_trip():
    x = np.linspace(-0.2, 1.2, 24)
    np.testing.assert_allclose(dif.from_model_space(dif.to_model_space(x)), x,
                               atol=1e-15)
    assert dif.to_model_space(0.5) == 0.0
    assert dif.from_model_space(0.0) == 0.5


def test_reverse_sample_is_mapped_raw_chain(tiny_model, tiny_schedule, pv_normalized):
    params, _ = tiny_model
    c = pv_normalized.samples[0].c
    raw = dif.reverse_chain(params, c, tiny_schedule, m=5, seed=21, l=24)
    out = dif.reverse_sample(params, c, tiny_schedule, m=5, seed=21)
    np.testing.assert_array_equal(out.scenarios, dif.from_model_space(raw))


def test_sampler_pins_learn_constant_hours(tiny_model, tiny_schedule, pv_normalized):
    """Night hours are constant on the learn split, so every generated
    scenario must carry them exactly, whatever the network produces."""
    params, _ = tiny_model
    sample = pv_normalized.samples[0]
    out = dif.reverse_sample(params, sample.c, tiny_schedule, m=12, seed=9,
                             scaler=pv_normalized.scaler)
    fixed = pv_normalized.scaler.target_fixed
    night = ~np.isnan(fixed)
    assert night.sum() == 13
    assert np.all(out.scenarios[:, night] == fixed[night])
    day = ~night
    assert np.ptp(out.scenarios[:, day]) > 0.0
