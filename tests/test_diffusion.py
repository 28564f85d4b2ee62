"""Schedules, forward/reverse processes, training loop, and checkpoints."""
import json
import math
import threading
import warnings
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
import scipy.stats

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff import nn, workers
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
from forking import run_pinned
from oracles import chain_forward, sequential_engine, split_days


def _zero_denoiser(x, steps, c):
    return np.zeros_like(x)


def _bound(f):
    """The reverse engine's step factory for a plain function f(x, i, c)."""
    return lambda c: lambda x, i: f(x, i, c)


def _linear(n, beta_start, beta_end):
    """A linear schedule without make_schedule's terminal check."""
    return dif.Schedule("linear", np.linspace(beta_start, beta_end, n))


def _run_as_network(monkeypatch, f):
    """Make sample_days sample with f(x, i, c) as its network; the params it
    is given are not read."""
    monkeypatch.setattr(nn, "sampling_forward",
                        lambda params, steps: _bound(lambda x, i, c: f(x, steps[i - 1], c)))


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


def test_sigma_modes():
    # one reverse variance is left, sigma_t^2 = beta_t, whichever way the schedule is built
    s = dif.make_schedule("linear", n=40, beta_end=0.3)
    np.testing.assert_allclose(s.sigma, np.sqrt(s.beta), rtol=1e-15)
    c = dif.make_schedule("cosine", n=60)
    np.testing.assert_allclose(c.sigma, np.sqrt(c.beta), rtol=1e-15)
    back = dif.Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
    np.testing.assert_allclose(back.sigma, np.sqrt(back.beta), rtol=1e-15)
    with pytest.raises(TypeError):
        dif.make_schedule("linear", n=40, beta_end=0.3, sigma_mode="posterior")


def test_too_short_schedule_is_rejected_with_escape_hatch():
    # a gentle 200-step ramp to 0.02 leaves ~13% of the signal at the end,
    # far from the near-standard-normal terminal the sampler assumes
    with pytest.raises(ScheduleTooShortError):
        dif.make_schedule("linear", n=200, beta_end=0.02)
    # one linear step is beta = 1e-4 alone, refused without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ScheduleTooShortError):
            dif.make_schedule("linear", n=1)
    # only make_schedule checks the terminal alpha_bar: a Schedule built from
    # its betas, or read back from a checkpoint header, is not refused
    s = _linear(200, 1e-4, 0.02)
    assert 0.12 < s.alpha_bar[-1] < 0.14
    back = dif.Schedule.from_dict(s.to_dict())
    np.testing.assert_array_equal(back.alpha_bar, s.alpha_bar)


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
        dif.make_schedule("linear", beta_end=1.0)
    with pytest.raises(ParameterError):
        dif.make_schedule("linear", beta_end=dif.BETA_START / 2)
    with pytest.raises(TypeError):  # every linear schedule starts at BETA_START
        dif.make_schedule("linear", beta_start=0.5, beta_end=0.1)
    with pytest.raises(ParameterError):
        dif.make_schedule("quadratic")
    for betas, message in (([0.1, 1.5], "betas"), ([], "n >= 1"), ([[0.1, 0.2]], "n >= 1"),
                           ([0.1, 1e-17], "strictly decreasing")):
        with pytest.raises(ParameterError, match=message):
            dif.Schedule("linear", np.array(betas))


def test_schedule_dict_round_trip():
    s = dif.make_schedule("cosine", n=25)
    assert set(s.to_dict()) == {"kind", "beta"}  # n, alpha_bar and sigma follow from beta
    back = dif.Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
    assert back.kind == s.kind and back.n == s.n
    np.testing.assert_allclose(back.beta, s.beta, rtol=1e-15)
    np.testing.assert_allclose(back.sigma, s.sigma, rtol=1e-12)


@pytest.mark.parametrize("sched", [dif.make_schedule(), dif.make_schedule("cosine", n=30),
                                   _linear(40, 0.01, 0.25)],
                         ids=["linear200", "cosine30", "linear40"])
def test_respace_at_or_above_n_is_the_schedule_bit_for_bit(sched):
    for k in (sched.n, sched.n + 5):
        chain, steps = sched.respace(k)
        assert chain.kind == sched.kind and chain.n == sched.n
        np.testing.assert_array_equal(steps, np.arange(1, sched.n + 1))
        for name in ("beta", "alpha_bar", "sigma"):
            assert getattr(chain, name).tobytes() == getattr(sched, name).tobytes()


@pytest.mark.parametrize("n", [40, 200])
def test_respace_visits_a_quadratic_sub_sequence(n):
    """tau_j = j + round((n - K)((j - 1)/(K - 1))^2) strictly increases from 1
    to n (K = 1: [n], pure noise), and the chain's step j has beta'_j = 1 -
    abar_{tau_j}/abar_{tau_{j-1}}, so its alpha_bar is the schedule's at tau."""
    sched = _linear(n, 1e-4, 0.05) if n == 200 else _linear(n, 0.01, 0.25)
    for k in (1, 2, 3, 7, n - 1):
        chain, steps = sched.respace(k)
        want = [n] if k == 1 else [j + round((n - k) * ((j - 1) / (k - 1)) ** 2)
                                   for j in range(1, k + 1)]
        assert steps.tolist() == want and chain.n == k
        assert np.all(np.diff(steps) > 0) and steps[-1] == n and (k == 1 or steps[0] == 1)
        abar = np.concatenate(([1.0], sched.alpha_bar[steps - 1]))
        np.testing.assert_allclose(chain.beta, 1 - abar[1:] / abar[:-1], rtol=1e-12)
        np.testing.assert_allclose(chain.alpha_bar, sched.alpha_bar[steps - 1], rtol=1e-12)
        np.testing.assert_array_equal(chain.sigma, np.sqrt(chain.beta))
        # where the stride is 1 the chain keeps the schedule's own beta
        unit = np.diff(steps, prepend=0) == 1
        np.testing.assert_array_equal(chain.beta[unit], sched.beta[steps[unit] - 1])
    # the default chain: 50 of 200 steps, dense where the signal is
    _, steps = dif.make_schedule().respace(dif.SAMPLE_STEPS)
    assert steps[:4].tolist() == [1, 2, 3, 5] and steps[-3:].tolist() == [186, 193, 200]
    with pytest.raises(ParameterError, match="n >= 1 betas"):  # a chain of no steps
        sched.respace(0)


# ----------------------------------------------------------- forward process


def test_forward_sample_formula_and_range():
    s = _linear(10, 1e-4, 0.5)
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
    # per-row steps: row b is noised at its own step, with the same bits
    steps = np.array([1, 5, 10])
    rows = np.arange(6.0).reshape(3, 2)
    noise = np.arange(6.0, 12.0).reshape(3, 2)
    got = dif.forward_sample(rows, steps, noise, s)
    for b, i in enumerate(steps):
        np.testing.assert_array_equal(got[b], dif.forward_sample(rows[b], int(i), noise[b], s))
    # an injected step outside 1..n is refused, not wrapped or left to IndexError
    for bad in (np.array([1, 0, 10]), np.array([1, 11, 10])):
        with pytest.raises(ParameterError):
            dif.forward_sample(rows, bad, noise, s)
        with pytest.raises(ParameterError):
            dif.training_loss(nn.DenoiserParams((), 2, 2, 1), rows, np.zeros((3, 1)), s,
                              steps=bad, noise=noise)


def test_chain_forward_marginals_match_closed_form():
    """Step-by-step noising agrees with the one-shot marginal in law.

    Uses a long vector of identical components as a bank of independent
    chains and compares moments at early/middle/terminal steps.
    """
    s = dif.make_schedule("cosine", n=30)
    n_draws = 6000
    x0 = np.full(n_draws, 0.7)
    chain = chain_forward(x0, s, np.random.default_rng(0))
    assert chain.shape == (30, n_draws)
    for i in (1, 15, 30):
        vals = chain[i - 1]
        abar = s.alpha_bar[i - 1]
        mean_se = math.sqrt((1 - abar) / n_draws)
        assert abs(vals.mean() - math.sqrt(abar) * 0.7) < 4 * mean_se
        assert abs(vals.var() - (1 - abar)) < 5 * (1 - abar) * math.sqrt(2 / n_draws)


@pytest.mark.parametrize("sigma", ["beta"])  # sigma^2 = beta, the one reverse variance
def test_schedule_from_dict_rejects_bad_betas_without_warnings(sigma):
    """Betas outside (0, 1) are rejected before sigma takes their square roots."""
    d = _linear(10, 1e-4, 0.05).to_dict()
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
    s = _linear(12, 1e-4, 0.4)
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
        lp, _ = dif.training_loss(replace(p, vector=vp), x0, c, s,
                                  steps=steps, noise=noise, want_grads=False)
        lm, _ = dif.training_loss(replace(p, vector=vm), x0, c, s,
                                  steps=steps, noise=noise, want_grads=False)
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gvec[j]) <= 1e-4 * max(abs(fd), abs(gvec[j]), 1e-8)


def test_training_loss_zero_params_and_rng_contract(pv_fitted, tiny_schedule, monkeypatch):
    """A zero network predicts eps_hat = 0. train draws each batch's steps and
    then its noise from SeedSequence(seed).spawn(4)[2], batch after batch."""
    s = dif.make_schedule("cosine", n=10)
    zero = nn.DenoiserParams(hidden=(4,), sample_dim=2, embed_dim=2, cond_dim=0)
    loss, grads = dif.training_loss(zero, np.zeros((3, 2)), np.zeros((3, 0)), s,
                                    np.array([1, 2, 3]), np.ones((3, 2)), want_grads=False)
    assert grads is None
    assert loss == pytest.approx(1.0)  # eps_hat = 0 vs eps = 1

    drawn = []
    real = dif.training_loss

    def recording(params, x0, c, sched, steps, noise, *, want_grads=True):
        if want_grads:  # a learn batch, not the validation pass
            drawn.append((steps, noise))
        return real(params, x0, c, sched, steps, noise, want_grads=want_grads)

    monkeypatch.setattr(dif, "training_loss", recording)
    cfg = dif.TrainConfig(epochs=2, batch_size=16, hidden=(8,), embed_dim=4, seed=7)
    dif.train(pv_fitted, cfg, tiny_schedule)
    n_learn = pv_fitted.arrays(split="learn", zone=1)[0].shape[0]
    sizes = [min(16, n_learn - lo) for lo in range(0, n_learn, 16)] * 2
    rng = np.random.default_rng(np.random.SeedSequence(7).spawn(4)[2])
    assert [steps.size for steps, _ in drawn] == sizes
    for steps, noise in drawn:
        np.testing.assert_array_equal(steps, rng.integers(1, tiny_schedule.n + 1, size=steps.size))
        np.testing.assert_array_equal(noise, rng.standard_normal((steps.size, dmod.HOURS)))


def test_training_loss_uniform_step_coverage():
    s = dif.make_schedule("cosine", n=6)
    seen = set()
    rng = np.random.default_rng(9)
    for _ in range(60):
        steps = rng.integers(1, s.n + 1, size=8)
        seen.update(int(v) for v in steps)
    assert seen == set(range(1, 7))


# -------------------------------------------------------------------- train


def test_train_is_deterministic_and_logs_losses(pv_fitted, tiny_schedule, tiny_model):
    params, log = tiny_model
    assert len(log) == 8
    assert [e["epoch"] for e in log] == list(range(1, 9))
    assert all(math.isfinite(e["learn_loss"]) and math.isfinite(e["val_loss"]) for e in log)
    # learning actually reduces the noise-MSE from its ~1.0 starting level
    assert log[-1]["learn_loss"] < log[0]["learn_loss"]

    cfg = dif.TrainConfig(epochs=2, batch_size=16, hidden=(16,), embed_dim=4, seed=3)
    a, la = dif.train(pv_fitted, cfg, tiny_schedule)
    b, lb = dif.train(pv_fitted, cfg, tiny_schedule)
    np.testing.assert_array_equal(a.vector, b.vector)
    assert la == lb


def test_train_returns_its_best_validation_epoch(pv_fitted, tiny_schedule):
    """The parameters of the epoch with the lowest validation loss, not the
    last epoch's: a shorter run that stops at that epoch returns the same bits."""
    cfg = dif.TrainConfig(epochs=3, batch_size=16, lr=1e-2, hidden=(8,), embed_dim=4, seed=2)
    params, log = dif.train(pv_fitted, cfg, tiny_schedule)
    best = min(log, key=lambda e: e["val_loss"])["epoch"]
    assert best < cfg.epochs
    short, _ = dif.train(pv_fitted, replace(cfg, epochs=best), tiny_schedule)
    np.testing.assert_array_equal(params.vector, short.vector)


def test_train_zero_epochs_returns_init(pv_fitted, tiny_schedule):
    cfg = dif.TrainConfig(epochs=0, hidden=(8,), embed_dim=4, seed=1)
    params, log = dif.train(pv_fitted, cfg, tiny_schedule)
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


def test_train_divergence_reports_epoch(pv_fitted, tiny_schedule):
    cfg = dif.TrainConfig(epochs=3, batch_size=16, lr=1e160, hidden=(8,), embed_dim=4, seed=0)
    with pytest.raises(TrainingDivergenceError, match="epoch"):
        dif.train(pv_fitted, cfg, tiny_schedule)


def test_train_validation_divergence_reports_epoch(pv_fitted, tiny_schedule):
    """A validation day whose covariate overflows the network fails the epoch."""
    samples = list(pv_fitted.samples)
    j = next(j for j, s in enumerate(samples) if pv_fitted.split[s.day_id] == "validation")
    samples[j] = replace(samples[j], c=np.full_like(samples[j].c, 1e300))
    ds = replace(pv_fitted, samples=samples)
    cfg = dif.TrainConfig(epochs=2, batch_size=16, hidden=(8,), embed_dim=4, seed=0)
    with pytest.raises(TrainingDivergenceError, match="^epoch 1: non-finite loss$"):
        dif.train(ds, cfg, tiny_schedule)


# ----------------------------------------------------------- reverse sampler


def test_reverse_engine_draw_order_contract():
    """Stream layout is pinned: initial noise first, then z for steps n..2,
    applied with sigma_i after the step-i update, and no noise at step 1."""
    s = _linear(3, 0.2, 0.6)
    seqs = np.random.SeedSequence(123).spawn(2)
    out = dif._reverse_engine(_bound(_zero_denoiser), np.zeros((2, 0)), s, seqs, l=4)

    children = np.random.SeedSequence(123).spawn(2)
    for j in range(2):
        rng = np.random.default_rng(children[j])
        x = rng.standard_normal(4)
        z = rng.standard_normal((2, 4))
        x = x / math.sqrt(1 - s.beta[2]) + s.sigma[2] * z[0]  # step 3
        x = x / math.sqrt(1 - s.beta[1]) + s.sigma[1] * z[1]  # step 2
        x = x / math.sqrt(1 - s.beta[0])                      # step 1: no noise
        np.testing.assert_allclose(out[j], x, rtol=1e-12)


def test_reverse_engine_is_deterministic_and_order_independent():
    s = dif.make_schedule("cosine", n=8)
    p = nn.init_params((6,), sample_dim=2, embed_dim=4, cond_dim=1, seed=0)
    c = np.array([0.3])

    def draw(m, seed):
        c_rows = np.repeat(c[None], m, axis=0)
        return dif._reverse_engine(nn.sampling_forward(p, np.arange(1, s.n + 1)), c_rows, s,
                                   np.random.SeedSequence(seed).spawn(m), l=2)

    a = draw(5, 7)
    np.testing.assert_array_equal(draw(5, 7), a)
    # drawing more samples must not change the earlier streams
    np.testing.assert_array_equal(draw(9, 7)[:5], a)
    assert not np.array_equal(draw(5, 8), a)


def test_reverse_engine_chunking_is_invisible():
    s = dif.make_schedule("cosine", n=6)
    c_rows = np.linspace(0, 1, 10)[:, None]
    seqs = np.random.SeedSequence(5).spawn(10)
    big = dif._reverse_engine(_bound(_zero_denoiser), c_rows, s, seqs, l=3, chunk=1000)
    small = dif._reverse_engine(_bound(_zero_denoiser), c_rows, s, seqs, l=3, chunk=3)
    np.testing.assert_array_equal(big, small)

    # With a real network a row's bits must not depend on how many rows share
    # its matrix products: the scenario file's bytes, and their agreement with
    # earlier releases that used other chunk sizes, rely on it. A product of
    # a few rows (chunk 3 here) goes through OpenBLAS's small-matrix kernel,
    # which rounds differently, so that case is held to a bound only: 1e-12
    # on the float64 forward_batch, and on the float32 sampling path the
    # float32 rounding of a few layers, 1e-5 of max(1, max |x|).
    p = nn.init_params((128, 128), sample_dim=24, embed_dim=8, cond_dim=24, seed=4)
    c_rows = np.random.default_rng(6).uniform(0, 1, (600, 24))
    seqs = np.random.SeedSequence(8).spawn(600)
    float32 = nn.sampling_forward(p, np.arange(1, s.n + 1))
    default = dif._reverse_engine(float32, c_rows, s, seqs, l=24)
    for chunk in (128, 300, 1000):
        np.testing.assert_array_equal(
            dif._reverse_engine(float32, c_rows, s, seqs, l=24, chunk=chunk), default)
    small = dif._reverse_engine(float32, c_rows, s, seqs, l=24, chunk=3)
    assert np.abs(small - default).max() <= 1e-5 * max(1.0, np.abs(default).max())

    float64 = _bound(lambda x, i, c: nn.forward_batch(p, x, i, c))
    np.testing.assert_allclose(dif._reverse_engine(float64, c_rows, s, seqs, l=24, chunk=3),
                               dif._reverse_engine(float64, c_rows, s, seqs, l=24),
                               rtol=1e-12, atol=1e-12)


def test_float32_sampler_stays_near_the_float64_forward(tiny_model, tiny_schedule, pv_fitted):
    """The sampler runs DenoiserParams in float32 (nn.sampling_forward);
    on the trained tiny model its chain ends within 1e-5 of max(1, max |x|) of
    the same chain driven by the float64 forward_batch: float32 keeps about
    7 digits, and the chain's 30 steps do not amplify the difference."""
    params, _ = tiny_model
    _, c, _ = pv_fitted.arrays(split="test", zone=1)
    c_rows = np.repeat(pv_fitted.scaler.transform_cov(c), 20, axis=0)
    seqs = np.random.SeedSequence(12).spawn(c_rows.shape[0])
    got = dif._reverse_engine(nn.sampling_forward(params, np.arange(1, tiny_schedule.n + 1)),
                              c_rows, tiny_schedule, seqs, l=24)
    ref = dif._reverse_engine(_bound(lambda x, i, c: nn.forward_batch(params, x, i, c)), c_rows,
                              tiny_schedule, seqs, l=24)
    assert not np.array_equal(got, ref)
    assert np.abs(got - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())


def _set_cpus(monkeypatch, cpus):
    """Make workers.fork_map see `cpus` usable CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _counting_forks(monkeypatch):
    """Record every fork the engine makes."""
    forks = []
    fork = workers.os.fork
    monkeypatch.setattr(workers.os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 2, 6, 27])
def test_reverse_engine_matches_sequential_reference(monkeypatch, cpus, n):
    """Same bytes as the sequential engine whatever the CPU count (8 can
    mean more workers than cores), for chains of 1 step (no z vectors) to
    27 steps (a 26-vector z block per row), and no more workers than
    chunks: no fork for one chunk or one CPU. This process forks only on one
    OS thread (BLAS pinned); test_reverse_engine_forks_with_the_same_bytes
    runs the fork path in a fresh process."""
    _set_cpus(monkeypatch, cpus)
    forks = _counting_forks(monkeypatch)
    s = dif.make_schedule("cosine", n=n)
    p = nn.init_params((128, 128), sample_dim=24, embed_dim=8, cond_dim=24, seed=4)
    forward = nn.sampling_forward(p, np.arange(1, n + 1))
    for rows in (1, 255, 256, 257, 600):
        c_rows = np.random.default_rng(rows).uniform(0, 1, (rows, 24))
        seqs = np.random.SeedSequence(rows).spawn(rows)
        forks.clear()
        got = dif._reverse_engine(forward, c_rows, s, seqs, l=24)
        np.testing.assert_array_equal(got, sequential_engine(forward, c_rows, s, seqs, l=24))
        shares = min(cpus, -(-rows // 256)) if workers.can_fork() else 1
        assert len(forks) == shares - 1


def test_reverse_engine_forks_with_the_same_bytes():
    """In a process that forks: the sequential engine's bytes and one worker
    per share after the first, for every chain length, row count and CPU
    count of test_reverse_engine_matches_sequential_reference."""
    run_pinned("""
        from oracles import sequential_engine
        from scendiff import diffusion as dif, nn

        p = nn.init_params((128, 128), sample_dim=24, embed_dim=8, cond_dim=24, seed=4)
        for cpus in (2, 8):
            use_cpus(cpus)
            for n in (1, 2, 6, 27):
                s = dif.make_schedule("cosine", n=n)
                forward = nn.sampling_forward(p, np.arange(1, n + 1))
                for rows in (1, 255, 256, 257, 600):
                    c_rows = np.random.default_rng(rows).uniform(0, 1, (rows, 24))
                    seqs = np.random.SeedSequence(rows).spawn(rows)
                    FORKS.clear()
                    got = dif._reverse_engine(forward, c_rows, s, seqs, l=24)
                    assert np.array_equal(got, sequential_engine(forward, c_rows, s, seqs, l=24))
                    assert len(FORKS) == min(cpus, -(-rows // 256)) - 1
        assert reaped()
    """)


def test_reverse_engine_runs_inline_in_a_process_with_another_thread(monkeypatch):
    """A process with a second OS thread may not fork: the chunks run one
    after another in it, with the sequential engine's bytes."""
    _set_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    s = dif.make_schedule("cosine", n=6)
    p = nn.init_params((16,), sample_dim=24, embed_dim=8, cond_dim=2, seed=1)
    c_rows = np.random.default_rng(0).uniform(0, 1, (600, 2))
    seqs = np.random.SeedSequence(3).spawn(600)
    forward = nn.sampling_forward(p, np.arange(1, s.n + 1))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = dif._reverse_engine(forward, c_rows, s, seqs, l=24)
    finally:
        stop.set()
        thread.join()
    assert forks == []
    np.testing.assert_array_equal(got, sequential_engine(forward, c_rows, s, seqs, l=24))


def _overflowing(x, i, c):
    return np.full_like(x, 1e300) * 1e300


@pytest.mark.parametrize("rows", [200, 600])
def test_reverse_engine_keeps_the_callers_numpy_error_state(monkeypatch, rows):
    """Chunks sample under the caller's np.errstate: an overflow raises under
    "raise" and passes silently to the finiteness check under "ignore", for
    one chunk and for several; forked workers inherit it (checked in a fresh
    process at 600 rows)."""
    _set_cpus(monkeypatch, 2)
    s = dif.make_schedule("cosine", n=5)
    c_rows = np.zeros((rows, 0))
    seqs = np.random.SeedSequence(1).spawn(rows)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        dif._reverse_engine(_bound(_overflowing), c_rows, s, seqs, l=3)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(SamplingDivergenceError, match="^non-finite sample at step 5$"):
            dif._reverse_engine(_bound(_overflowing), c_rows, s, seqs, l=3)
    if rows == 600:
        assert run_pinned("""
            import warnings
            from scendiff import diffusion as dif
            from scendiff.errors import SamplingDivergenceError

            use_cpus(2)
            s = dif.make_schedule("cosine", n=5)
            seqs = np.random.SeedSequence(1).spawn(600)
            step = lambda c: lambda x, i: np.full_like(x, 1e300) * 1e300
            for state, error in (("raise", FloatingPointError), ("ignore", SamplingDivergenceError)):
                with warnings.catch_warnings(), np.errstate(all=state):
                    warnings.simplefilter("error")
                    try:
                        dif._reverse_engine(step, np.zeros((600, 0)), s, seqs, l=3)
                    except error as e:
                        print(e)
            assert len(FORKS) == 2 and reaped()
        """).splitlines() == ["overflow encountered in multiply", "non-finite sample at step 5"]


def test_reverse_engine_raises_the_first_failing_chunks_error(tmp_path):
    """Forked, chunk 7 (in the worker's share) diverges first in time and chunk 1
    (in the caller's) later, at another step: the error is chunk 1's, as in a
    sequential run, and neither share starts a chunk after its failing one.
    With chunk 1 sound, chunk 7's error crosses from the worker."""
    out = run_pinned(f"""
        import time
        from scendiff import diffusion as dif
        from scendiff.errors import SamplingDivergenceError

        log = {str(tmp_path / "started")!r}
        use_cpus(2)  # chunks 0-4 in the caller, 5-9 in the worker
        s = dif.make_schedule("cosine", n=10)
        chunk, n_chunks = 4, 10
        c_rows = np.repeat(np.arange(n_chunks, dtype=float), chunk)[:, None]
        seqs = np.random.SeedSequence(0).spawn(chunk * n_chunks)

        def sample(failing):
            open(log, "w").close()

            def bind(c):
                k = int(c[0, 0])
                with open(log, "a") as f:
                    f.write(f"{{k}}\\n")

                def step(x, i):
                    if k == 1 and i == 3 and k in failing:
                        time.sleep(0.3)
                        return np.full_like(x, np.inf)
                    if k == 7 and i == 9 and k in failing:
                        return np.full_like(x, np.inf)
                    return np.zeros_like(x)
                return step

            try:
                dif._reverse_engine(bind, c_rows, s, seqs, l=2, chunk=chunk)
            except SamplingDivergenceError as e:
                print(e, sorted(int(k) for k in open(log)))
            assert reaped()

        with np.errstate(invalid="ignore"):
            sample({{1, 7}})
            sample({{7}})
    """)
    assert out.splitlines() == ["non-finite sample at step 3 [0, 1, 5, 6, 7]",
                                "non-finite sample at step 9 [0, 1, 2, 3, 4, 5, 6, 7]"]


def test_reverse_sampler_matches_analytic_gaussian_law():
    """With the exact posterior-mean denoiser for x0 ~ N(mu0, 1), ancestral
    sampling has a closed-form Gaussian terminal law; a KS test checks the
    sampler reproduces it (draw order, coefficients, final noiseless step).
    The chain visits all n = 40 steps, then K = 7 of them (Schedule.respace),
    with the denoiser at each chain step's step tau_i, as sample_days runs
    it; the law is the same recursion over the chain's betas."""
    s = _linear(40, 0.01, 0.25)
    mu0 = 0.8

    def oracle(x, steps, c):
        i = int(np.asarray(steps).ravel()[0])
        abar = s.alpha_bar[i - 1]
        return math.sqrt(1 - abar) * (x - math.sqrt(abar) * mu0)

    for k in (s.n, 7):
        chain, tau = s.respace(k)
        m_star, v_star = 0.0, 1.0
        for i in range(chain.n, 0, -1):
            abar_prev = 1.0 if i == 1 else chain.alpha_bar[i - 2]
            alpha = 1 - chain.beta[i - 1]
            m_star = math.sqrt(alpha) * m_star + chain.beta[i - 1] * math.sqrt(abar_prev) * mu0
            v_star = alpha * v_star + (chain.sigma[i - 1] ** 2 if i > 1 else 0.0)

        seqs = np.random.SeedSequence(17).spawn(8000)
        draws = dif._reverse_engine(_bound(lambda x, i, c: oracle(x, tau[i - 1], c)),
                                    np.zeros((8000, 0)), chain, seqs, l=1).ravel()
        assert abs(draws.mean() - m_star) < 4 * math.sqrt(v_star / draws.size)
        stat, p = scipy.stats.kstest(draws, "norm", args=(m_star, math.sqrt(v_star)))
        assert p > 0.01, k
        # the terminal mean is within the schedule's leftover-signal bias of mu0
        assert abs(m_star - mu0) < 2 * s.alpha_bar[-1] ** 0.5 * abs(mu0) + 1e-6


def test_sample_days_applies_scaler_and_clipping(tiny_model, tiny_schedule, pv_fitted):
    params, _ = tiny_model
    scaler = pv_fitted.scaler
    sample = pv_fitted.subset(split="test", zone=1)[0]
    out, = dif.sample_days(params, sample.c, [sample.day_id], tiny_schedule, m=16, seed=3,
                           scaler=scaler)
    assert out.m == 16 and np.isfinite(out.scenarios).all()
    assert out.day_id == sample.day_id
    assert out.scenarios.shape == (16, 24)
    assert out.scenarios.min() >= 0.0 and out.scenarios.max() <= 1.0
    # the same streams straight from the engine stray below -1, that is
    # below zero, unclipped
    seqs = np.random.SeedSequence(3).spawn(1)[0].spawn(16)
    raw = dif._reverse_engine(nn.sampling_forward(params, np.arange(1, tiny_schedule.n + 1)),
                              np.repeat(scaler.transform_cov(sample.c)[None], 16, axis=0),
                              tiny_schedule, seqs, l=24)
    assert raw.min() < -1.0


def test_sample_days_matches_standalone_calls(tiny_model, tiny_schedule, pv_fitted):
    """Day j of a D-day call is the engine's output, on the day's scaled
    covariates and the grandchild streams SeedSequence(seed).spawn(D)[j]
    .spawn(m), mapped to physical units by the scaler; the set keeps the
    raw covariates, and a day's set does not depend on the days after it."""
    params, _ = tiny_model
    scaler = pv_fitted.scaler
    x, c, days = pv_fitted.arrays(split="test", zone=1)
    sets = dif.sample_days(params, c[:3], days[:3], tiny_schedule, m=4, seed=11,
                           scaler=scaler)
    assert [s.day_id for s in sets] == list(days[:3])
    for j, s in enumerate(sets):
        seqs = np.random.SeedSequence(11).spawn(3)[j].spawn(4)
        raw = dif._reverse_engine(nn.sampling_forward(params, np.arange(1, tiny_schedule.n + 1)),
                                  np.repeat(scaler.transform_cov(c[j : j + 1]), 4, axis=0),
                                  tiny_schedule, seqs, l=24)
        np.testing.assert_array_equal(s.scenarios, scaler.to_physical(raw))
        np.testing.assert_array_equal(s.condition, c[j])
    first_two = dif.sample_days(params, c[:2], days[:2], tiny_schedule, m=4, seed=11,
                                scaler=scaler)
    for a, b in zip(first_two, sets):
        assert a.day_id == b.day_id
        np.testing.assert_array_equal(a.scenarios, b.scenarios)
    with pytest.raises(DimensionError):
        dif.sample_days(params, c[:3], days[:2], tiny_schedule, m=2, seed=0, scaler=scaler)
    with pytest.raises(ParameterError):
        dif.sample_days(params, c[:1], days[:1], tiny_schedule, m=0, seed=7, scaler=scaler)


def test_sample_days_scales_the_covariates_once(monkeypatch, tiny_schedule, pv_fitted):
    """The engine sees each day's raw covariate row through
    scaler.transform_cov exactly once, repeated m times."""
    scaler = pv_fitted.scaler
    _, c, days = pv_fitted.arrays(split="test", zone=1)
    seen = []

    def recording(x, steps, cond):
        seen.append(cond.copy())
        return np.zeros_like(x)

    _run_as_network(monkeypatch, recording)
    dif.sample_days(None, c[:3], days[:3], tiny_schedule, m=5, seed=2, scaler=scaler)
    want = np.repeat(scaler.transform_cov(c[:3]), 5, axis=0)
    assert len(seen) == tiny_schedule.n
    for cond in seen:
        np.testing.assert_array_equal(cond, want)


def test_sample_days_runs_the_network_at_the_chain_steps(monkeypatch, tiny_model, tiny_schedule,
                                                         pv_fitted):
    """sample_days(steps=k) runs the engine over Schedule.respace(k)'s chain,
    whose step i calls the network at tau_i, from tau_K = n down to tau_1; at
    steps >= n it is the n-step chain bit for bit."""
    params, _ = tiny_model
    scaler = pv_fitted.scaler
    _, c, days = pv_fitted.arrays(split="test", zone=1)
    n = tiny_schedule.n
    chain, tau = tiny_schedule.respace(7)
    got = dif.sample_days(params, c[:2], days[:2], tiny_schedule, m=3, seed=4, scaler=scaler,
                          steps=7)
    raw = dif._reverse_engine(nn.sampling_forward(params, tau),
                              np.repeat(scaler.transform_cov(c[:2]), 3, axis=0), chain,
                              [q for d in np.random.SeedSequence(4).spawn(2) for q in d.spawn(3)],
                              l=24)
    np.testing.assert_array_equal(np.concatenate([s.scenarios for s in got]),
                                  scaler.to_physical(raw))
    full = dif.sample_days(params, c[:2], days[:2], tiny_schedule, m=3, seed=4, scaler=scaler,
                           steps=n)
    for k in (n + 1, dif.SAMPLE_STEPS):
        more = dif.sample_days(params, c[:2], days[:2], tiny_schedule, m=3, seed=4, scaler=scaler,
                               steps=k)
        for a, b in zip(more, full):
            assert a.scenarios.tobytes() == b.scenarios.tobytes()

    seen = []

    def recording(x, steps, cond):
        seen.append(int(steps))
        return np.zeros_like(x)

    _run_as_network(monkeypatch, recording)
    for k, want in ((7, tau[::-1].tolist()), (1, [n]), (n + 3, list(range(n, 0, -1)))):
        seen.clear()
        dif.sample_days(None, c[:1], days[:1], tiny_schedule, m=2, seed=0, scaler=scaler, steps=k)
        assert seen == want


def test_sampling_divergence_is_reported_with_step(monkeypatch, tiny_schedule, pv_fitted):
    """The error names the step; on sample_days' respaced chain, the schedule
    step tau_i at which the network ran, not the chain's own step number i."""
    s = _linear(4, 0.2, 0.5)

    def exploding(x, steps, c):
        return np.full_like(x, np.inf)

    with pytest.raises(SamplingDivergenceError, match="^non-finite sample at step 4$"):
        dif._reverse_engine(_bound(exploding), np.zeros((2, 0)), s,
                            np.random.SeedSequence(0).spawn(2), l=2)

    _, c, days = pv_fitted.arrays(split="test", zone=1)
    _, tau = tiny_schedule.respace(7)
    assert tau[3] != 4
    _run_as_network(monkeypatch,
                    lambda x, steps, cond: np.full_like(x, np.inf if steps == tau[3] else 0.0))
    with np.errstate(invalid="ignore"), pytest.raises(
            SamplingDivergenceError, match=f"^non-finite sample at step {tau[3]}$"):
        dif.sample_days(None, c[:1], days[:1], tiny_schedule, m=2, seed=0,
                        scaler=pv_fitted.scaler, steps=7)


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_is_exact(tmp_path, tiny_model, tiny_schedule, pv_fitted):
    params, _ = tiny_model
    p = tmp_path / "model.ckpt"
    test_days = split_days(pv_fitted, "test")
    dif.save_checkpoint(p, params, tiny_schedule, pv_fitted.scaler, "pv", 1,
                        test_days[::-1])
    loaded, sched, scaler, header = dif.load_checkpoint(p)
    np.testing.assert_array_equal(loaded.vector, params.vector)
    np.testing.assert_allclose(sched.beta, tiny_schedule.beta, rtol=1e-15)
    assert scaler.track == "pv" and scaler.learn_max == pv_fitted.scaler.learn_max
    assert header["track"] == "pv" and header["zone"] == 1
    # the test days are stored sorted as YYYY-MM-DD strings and load as dates
    assert json.loads(p.read_bytes().split(b"\n", 1)[0])["test_days"] == [
        d.isoformat() for d in test_days]
    assert header["test_days"] == test_days and len(test_days) > 1

    day = pv_fitted.samples[0]
    out, = dif.sample_days(loaded, day.c, [day.day_id], sched, m=3, seed=1, scaler=scaler)
    want, = dif.sample_days(params, day.c, [day.day_id], tiny_schedule, m=3, seed=1,
                            scaler=pv_fitted.scaler)
    np.testing.assert_array_equal(out.scenarios, want.scenarios)

    # files written before the scaler lost its always-zero target_offset
    # carry the key; it is ignored and the scenarios are the same
    raw = p.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    assert "target_offset" not in header["scaler"]
    header["scaler"]["target_offset"] = 0.0
    with_offset = tmp_path / "offset.ckpt"
    with_offset.write_bytes(json.dumps(header).encode() + raw[nl:])
    loaded, sched, scaler, _ = dif.load_checkpoint(with_offset)
    again, = dif.sample_days(loaded, day.c, [day.day_id], sched, m=3, seed=1, scaler=scaler)
    np.testing.assert_array_equal(again.scenarios, want.scenarios)


def test_checkpoint_rejects_corruption(tmp_path, tiny_model, tiny_schedule, pv_fitted):
    params, _ = tiny_model
    p = tmp_path / "model.ckpt"
    dif.save_checkpoint(p, params, tiny_schedule, pv_fitted.scaler, "pv", 1,
                        [date(2012, 1, 2), date(2012, 1, 5)])
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
    # a version 3 file may name relu or the posterior variance; the message
    # names both versions
    header.update(version=3, activation="relu")
    (tmp_path / "v.ckpt").write_bytes(json.dumps(header).encode() + raw[nl:])
    with pytest.raises(ModelValidationError, match="version 3, expected 4"):
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

    for key in ("n_params", "hidden", "schedule", "sha256"):
        broken = json.loads(raw[:nl])
        del broken[key]
        with pytest.raises(ModelValidationError, match=key):
            dif.load_checkpoint(with_header(broken))
    for key, bad in (("n_params", "abc"), ("hidden", [16, "x"]), ("hidden", [-4]),
                     ("schedule", {"kind": "linear"})):
        broken = json.loads(raw[:nl])
        broken[key] = bad
        with pytest.raises(ModelValidationError):
            dif.load_checkpoint(with_header(broken))
    with pytest.raises(ModelValidationError, match="not a model checkpoint"):
        dif.load_checkpoint(with_header([json.loads(raw[:nl])]))

    # test days: a list of distinct YYYY-MM-DD strings in order; Python 3.11's
    # date.fromisoformat alone would take the basic and week-date forms
    for bad, message in (("2012-01-02", "test_days"), ({"2012-01-02": 1}, "test_days"),
                         ([20120102], "TypeError"), ([None], "TypeError"),
                         (["2012-13-01"], "month"), (["20120102"], "YYYY-MM-DD"),
                         (["2012-W01-1"], "YYYY-MM-DD"), ([" 2012-01-02"], "YYYY-MM-DD"),
                         (["2012-1-2"], "YYYY-MM-DD"), (["2012-01-05", "2012-01-02"], "sorted"),
                         (["2012-01-02", "2012-01-02"], "distinct")):
        broken = json.loads(raw[:nl])
        broken["test_days"] = bad
        with pytest.raises(ModelValidationError, match=message):
            dif.load_checkpoint(with_header(broken))

    # a scaler must carry one covariate offset and scale per cond_dim / 24 channel
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


def test_reverse_sample_is_mapped_raw_chain(monkeypatch, tiny_schedule, pv_fitted):
    """sample_days maps the engine's model-space draws back to physical
    units: on every hour the clip and the pins leave alone, the scenario is
    0.5 (raw + 1) / target_scale. The denoiser is the exact posterior mean
    for x0 ~ N(0, 0.3^2) in model space, so the draws sit near its center
    and most hours fall inside the clip."""
    scaler = pv_fitted.scaler
    sample = pv_fitted.samples[0]
    abar_all = tiny_schedule.alpha_bar

    def oracle(x, steps, c):
        abar = abar_all[int(np.asarray(steps).ravel()[0]) - 1]
        return math.sqrt(1 - abar) * x / (abar * 0.09 + 1 - abar)

    seqs = np.random.SeedSequence(21).spawn(1)[0].spawn(5)
    raw = dif._reverse_engine(_bound(oracle), np.repeat(sample.c[None], 5, axis=0),
                              tiny_schedule, seqs, l=24)
    _run_as_network(monkeypatch, oracle)
    out, = dif.sample_days(None, sample.c, [sample.day_id], tiny_schedule, m=5,
                           seed=21, scaler=scaler)
    mapped = 0.5 * (raw + 1.0) / scaler.target_scale
    free = (mapped >= 0.0) & (mapped <= 1.0) & np.isnan(scaler.target_fixed)
    assert free.sum() > 25
    np.testing.assert_array_equal(out.scenarios[free], mapped[free])
    # the unmapped raw draws are not what comes out
    assert not np.array_equal(out.scenarios[free], raw[free])


def test_sampler_pins_learn_constant_hours(tiny_model, tiny_schedule, pv_fitted):
    """Night hours are constant on the learn split, so every generated
    scenario must carry them exactly, whatever the network produces."""
    params, _ = tiny_model
    sample = pv_fitted.samples[0]
    out, = dif.sample_days(params, sample.c, [sample.day_id], tiny_schedule, m=12, seed=9,
                           scaler=pv_fitted.scaler)
    fixed = pv_fitted.scaler.target_fixed
    night = ~np.isnan(fixed)
    assert night.sum() == 13
    assert np.all(out.scenarios[:, night] == fixed[night])
    day = ~night
    assert np.ptp(out.scenarios[:, day]) > 0.0
