"""MLP denoiser: shapes, embeddings, hand-derived gradients, optimizer."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scendiff import diffusion as dif
from scendiff import nn
from scendiff.errors import DimensionError, ParameterError, TrainingDivergenceError


def _scalar_loss_and_grads(params, x, i, c, g):
    """s(theta) = sum_b g[b] . f_theta(x[b]); backward gives ds/dtheta."""
    cache = []
    out = nn.forward_batch(params, x, i, c, cache)
    return float(np.sum(g * out)), nn.backward_batch(params, x, i, c, g, cache)


def _fd_check(params, x, i, c, g, n_probe, seed, h=1e-6):
    """Max relative error of analytic grads vs central finite differences."""
    _, grads = _scalar_loss_and_grads(params, x, i, c, g)
    vec = params.vector
    gvec = grads
    rng = np.random.default_rng(seed)
    idx = rng.choice(vec.size, size=min(n_probe, vec.size), replace=False)
    worst = 0.0
    for j in idx:
        vp = vec.copy()
        vp[j] += h
        sp, _ = _scalar_loss_and_grads(replace(params, vector=vp), x, i, c, g)
        vm = vec.copy()
        vm[j] -= h
        sm, _ = _scalar_loss_and_grads(replace(params, vector=vm), x, i, c, g)
        fd = (sp - sm) / (2 * h)
        denom = max(abs(fd), abs(gvec[j]), 1e-8)
        worst = max(worst, abs(fd - gvec[j]) / denom)
    return worst


# ----------------------------------------------------------------- structure


def test_init_params_shapes_and_glorot_bounds():
    p = nn.init_params((16, 8), sample_dim=6, embed_dim=4, cond_dim=3, seed=0)
    assert p.input_dim == 13
    assert [w.shape for w, _ in p.layers] == [(16, 13), (8, 16), (6, 8)]
    for w, b in p.layers:
        lim = math.sqrt(6.0 / sum(w.shape))
        assert np.all(np.abs(w) <= lim)
        assert np.all(b == 0.0)
    q = nn.init_params((16, 8), sample_dim=6, embed_dim=4, cond_dim=3, seed=0)
    np.testing.assert_array_equal(p.layers[0][0], q.layers[0][0])
    r = nn.init_params((16, 8), sample_dim=6, embed_dim=4, cond_dim=3, seed=1)
    assert not np.array_equal(p.layers[0][0], r.layers[0][0])


def test_init_params_no_hidden_layers_gives_single_linear_map():
    p = nn.init_params((), sample_dim=4, embed_dim=2, cond_dim=0, seed=0)
    assert len(p.layers) == 1
    assert p.layers[0][0].shape == (4, 6)


def test_params_validate_catches_non_finite_entries():
    p = nn.init_params((8,), sample_dim=4, embed_dim=2, cond_dim=1, seed=0)
    p.validate()
    bad = p.copy()
    bad.layers[0][0][0, 0] = np.inf
    with pytest.raises(TrainingDivergenceError):
        bad.validate()


# ---------------------------------------------------------------- embeddings


def test_timestep_embedding_zero_step_is_zeros_then_ones():
    np.testing.assert_array_equal(nn.timestep_embedding(0, 4), [0.0, 0.0, 1.0, 1.0])


def test_timestep_embedding_matches_componentwise_formula():
    e = 8
    i = 37
    emb = nn.timestep_embedding(i, e)
    for k in range(e // 2):
        freq = 1.0 / 10000.0 ** (2.0 * k / e)
        assert emb[k] == pytest.approx(math.sin(i * freq))
        assert emb[e // 2 + k] == pytest.approx(math.cos(i * freq))
    assert np.all(np.abs(emb) <= 1.0)


def test_timestep_embedding_array_input_and_distinct_steps():
    emb = nn.timestep_embedding(np.array([1, 2, 3]), 6)
    assert emb.shape == (3, 6)
    np.testing.assert_array_equal(emb[1], nn.timestep_embedding(2, 6))
    assert not np.allclose(emb[0], emb[2])
    with pytest.raises(ParameterError):
        nn.timestep_embedding(1, 5)
    with pytest.raises(ParameterError):
        nn.timestep_embedding(1, 0)


# ------------------------------------------------------------------- forward


def test_forward_batch_matches_single_sample_loop():
    p = nn.init_params((12,), sample_dim=5, embed_dim=4, cond_dim=2, seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 5))
    c = rng.standard_normal((7, 2))
    steps = np.array([1, 2, 3, 4, 5, 6, 7])
    out = nn.forward_batch(p, x, steps, c)
    assert out.shape == (7, 5)
    for b in range(7):
        one = nn.forward_batch(p, x[b : b + 1], int(steps[b]), c[b : b + 1])
        np.testing.assert_allclose(out[b], one[0], atol=1e-12)


def test_forward_scalar_step_broadcasts():
    p = nn.init_params((6,), sample_dim=3, embed_dim=2, cond_dim=0, seed=1)
    x = np.random.default_rng(1).standard_normal((4, 3))
    c = np.zeros((4, 0))
    out = nn.forward_batch(p, x, 5, c)
    for b in range(4):
        np.testing.assert_allclose(out[b], nn.forward_batch(p, x[b : b + 1], 5, c[b : b + 1])[0],
                                   atol=1e-12)


def _reference_forward(params, x, i, c):
    """The allocating forward pass: concatenated input, z * sigmoid(z) into
    new arrays, one embedding row per batch row."""
    steps = np.broadcast_to(np.asarray(i, dtype=float), (x.shape[0],))
    a = np.concatenate([x, nn.timestep_embedding(steps, params.embed_dim), c], axis=1)
    last = len(params.layers) - 1
    for idx, (w, b) in enumerate(params.layers):
        z = a @ w.T + b
        a = z if idx == last else z * (0.5 * (1.0 + np.tanh(0.5 * z)))
    return a


@pytest.mark.parametrize("activation", ["silu"])
def test_forward_batch_is_bit_identical_to_allocating_reference(activation):
    """The in-place forward reorders no arithmetic, so its bits are pinned."""
    p = nn.init_params((16, 16), sample_dim=24, embed_dim=8, cond_dim=24, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((37, 24)) * 3.0
    c = rng.uniform(0, 1, (37, 24))
    steps = rng.integers(1, 201, size=37)
    for i in (1, 117, 200, steps):
        out = nn.forward_batch(p, x, i, c)
        assert np.array_equal(out, _reference_forward(p, x, i, c))
    for i in (1, 117, 200):
        assert np.array_equal(nn.forward_batch(p, x, i, c),
                              nn.forward_batch(p, x, np.full(37, i), c))
    # the forward pass leaves its inputs untouched
    x_before, c_before = x.copy(), c.copy()
    nn.forward_batch(p, x, 5, c)
    assert np.array_equal(x, x_before) and np.array_equal(c, c_before)


def test_forward_rejects_wrong_dims():
    p = nn.init_params((6,), sample_dim=3, embed_dim=2, cond_dim=2, seed=1)
    with pytest.raises(DimensionError):
        nn.forward_batch(p, np.zeros((2, 4)), 1, np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        nn.forward_batch(p, np.zeros((2, 3)), 1, np.zeros((2, 3)))


@pytest.mark.parametrize("hidden", [(), (16,), (32, 32, 32)])
def test_sampling_forward_is_forward_batch_in_float32(hidden):
    """The split, float32 first layer and float32 hidden layers give
    forward_batch's output within float32 rounding (1e-5 relative to the
    largest output), as float64, for any chunk's rows; chain step i runs the
    network at steps[i - 1], and each bind keeps its own conditions."""
    p = nn.init_params(hidden, sample_dim=24, embed_dim=8, cond_dim=48, seed=7)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 24)) * 3.0
    c1, c2 = rng.uniform(0, 1, (2, 40, 48))
    steps = np.array([1, 4, 17, 30, 50])
    forward = nn.sampling_forward(p, steps)
    step1, step2 = forward(c1), forward(c2)
    for i in (1, 3, 5):
        for step, c in ((step1, c1), (step2, c2)):
            got, ref = step(x, i), nn.forward_batch(p, x, steps[i - 1], c)
            assert got.dtype == np.float64
            assert np.abs(got - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())
            assert not np.array_equal(got, ref)
    with pytest.raises(DimensionError):
        forward(np.zeros((40, 47)))
    with pytest.raises(DimensionError):
        step1(np.zeros((39, 24)), 1)


def test_sampling_forward_reports_overflow_as_non_finite_values():
    """Weights too large for float32 become inf and their products inf or
    nan, with no warning, so that the sampler's finiteness check reports."""
    p = nn.init_params((8,), sample_dim=2, embed_dim=2, cond_dim=1, seed=0)
    p.vector[:] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nn.sampling_forward(p, np.arange(1, 4))(np.ones((4, 1)))(np.ones((4, 2)), 2)
    assert out.shape == (4, 2) and not np.all(np.isfinite(out))


def test_silu_forward_is_stable_for_extreme_inputs():
    p = nn.init_params((8,), sample_dim=2, embed_dim=2, cond_dim=0, seed=0)
    x = np.array([[1e4, -1e4]])
    out = nn.forward_batch(p, x, 1, np.zeros((1, 0)))
    assert np.all(np.isfinite(out))


# ----------------------------------------------------------------- gradients


@pytest.mark.parametrize("activation", ["silu"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(11)
    p = nn.init_params((10, 7), sample_dim=4, embed_dim=4, cond_dim=3, seed=7)
    x = rng.standard_normal((6, 4))
    c = rng.standard_normal((6, 3))
    g = rng.standard_normal((6, 4))
    worst = _fd_check(p, x, np.arange(1, 7), c, g, n_probe=60, seed=1)
    assert worst <= 1e-4


def test_gradients_match_finite_differences_single_linear_layer():
    rng = np.random.default_rng(4)
    p = nn.init_params((), sample_dim=3, embed_dim=2, cond_dim=1, seed=2)
    x = rng.standard_normal((5, 3))
    c = rng.standard_normal((5, 1))
    g = rng.standard_normal((5, 3))
    assert _fd_check(p, x, 2, c, g, n_probe=23, seed=3) <= 1e-6


def test_backward_batch_is_sum_of_per_sample_grads():
    rng = np.random.default_rng(5)
    p = nn.init_params((9,), sample_dim=4, embed_dim=2, cond_dim=2, seed=5)
    x = rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 2))
    g = rng.standard_normal((3, 4))
    steps = np.array([1, 4, 9])
    _, total = _scalar_loss_and_grads(p, x, steps, c, g)
    parts = [_scalar_loss_and_grads(p, x[b : b + 1], int(steps[b]), c[b : b + 1],
                                    g[b : b + 1])[1]
             for b in range(3)]
    np.testing.assert_allclose(total, sum(parts), atol=1e-10)


def test_backward_rejects_bad_grad_out_shape():
    p = nn.init_params((6,), sample_dim=3, embed_dim=2, cond_dim=0, seed=0)
    x, c, cache = np.zeros((2, 3)), np.zeros((2, 0)), []
    nn.forward_batch(p, x, 1, c, cache)
    with pytest.raises(DimensionError):
        nn.backward_batch(p, x, 1, c, np.zeros((2, 2)), cache)


# ----------------------------------------------------------------- optimizer


def _fresh_state(p):
    return nn.OptimizerState(m=np.zeros_like(p.vector), v=np.zeros_like(p.vector))


def test_adam_step_matches_reference_update():
    """Cross-check one parameter against the textbook update over 5 steps,
    with Kingma & Ba's beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""
    assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (0.9, 0.999, 1e-8)
    p = nn.init_params((4,), sample_dim=2, embed_dim=2, cond_dim=0, seed=8)
    config = dif.TrainConfig(lr=0.01)
    state = _fresh_state(p)
    rng = np.random.default_rng(6)
    w_ref = p.layers[0][0][0, 0]
    m_ref = v_ref = 0.0
    for t in range(1, 6):
        grads = rng.standard_normal(p.n_params)
        g_ref = grads[0]
        m_ref = 0.9 * m_ref + 0.1 * g_ref
        v_ref = 0.999 * v_ref + 0.001 * g_ref**2
        mhat = m_ref / (1 - 0.9**t)
        vhat = v_ref / (1 - 0.999**t)
        w_ref = w_ref - 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
        assert nn.adam_step(config, state, p, grads) is None
        assert state.step == t
    assert p.layers[0][0][0, 0] == pytest.approx(w_ref, abs=1e-12)


def test_adam_step_updates_in_place_and_a_refused_step_changes_nothing():
    p = nn.init_params((4,), sample_dim=2, embed_dim=2, cond_dim=0, seed=9)
    config, state = dif.TrainConfig(), _fresh_state(p)
    vector, layers, m, v = p.vector, p.layers, state.m, state.v
    w_before = p.layers[0][0].copy()
    grads = np.ones_like(p.vector)
    assert nn.adam_step(config, state, p, grads) is None
    assert state.step == 1
    assert not np.array_equal(p.layers[0][0], w_before)
    assert p.vector is vector and p.layers is layers and state.m is m and state.v is v

    before = (p.vector.copy(), state.m.copy(), state.v.copy(), state.step)
    grad_layers = replace(p, vector=grads).layers  # views into grads
    grad_layers[1][0][...] = np.nan
    grad_layers[1][1][...] = 0.0
    with pytest.raises(TrainingDivergenceError, match="layer 1"):
        nn.adam_step(config, state, p, grads)
    assert np.array_equal(p.vector, before[0]) and np.array_equal(state.m, before[1])
    assert np.array_equal(state.v, before[2]) and state.step == before[3]


def _reference_adam_step(layers, m, v, grads, t, lr, beta1, beta2, eps):
    """The update as one loop over per-layer (W, b) arrays; the whole-vector
    adam_step must reproduce its bits."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_layers, new_m, new_v = [], [], []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(layers, grads, m, v):
        mw = beta1 * mw + (1 - beta1) * gw
        mb = beta1 * mb + (1 - beta1) * gb
        vw = beta2 * vw + (1 - beta2) * gw**2
        vb = beta2 * vb + (1 - beta2) * gb**2
        w = w - lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
        b = b - lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        new_layers.append((w, b))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return new_layers, new_m, new_v


def _flat(layers):
    return np.concatenate([np.concatenate([w.reshape(-1), b]) for w, b in layers])


def test_adam_step_bits_match_per_layer_reference():
    p = nn.init_params((7, 5), sample_dim=3, embed_dim=2, cond_dim=2, seed=12)
    assert len(p.layers) == 3
    config, state = dif.TrainConfig(lr=0.01), _fresh_state(p)
    layers = [(w.copy(), b.copy()) for w, b in p.layers]
    m = v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    rng = np.random.default_rng(13)
    for t in range(1, 6):
        grads = rng.standard_normal(p.n_params) * 10.0 ** rng.integers(-3, 3)
        per_layer = replace(p, vector=grads).layers
        layers, m, v = _reference_adam_step(layers, m, v, per_layer, t, config.lr,
                                            nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS)
        nn.adam_step(config, state, p, grads)
    assert np.array_equal(p.vector, _flat(layers))
    assert np.array_equal(state.m, _flat(m))
    assert np.array_equal(state.v, _flat(v))


@pytest.mark.parametrize("activation", ["silu"])
def test_training_loss_cached_gradients_equal_uncached_backward(activation):
    """training_loss runs one forward and hands its cache to the backward pass;
    the gradient bits equal those of a separate forward and backward pass."""
    sched = dif.make_schedule("cosine", n=20)
    p = nn.init_params((16, 16), sample_dim=24, embed_dim=8, cond_dim=24, seed=4)
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((33, 24))
    c = rng.uniform(0, 1, (33, 24))
    steps = rng.integers(1, 21, size=33)
    noise = rng.standard_normal((33, 24))
    loss, grads = dif.training_loss(p, x0, c, sched, steps=steps, noise=noise)
    abar = sched.alpha_bar[steps - 1]
    x_noisy = np.sqrt(abar)[:, None] * x0 + np.sqrt(1.0 - abar)[:, None] * noise
    cache = []
    resid = nn.forward_batch(p, x_noisy, steps, c, cache) - noise
    assert loss == float(np.mean(resid**2))
    want = nn.backward_batch(p, x_noisy, steps, c, 2.0 * resid / resid.size, cache)
    assert np.array_equal(grads, want)


# ------------------------------------------------------------- vectorization


def test_params_vector_round_trip_and_ordering():
    p = nn.init_params((5,), sample_dim=3, embed_dim=2, cond_dim=1, seed=10)
    vec = p.vector
    assert vec.size == p.n_params
    assert vec[0] == p.layers[0][0][0, 0]  # row-major weights come first
    assert vec[p.layers[0][0].size] == p.layers[0][1][0]  # then that layer's bias
    back = replace(p, vector=vec)
    for (w, b), (w2, b2) in zip(p.layers, back.layers):
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(b, b2)
    with pytest.raises(DimensionError):
        replace(p, vector=vec[:-1])


def test_layers_are_views_into_one_vector():
    p = nn.init_params((5,), sample_dim=3, embed_dim=2, cond_dim=1, seed=10)
    for w, b in p.layers:
        assert np.shares_memory(w, p.vector) and np.shares_memory(b, p.vector)
    vec = np.arange(p.n_params, dtype=float)
    q = replace(p, vector=vec)
    assert q.vector is vec  # no copy
    q.layers[1][1][0] = -1.0
    assert vec[-p.sample_dim] == -1.0  # the output bias is the vector's tail
    r = q.copy()
    assert not np.shares_memory(r.vector, vec)
    assert all(np.shares_memory(w, r.vector) for w, _ in r.layers)
