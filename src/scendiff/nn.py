"""Feed-forward noise-prediction network with hand-derived gradients.

The denoiser maps concat(noisy sample [L], timestep embedding [E],
condition [len(c)]) -> predicted noise [L] through a plain MLP whose
hidden layers apply SiLU, z * sigmoid(z), and whose output layer is linear.
Gradients are exact reverse-mode, written out by hand; the optimizer is
a standard bias-corrected adaptive-moment update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, ParameterError, TrainingDivergenceError

# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenoiserParams:
    """MLP weights plus the input-layout metadata needed to drive them.

    `vector` holds every parameter in one contiguous float64 array (zeros
    when None), layer-major: each W of shape (fan_out, fan_in) row-major,
    then its b. layers[l] = (W, b) are views into it. Hidden layers apply
    SiLU, the output layer is linear. Input layout is
    concat(x_noisy [sample_dim], embedding [embed_dim], condition [cond_dim]).
    """

    hidden: tuple[int, ...]
    sample_dim: int
    embed_dim: int
    cond_dim: int
    vector: np.ndarray | None = None
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = [self.input_dim, *self.hidden, self.sample_dim]
        shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in) per layer
        n = sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes)
        vec = np.zeros(n) if self.vector is None else np.ascontiguousarray(self.vector, dtype=float)
        if vec.shape != (n,):
            raise DimensionError(f"architecture needs {n} parameters, vector has shape {vec.shape}")
        self.vector = vec
        self.layers = []
        pos = 0
        for fan_out, fan_in in shapes:
            end = pos + fan_out * fan_in
            self.layers.append((vec[pos:end].reshape(fan_out, fan_in), vec[end : end + fan_out]))
            pos = end + fan_out

    def validate(self) -> None:
        bad = _nonfinite_layer(self, self.vector)
        if bad is not None:
            raise TrainingDivergenceError(f"non-finite parameters in layer {bad}")

    @property
    def input_dim(self) -> int:
        return self.sample_dim + self.embed_dim + self.cond_dim

    @property
    def n_params(self) -> int:
        return self.vector.size

    def copy(self) -> "DenoiserParams":
        return replace(self, vector=self.vector.copy())


def _nonfinite_layer(params: DenoiserParams, vec: np.ndarray) -> int | None:
    """The first layer holding a non-finite entry of vec (laid out as
    params.vector), or None when every entry is finite."""
    if np.all(np.isfinite(vec)):
        return None
    return next(idx for idx, (w, b) in enumerate(replace(params, vector=vec).layers)
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))))


def init_params(
    hidden: tuple[int, ...],
    sample_dim: int,
    embed_dim: int,
    cond_dim: int,
    seed: int,
) -> DenoiserParams:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = DenoiserParams(hidden=tuple(hidden), sample_dim=sample_dim, embed_dim=embed_dim,
                            cond_dim=cond_dim)
    for w, _ in params.layers:
        lim = math.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    return params


def timestep_embedding(i, e: int) -> np.ndarray:
    """Sinusoidal step encoding: sin(i/10000^(2k/E)) block then cos block.

    Accepts a scalar step (returns (E,)) or an array of steps (returns
    (len(i), E)). Components are all in [-1, 1].
    """
    if e % 2 != 0 or e <= 0:
        raise ParameterError(f"embedding size must be positive and even, got {e}")
    i_arr = np.atleast_1d(np.asarray(i, dtype=float))
    k = np.arange(e // 2)
    freq = 1.0 / np.power(10000.0, 2.0 * k / e)
    angles = i_arr[:, None] * freq[None, :]
    out = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    return out[0] if np.isscalar(i) or np.ndim(i) == 0 else out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    s = np.multiply(0.5, z)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _assemble_input(params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray) -> np.ndarray:
    """One (B, input_dim) block: x_noisy, the step embedding, the condition.

    A scalar step gets one embedding row, broadcast over the batch.
    """
    x_noisy = np.atleast_2d(np.asarray(x_noisy, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    batch = x_noisy.shape[0]
    if x_noisy.shape[1] != params.sample_dim:
        raise DimensionError(f"sample dim {x_noisy.shape[1]} != {params.sample_dim}")
    if c.shape != (batch, params.cond_dim):
        raise DimensionError(f"condition shape {c.shape} != ({batch}, {params.cond_dim})")
    l, e = params.sample_dim, params.embed_dim
    inp = np.empty((batch, params.input_dim))
    inp[:, :l] = x_noisy
    inp[:, l : l + e] = timestep_embedding(i, e)
    inp[:, l + e :] = c
    return inp


def forward_batch(params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray,
                  cache: list | None = None) -> np.ndarray:
    """Predicted noise for a batch: x_noisy (B, L), i scalar or (B,), c (B, K).

    With `cache` (a list), appends (layer input, pre-activation, its sigmoid
    or None at the output layer) per layer for backward_batch and gives every
    activation its own buffer; without it, each hidden activation overwrites
    its pre-activation.
    """
    a = _assemble_input(params, x_noisy, i, c)
    last = len(params.layers) - 1
    for idx, (w, b) in enumerate(params.layers):
        z = a @ w.T
        z += b
        s = None if idx == last else _sigmoid(z)
        if cache is not None:
            cache.append((a, z, s))
        a = z if s is None else np.multiply(z, s, out=None if cache is not None else z)
    return a


def sampling_forward(params: DenoiserParams, n: int):
    """The denoiser as the reverse sampler runs it, in float32: a function
    bind(c) of one chunk's conditions (B, K) that returns step(x_noisy (B, L),
    i) -> eps_hat (B, L) as float64, for steps i in 1..n.

    Layer 0's W splits into its x, embedding and condition column blocks.
    Only x changes from step to step, so the condition's projection is made
    once per bind and the embedding's, with b0, once here for every step, as
    one n-row float64 product (a lone embedding row would take OpenBLAS's
    small-matrix kernel). Both are then cast to float32, as are the weights;
    per step only x @ W_x.T and the later layers run, in float32. Overflow
    and invalid results are left to the caller's finiteness check, and raise
    no warning.
    """
    l, e = params.sample_dim, params.embed_dim
    (w0, b0), rest = params.layers[0], params.layers[1:]
    w_c = w0[:, l + e :]
    with np.errstate(over="ignore", invalid="ignore"):
        w_x = w0[:, :l].astype(np.float32)
        table = (timestep_embedding(np.arange(1, n + 1), e) @ w0[:, l : l + e].T + b0
                 ).astype(np.float32)
        layers = [(w.astype(np.float32), b.astype(np.float32)) for w, b in rest]

    def bind(c: np.ndarray):
        if c.ndim != 2 or c.shape[1] != params.cond_dim:
            raise DimensionError(f"condition shape {c.shape} != (B, {params.cond_dim})")
        with np.errstate(over="ignore", invalid="ignore"):
            proj_c = (c @ w_c.T).astype(np.float32)

        def step(x: np.ndarray, i: int) -> np.ndarray:
            if x.shape != (c.shape[0], l):
                raise DimensionError(f"sample shape {x.shape} != ({c.shape[0]}, {l})")
            with np.errstate(over="ignore", invalid="ignore"):
                a = x.astype(np.float32) @ w_x.T
                a += proj_c
                a += table[i - 1]
                for w, b in layers:
                    a = np.multiply(a, _sigmoid(a), out=a) @ w.T  # SiLU in place
                    a += b
                return a.astype(float)

        return step

    return bind


def backward_batch(
    params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray, grad_out: np.ndarray,
    cache: list,
) -> np.ndarray:
    """Gradient of sum_b grad_out[b] . forward(batch b) w.r.t. every parameter,
    one vector in the layout of params.vector.

    `cache` is the one forward_batch filled for this batch.
    """
    grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
    batch = cache[0][0].shape[0]
    if grad_out.shape != (batch, params.sample_dim):
        raise DimensionError(f"grad_out shape {grad_out.shape} != ({batch}, {params.sample_dim})")
    grad = np.empty_like(params.vector)
    grad_layers = replace(params, vector=grad).layers
    g = grad_out
    for idx in range(len(params.layers) - 1, -1, -1):
        gw, gb = grad_layers[idx]
        np.matmul(g.T, cache[idx][0], out=gw)
        np.sum(g, axis=0, out=gb)
        if idx > 0:  # SiLU'(z) = s (1 + z (1 - s)), with the forward pass's s = sigmoid(z)
            _, z, s = cache[idx - 1]
            g = (g @ params.layers[idx][0]) * (s * (1.0 + z * (1.0 - s)))
    return grad


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, flat vectors in the layout of params.vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(config, state: OptimizerState, params: DenoiserParams, grads: np.ndarray) -> None:
    """One bias-corrected adaptive-moment update, in place on state.m, state.v,
    state.step and params.vector, with config's lr (a diffusion.TrainConfig)
    and the ADAM_* constants. A non-finite gradient raises
    TrainingDivergenceError naming the layer before anything changes.
    """
    bad = _nonfinite_layer(params, grads)
    if bad is not None:
        raise TrainingDivergenceError(f"non-finite gradient in layer {bad}")
    state.step += 1
    # the textbook update, term for term (same bits), with two temporaries
    step = np.multiply(1 - ADAM_BETA1, grads)
    state.m *= ADAM_BETA1
    state.m += step
    denom = np.square(grads)
    denom *= 1 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += denom
    np.divide(state.v, 1.0 - ADAM_BETA2**state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**state.step, out=step)
    step *= config.lr
    step /= denom
    params.vector -= step
