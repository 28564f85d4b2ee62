"""Feed-forward noise-prediction network with hand-derived gradients.

The denoiser maps concat(noisy sample [L], timestep embedding [E],
condition [len(c)]) -> predicted noise [L] through a plain MLP whose
hidden layers share one activation and whose output layer is linear.
Gradients are exact reverse-mode, written out by hand; the optimizer is
a standard bias-corrected adaptive-moment update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, ParameterError, TrainingDivergenceError

ACTIVATIONS = ("relu", "silu")


@dataclass
class DenoiserParams:
    """MLP weights plus the input-layout metadata needed to drive them.

    `vector` holds every parameter in one contiguous float64 array (zeros
    when None), layer-major: each W of shape (fan_out, fan_in) row-major,
    then its b. layers[l] = (W, b) are views into it. Hidden layers use
    `activation`, the output layer is linear. Input layout is
    concat(x_noisy [sample_dim], embedding [embed_dim], condition [cond_dim]).
    """

    hidden: tuple[int, ...]
    activation: str
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
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation must be one of {ACTIVATIONS}")
        if not self.layers:
            raise ParameterError("network needs at least one layer")
        d = self.input_dim
        for idx, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise DimensionError(f"layer {idx}: weight {w.shape} / bias {b.shape} mismatch")
            if w.shape[1] != d:
                raise DimensionError(f"layer {idx}: fan-in {w.shape[1]} != expected {d}")
            d = w.shape[0]
        if d != self.sample_dim:
            raise DimensionError(f"output dim {d} != sample dim {self.sample_dim}")
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
    return next(idx for idx, (w, b) in enumerate(vector_to_params(vec, params).layers)
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))))


def init_params(
    hidden: tuple[int, ...],
    sample_dim: int,
    embed_dim: int,
    cond_dim: int,
    seed: int,
    activation: str = "silu",
) -> DenoiserParams:
    """Glorot-uniform weights, zero biases."""
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    params = DenoiserParams(hidden=tuple(hidden), activation=activation,
                            sample_dim=sample_dim, embed_dim=embed_dim, cond_dim=cond_dim)
    for w, _ in params.layers:
        lim = math.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    params.validate()
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


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Hidden activation of z, written into `out` (which may be z) when given."""
    if kind == "relu":
        return np.maximum(0.0, z, out=out)
    return np.multiply(z, _sigmoid(z), out=out)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(float)
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


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

    With `cache` (a list), appends (layer input, pre-activation) per layer
    for backward_batch and gives every activation its own buffer; without
    it, each hidden activation overwrites its pre-activation.
    """
    a = _assemble_input(params, x_noisy, i, c)
    last = len(params.layers) - 1
    for idx, (w, b) in enumerate(params.layers):
        z = a @ w.T
        z += b
        if cache is not None:
            cache.append((a, z))
        a = z if idx == last else _act(z, params.activation, out=None if cache is not None else z)
    return a


def backward_batch(
    params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray, grad_out: np.ndarray,
    cache: list | None = None,
) -> np.ndarray:
    """Gradient of sum_b grad_out[b] . forward(batch b) w.r.t. every parameter,
    one vector in the layout of params.vector.

    `cache` is the one forward_batch filled for this batch; without it the
    forward pass runs here.
    """
    if cache is None:
        cache = []
        forward_batch(params, x_noisy, i, c, cache)
    grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
    batch = cache[0][0].shape[0]
    if grad_out.shape != (batch, params.sample_dim):
        raise DimensionError(f"grad_out shape {grad_out.shape} != ({batch}, {params.sample_dim})")
    grad = np.empty_like(params.vector)
    grad_layers = vector_to_params(grad, params).layers
    g = grad_out
    for idx in range(len(params.layers) - 1, -1, -1):
        gw, gb = grad_layers[idx]
        np.matmul(g.T, cache[idx][0], out=gw)
        np.sum(g, axis=0, out=gb)
        if idx > 0:
            g = (g @ params.layers[idx][0]) * _act_grad(cache[idx - 1][1], params.activation)
    return grad


def vector_to_params(vec: np.ndarray, template: DenoiserParams) -> DenoiserParams:
    """Parameters with template's architecture whose layers are views into vec."""
    return replace(template, vector=vec)


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, flat vectors in the layout of params.vector."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params: DenoiserParams, lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                   m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


def adam_step(state: OptimizerState, params: DenoiserParams,
              grads: np.ndarray) -> tuple[DenoiserParams, OptimizerState]:
    """One bias-corrected adaptive-moment update; returns new params and state.

    Raises TrainingDivergenceError naming the layer if a gradient is non-finite.
    """
    bad = _nonfinite_layer(params, grads)
    if bad is not None:
        raise TrainingDivergenceError(f"non-finite gradient in layer {bad}")
    t = state.step + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    # the textbook update, term for term (same bits), written in place: every
    # vector-sized temporary is a fresh allocation whose pages fault on first use
    m = state.beta1 * state.m
    m += (1 - state.beta1) * grads
    v = np.square(grads)
    v *= 1 - state.beta2
    v += state.beta2 * state.v
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += state.eps
    step = m / c1
    step *= state.lr
    step /= denom
    return replace(params, vector=params.vector - step), replace(state, step=t, m=m, v=v)
