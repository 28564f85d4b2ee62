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

    layers[l] = (W, b) with W of shape (fan_out, fan_in); hidden layers use
    `activation`, the output layer is linear. Input layout is
    concat(x_noisy [sample_dim], embedding [embed_dim], condition [cond_dim]).
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    activation: str
    sample_dim: int
    embed_dim: int
    cond_dim: int

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
        for idx, (w, b) in enumerate(self.layers):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise TrainingDivergenceError(f"non-finite parameters in layer {idx}")

    @property
    def input_dim(self) -> int:
        return self.sample_dim + self.embed_dim + self.cond_dim

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def copy(self) -> "DenoiserParams":
        return replace(self, layers=[(w.copy(), b.copy()) for w, b in self.layers])


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
    sizes = [sample_dim + embed_dim + cond_dim, *hidden, sample_dim]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-lim, lim, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        layers.append((w, b))
    params = DenoiserParams(
        layers=layers,
        activation=activation,
        sample_dim=sample_dim,
        embed_dim=embed_dim,
        cond_dim=cond_dim,
    )
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


def _forward(params: DenoiserParams, a: np.ndarray, cache: list | None = None) -> np.ndarray:
    """Network output for an assembled input block.

    With `cache`, appends (layer input, pre-activation) per layer for
    backward_batch and gives every activation its own buffer; without it,
    each hidden activation overwrites its pre-activation.
    """
    last = len(params.layers) - 1
    for idx, (w, b) in enumerate(params.layers):
        z = a @ w.T
        z += b
        if cache is not None:
            cache.append((a, z))
        a = z if idx == last else _act(z, params.activation, out=None if cache is not None else z)
    return a


def forward_batch(params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray) -> np.ndarray:
    """Predicted noise for a batch: x_noisy (B, L), i scalar or (B,), c (B, K)."""
    return _forward(params, _assemble_input(params, x_noisy, i, c))


def backward_batch(
    params: DenoiserParams, x_noisy: np.ndarray, i, c: np.ndarray, grad_out: np.ndarray
):
    """Gradients of sum_b grad_out[b] . forward(batch b) w.r.t. every parameter.

    Returns a list of (dW, db) mirroring params.layers.
    """
    inp = _assemble_input(params, x_noisy, i, c)
    grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
    if grad_out.shape != (inp.shape[0], params.sample_dim):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} != ({inp.shape[0]}, {params.sample_dim})"
        )
    cache: list = []
    _forward(params, inp, cache)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    g = grad_out
    for idx in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[idx]
        grads[idx] = (g.T @ cache[idx][0], g.sum(axis=0))
        if idx > 0:
            g = (g @ w) * _act_grad(cache[idx - 1][1], params.activation)
    return grads


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators mirroring the layer structure."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: DenoiserParams, lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        state.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers]
        state.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers]
        return state


def adam_step(state: OptimizerState, params: DenoiserParams, grads) -> tuple[DenoiserParams, OptimizerState]:
    """One bias-corrected adaptive-moment update; returns new params and state.

    Raises TrainingDivergenceError naming the layer if a gradient is non-finite.
    """
    for idx, (gw, gb) in enumerate(grads):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise TrainingDivergenceError(f"non-finite gradient in layer {idx}")
    t = state.step + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    new_layers = []
    new_m = []
    new_v = []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(params.layers, grads, state.m, state.v):
        mw = state.beta1 * mw + (1 - state.beta1) * gw
        mb = state.beta1 * mb + (1 - state.beta1) * gb
        vw = state.beta2 * vw + (1 - state.beta2) * gw**2
        vb = state.beta2 * vb + (1 - state.beta2) * gb**2
        w = w - state.lr * (mw / c1) / (np.sqrt(vw / c2) + state.eps)
        b = b - state.lr * (mb / c1) / (np.sqrt(vb / c2) + state.eps)
        new_layers.append((w, b))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    new_params = replace(params, layers=new_layers)
    new_params.validate()
    new_state = OptimizerState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
        step=t, m=new_m, v=new_v,
    )
    return new_params, new_state


def params_to_vector(params: DenoiserParams) -> np.ndarray:
    """Flatten layer-major, weights before biases, row-major matrices."""
    chunks = []
    for w, b in params.layers:
        chunks.append(w.reshape(-1))
        chunks.append(b)
    return np.concatenate(chunks)


def vector_to_params(vec: np.ndarray, template: DenoiserParams) -> DenoiserParams:
    """Rebuild parameters from a flat vector using template shapes."""
    if vec.size != template.n_params:
        raise DimensionError(f"vector length {vec.size} != {template.n_params}")
    layers = []
    pos = 0
    for w, b in template.layers:
        nw = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        nb = vec[pos : pos + b.size].copy()
        pos += b.size
        layers.append((nw, nb))
    return replace(template, layers=layers)
