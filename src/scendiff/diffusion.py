"""Variance schedules, forward noising, training loop, and reverse sampler.

The model is a denoising diffusion process over normalized day profiles
x in R^24: the forward chain adds Gaussian noise over n steps, the network
predicts the injected noise, and ancestral sampling runs the chain backwards
conditioned on the day's weather covariates.

The network itself operates in a model space affinely shifted to [-1, 1]
(z = 2x - 1 for normalized x): the terminal step of the forward chain is a
standard Gaussian centered at zero, and training targets whose support sits
entirely on one side of that center leave the sampler with a systematic
shrinkage bias toward zero. train() applies the map and the samplers invert
it, so every public interface keeps speaking normalized units.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from . import nn
from .data import HOURS, Scaler, _parse_date, _read_table, _write_table
from .errors import (
    DimensionError,
    InsufficientDataError,
    IntegrityError,
    ModelValidationError,
    ParameterError,
    ParseError,
    SamplingDivergenceError,
    ScendiffError,
    ScheduleTooShortError,
    SchemaError,
    TrainingDivergenceError,
)

TERMINAL_ALPHA_BAR = 0.01


def to_model_space(x: np.ndarray) -> np.ndarray:
    """Map normalized units onto the network's zero-centered target space."""
    return 2.0 * np.asarray(x, dtype=float) - 1.0


def from_model_space(z: np.ndarray) -> np.ndarray:
    """Inverse of to_model_space."""
    return 0.5 * (np.asarray(z, dtype=float) + 1.0)
SIGMA_MODES = ("beta", "posterior")


@dataclass
class Schedule:
    """Noise schedule: beta[i-1] is the step-i variance increment.

    sigma is the fixed reverse-process standard deviation per step:
    sigma_i^2 = beta_i ("beta" mode) or the posterior variance
    beta_i (1 - abar_{i-1}) / (1 - abar_i) ("posterior" mode).
    """

    kind: str
    n: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    sigma_mode: str = "beta"

    def validate(self, enforce_terminal: bool = True) -> None:
        if self.n < 1 or self.beta.shape != (self.n,):
            raise ParameterError(f"schedule needs n >= 1 betas, got {self.beta.shape}")
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ParameterError("alpha_bar must be strictly decreasing")
        if enforce_terminal and self.alpha_bar[-1] >= TERMINAL_ALPHA_BAR:
            raise ScheduleTooShortError(
                f"terminal alpha_bar {self.alpha_bar[-1]:.6g} >= {TERMINAL_ALPHA_BAR}; "
                "raise n or the beta range"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "beta": self.beta.tolist(),
            "sigma_mode": self.sigma_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return from_betas(np.asarray(d["beta"], dtype=float), kind=d["kind"],
                          sigma_mode=d["sigma_mode"], enforce_terminal=False)


def _sigma_from(beta: np.ndarray, alpha_bar: np.ndarray, sigma_mode: str) -> np.ndarray:
    if sigma_mode == "beta":
        return np.sqrt(beta)
    abar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    return np.sqrt(beta * (1.0 - abar_prev) / (1.0 - alpha_bar))


def from_betas(
    beta: np.ndarray, kind: str = "custom", sigma_mode: str = "beta",
    enforce_terminal: bool = True,
) -> Schedule:
    """Build a Schedule from an explicit beta vector."""
    if sigma_mode not in SIGMA_MODES:
        raise ParameterError(f"sigma_mode must be one of {SIGMA_MODES}")
    beta = np.asarray(beta, dtype=float)
    if not np.all((beta > 0) & (beta < 1)):  # before sigma takes their square roots
        raise ParameterError("betas must lie in (0, 1)")
    alpha_bar = np.cumprod(1.0 - beta)
    sched = Schedule(
        kind=kind, n=beta.size, beta=beta, alpha_bar=alpha_bar,
        sigma=_sigma_from(beta, alpha_bar, sigma_mode), sigma_mode=sigma_mode,
    )
    sched.validate(enforce_terminal=enforce_terminal)
    return sched


def make_schedule(
    kind: str = "linear", n: int = 200, beta_start: float = 1e-4, beta_end: float = 0.05,
    sigma_mode: str = "beta", enforce_terminal: bool = True,
) -> Schedule:
    """Linear or cosine variance schedule over n steps.

    Linear: beta_i = beta_start + (i-1)/(n-1) (beta_end - beta_start).
    Cosine: abar_i = f(i)/f(0) with f(i) = cos^2(((i/n + s)/(1 + s)) pi/2),
    s = 0.008, betas recovered from consecutive abar ratios and clipped to
    (1e-8, 0.999).

    The terminal marginal must be near-standard-normal: alpha_bar[n-1] must
    fall below 0.01 or a ScheduleTooShortError is raised. Pass
    enforce_terminal=False only for diagnostic/test schedules.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if kind == "linear":
        if not 0 < beta_start <= beta_end < 1:
            raise ParameterError("need 0 < beta_start <= beta_end < 1")
        if n == 1:
            beta = np.array([beta_start])
        else:
            steps = np.arange(n, dtype=float)
            beta = beta_start + steps / (n - 1) * (beta_end - beta_start)
    elif kind == "cosine":
        s = 0.008
        i = np.arange(n + 1, dtype=float)
        f = np.cos(((i / n + s) / (1 + s)) * math.pi / 2) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], 1e-8, 0.999)
    else:
        raise ParameterError(f"kind must be linear or cosine, got {kind!r}")
    return from_betas(beta, kind=kind, sigma_mode=sigma_mode, enforce_terminal=enforce_terminal)


@dataclass
class ScenarioSet:
    """M generated day profiles for one target day, plus the condition used."""

    day_id: date
    m: int
    scenarios: np.ndarray
    condition: np.ndarray

    def validate(self) -> None:
        if self.m < 1:
            raise ParameterError("m must be >= 1")
        if self.scenarios.shape != (self.m, HOURS):
            raise DimensionError(f"scenarios shape {self.scenarios.shape} != ({self.m}, {HOURS})")
        if not np.all(np.isfinite(self.scenarios)):
            raise SamplingDivergenceError(f"non-finite scenario values for day {self.day_id}")


def forward_sample(x0: np.ndarray, i: int, eps: np.ndarray, sched: Schedule) -> np.ndarray:
    """Closed-form forward marginal: sqrt(abar_i) x0 + sqrt(1 - abar_i) eps."""
    if not 1 <= i <= sched.n:
        raise ParameterError(f"step {i} outside 1..{sched.n}")
    abar = sched.alpha_bar[i - 1]
    return math.sqrt(abar) * np.asarray(x0) + math.sqrt(1.0 - abar) * np.asarray(eps)


def chain_forward(x0: np.ndarray, sched: Schedule, rng: np.random.Generator) -> np.ndarray:
    """Step-by-step noising chain; returns the (n, L) stack of x_1..x_n.

    Marginally equivalent to forward_sample at every step.
    """
    x0 = np.asarray(x0, dtype=float)
    out = np.empty((sched.n, x0.size))
    x = x0
    for i in range(sched.n):
        z = rng.standard_normal(x0.size)
        x = math.sqrt(1.0 - sched.beta[i]) * x + math.sqrt(sched.beta[i]) * z
        out[i] = x
    return out


def _as_denoiser(params, cache: list | None = None):
    """The callable (x_noisy, steps, c) -> eps_hat behind params, which are
    DenoiserParams or already such a callable. `steps` is a scalar step
    shared by every row or a (B,) array of per-row steps. DenoiserParams
    fill `cache` for nn.backward_batch when it is given."""
    if isinstance(params, nn.DenoiserParams):
        return lambda x, steps, c: nn.forward_batch(params, x, steps, c, cache)
    return params


def training_loss(
    params, x0: np.ndarray, c: np.ndarray, sched: Schedule,
    rng: np.random.Generator | None = None, *,
    steps: np.ndarray | None = None, noise: np.ndarray | None = None,
    want_grads: bool = True,
):
    """Noise-prediction MSE over a batch and its parameter gradients.

    For each row a step is drawn uniformly from 1..n and a standard-normal
    noise vector is injected (both overridable for tests); the loss is
    mean over the batch of ||eps - eps_hat||^2 / L. With gradients, the one
    forward pass caches what the backward pass needs. `params` may also be a
    plain callable (x_noisy, steps, c) -> eps_hat, in which case gradients
    are skipped. Draw order from rng: steps first, then noise.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    b, l = x0.shape
    if b == 0:
        raise InsufficientDataError("empty batch")
    if rng is None and (steps is None or noise is None):
        raise ParameterError("need an rng unless both steps and noise are injected")
    if steps is None:
        steps = rng.integers(1, sched.n + 1, size=b)
    if noise is None:
        noise = rng.standard_normal((b, l))
    abar = sched.alpha_bar[np.asarray(steps) - 1]
    x_noisy = np.sqrt(abar)[:, None] * x0 + np.sqrt(1.0 - abar)[:, None] * noise
    cache = [] if want_grads and isinstance(params, nn.DenoiserParams) else None
    resid = _as_denoiser(params, cache)(x_noisy, steps, c) - noise
    loss = float(np.mean(resid**2))
    if not math.isfinite(loss):
        raise TrainingDivergenceError("non-finite loss")
    grads = None
    if cache is not None:
        grads = nn.backward_batch(params, x_noisy, steps, c, 2.0 * resid / (b * l), cache)
    return loss, grads


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    hidden: tuple[int, ...] = (256, 256, 256)
    activation: str = "silu"
    embed_dim: int = 32
    seed: int = 0
    zone: int = 1


def train(ds, config: TrainConfig, sched: Schedule):
    """Minibatch noise-MSE training; returns (best params, per-epoch log).

    The checkpoint with the lowest validation loss wins; validation uses one
    fixed draw of steps and noise so epochs are compared on the same ruler.
    The log is a list of {epoch, learn_loss, val_loss} dicts, deterministic
    for a fixed config seed.
    """
    if ds.scaler is None:
        raise ParameterError("dataset must be normalized before training")
    if config.batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {config.batch_size}")
    x_learn, c_learn, _ = ds.arrays(split="learn", zone=config.zone)
    x_learn = to_model_space(x_learn)
    master = np.random.SeedSequence(config.seed)
    ss_init, ss_shuffle, ss_batch, ss_val = master.spawn(4)
    params = nn.init_params(
        hidden=tuple(config.hidden), sample_dim=x_learn.shape[1],
        embed_dim=config.embed_dim, cond_dim=c_learn.shape[1],
        seed=ss_init, activation=config.activation,
    )
    log: list[dict] = []
    if config.epochs == 0:
        return params, log

    x_val, c_val, _ = ds.arrays(split="validation", zone=config.zone)
    x_val = to_model_space(x_val)
    rng_val = np.random.default_rng(ss_val)
    val_steps = rng_val.integers(1, sched.n + 1, size=x_val.shape[0])
    val_noise = rng_val.standard_normal(x_val.shape)

    rng_shuffle = np.random.default_rng(ss_shuffle)
    rng_batch = np.random.default_rng(ss_batch)
    state = nn.OptimizerState.for_params(
        params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps,
    )
    best_params = params.copy()
    best_val = math.inf
    n = x_learn.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        try:
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                loss, grads = training_loss(
                    params, x_learn[idx], c_learn[idx], sched, rng_batch,
                )
                params, state = nn.adam_step(state, params, grads)
                losses.append(loss)
            params.validate()
            val_loss, _ = training_loss(
                params, x_val, c_val, sched, steps=val_steps, noise=val_noise, want_grads=False,
            )
        except TrainingDivergenceError as e:
            raise TrainingDivergenceError(f"epoch {epoch}: {e}") from None
        log.append({"epoch": epoch, "learn_loss": float(np.mean(losses)), "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
    return best_params, log


def _reverse_engine(denoiser, c_rows: np.ndarray, sched: Schedule,
                    seed_seqs, l: int, chunk: int = 256) -> np.ndarray:
    """Ancestral sampling for many (condition, stream) rows at once.

    `denoiser` is DenoiserParams or a callable (x_noisy (B, l), step, c (B, K))
    -> eps_hat (B, l); it gets the step as a scalar, the same for every row.
    Each row has its own RNG stream drawing, in order, the initial noise and
    then one z vector per reverse step from n down to 2, so a row's draws
    do not depend on `chunk` or on the other rows. Its bits do not either as
    long as BLAS rounds a row of a matrix product the same whatever the row
    count; OpenBLAS does not for products of a few rows (its small-matrix
    kernel), where results move in the last bits.

    Rows run in chunks: at 256 rows one hidden layer's activations
    (256 x 128 x 8 B) stay in L2 cache, and the chunk's noise block,
    rows x (n - 1) x l float64, is about 10 MB at n = 200.
    """
    denoiser = _as_denoiser(denoiser)
    r = c_rows.shape[0]
    out = np.empty((r, l))
    for lo in range(0, r, chunk):
        hi = min(lo + chunk, r)
        rows = hi - lo
        x = np.empty((rows, l))
        z = np.empty((rows, max(sched.n - 1, 0), l))
        for j in range(rows):
            rng = np.random.default_rng(seed_seqs[lo + j])
            x[j] = rng.standard_normal(l)
            if sched.n > 1:
                z[j] = rng.standard_normal((sched.n - 1, l))
        c_chunk = c_rows[lo:hi]
        for i in range(sched.n, 0, -1):
            eps_hat = denoiser(x, i, c_chunk)
            x -= sched.beta[i - 1] / math.sqrt(1.0 - sched.alpha_bar[i - 1]) * eps_hat
            x /= math.sqrt(1.0 - sched.beta[i - 1])
            if i > 1:
                x += sched.sigma[i - 1] * z[:, sched.n - i]
            if not np.all(np.isfinite(x)):
                raise SamplingDivergenceError(f"non-finite sample at step {i}")
        out[lo:hi] = x
    return out


def _seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def reverse_chain(denoiser, c: np.ndarray, sched: Schedule, m: int, seed, l: int) -> np.ndarray:
    """Draw m normalized samples for one condition; returns an (m, l) array.

    `seed` may be an int or a SeedSequence; per-sample independent streams
    are spawned from it, so samples are reproducible and order-independent.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    c_rows = np.repeat(np.atleast_2d(np.asarray(c, dtype=float)), m, axis=0)
    return _reverse_engine(denoiser, c_rows, sched, _seed_sequence(seed).spawn(m), l)


def _scenario_sets(params, conditions, day_ids, day_seqs, sched: Schedule,
                   m: int, scaler: Scaler | None) -> list[ScenarioSet]:
    """One ScenarioSet per condition row, day j sampled from m streams spawned
    from day_seqs[j]; denormalized, clipped and pinned when a scaler is given,
    otherwise in normalized units."""
    conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
    if len(day_ids) != conditions.shape[0]:
        raise DimensionError(f"{len(day_ids)} day ids for {conditions.shape[0]} condition rows")
    if m < 1:
        raise ParameterError("m must be >= 1")
    seqs = [s for day_seq in day_seqs for s in day_seq.spawn(m)]
    c_rows = np.repeat(conditions, m, axis=0)
    x = from_model_space(_reverse_engine(params, c_rows, sched, seqs, HOURS))
    if scaler is not None:
        x = scaler.inverse_target(x)
        lo, hi = scaler.physical_bounds()
        x = scaler.pin_fixed(np.clip(x, lo, hi))
    out = []
    for j, day_id in enumerate(day_ids):
        s = ScenarioSet(day_id=day_id, m=m, scenarios=x[j * m : (j + 1) * m],
                        condition=conditions[j].copy())
        s.validate()
        out.append(s)
    return out


def reverse_sample(params, c: np.ndarray, sched: Schedule, m: int, seed,
                   scaler: Scaler | None = None, day_id: date | None = None) -> ScenarioSet:
    """Generate a day's scenario set, denormalized, clipped, and with
    learn-split-constant hours pinned when a scaler is given; otherwise
    values stay in normalized units."""
    return _scenario_sets(params, c, [day_id or date(1970, 1, 1)], [_seed_sequence(seed)],
                          sched, m, scaler)[0]


def sample_days(params, conditions: np.ndarray, day_ids, sched: Schedule, m: int, seed,
                scaler: Scaler | None = None) -> list[ScenarioSet]:
    """Scenario sets for many days in one batched pass.

    Day d's streams come from spawning the master seed into one child per
    day and then m grandchildren, so each day's set matches a standalone
    reverse_sample call made with that day's child sequence.
    """
    return _scenario_sets(params, conditions, day_ids, _seed_sequence(seed).spawn(len(day_ids)),
                          sched, m, scaler)


CHECKPOINT_MAGIC = "scendiff-checkpoint"
CHECKPOINT_VERSION = 2  # 2: the header carries the parameter block's SHA-256
# header fields load_checkpoint relies on, with their JSON types
_HEADER_TYPES = {
    "track": str, "zone": int, "sample_dim": int, "embed_dim": int, "cond_dim": int,
    "activation": str, "hidden": list, "n_params": int, "schedule": dict,
    "scaler": (dict, type(None)), "sha256": str,
}


def save_checkpoint(path: str | Path, params: nn.DenoiserParams, sched: Schedule,
                    scaler: Scaler | None, track: str, zone: int) -> None:
    """Write a model file: one JSON header line, then the raw parameter block.

    The block is params.vector as little-endian float64 (layer-major, each
    row-major W then its b); the header's `sha256` is the hex digest of its
    bytes.
    """
    block = params.vector.astype("<f8").tobytes()
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "track": track,
        "zone": zone,
        "sample_dim": params.sample_dim,
        "embed_dim": params.embed_dim,
        "cond_dim": params.cond_dim,
        "activation": params.activation,
        "hidden": list(params.hidden),
        "n_params": params.n_params,
        "schedule": sched.to_dict(),
        "scaler": scaler.to_dict() if scaler else None,
        "sha256": hashlib.sha256(block).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.write(block)


def load_checkpoint(path: str | Path):
    """Read a model file; returns (params, schedule, scaler, header dict).

    Raises ModelValidationError on a malformed header, another format
    version, or a parameter block whose length disagrees with the declared
    architecture or whose bytes disagree with the header's SHA-256.
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ModelValidationError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelValidationError(f"{path}: bad header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise ModelValidationError(f"{path}: not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ModelValidationError(f"{path}: checkpoint format version "
                                   f"{header.get('version')!r}, expected {CHECKPOINT_VERSION}")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header.get(key), kind):
            raise ModelValidationError(f"{path}: header field {key!r} is missing or mistyped")
    dims = header["hidden"] + [header[k] for k in ("sample_dim", "embed_dim", "cond_dim")]
    if not all(isinstance(v, int) and v >= 0 for v in dims):
        raise ModelValidationError(f"{path}: layer sizes must be non-negative integers")
    block = raw[nl + 1 :]
    n_params = header["n_params"]
    if len(block) != 8 * n_params:
        raise ModelValidationError(
            f"{path}: parameter block is {len(block)} bytes, expected {8 * n_params}"
        )
    if hashlib.sha256(block).hexdigest() != header["sha256"]:
        raise ModelValidationError(f"{path}: parameter block does not match its SHA-256")
    try:
        # the layers are views into the block's copy, so a corrupt header
        # cannot ask for arrays larger than the file
        params = nn.DenoiserParams(
            hidden=tuple(header["hidden"]), activation=header["activation"],
            sample_dim=header["sample_dim"], embed_dim=header["embed_dim"],
            cond_dim=header["cond_dim"], vector=np.frombuffer(block, dtype="<f8").astype(float),
        )
        params.validate()
        sched = Schedule.from_dict(header["schedule"])
        scaler = Scaler.from_dict(header["scaler"]) if header["scaler"] else None
    except (KeyError, TypeError, ValueError, ScendiffError) as e:
        raise ModelValidationError(f"{path}: bad checkpoint: {type(e).__name__}: {e}") from None
    k, rest = divmod(header["cond_dim"], HOURS)
    if scaler and (rest or scaler.cov_offset.shape != (k,) or scaler.cov_scale.shape != (k,)):
        raise ModelValidationError(f"{path}: scaler covariates do not match cond_dim")
    if scaler and scaler.target_fixed is not None and scaler.target_fixed.shape != (HOURS,):
        raise ModelValidationError(f"{path}: scaler target_fixed needs {HOURS} hours")
    return params, sched, scaler, header


def write_scenarios(sets: list[ScenarioSet], path: str | Path) -> None:
    """CSV `day,scenario,h0..h23` in physical units, scenarios numbered 1..M."""
    rows = ((s.day_id.isoformat(), m, *v)
            for s in sets for m, v in enumerate(s.scenarios.tolist(), start=1))
    _write_table(path, ["day", "scenario"] + [f"h{h}" for h in range(HOURS)],
                 ("%s", "%d") + ("%.17g",) * HOURS, rows)


def read_scenarios(path: str | Path) -> dict[date, np.ndarray]:
    """Inverse of write_scenarios: {day: (M, 24) array}.

    Each row's cells are cast into one float block that doubles when full
    (numpy's str -> float cast accepts exactly what float() does), each
    distinct date cell is parsed once, and each day's rows are then indexed
    out of the block in scenario order.
    """
    table = _read_table(path)
    if next(table) != ["day", "scenario"] + [f"h{h}" for h in range(HOURS)]:
        raise SchemaError(f"{path}: bad scenario header")
    vals = np.empty((1024, HOURS))
    dates: dict[str, date] = {}
    rows: dict[date, list] = {}  # day -> [(scenario number, block row)]
    k = 0
    for row_no, row in table:
        day = dates.get(row[0]) or dates.setdefault(row[0], _parse_date(row[0], row_no))
        if k == len(vals):
            vals = np.concatenate([vals, np.empty_like(vals)])
        try:
            number = int(row[1])
            vals[k] = row[2:]
        except ValueError as e:
            raise ParseError(f"row {row_no}: {e}") from None
        rows.setdefault(day, []).append((number, k))
        k += 1
    out = {}
    for day, entries in rows.items():
        entries.sort()
        if [n for n, _ in entries] != list(range(1, len(entries) + 1)):
            raise IntegrityError(f"{path}: day {day} scenario numbering is not 1..M")
        out[day] = vals[[i for _, i in entries]]
        if not np.isfinite(out[day]).all():
            raise ParseError(f"{path}: day {day} has a non-finite scenario value")
    return out
