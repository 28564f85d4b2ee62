"""Variance schedules, forward noising, training loop, and reverse sampler.

The model is a denoising diffusion process over day profiles x in R^24:
the forward chain adds Gaussian noise over n steps, the network predicts
the injected noise, and ancestral sampling runs the chain backwards over a
sub-sequence of its steps, conditioned on the day's weather covariates. The
network works in the space that data.Scaler maps to; train and sample_days,
the one sampler, take and return physical units.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import nn
from .data import (_DATE_WIDTH, HOURS, TRACKS, Scaler, _day_index, _float_lines, _iso_day,
                   _read_table, _write_table)
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
from .workers import fork_map

TERMINAL_ALPHA_BAR = 0.01
BETA_START = 1e-4  # a linear schedule's first variance increment


@dataclass
class Schedule:
    """Noise schedule: beta[i-1] is the step-i variance increment.

    alpha_bar and sigma follow from beta: alpha_bar_i = prod_{j <= i} (1 -
    beta_j), and sigma is the fixed reverse-process standard deviation per
    step, sigma_i^2 = beta_i (Ho et al. 2020, sec. 3.2).
    """

    kind: str
    beta: np.ndarray
    alpha_bar: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if not np.all((beta > 0) & (beta < 1)):  # before sigma takes their square roots
            raise ParameterError("betas must lie in (0, 1)")
        if beta.ndim != 1 or beta.size < 1:
            raise ParameterError(f"schedule needs n >= 1 betas, got {beta.shape}")
        self.beta = beta
        self.alpha_bar = np.cumprod(1.0 - beta)
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ParameterError("alpha_bar must be strictly decreasing")
        self.sigma = np.sqrt(beta)

    @property
    def n(self) -> int:
        return self.beta.size

    def respace(self, k: int) -> tuple["Schedule", np.ndarray]:
        """(chain, steps): the ancestral chain over K = min(k, n) steps tau_j = j + round((n - K)
        ((j - 1)/(K - 1))^2), j = 1..K (Song et al. 2021, app. D.2), with beta'_j = 1 - abar_{tau_j}
        / abar_{tau_{j-1}}, abar_{tau_0} = 1 (Nichol & Dhariwal 2021), or beta_{tau_j} at stride 1."""
        k = min(k, self.n)
        j = np.arange(1, k + 1)
        steps = j + np.round((self.n - k) * ((j - 1) / (k - 1) if k > 1 else 1.0) ** 2).astype(int)
        abar = np.concatenate(([1.0], self.alpha_bar[steps - 1]))
        beta = np.where(np.diff(steps, prepend=0) == 1, self.beta[steps - 1], 1 - abar[1:] / abar[:-1])
        return Schedule(self.kind, beta), steps

    def to_dict(self) -> dict:
        return {"kind": self.kind, "beta": self.beta.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return cls(d["kind"], d["beta"])


def make_schedule(kind: str = "linear", n: int = 200, beta_end: float = 0.05) -> Schedule:
    """Linear or cosine variance schedule over n steps.

    Linear: beta_i = BETA_START + (i-1)/(n-1) (beta_end - BETA_START).
    Cosine: abar_i = f(i)/f(0) with f(i) = cos^2(((i/n + s)/(1 + s)) pi/2),
    s = 0.008, betas recovered from consecutive abar ratios and clipped to
    (1e-8, 0.999).

    The terminal marginal must be near-standard-normal: alpha_bar[n-1] must
    fall below 0.01 or a ScheduleTooShortError is raised.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if kind == "linear":
        if not BETA_START <= beta_end < 1:
            raise ParameterError(f"need {BETA_START} <= beta_end < 1")
        if n == 1:
            beta = np.array([BETA_START])
        else:
            steps = np.arange(n, dtype=float)
            beta = BETA_START + steps / (n - 1) * (beta_end - BETA_START)
    elif kind == "cosine":
        s = 0.008
        i = np.arange(n + 1, dtype=float)
        f = np.cos(((i / n + s) / (1 + s)) * math.pi / 2) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], 1e-8, 0.999)
    else:
        raise ParameterError(f"kind must be linear or cosine, got {kind!r}")
    sched = Schedule(kind, beta)
    if sched.alpha_bar[-1] >= TERMINAL_ALPHA_BAR:
        raise ScheduleTooShortError(
            f"terminal alpha_bar {sched.alpha_bar[-1]:.6g} >= {TERMINAL_ALPHA_BAR}; "
            "raise n or the beta range"
        )
    return sched


@dataclass
class ScenarioSet:
    """M generated day profiles for one day and its covariates, in physical units."""

    day_id: date
    m: int
    scenarios: np.ndarray
    condition: np.ndarray


def forward_sample(x0: np.ndarray, i, eps: np.ndarray, sched: Schedule) -> np.ndarray:
    """Closed-form forward marginal: sqrt(abar_i) x0 + sqrt(1 - abar_i) eps.

    `i` is one step for all of x0 or a (B,) array of steps, one per row of
    a (B, L) x0; every step must lie in 1..n.
    """
    i = np.asarray(i)
    bad = i[(i < 1) | (i > sched.n)]
    if bad.size:
        raise ParameterError(f"step {bad.flat[0]} outside 1..{sched.n}")
    abar = sched.alpha_bar[i - 1]
    if abar.ndim:
        abar = abar[:, None]
    return np.sqrt(abar) * np.asarray(x0) + np.sqrt(1.0 - abar) * np.asarray(eps)


def training_loss(
    params: nn.DenoiserParams, x0: np.ndarray, c: np.ndarray, sched: Schedule,
    steps: np.ndarray, noise: np.ndarray, *, want_grads: bool = True,
):
    """Noise-prediction MSE over a batch and its parameter gradients.

    Row b is noised at step steps[b] in 1..n with the standard-normal vector
    noise[b]; the loss is the mean over the batch of ||noise - eps_hat||^2 / L.
    With gradients, the one forward pass caches what the backward pass needs.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    b, l = x0.shape
    if b == 0:
        raise InsufficientDataError("empty batch")
    x_noisy = forward_sample(x0, steps, noise, sched)
    cache = [] if want_grads else None
    resid = nn.forward_batch(params, x_noisy, steps, c, cache) - noise
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
    hidden: tuple[int, ...] = (256, 256, 256)
    embed_dim: int = 32
    seed: int = 0
    zone: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ParameterError(f"optimizer needs lr > 0, got {self.lr}")
        if any(h < 1 for h in self.hidden):
            raise ParameterError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if self.embed_dim <= 0 or self.embed_dim % 2:
            raise ParameterError(f"embed_dim must be positive and even, got {self.embed_dim}")


def train(ds, config: TrainConfig, sched: Schedule):
    """Minibatch noise-MSE training; returns (best params, per-epoch log).

    The checkpoint with the lowest validation loss wins; validation uses one
    fixed draw of steps and noise so epochs are compared on the same ruler.
    Each batch draws its steps, then its noise, from one stream for all
    batches; the validation draw comes from its own stream, in the same order.
    The log is a list of {epoch, learn_loss, val_loss} dicts, deterministic
    for a fixed config seed.
    """
    if ds.scaler is None:
        raise ParameterError("dataset must be normalized before training")
    x_learn, c_learn, _ = ds.arrays(split="learn", zone=config.zone)
    x_learn, c_learn = ds.scaler.to_model(x_learn), ds.scaler.transform_cov(c_learn)
    master = np.random.SeedSequence(config.seed)
    ss_init, ss_shuffle, ss_batch, ss_val = master.spawn(4)
    params = nn.init_params(
        hidden=tuple(config.hidden), sample_dim=x_learn.shape[1],
        embed_dim=config.embed_dim, cond_dim=c_learn.shape[1], seed=ss_init,
    )
    log: list[dict] = []
    if config.epochs == 0:
        return params, log

    x_val, c_val, _ = ds.arrays(split="validation", zone=config.zone)
    x_val, c_val = ds.scaler.to_model(x_val), ds.scaler.transform_cov(c_val)
    rng_val = np.random.default_rng(ss_val)
    val_steps = rng_val.integers(1, sched.n + 1, size=x_val.shape[0])
    val_noise = rng_val.standard_normal(x_val.shape)

    rng_shuffle = np.random.default_rng(ss_shuffle)
    rng_batch = np.random.default_rng(ss_batch)
    state = nn.OptimizerState(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))
    best_val = math.inf  # epoch 1 sets best_params: a non-finite val_loss raises
    n = x_learn.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        try:
            # overflow and invalid results raise no warning: the finiteness checks
            # on the loss, the gradients and the parameters report them
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, n, config.batch_size):
                    idx = order[lo : lo + config.batch_size]
                    steps = rng_batch.integers(1, sched.n + 1, size=idx.size)
                    noise = rng_batch.standard_normal((idx.size, x_learn.shape[1]))
                    loss, grads = training_loss(params, x_learn[idx], c_learn[idx], sched,
                                                steps, noise)
                    nn.adam_step(config, state, params, grads)
                    losses.append(loss)
                params.validate()
                val_loss, _ = training_loss(params, x_val, c_val, sched, val_steps, val_noise,
                                            want_grads=False)
        except TrainingDivergenceError as e:
            raise TrainingDivergenceError(f"epoch {epoch}: {e}") from None
        log.append({"epoch": epoch, "learn_loss": float(np.mean(losses)), "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
    return best_params, log


NOISE_SLAB = 25  # reverse steps of z noise a chunk draws at once: 25 x 256 x 24 x 8 B = 1.2 MB
SAMPLE_STEPS = 50  # steps of the chain sample_days runs (Schedule.respace)


def _reverse_engine(bind, c_rows: np.ndarray, sched: Schedule,
                    seed_seqs, l: int, chunk: int = 256, tau=None) -> np.ndarray:
    """Ancestral sampling for many (condition, stream) rows at once.

    `sched` is the chain's schedule (Schedule.respace); its step i stands for schedule
    step tau[i - 1] (default i), the step a SamplingDivergenceError names. bind(c) takes
    one chunk's conditions (B, C) and returns the denoiser step(x_noisy (B, l), i) ->
    eps_hat (B, l) of chain step i, a scalar; nn.sampling_forward builds it. The chain
    state, update and finiteness check stay float64.
    Each row has its own RNG stream drawing, in order, the initial noise and
    then one z vector per chain step from n down to 2, so a row's draws
    do not depend on `chunk` or on the other rows. Its bits do not either as
    long as BLAS rounds a row of a matrix product the same whatever the row
    count; OpenBLAS does not for products of a few rows (its small-matrix
    kernel), where results move in the last bits.

    Rows run in 256-row chunks, whose hidden activations (256 x 128 x 4 B) stay in L2
    cache. workers.fork_map runs the independent chunks on every usable CPU, in forked
    processes that inherit the caller's numpy error state, where the process may fork
    (on one OS thread, e.g. with numpy's OpenBLAS pinned to one), and one after another
    otherwise. An error is the first failing chunk's in row order.
    """
    r = c_rows.shape[0]

    def run(lo: int) -> np.ndarray:
        x = np.empty((min(chunk, r - lo), l))
        _reverse_chunk(bind(c_rows[lo:lo + len(x)]), sched, seed_seqs[lo:lo + len(x)], x, tau)
        return x

    return np.concatenate([np.empty((0, l)), *fork_map(run, range(0, r, chunk))])


def _reverse_chunk(step, sched: Schedule, seed_seqs, x: np.ndarray, tau=None) -> None:
    """Run the chain of `sched` (steps n to 1, with its beta, alpha_bar and
    sigma) for one chunk's rows in place in `x`; step(x, i) is the denoiser, tau as
    in _reverse_engine. Each row's generator draws its initial noise, then its z
    vectors NOISE_SLAB steps at a time, in the stream order of one (n - 1, l) draw.
    """
    rows, l = x.shape
    rngs = [np.random.default_rng(s) for s in seed_seqs]
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=x[j])
    z = np.empty((rows, min(NOISE_SLAB, max(sched.n - 1, 0)), l))
    for i in range(sched.n, 0, -1):
        k = (sched.n - i) % NOISE_SLAB  # step i's z vector within its slab
        if i > 1 and k == 0:
            steps = min(NOISE_SLAB, i - 1)
            for j, rng in enumerate(rngs):
                rng.standard_normal(out=z[j, :steps])
        eps_hat = step(x, i)
        x -= sched.beta[i - 1] / math.sqrt(1.0 - sched.alpha_bar[i - 1]) * eps_hat
        x /= math.sqrt(1.0 - sched.beta[i - 1])
        if i > 1:
            x += sched.sigma[i - 1] * z[:, k]
        if not np.all(np.isfinite(x)):
            raise SamplingDivergenceError(
                f"non-finite sample at step {i if tau is None else tau[i - 1]}")


def sample_days(params: nn.DenoiserParams, conditions: np.ndarray, day_ids, sched: Schedule,
                m: int, seed, scaler: Scaler, steps: int = SAMPLE_STEPS) -> list[ScenarioSet]:
    """Scenario sets for many days in one batched pass, in physical units.

    Row j of `conditions`, in physical units, is day_ids[j]'s weather and
    becomes its set's `condition`. `scaler` maps the rows into the network's
    space and the samples back out (see data.Scaler.to_physical). The chain
    runs min(steps, n) of sched's n steps (Schedule.respace). `seed` is
    SeedSequence entropy, an int or a list of ints: scenario k of day j draws
    from SeedSequence(seed).spawn(D)[j].spawn(m)[k] for D days, so a day's
    streams do not depend on the days after it.
    """
    conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
    if len(day_ids) != conditions.shape[0]:
        raise DimensionError(f"{len(day_ids)} day ids for {conditions.shape[0]} condition rows")
    if m < 1:
        raise ParameterError("m must be >= 1")
    seqs = [s for day_seq in np.random.SeedSequence(seed).spawn(len(day_ids))
            for s in day_seq.spawn(m)]
    c_rows = np.repeat(scaler.transform_cov(conditions), m, axis=0)
    chain, tau = sched.respace(steps)
    x = scaler.to_physical(_reverse_engine(nn.sampling_forward(params, tau), c_rows, chain,
                                           seqs, HOURS, tau=tau))
    return [ScenarioSet(day_id=day_id, m=m, scenarios=x[j * m : (j + 1) * m],
                        condition=conditions[j].copy())
            for j, day_id in enumerate(day_ids)]


CHECKPOINT_MAGIC = "scendiff-checkpoint"
# 2: the header carries the parameter block's SHA-256; 3: and the zone's test days;
# 4: it drops the activation, the schedule's n and sigma_mode, the scaler's target_scale
CHECKPOINT_VERSION = 4
# header fields load_checkpoint relies on, with their JSON types
_HEADER_TYPES = {
    "track": str, "zone": int, "sample_dim": int, "embed_dim": int, "cond_dim": int,
    "hidden": list, "n_params": int, "schedule": dict,
    "scaler": dict, "test_days": list, "sha256": str,
}
# value rules for the header's scaler, checked in order: (field, rule,
# check(scaler, header)). target_scale is derived from learn_max, so learn_max
# is checked first; a covariate shape equals (cond_dim / 24,) only for a whole
# number of channels
_SCALER_RULES = (
    ("track", f"must be one of {TRACKS} and the header's track",
     lambda sc, h: sc.track in TRACKS and sc.track == h["track"]),
    ("learn_max", "must be finite, and > 0 for load",
     lambda sc, h: math.isfinite(sc.learn_max) and (sc.learn_max > 0 or sc.track != "load")),
    ("target_scale", "must be finite and > 0",
     lambda sc, h: math.isfinite(sc.target_scale) and sc.target_scale > 0),
    ("cov_offset", "needs one finite entry per cond_dim / 24 channel",
     lambda sc, h: sc.cov_offset.shape == (h["cond_dim"] / HOURS,)
     and np.isfinite(sc.cov_offset).all()),
    ("cov_scale", "needs one finite entry > 0 per cond_dim / 24 channel",
     lambda sc, h: sc.cov_scale.shape == (h["cond_dim"] / HOURS,)
     and np.all((sc.cov_scale > 0) & (sc.cov_scale < math.inf))),
    ("target_fixed", f"needs {HOURS} hours, each null or in [0, 1] (load: [0, 1.2 learn_max])",
     lambda sc, h: sc.target_fixed.shape == (HOURS,)
     and not np.any((sc.target_fixed < 0) | (sc.target_fixed > sc.upper))),
)


def save_checkpoint(path: str | Path, params: nn.DenoiserParams, sched: Schedule,
                    scaler: Scaler, track: str, zone: int, test_days) -> None:
    """Write a model file: one JSON header line, then the raw parameter block.

    The block is params.vector as little-endian float64 (layer-major, each
    row-major W then its b); the header's `sha256` is the hex digest of its
    bytes. `test_days`, the dates the model was not trained on, are stored
    sorted as YYYY-MM-DD strings; generate samples exactly those days.
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
        "hidden": list(params.hidden),
        "n_params": params.n_params,
        "schedule": sched.to_dict(),
        "scaler": scaler.to_dict(),
        "test_days": sorted(d.isoformat() for d in test_days),
        "sha256": hashlib.sha256(block).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.write(block)


def load_checkpoint(path: str | Path):
    """Read a model file; returns (params, schedule, scaler, header dict),
    the header's `test_days` parsed to dates.

    Raises ModelValidationError on a malformed header, another format
    version, a hidden layer without units, an embed_dim that is not positive
    and even, a sample_dim other than 24 hours, a test day that is not a
    YYYY-MM-DD string or that repeats or breaks the sorted order, or a
    parameter block whose length disagrees with the declared architecture
    or whose bytes disagree with the header's SHA-256.
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ModelValidationError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelValidationError(f"{path}: bad header: {e}") from None
    except RecursionError:
        raise ModelValidationError(f"{path}: bad header: nested too deeply to parse") from None
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
    if header["sample_dim"] != HOURS:
        raise ModelValidationError(f"{path}: sample_dim is {header['sample_dim']}, "
                                   f"expected {HOURS}")
    block = raw[nl + 1 :]
    n_params = header["n_params"]
    if len(block) != 8 * n_params:
        raise ModelValidationError(
            f"{path}: parameter block is {len(block)} bytes, expected {8 * n_params}"
        )
    if hashlib.sha256(block).hexdigest() != header["sha256"]:
        raise ModelValidationError(f"{path}: parameter block does not match its SHA-256")
    try:
        # refuse a network TrainConfig could not have built; the layers are
        # views into the block's copy, so a corrupt header cannot ask for
        # arrays larger than the file
        TrainConfig(hidden=tuple(header["hidden"]), embed_dim=header["embed_dim"])
        params = nn.DenoiserParams(
            hidden=tuple(header["hidden"]), sample_dim=header["sample_dim"],
            embed_dim=header["embed_dim"], cond_dim=header["cond_dim"],
            vector=np.frombuffer(block, dtype="<f8").astype(float),
        )
        params.validate()
        sched = Schedule.from_dict(header["schedule"])
        scaler = Scaler.from_dict(header["scaler"])
        header["test_days"] = [_iso_day(d) for d in header["test_days"]]
        if sorted(set(header["test_days"])) != header["test_days"]:
            raise ValueError("test_days must be sorted and distinct")
    except KeyError as e:  # a key of the schedule or scaler object
        raise ModelValidationError(f"{path}: the header lacks the field {e}") from None
    except (TypeError, ValueError, OverflowError, ScendiffError) as e:
        raise ModelValidationError(f"{path}: bad checkpoint: {type(e).__name__}: {e}") from None
    for field, rule, holds in _SCALER_RULES:
        if not holds(scaler, header):
            raise ModelValidationError(f"{path}: scaler {field} {rule}")
    return params, sched, scaler, header


def write_scenarios(sets: list[ScenarioSet], path: str | Path) -> None:
    """CSV `day,scenario,h0..h23` in physical units, scenarios numbered 1..M: one
    `%` block per day from the template of its M lines, "\0" standing for the date."""
    lines = functools.cache(lambda m: _float_lines([f"\0,{j}" for j in range(1, m + 1)], HOURS))
    _write_table(path, ["day", "scenario"] + [f"h{h}" for h in range(HOURS)],
                 ((lines(len(s.scenarios)).replace("\0", s.day_id.isoformat()),
                   tuple(s.scenarios.ravel().tolist())) for s in sets))


def read_scenarios(path: str | Path) -> dict[date, np.ndarray]:
    """Inverse of write_scenarios: {day: (M, 24) array}.

    One np.loadtxt pass reads every cell (see data._read_table), each
    distinct date cell is parsed once, and each day's array is a view of
    one block of rows in (day, scenario) order: the table itself when the
    file is in that order, as write_scenarios leaves it, else one sorted copy.
    """
    def header_dtype(cells):
        if cells != ["day", "scenario"] + [f"h{h}" for h in range(HOURS)]:
            raise SchemaError(f"{path}: bad scenario header")
        return [("day", f"U{_DATE_WIDTH}"), ("scenario", "f8"), ("h", "f8", (HOURS,))]

    rows = _read_table(path, header_dtype)
    days, day = _day_index(path, rows["day"])
    number = rows["scenario"]
    order = np.lexsort((number, day))  # by day, then scenario number
    counts = np.bincount(day, minlength=len(days))
    ends = np.cumsum(counts)
    # scenario numbers must run 1..M within each day
    bad = number[order] != np.arange(1, day.size + 1) - np.repeat(ends - counts, counts)
    if bad.any():
        raise IntegrityError(f"{path}: day {days[day[order][bad].min()]} "
                             "scenario numbering is not 1..M")
    values = rows["h"] if (order[1:] > order[:-1]).all() else rows["h"][order]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        d = days[day[order][~finite].min()]
        raise ParseError(f"{path}: day {d} has a non-finite scenario value")
    return {d: values[e - c:e] for d, c, e in zip(days, counts, ends)}
