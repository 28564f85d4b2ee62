"""Reference implementations the tests compare the package against.

Each is the plain textbook form of something the package computes another
way, or a law and a baseline that no command needs:

- the step-by-step forward noising chain (gate 2), and the reverse sampler
  run one chunk after another with each row's noise drawn up front;
- one pinball term (the quantile-score tests);
- a manifest reader (the manifest round trip) and the sorted days of one split;
- the closed-form conditional mean of a synthetic day, read off the
  generator's own law `data._profile_law` (the synthetic-law tests);
- the climatology baseline, which resamples learn days (gates 4 and 7).
"""
import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from scendiff.data import Dataset, Scaler, _profile_law
from scendiff.errors import InsufficientDataError, SamplingDivergenceError


def chain_forward(x0: np.ndarray, sched, rng: np.random.Generator) -> np.ndarray:
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


def pinball(xq: float, y: float, q: float) -> float:
    """Single pinball term: (y - xq) q if y >= xq else (xq - y)(1 - q)."""
    return (y - xq) * q if y >= xq else (xq - y) * (1.0 - q)


def read_manifest(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("scaler"):
        doc["scaler"] = Scaler.from_dict(doc["scaler"])
    doc["split"] = {date.fromisoformat(k): v for k, v in doc["split"].items()}
    return doc


def split_days(ds: Dataset, name: str) -> list[date]:
    """The sorted days that `ds.split` assigns to split `name`."""
    return sorted(d for d, s in ds.split.items() if s == name)


_ERF = np.vectorize(math.erf)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1 + _ERF(np.clip(z, -40.0, 40.0) / math.sqrt(2)))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -40.0, 40.0)
    return np.exp(-0.5 * zc * zc) / math.sqrt(2 * math.pi)


def clipped_normal_mean(mu, sd, lo, hi):
    """E[clip(Y, lo, hi)] for Y ~ N(mu, sd^2), elementwise; lo must be finite."""
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    safe_sd = np.where(sd > 0, sd, 1.0)
    alpha = (lo - mu) / safe_sd
    if math.isinf(hi):
        val = mu * (1 - _norm_cdf(alpha)) + safe_sd * _norm_pdf(alpha) + lo * _norm_cdf(alpha)
    else:
        beta = (hi - mu) / safe_sd
        val = (
            mu * (_norm_cdf(beta) - _norm_cdf(alpha))
            + safe_sd * (_norm_pdf(alpha) - _norm_pdf(beta))
            + hi * (1 - _norm_cdf(beta))
            + lo * _norm_cdf(alpha)
        )
    return np.where(sd > 0, val, np.clip(mu, lo, hi))


def conditional_mean(profile: str, c: np.ndarray) -> np.ndarray:
    """Closed-form conditional mean of a synthetic day given its covariates."""
    scale, mean, sd, lo, hi = _profile_law(profile, c)
    return clipped_normal_mean(scale * mean, scale * sd, lo, hi)


def climatology_scenarios(ds: Dataset, m: int, seed: int, zone: int = 1) -> np.ndarray:
    """Baseline ensemble: m target profiles sampled from the learn split."""
    learn = ds.subset(split="learn", zone=zone)
    if not learn:
        raise InsufficientDataError("learn split is empty")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(learn), size=m)
    return np.stack([learn[i].x for i in idx])


def sequential_engine(bind, c_rows, sched, seed_seqs, l, chunk=256):
    """The reverse sampler as it was before its chunks ran concurrently: one
    chunk after another, each drawing every row's whole (n - 1, l) z block
    up front. diffusion._reverse_engine must reproduce its bytes, inline or
    forked."""
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
        step = bind(c_rows[lo:hi])
        for i in range(sched.n, 0, -1):
            eps_hat = step(x, i)
            x -= sched.beta[i - 1] / math.sqrt(1.0 - sched.alpha_bar[i - 1]) * eps_hat
            x /= math.sqrt(1.0 - sched.beta[i - 1])
            if i > 1:
                x += sched.sigma[i - 1] * z[:, sched.n - i]
            if not np.all(np.isfinite(x)):
                raise SamplingDivergenceError(f"non-finite sample at step {i}")
        out[lo:hi] = x
    return out
