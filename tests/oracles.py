"""Reference implementations the tests compare the package against.

Each is the plain textbook form of something the package computes another
way: the step-by-step forward noising chain (gate 2), one pinball term
(the quantile-score tests), and a manifest reader (the manifest round trip).
"""
import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from scendiff.data import Scaler


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
