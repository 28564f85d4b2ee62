"""Shared fixtures: small synthetic datasets and a tiny trained denoiser.

The trained model is deliberately small (short cosine schedule, narrow MLP,
few epochs) so the full suite stays fast; accuracy-sensitive checks live in
test_acceptance.py with properly sized configurations.
"""
import numpy as np
import pytest

from scendiff import data as dmod
from scendiff import diffusion as dif


@pytest.fixture(scope="session")
def pv_dataset():
    """60 synthetic sine_pv days with a 70/15/15 split, raw units."""
    ds = dmod.generate_synthetic(60, 101, "sine_pv")
    return dmod.split_random(ds, (0.7, 0.15, 0.15), seed=5)


@pytest.fixture(scope="session")
def pv_fitted(pv_dataset):
    """pv_dataset with its Scaler fitted; the samples stay in raw units."""
    return dmod.normalize(pv_dataset)


@pytest.fixture(scope="session")
def wind_dataset():
    ds = dmod.generate_synthetic(40, 77, "ramp_wind")
    return dmod.split_random(ds, (0.7, 0.15, 0.15), seed=6)


@pytest.fixture(scope="session")
def tiny_schedule():
    # cosine reaches a tiny terminal alpha-bar even with few steps
    return dif.make_schedule("cosine", n=30)


@pytest.fixture(scope="session")
def tiny_model(pv_fitted, tiny_schedule):
    """A briefly trained denoiser for plumbing tests (not accuracy tests)."""
    cfg = dif.TrainConfig(
        epochs=8,
        batch_size=16,
        lr=2e-3,
        hidden=(32, 32),
        embed_dim=8,
        seed=3,
        zone=1,
    )
    params, log = dif.train(pv_fitted, cfg, tiny_schedule)
    return params, log
