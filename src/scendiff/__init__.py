"""Conditional diffusion scenarios for day-ahead energy profiles.

Trains a denoising diffusion model on daily load / pv / wind profiles
conditioned on weather covariates, samples day-ahead scenario sets, scores
them with proper scoring rules, and measures their economic value through a
scenario-based two-stage bidding problem solved by a bundled simplex.
"""

from .data import DaySample, Dataset, Scaler, generate_synthetic, load_csv
from .diffusion import Schedule, ScenarioSet, make_schedule, sample_days, train
from .errors import ScendiffError
from .metrics import QualityReport, crps, energy_score, evaluate, quantile_score, variogram_score
from .nn import DenoiserParams, OptimizerState
from .simplex import LPProblem, LPSolution, simplex_solve
from .value import RetailerModel, ValueReport, oracle_profit, realtime_dispatch, run_value_benchmark

__version__ = "0.1.0"

__all__ = [
    "DaySample", "Dataset", "Scaler", "generate_synthetic", "load_csv",
    "Schedule", "ScenarioSet", "make_schedule", "sample_days", "train",
    "ScendiffError",
    "QualityReport", "crps", "energy_score", "evaluate", "quantile_score", "variogram_score",
    "DenoiserParams", "OptimizerState",
    "LPProblem", "LPSolution", "simplex_solve",
    "RetailerModel", "ValueReport", "oracle_profit", "realtime_dispatch", "run_value_benchmark",
    "__version__",
]
