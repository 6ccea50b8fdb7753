"""Semiparametric tensor factor analysis via iteratively projected SVD."""

__version__ = "0.1.0"

from .estimator import (DegenerateCoreError, EstimationError, HooiFit,
                        RankExceedsSpanError, StefaFit, estimate_ranks,
                        fit_stefa, hooi, load_fit, save_fit, subspace_distance)
from .prediction import KernelSpec, kernel_weights, predict_stefa, predict_vanilla
from .sieve import BasisSpec, SieveDesign, build_design, eval_basis
from .simlab import (SimConfig, SimInstance, generate, loss_function,
                     run_experiment)
from .tensor import matricize, mode_product, multi_mode_product

__all__ = [
    "__version__",
    "BasisSpec", "SieveDesign", "build_design", "eval_basis",
    "DegenerateCoreError", "EstimationError", "RankExceedsSpanError",
    "HooiFit", "StefaFit", "estimate_ranks", "fit_stefa", "hooi",
    "save_fit", "load_fit",
    "KernelSpec", "kernel_weights", "predict_stefa", "predict_vanilla",
    "SimConfig", "SimInstance", "generate", "loss_function",
    "subspace_distance", "run_experiment",
    "matricize", "mode_product", "multi_mode_product",
]
