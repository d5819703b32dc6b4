"""Desk-scale hierarchical graph-learning forecaster for multivariate series."""

from .autodiff import Tensor, backward
from .decomposition import DecomposedSeries, decompose
from .latent_graph import SparseAdjacency
from .model import Model, ModelConfig, build_variant, load_model
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "DecomposedSeries",
    "decompose",
    "SparseAdjacency",
    "Model",
    "ModelConfig",
    "build_variant",
    "load_model",
    "TrainConfig",
    "train",
    "evaluate",
    "__version__",
]
