"""Minimal neural-network engine: layers, losses, optimizers, grad checks."""

from .layers import (
    Add,
    BranchDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    ShapeError,
    Softmax,
    chain_shapes,
    count_operations,
    count_parameters,
    layer_from_dict,
    layer_to_dict,
    output_shape,
    param_shapes,
)
from .losses import clamp_warning_count, cross_entropy, huber, reset_clamp_warnings
from .network import (
    ChainCache,
    NonFiniteError,
    backward_chain,
    build_layout,
    ensure_finite,
    forward_chain,
    init_chain_params,
    make_keyed,
)
from .optim import Adam, Optimizer, RmsProp, Sgd, make_optimizer
from .params import LayerKey, ParamKey, ParamStore, from_flat
from .gradcheck import GradCheckReport, finite_diff_check

__all__ = [
    "Add", "Adam", "BranchDropout", "ChainCache", "Conv2D", "Dense", "Dropout",
    "Flatten", "GradCheckReport", "Layer", "LayerKey", "MaxPool2D", "NonFiniteError",
    "Optimizer", "ParamKey", "ParamStore", "ReLU", "RmsProp", "Sgd", "ShapeError",
    "Softmax", "backward_chain", "build_layout", "chain_shapes", "clamp_warning_count",
    "count_operations", "count_parameters", "cross_entropy", "ensure_finite",
    "finite_diff_check", "forward_chain", "from_flat", "huber", "init_chain_params",
    "layer_from_dict", "layer_to_dict", "make_keyed", "make_optimizer",
    "output_shape", "param_shapes", "reset_clamp_warnings",
]
