"""Minimal neural-network engine: layers, losses, optimizers."""

from .layers import (
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
    output_shape,
)
from .losses import cross_entropy, huber
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
from .params import LayerKey, ParamKey, ParamStore

__all__ = [
    "Adam", "BranchDropout", "ChainCache", "Conv2D", "Dense", "Dropout",
    "Flatten", "Layer", "LayerKey", "MaxPool2D", "NonFiniteError",
    "Optimizer", "ParamKey", "ParamStore", "ReLU", "RmsProp", "Sgd", "ShapeError",
    "Softmax", "backward_chain", "build_layout", "chain_shapes",
    "count_operations", "count_parameters", "cross_entropy", "ensure_finite",
    "forward_chain", "huber", "init_chain_params",
    "layer_from_dict", "make_keyed", "make_optimizer", "output_shape",
]
