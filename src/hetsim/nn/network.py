"""Sequential layer chains: parameter layout, initialization, forward, backward.

There is no autograd graph. Each layer kind in :mod:`hetsim.nn.layers`
defines its own forward/backward pair; a chain runs the forwards in order,
checking that every output is finite, and is differentiated by replaying
the cached per-layer state in reverse. Inputs are always batched with the
sample axis first.

Stochastic layers (Dropout, BranchDropout) draw their masks from the
generator passed to :func:`forward_chain` and are active only in train
mode; eval mode is a pure function of (params, input).
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .layers import Layer, Softmax
from .params import LayerKey, ParamKey, ParamStore


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where the math requires finite values."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {name}")


KeyedLayer = tuple[LayerKey, Layer]


def make_keyed(scope: str, layers) -> list[KeyedLayer]:
    """Assign stable (scope, index) keys to a layer sequence."""
    return [((scope, i), layer) for i, layer in enumerate(layers)]


def build_layout(keyed_layers: list[KeyedLayer], input_shape) -> list[tuple[ParamKey, tuple[int, ...]]]:
    """Canonical (key, shape) layout of a chain: layer order, weights before biases."""
    layout: list[tuple[ParamKey, tuple[int, ...]]] = []
    shape = tuple(input_shape)
    for key, layer in keyed_layers:
        for name, pshape in layer.param_shapes(shape).items():
            layout.append(((key, name), pshape))
        shape = layer.output_shape(shape)
    return layout


def init_chain_params(keyed_layers: list[KeyedLayer], input_shape, store: ParamStore,
                      rng: np.random.Generator) -> None:
    """Glorot-uniform weights, zero biases, written into ``store`` in chain order.

    Weights are laid out (..., fan-in channels, out channels), so the fans
    are read off the weight shape: Dense (in, out) and Conv2D
    (kh, kw, cin, cout) alike.
    """
    shape = tuple(input_shape)
    for key, layer in keyed_layers:
        wshape = layer.param_shapes(shape).get("w")
        if wshape is not None:
            fan_in = math.prod(wshape[:-1])
            fan_out = math.prod(wshape[:-2]) * wshape[-1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            store.view((key, "w"))[...] = rng.uniform(-limit, limit, size=wshape)
            store.view((key, "b"))[...] = 0.0
        shape = layer.output_shape(shape)


def _params_checksum(store: ParamStore) -> int:
    return zlib.crc32(store.flat.tobytes())


@dataclass
class ChainCache:
    """Everything a chain's backward pass needs from its forward pass."""

    keyed_layers: list[KeyedLayer]
    per_layer: list
    params_checksum: int = 0


def forward_chain(keyed_layers: list[KeyedLayer], store: ParamStore, x: np.ndarray,
                  mode: str = "eval", rng: np.random.Generator | None = None
                  ) -> tuple[np.ndarray, ChainCache]:
    """Run a sequential chain; returns output and the backward cache.

    ``mode`` is "train" or "eval". Train mode requires ``rng`` if the chain
    contains stochastic layers.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    caches = []
    out = np.asarray(x, dtype=store.dtype)
    for key, layer in keyed_layers:
        out, c = layer.forward(store, key, out, train, rng)
        caches.append(c)
        ensure_finite(f"{layer.__class__.__name__} output", out)
    return out, ChainCache(list(keyed_layers), caches, _params_checksum(store))


def backward_chain(cache: ChainCache, dy: np.ndarray, store: ParamStore,
                   grads: ParamStore, from_logits: bool = False) -> np.ndarray:
    """Backpropagate through a chain; accumulates into ``grads``, returns dx.

    ``store`` must be the same store the forward pass read from, with the
    same values: mutating parameters invalidates the cache. With
    ``from_logits`` the chain must end in Softmax and ``dy`` is taken
    w.r.t. that softmax's input (the fused cross-entropy form), so the
    final softmax is skipped.
    """
    if _params_checksum(store) != cache.params_checksum:
        raise ValueError("parameters changed since the forward pass; the cache "
                         "is stale, rerun forward")
    steps = list(zip(cache.keyed_layers, cache.per_layer))
    if from_logits:
        if not steps or not isinstance(steps[-1][0][1], Softmax):
            raise ValueError("from_logits requires a Softmax-terminated network")
        steps.pop()
    dx = np.asarray(dy)
    for (key, layer), c in reversed(steps):
        dx = layer.backward(store, key, c, dx, grads)
    return dx
