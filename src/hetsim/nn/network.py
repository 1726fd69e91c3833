"""Sequential layer chains: parameter layout, initialization, forward, backward.

There is no autograd graph. Each layer kind in :mod:`hetsim.nn.layers`
defines its own forward/backward pair; a chain runs the forwards in order
and is differentiated by replaying the cached per-layer state in reverse.
Inputs are always batched with the sample axis first. A
:class:`ChainPlan` holds what a chain needs on every call (its keyed
layers, its parameter span and where to check for non-finite values) and
is built once per chain.

Non-finite values are checked where they could otherwise vanish: at the
output of the layer before each layer that can drop one
(``Layer.drops_non_finite``: max pooling, softmax, a strided convolution)
and at the chain's own output; the chain's input is never checked. Every
other layer kind turns a NaN or +-inf anywhere in its input into a
non-finite output, so a non-finite value that appears after one check
point still shows at the next, and the plan raises on exactly the inputs
that a check after every layer raises on. The error names the first layer
whose output is non-finite, found among the outputs the plan keeps since
its last check point, so nothing is recomputed and no dropout mask is
redrawn.

The backward pass returns the gradient with respect to the chain's input,
except for a plan built with ``reads_input``: that chain reads the network
input, whose gradient nothing reads, so the backward pass of its cache
gives its first layer only its parameter gradients
(``Layer.backward_params``, the same bits as a full backward) and returns
None. A cache made by :func:`forward_chain` always returns ``dx``.

Stochastic layers (Dropout, BranchDropout) draw their masks from the
generator passed to :func:`forward_chain` and are active only in train
mode; eval mode is a pure function of (params, input).

A cache is only valid for the parameter values its forward pass read.
The forward pass keeps the bytes of the chain's own span of the flat
parameter vector, and the backward pass compares the span's bytes with
them, so any write in between (through ``flat``, a view, an optimizer
step or a broadcast; ``0.0 -> -0.0`` included) is caught, as is a store
of another dtype when the chain has parameters. The cost scales with the
chain's parameters, not with the whole vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import Layer, Softmax
from .params import LayerKey, ParamKey, ParamStore


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where the math requires finite values."""


def ensure_finite(name: str, arr: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` naming ``name`` if ``arr`` holds a NaN
    or +-inf. Chains call it only at their check points (module docstring)."""
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


@dataclass
class ChainCache:
    """Everything a chain's backward pass needs from its forward pass.

    ``span`` is the ``[lo, hi)`` slice of ``store.flat`` the chain's layers
    read, and ``snapshot`` that slice's bytes (``tobytes()``) at forward
    time, so the backward pass compares bits, not values.
    ``reads_input`` comes from the plan: the backward pass then skips the
    input gradient and returns None.
    """

    keyed_layers: tuple[KeyedLayer, ...]
    per_layer: list
    span: tuple[int, int]
    snapshot: bytes
    reads_input: bool = False


class ChainPlan:
    """A chain's keyed layers, its parameter span and its finite-check points.

    ``span`` is the ``[lo, hi)`` slice of the flat parameter vector that the
    chain's layers read. A plan holds no store: one plan serves every store
    of the layout it was built for, and looks tensors up by key per call.
    ``reads_input`` marks a chain whose input is the network's input, so
    its caches' backward passes compute no input gradient.
    """

    def __init__(self, keyed_layers: list[KeyedLayer], span: tuple[int, int],
                 reads_input: bool = False):
        self.keyed_layers = tuple(keyed_layers)
        self.span = span
        self.reads_input = reads_input
        # (key, layer, check its output): before a dropping layer, and at the end
        n = len(self.keyed_layers)
        self._steps = tuple(
            (key, layer, i == n - 1 or self.keyed_layers[i + 1][1].drops_non_finite)
            for i, (key, layer) in enumerate(self.keyed_layers))

    def _run(self, store: ParamStore, x: np.ndarray, train: bool,
             rng: np.random.Generator | None, caches: list | None) -> np.ndarray:
        out = np.asarray(x, dtype=store.dtype)
        unchecked: list[np.ndarray] = []  # outputs since the last check point
        for i, (key, layer, check) in enumerate(self._steps):
            out, c = layer.forward(store, key, out, train, rng)
            if caches is not None:
                caches.append(c)
            unchecked.append(out)
            if check:
                if not np.isfinite(out).all():  # name the first, as a per-layer check would
                    for (_, kept), y in zip(self.keyed_layers[i + 1 - len(unchecked):],
                                            unchecked):
                        ensure_finite(f"{kept.__class__.__name__} output", y)
                unchecked = []
        return out

    def forward(self, store: ParamStore, x: np.ndarray, mode: str = "eval",
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, "ChainCache"]:
        """Output and the backward cache, with the bytes of the chain's span.

        ``mode`` is "train" or "eval". Train mode requires ``rng`` if the
        chain contains stochastic layers.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        caches: list = []
        out = self._run(store, x, mode == "train", rng, caches)
        lo, hi = self.span
        return out, ChainCache(self.keyed_layers, caches, self.span,
                               store.flat[lo:hi].tobytes(), self.reads_input)

    def predict(self, store: ParamStore, x: np.ndarray) -> np.ndarray:
        """Eval-mode output only: no cache and no parameter copy."""
        return self._run(store, x, False, None, None)


def forward_chain(keyed_layers: list[KeyedLayer], store: ParamStore, x: np.ndarray,
                  mode: str = "eval", rng: np.random.Generator | None = None
                  ) -> tuple[np.ndarray, ChainCache]:
    """Run a sequential chain; returns output and the backward cache.

    The :class:`ChainPlan` is built per call; code that runs one chain many
    times keeps the plan instead.
    """
    plan = ChainPlan(keyed_layers, store.span_of(key for key, _ in keyed_layers))
    return plan.forward(store, x, mode, rng)


def backward_chain(cache: ChainCache, dy: np.ndarray, store: ParamStore,
                   grads: ParamStore, from_logits: bool = False) -> np.ndarray | None:
    """Backpropagate through a chain; accumulates into ``grads``, returns dx
    (None for a cache with ``reads_input``, see the module docstring).

    ``store`` must be the same store the forward pass read from, with the
    same values: the bytes of the chain's span of ``store.flat`` are
    compared with those the forward pass kept, and any difference raises
    ``ValueError`` (the cache is stale). With
    ``from_logits`` the chain must end in Softmax and ``dy`` is taken
    w.r.t. that softmax's input (the fused cross-entropy form), so the
    final softmax is skipped.
    """
    lo, hi = cache.span
    if store.flat[lo:hi].tobytes() != cache.snapshot:  # bits, not values
        raise ValueError("parameters changed since the forward pass; the cache "
                         "is stale, rerun forward")
    steps = list(zip(cache.keyed_layers, cache.per_layer))
    if from_logits:
        if not steps or not isinstance(steps[-1][0][1], Softmax):
            raise ValueError("from_logits requires a Softmax-terminated network")
        steps.pop()
    dx = np.asarray(dy)
    for (key, layer), c in reversed(steps[1:] if cache.reads_input else steps):
        dx = layer.backward(store, key, c, dx, grads)
    if not cache.reads_input:
        return dx
    if steps:
        (key, layer), c = steps[0]
        layer.backward_params(store, key, c, dx, grads)
    return None
