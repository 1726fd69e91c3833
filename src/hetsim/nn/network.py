"""Sequential layer chains: parameter layout, initialization, forward, backward.

There is no autograd graph. Each layer kind in :mod:`hetsim.nn.layers`
defines its own forward/backward pair; a chain runs the forwards in order
and is differentiated by replaying the cached per-layer state in reverse.
A :class:`ChainPlan` holds what a chain needs on every call (its keyed
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
None. Every other cache's backward pass returns ``dx``.

Stochastic layers (Dropout, BranchDropout) draw their masks from the
generator passed to :meth:`ChainPlan.forward` and are active only in train
mode; eval mode is a pure function of (params, input).

A plan runs on a store over rows, one per device (one device's is its one
row, :meth:`~hetsim.nn.params.ParamStore.row`): its input and every
output carry a leading device axis, (D, B, ...), and ``rng`` is one
generator per device. A non-finite value names the first device whose
check-point output holds one (``NonFiniteError.device``) and that
device's first non-finite layer. :func:`forward_chain` and
:func:`backward_chain` lift one device's 1-D store and batch to one row.

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

from .layers import Layer
from .params import LayerKey, ParamKey, ParamStore


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where the math requires finite values.

    ``device`` is the index of the device it appeared on, among those a
    stacked pass ran or a caller's loop went through, or None if unknown.
    """

    device: int | None = None


def non_finite_row(arr: np.ndarray) -> int | None:
    """The first index along axis 0 whose slice holds a NaN or +-inf, or
    None if every value is finite."""
    if np.isfinite(arr).all():
        return None
    return int(np.flatnonzero(~np.isfinite(arr).reshape(len(arr), -1).all(axis=1))[0])


def ensure_finite(name: str, arr: np.ndarray, stacked: bool = False) -> None:
    """Raise :class:`NonFiniteError` naming ``name`` if ``arr`` holds a NaN
    or +-inf; with ``stacked``, axis 0 is the device axis and the error
    names the first device that holds one. Chains call it only at their
    check points (module docstring)."""
    if not np.isfinite(arr).all():
        exc = NonFiniteError(f"non-finite values in {name}")
        if stacked:
            exc.device = non_finite_row(arr)
        raise exc


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
    input gradient and returns None. ``tapped`` is the input of the plan's
    ``tap`` layer (None without a tap).
    """

    keyed_layers: tuple[KeyedLayer, ...]
    per_layer: list
    span: tuple[int, int]
    snapshot: bytes
    reads_input: bool = False
    tap: int | None = None
    tapped: np.ndarray | None = None

    def backward(self, dy: np.ndarray, store: ParamStore, grads: ParamStore,
                 at_tap=None) -> np.ndarray | None:
        """Backpropagate through the chain; accumulates into ``grads``,
        returns dx (None with ``reads_input``, see the module docstring).

        ``store`` must be the store the forward pass read, with the same
        bits in the chain's span, or the cache is stale (``ValueError``).
        With a tap, ``at_tap`` is called with the gradient at the tapped
        activation and returns it with the leaving branch's gradient
        added; the pass goes on with what it returns (never called at the
        network's input, whose gradient is never formed).
        """
        lo, hi = self.span
        if store.flat[:, lo:hi].tobytes() != self.snapshot:  # bits, not values
            raise ValueError("parameters changed since the forward pass; the cache "
                             "is stale, rerun forward")
        steps = list(zip(self.keyed_layers, self.per_layer))
        dx = np.asarray(dy)
        first = 1 if self.reads_input else 0
        tap = self.tap if at_tap is not None else None
        for i in range(len(steps) - 1, first - 1, -1):
            if i + 1 == tap:  # dx is the gradient at the input of layer i + 1
                dx = at_tap(dx)
            (key, layer), c = steps[i]
            dx = layer.backward(store, key, c, dx, grads)
        if tap == first:
            dx = at_tap(dx)
        if not self.reads_input:
            return dx
        if steps:
            (key, layer), c = steps[0]
            layer.backward_params(store, key, c, dx, grads)
        return None


class ChainPlan:
    """A chain's keyed layers, its parameter span and its finite-check points.

    ``span`` is the ``[lo, hi)`` slice of the flat parameter vector that the
    chain's layers read. A plan holds no store: one plan serves every store
    of the layout it was built for, and looks tensors up by key per call.
    ``reads_input`` marks a chain whose input is the network's input, so
    its caches' backward passes compute no input gradient. ``tap`` is the
    index of a layer (up to the chain's length, its output) whose input
    also feeds a branch that leaves the chain: the forward pass keeps that
    activation (``ChainCache.tapped``), and :meth:`ChainCache.backward` adds the
    branch's gradient there.
    """

    def __init__(self, keyed_layers: list[KeyedLayer], span: tuple[int, int],
                 reads_input: bool = False, tap: int | None = None):
        self.keyed_layers = tuple(keyed_layers)
        self.span = span
        self.reads_input = reads_input
        self.tap = tap
        # (key, layer, check its output): before a dropping layer, and at the end
        n = len(self.keyed_layers)
        self._steps = tuple(
            (key, layer, i == n - 1 or self.keyed_layers[i + 1][1].drops_non_finite)
            for i, (key, layer) in enumerate(self.keyed_layers))

    def _run(self, store: ParamStore, x: np.ndarray, train: bool,
             rng, caches: list | None, tapped: list | None = None) -> np.ndarray:
        out = np.asarray(x, dtype=store.dtype)
        unchecked: list[np.ndarray] = []  # outputs since the last check point
        tap = self.tap if tapped is not None else None
        for i, (key, layer, check) in enumerate(self._steps):
            if i == tap:
                tapped.append(out)
            out, c = layer.forward(store, key, out, train, rng)
            if caches is not None:
                caches.append(c)
            unchecked.append(out)
            if check:
                if not np.isfinite(out).all():  # name the first, as a per-layer check would
                    device = non_finite_row(out)
                    for (_, kept), y in zip(self.keyed_layers[i + 1 - len(unchecked):],
                                            unchecked):
                        if not np.isfinite(y[device]).all():
                            exc = NonFiniteError(
                                f"non-finite values in {kept.__class__.__name__} output")
                            exc.device = device
                            raise exc
                unchecked = []
        if tap == len(self._steps):
            tapped.append(out)
        return out

    def forward(self, store: ParamStore, x: np.ndarray, mode: str = "eval",
                rng=None) -> tuple[np.ndarray, "ChainCache"]:
        """Output and the backward cache, with the bytes of the chain's span.

        ``mode`` is "train" or "eval". Train mode requires ``rng`` if the
        chain contains stochastic layers: one generator per row of
        ``store``.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        caches: list = []
        tapped = [] if self.tap is not None else None
        out = self._run(store, x, mode == "train", rng, caches, tapped)
        lo, hi = self.span
        return out, ChainCache(self.keyed_layers, caches, self.span,
                               store.flat[:, lo:hi].tobytes(), self.reads_input,
                               self.tap, tapped[0] if tapped else None)

    def predict(self, store: ParamStore, x: np.ndarray,
                tapped: list | None = None) -> np.ndarray:
        """Eval-mode output only: no cache and no parameter copy. A plan with
        a tap appends the tapped activation to ``tapped`` if one is given."""
        return self._run(store, x, False, None, None, tapped)


def forward_chain(keyed_layers: list[KeyedLayer], store: ParamStore, x: np.ndarray,
                  mode: str = "eval", rng: np.random.Generator | None = None
                  ) -> tuple[np.ndarray, ChainCache]:
    """Run a chain once on one device's 1-D ``store`` and batch ``x`` (B, ...),
    lifted to its one row (``rng`` that row's generator); returns the
    output (B, ...) and the backward cache. The :class:`ChainPlan` is built
    per call: this form serves code that times or tests a chain on its own,
    such as the kernel microbenchmarks in ``perfbench/micro.py``.
    """
    plan = ChainPlan(keyed_layers, store.span_of(key for key, _ in keyed_layers))
    out, cache = plan.forward(store.row(), np.asarray(x)[None], mode,
                              None if rng is None else [rng])
    return out[0], cache


def backward_chain(cache: ChainCache, dy: np.ndarray, store: ParamStore,
                   grads: ParamStore) -> np.ndarray | None:
    """:meth:`ChainCache.backward` of a :func:`forward_chain` pass, on the
    one rows of ``store`` and ``grads``; returns dx (B, ...) or None."""
    dx = cache.backward(np.asarray(dy)[None], store.row(), grads.row())
    return None if dx is None else dx[0]
