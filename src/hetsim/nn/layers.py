"""Layer kinds: each class is the one definition of its kind.

A layer is an immutable description. Its class gives, for one batch-less
input shape, the output shape, the parameter tensor shapes and a rough
operation count, and it holds the hand-written forward and backward
arithmetic on batches (sample axis first; images are (N, H, W, C)).
Parameter tensors live in a :class:`~hetsim.nn.params.ParamStore` under
``(layer_key, name)``; :mod:`hetsim.nn.network` chains layers together.
Spatial layers use VALID (no padding) semantics throughout, and pooling
windows step by their own size.

``forward(store, key, x, train, rng)`` returns ``(y, cache)``;
``backward(store, key, cache, dy, grads)`` accumulates parameter gradients
into ``grads`` and returns ``dx``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Shape = tuple[int, ...]


class ShapeError(ValueError):
    """A layer cannot accept the shape it was given."""


class Layer:
    """Base of every layer kind; the defaults suit a parameter-free kind
    that keeps its input shape."""

    def output_shape(self, in_shape: Shape) -> Shape:
        return tuple(in_shape)

    def param_shapes(self, in_shape: Shape) -> dict[str, Shape]:
        return {}

    def operations(self, in_shape: Shape) -> int:
        """One op per output element; MACs for layers with weights."""
        return math.prod(self.output_shape(in_shape))


def _check_flat(in_shape: Shape) -> None:
    if len(in_shape) != 1:
        raise ShapeError(
            f"Dense expects a flat input, got shape {in_shape}; add Flatten first")


def _check_image(kind: str, in_shape: Shape) -> None:
    if len(in_shape) != 3:
        raise ShapeError(f"{kind} expects (H, W, C) input, got {in_shape}")


@dataclass(frozen=True)
class Dense(Layer):
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("Dense units must be positive")

    def output_shape(self, in_shape):
        _check_flat(in_shape)
        return (self.units,)

    def param_shapes(self, in_shape):
        _check_flat(in_shape)
        return {"w": (in_shape[0], self.units), "b": (self.units,)}

    def operations(self, in_shape):
        return in_shape[0] * self.units + self.units

    def forward(self, store, key, x, train, rng):
        return x @ store.view((key, "w")) + store.view((key, "b")), x

    def backward(self, store, key, x, dy, grads):
        grads.view((key, "w"))[...] += x.T @ dy
        grads.view((key, "b"))[...] += dy.sum(axis=0)
        return dy @ store.view((key, "w")).T


@dataclass(frozen=True)
class Conv2D(Layer):
    kh: int
    kw: int
    out_channels: int
    stride: int = 1

    def __post_init__(self):
        if min(self.kh, self.kw, self.out_channels, self.stride) < 1:
            raise ValueError("Conv2D dimensions and stride must be positive")

    def output_shape(self, in_shape):
        _check_image("Conv2D", in_shape)
        h, w, _ = in_shape
        ho = (h - self.kh) // self.stride + 1
        wo = (w - self.kw) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"Conv2D window {self.kh}x{self.kw} too large for {in_shape}")
        return (ho, wo, self.out_channels)

    def param_shapes(self, in_shape):
        _check_image("Conv2D", in_shape)
        return {"w": (self.kh, self.kw, in_shape[2], self.out_channels),
                "b": (self.out_channels,)}

    def operations(self, in_shape):
        return math.prod(self.output_shape(in_shape)) * (self.kh * self.kw * in_shape[2] + 1)

    def forward(self, store, key, x, train, rng):
        n, h, win, cin = x.shape
        kh, kw, s = self.kh, self.kw, self.stride
        ho = (h - kh) // s + 1
        wo = (win - kw) // s + 1
        # windows: (N, H-kh+1, W-kw+1, C, kh, kw) -> stride subsample
        windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::s, ::s]
        cols = windows.reshape(n, ho, wo, cin * kh * kw)
        w = store.view((key, "w"))
        wmat = w.transpose(2, 0, 1, 3).reshape(cin * kh * kw, self.out_channels)
        y = cols @ wmat + store.view((key, "b"))
        return y, (cols, x.shape, wmat)

    def backward(self, store, key, cache, dy, grads):
        cols, x_shape, wmat = cache
        n, ho, wo, cout = dy.shape
        cin = x_shape[3]
        kh, kw, s = self.kh, self.kw, self.stride
        dy2 = dy.reshape(-1, cout)
        dwmat = cols.reshape(-1, cin * kh * kw).T @ dy2
        grads.view((key, "w"))[...] += dwmat.reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
        grads.view((key, "b"))[...] += dy2.sum(axis=0)
        dcols = (dy2 @ wmat.T).reshape(n, ho, wo, cin, kh, kw)
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, i:i + ho * s:s, j:j + wo * s:s, :] += dcols[:, :, :, :, i, j]
        return dx


@dataclass(frozen=True)
class ReLU(Layer):
    def forward(self, store, key, x, train, rng):
        mask = x > 0
        return x * mask, mask

    def backward(self, store, key, mask, dy, grads):
        return dy * mask


@dataclass(frozen=True)
class MaxPool2D(Layer):
    ph: int
    pw: int

    def __post_init__(self):
        if min(self.ph, self.pw) < 1:
            raise ValueError("MaxPool2D window must be positive")

    def output_shape(self, in_shape):
        _check_image("MaxPool2D", in_shape)
        h, w, c = in_shape
        ho = (h - self.ph) // self.ph + 1
        wo = (w - self.pw) // self.pw + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"MaxPool2D window {self.ph}x{self.pw} too large for {in_shape}")
        return (ho, wo, c)

    def forward(self, store, key, x, train, rng):
        n, h, w, c = x.shape
        ph, pw = self.ph, self.pw
        ho = (h - ph) // ph + 1
        wo = (w - pw) // pw + 1
        windows = sliding_window_view(x, (ph, pw), axis=(1, 2))[:, ::ph, ::pw]
        flat = windows.reshape(n, ho, wo, c, ph * pw)
        am = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
        return y, (am, x.shape)

    def backward(self, store, key, cache, dy, grads):
        am, x_shape = cache
        n, ho, wo, c = dy.shape
        ph, pw = self.ph, self.pw
        dwin = np.zeros((n, ho, wo, c, ph * pw), dtype=dy.dtype)
        np.put_along_axis(dwin, am[..., None], dy[..., None], axis=-1)
        dwin = dwin.reshape(n, ho, wo, c, ph, pw)
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for i in range(ph):
            for j in range(pw):
                dx[:, i:i + ho * ph:ph, j:j + wo * pw:pw, :] += dwin[:, :, :, :, i, j]
        return dx


class _Masked(Layer):
    """Inverted dropout, active in train mode only.

    Subclasses hold ``p`` and choose the shape of the keep/drop draw.
    """

    def draw_shape(self, shape: Shape) -> Shape:
        raise NotImplementedError

    def forward(self, store, key, x, train, rng):
        if not train:
            return x, None
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        draw_shape = self.draw_shape(x.shape)
        if self.p >= 1.0:
            scale = np.zeros(draw_shape, dtype=store.dtype)
        else:
            keep = rng.random(draw_shape) >= self.p
            scale = (keep / (1.0 - self.p)).astype(store.dtype, copy=False)
        return x * scale, scale

    def backward(self, store, key, scale, dy, grads):
        return dy if scale is None else dy * scale


@dataclass(frozen=True)
class Dropout(_Masked):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("Dropout p must be in [0, 1)")

    def draw_shape(self, shape):
        return shape


@dataclass(frozen=True)
class BranchDropout(_Masked):
    """Per-sample all-or-nothing dropout of an entire activation vector.

    Unlike :class:`Dropout`, p == 1 is allowed so tests can force the
    drop path deterministically.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("BranchDropout p must be in [0, 1]")

    def draw_shape(self, shape):
        # one keep/drop decision per sample, broadcast over the whole vector
        return (shape[0],) + (1,) * (len(shape) - 1)


@dataclass(frozen=True)
class Flatten(Layer):
    def output_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, store, key, x, train, rng):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, store, key, x_shape, dy, grads):
        return dy.reshape(x_shape)


@dataclass(frozen=True)
class Softmax(Layer):
    def forward(self, store, key, x, train, rng):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        return p, p

    def backward(self, store, key, p, dy, grads):
        inner = (dy * p).sum(axis=-1, keepdims=True)
        return p * (dy - inner)


_KIND_TO_CLS = {
    "dense": Dense,
    "conv2d": Conv2D,
    "relu": ReLU,
    "maxpool2d": MaxPool2D,
    "dropout": Dropout,
    "branch_dropout": BranchDropout,
    "flatten": Flatten,
    "softmax": Softmax,
}


def layer_from_dict(spec: dict) -> Layer:
    """Build a layer from a config dict like ``{"kind": "dense", "units": 10}``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"layer spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    cls = _KIND_TO_CLS.get(kind)
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    for f in fields(cls):  # JSON numbers: no bools or strings, ints stay whole
        if f.name not in kwargs:
            continue
        value = kwargs[f.name]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            raise ValueError(f"{kind}.{f.name} must be a number, got {value!r}")
        if f.type == "int":
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{kind}.{f.name} must be a whole number, got {value!r}")
            kwargs[f.name] = int(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for layer kind {kind!r}: {exc}") from exc


def output_shape(layer: Layer, in_shape: Shape) -> Shape:
    """Shape produced by ``layer`` on a single (batch-less) input of ``in_shape``."""
    return layer.output_shape(tuple(in_shape))


def param_shapes(layer: Layer, in_shape: Shape) -> dict[str, Shape]:
    """Parameter tensor shapes for ``layer``, keyed by tensor name."""
    return layer.param_shapes(tuple(in_shape))


def chain_shapes(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> list[Shape]:
    """Per-layer output shapes of a sequential chain (validates it composes)."""
    shapes = []
    shape = tuple(input_shape)
    for layer in layers:
        shape = layer.output_shape(shape)
        shapes.append(shape)
    return shapes


def count_parameters(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> int:
    """Total scalar parameter count of a sequential chain."""
    total = 0
    shape = tuple(input_shape)
    for layer in layers:
        total += sum(math.prod(p) for p in layer.param_shapes(shape).values())
        shape = layer.output_shape(shape)
    return total


def count_operations(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> int:
    """Rough multiply-accumulate estimate for one forward pass of one sample.

    Counting conventions for operation totals vary widely between tools;
    this estimate (MACs for Dense/Conv2D, one op per element for
    activations and pooling) is for relative comparisons only.
    """
    total = 0
    shape = tuple(input_shape)
    for layer in layers:
        out = layer.output_shape(shape)
        total += layer.operations(shape)
        shape = out
    return total
