"""Forward and backward passes over sequential layer chains.

There is no autograd graph: every layer kind has a hand-written
forward/backward pair, and a chain is differentiated by replaying the
cached per-layer state in reverse. Inputs are always batched with the
sample axis first. Images are (N, H, W, C).

Stochastic layers (Dropout, BranchDropout) draw their masks from the
generator passed to :func:`forward_chain` and are active only in train
mode; eval mode is a pure function of (params, input).
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    Softmax,
    chain_shapes,
    param_shapes,
)
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
        for name, pshape in param_shapes(layer, shape).items():
            layout.append(((key, name), pshape))
        shape = chain_shapes([layer], shape)[0]
    return layout


def init_chain_params(keyed_layers: list[KeyedLayer], input_shape, store: ParamStore,
                      rng: np.random.Generator) -> None:
    """Glorot-uniform weights, zero biases, written into ``store`` in chain order."""
    shape = tuple(input_shape)
    for key, layer in keyed_layers:
        shapes = param_shapes(layer, shape)
        if "w" in shapes:
            wshape = shapes["w"]
            if isinstance(layer, Dense):
                fan_in, fan_out = wshape[0], wshape[1]
            else:  # Conv2D: (kh, kw, cin, cout)
                receptive = wshape[0] * wshape[1]
                fan_in, fan_out = receptive * wshape[2], receptive * wshape[3]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            store.view((key, "w"))[...] = rng.uniform(-limit, limit, size=wshape)
            store.view((key, "b"))[...] = 0.0
        shape = chain_shapes([layer], shape)[0]


# ---------------------------------------------------------------------------
# Per-layer forward/backward. Each forward returns (output, cache); each
# backward takes (cache, upstream) and returns (dx, param_grads dict).
# ---------------------------------------------------------------------------

def _dense_forward(layer: Dense, w, b, x):
    return x @ w + b, x


def _dense_backward(cache_x, w, dy):
    dw = cache_x.T @ dy
    db = dy.sum(axis=0)
    dx = dy @ w.T
    return dx, {"w": dw, "b": db}


def _conv2d_forward(layer: Conv2D, w, b, x):
    n, h, win, cin = x.shape
    kh, kw, s = layer.kh, layer.kw, layer.stride
    ho = (h - kh) // s + 1
    wo = (win - kw) // s + 1
    # windows: (N, H-kh+1, W-kw+1, C, kh, kw) -> stride subsample
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    cols = windows.reshape(n, ho, wo, cin * kh * kw)
    wmat = w.transpose(2, 0, 1, 3).reshape(cin * kh * kw, layer.out_channels)
    y = cols @ wmat + b
    return y, (cols, x.shape, wmat)


def _conv2d_backward(layer: Conv2D, cache, w, dy):
    cols, x_shape, wmat = cache
    n, ho, wo, cout = dy.shape
    cin = x_shape[3]
    kh, kw, s = layer.kh, layer.kw, layer.stride
    dy2 = dy.reshape(-1, cout)
    dwmat = cols.reshape(-1, cin * kh * kw).T @ dy2
    dw = dwmat.reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    db = dy2.sum(axis=0)
    dcols = (dy2 @ wmat.T).reshape(n, ho, wo, cin, kh, kw)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + ho * s:s, j:j + wo * s:s, :] += dcols[:, :, :, :, i, j]
    return dx, {"w": dw, "b": db}


def _maxpool_forward(layer: MaxPool2D, x):
    n, h, w, c = x.shape
    ph, pw = layer.ph, layer.pw
    ho = (h - ph) // ph + 1
    wo = (w - pw) // pw + 1
    windows = sliding_window_view(x, (ph, pw), axis=(1, 2))[:, ::ph, ::pw]
    flat = windows.reshape(n, ho, wo, c, ph * pw)
    am = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
    return y, (am, x.shape)


def _maxpool_backward(layer: MaxPool2D, cache, dy):
    am, x_shape = cache
    n, ho, wo, c = dy.shape
    ph, pw = layer.ph, layer.pw
    dwin = np.zeros((n, ho, wo, c, ph * pw), dtype=dy.dtype)
    np.put_along_axis(dwin, am[..., None], dy[..., None], axis=-1)
    dwin = dwin.reshape(n, ho, wo, c, ph, pw)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(ph):
        for j in range(pw):
            dx[:, i:i + ho * ph:ph, j:j + wo * pw:pw, :] += dwin[:, :, :, :, i, j]
    return dx


def _dropout_mask(layer, shape, rng: np.random.Generator, dtype):
    if isinstance(layer, BranchDropout):
        # one keep/drop decision per sample, broadcast over the whole vector
        draw_shape = (shape[0],) + (1,) * (len(shape) - 1)
    else:
        draw_shape = shape
    if layer.p >= 1.0:
        return np.zeros(draw_shape, dtype=dtype)
    keep = rng.random(draw_shape) >= layer.p
    return (keep / (1.0 - layer.p)).astype(dtype, copy=False)


def _softmax_forward(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return p


def _softmax_backward(p, dy):
    inner = (dy * p).sum(axis=-1, keepdims=True)
    return p * (dy - inner)


def _params_checksum(store: ParamStore) -> int:
    return zlib.crc32(store.flat.tobytes())


@dataclass
class ChainCache:
    """Everything a chain's backward pass needs from its forward pass."""

    keyed_layers: list[KeyedLayer]
    per_layer: list
    mode: str
    input_shape: tuple[int, ...]
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
    caches = []
    out = np.asarray(x, dtype=store.dtype)
    in_shape = out.shape
    for key, layer in keyed_layers:
        if isinstance(layer, Dense):
            out, c = _dense_forward(layer, store.view((key, "w")), store.view((key, "b")), out)
            caches.append(c)
        elif isinstance(layer, Conv2D):
            out, c = _conv2d_forward(layer, store.view((key, "w")), store.view((key, "b")), out)
            caches.append(c)
        elif isinstance(layer, ReLU):
            mask = out > 0
            out = out * mask
            caches.append(mask)
        elif isinstance(layer, MaxPool2D):
            out, c = _maxpool_forward(layer, out)
            caches.append(c)
        elif isinstance(layer, (Dropout, BranchDropout)):
            if mode == "train":
                if rng is None:
                    raise ValueError("train-mode dropout needs an rng")
                scale = _dropout_mask(layer, out.shape, rng, store.dtype)
                out = out * scale
                caches.append(scale)
            else:
                caches.append(None)
        elif isinstance(layer, Flatten):
            caches.append(out.shape)
            out = out.reshape(out.shape[0], -1)
        elif isinstance(layer, Softmax):
            out = _softmax_forward(out)
            caches.append(out)
        elif isinstance(layer, Add):
            raise ValueError("Add cannot appear inside a sequential chain")
        else:
            raise TypeError(f"unknown layer {layer!r}")
        ensure_finite(f"{layer.__class__.__name__} output", out)
    return out, ChainCache(list(keyed_layers), caches, mode, in_shape,
                           _params_checksum(store))


def backward_chain(cache: ChainCache, dy: np.ndarray, store: ParamStore,
                   grads: ParamStore) -> np.ndarray:
    """Backpropagate through a chain; accumulates into ``grads``, returns dx.

    ``store`` must be the same store the forward pass read from, with the
    same values: mutating parameters invalidates the cache.
    """
    if _params_checksum(store) != cache.params_checksum:
        raise ValueError("parameters changed since the forward pass; the cache "
                         "is stale, rerun forward")
    dx = np.asarray(dy)
    for (key, layer), c in zip(reversed(cache.keyed_layers), reversed(cache.per_layer)):
        if isinstance(layer, Dense):
            dx, pg = _dense_backward(c, store.view((key, "w")), dx)
            grads.view((key, "w"))[...] += pg["w"]
            grads.view((key, "b"))[...] += pg["b"]
        elif isinstance(layer, Conv2D):
            dx, pg = _conv2d_backward(layer, c, store.view((key, "w")), dx)
            grads.view((key, "w"))[...] += pg["w"]
            grads.view((key, "b"))[...] += pg["b"]
        elif isinstance(layer, ReLU):
            dx = dx * c
        elif isinstance(layer, MaxPool2D):
            dx = _maxpool_backward(layer, c, dx)
        elif isinstance(layer, (Dropout, BranchDropout)):
            if c is not None:
                dx = dx * c
        elif isinstance(layer, Flatten):
            dx = dx.reshape(c)
        elif isinstance(layer, Softmax):
            dx = _softmax_backward(c, dx)
    return dx
