"""Layer kinds: each class is the one definition of its kind.

A layer is an immutable description. Its class gives, for one batch-less
input shape, the output shape, the parameter tensor shapes and a rough
operation count, and it holds the hand-written forward and backward
arithmetic on batches (images are (N, H, W, C) per device). Parameter
tensors live in a :class:`~hetsim.nn.params.ParamStore` under
``(layer_key, name)``; :mod:`hetsim.nn.network` chains layers together.
Spatial layers use VALID (no padding) semantics throughout, and pooling
windows step by their own size.

``forward(store, key, x, train, rng)`` returns ``(y, cache)``;
``backward(store, key, cache, dy, grads)`` accumulates parameter gradients
into ``grads`` and returns ``dx``. ``backward_params`` with the same
arguments accumulates the same parameter gradients, bit for bit, and
computes no ``dx``: a chain calls it on the layer that reads the network's
input, whose ``dx`` nothing reads (a no-op for kinds without parameters).

A layer always runs on a store over rows, one per device (one device's
is its one row, :meth:`~hetsim.nn.params.ParamStore.row`): every view and
array has a leading device axis, (D, N, ...), and train-mode ``rng`` is
one generator per device. Each device's slice gets the bits of its 2-D
arithmetic alone: products are stacked ``np.matmul`` calls, whose slices
are the 2-D products; reductions run along the same axes; dropout draws
each device's mask from its own generator, in its own shape; and Conv2D
runs its kernels one device at a time.

Conv2D keeps its input, not its im2col matrix: it builds the columns in
blocks of images (forward) and one kernel tap at a time (backward), each
with the bits of the one product, and keeps the one product where a block
or tap could not have them (see its docstring). MaxPool2D walks its
window's strided taps with a running maximum, and copies no window.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Shape = tuple[int, ...]

# SkylakeX's small-matrix BLAS kernels take products of at most this many
# multiply-adds and sum in another order (see Conv2D)
_SMALL_GEMM = 10**6


class ShapeError(ValueError):
    """A layer cannot accept the shape it was given."""


class Layer:
    """Base of every layer kind; the defaults suit a parameter-free kind
    that keeps its input shape."""

    #: True if a NaN or +-inf in the input can leave no trace in the output
    #: (a max or a softmax can absorb a -inf; a window that skips pixels
    #: never reads them). A kind without the flag turns any non-finite input
    #: into a non-finite output, so a chain checks for non-finite values only
    #: in front of the layers that have it (see :mod:`hetsim.nn.network`).
    drops_non_finite = False

    def output_shape(self, in_shape: Shape) -> Shape:
        return tuple(in_shape)

    def param_shapes(self, in_shape: Shape) -> dict[str, Shape]:
        return {}

    def operations(self, in_shape: Shape) -> int:
        """One op per output element; MACs for layers with weights."""
        return math.prod(self.output_shape(in_shape))

    def backward_params(self, store, key, cache, dy, grads) -> None:
        """The parameter gradients of :meth:`backward`, without ``dx``."""


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
        y = x @ store.view((key, "w"))
        b = store.view((key, "b"))
        y += b[:, None]  # the bits of ``x @ w + b``, one array fewer
        return y, x

    def backward_params(self, store, key, x, dy, grads):
        gw, gb = grads.view((key, "w")), grads.view((key, "b"))
        gw += x.mT @ dy  # in place, without the write-back of ``gw[...] +=``
        gb += dy.sum(axis=-2)

    def backward(self, store, key, x, dy, grads):
        self.backward_params(store, key, x, dy, grads)
        return dy @ store.view((key, "w")).mT


@dataclass(frozen=True)
class Conv2D(Layer):
    """VALID convolution, each device's (N, H, W, Cin) -> (N, Ho, Wo, out_channels).

    The cache is the input x, which the previous layer's output keeps
    alive anyway. No whole im2col matrix (N*Ho*Wo x Cin*kh*kw: 29 MB of
    float64 for the CIFAR stem's second conv at batch 16, 925 MB for a
    512-image eval chunk) is built or kept. Forward copies the columns of
    as many whole images as fit in ``BLOCK_BYTES`` (at least one) into one
    reused buffer, multiplies each block into its slice of y and adds the
    bias once. Backward works one kernel tap at a time, in row-major
    order. For the weight gradient it copies the tap's strided slice of x
    into one reused (N*Ho*Wo x Cin) buffer and adds the swapped product
    ``(dy2.T @ tap).T`` into ``gw[i, j]``. For the input gradient it puts
    ``dy2 @ w[i, j].T`` into one reused buffer of that shape, which is
    added into the tap's strided slice of a zeroed dx.

    The bits are those of the one im2col product each replaces. A block
    of images is a slice of the same stacked ``np.matmul``, whose slices
    are separate products. An element of a tap product sums the same
    terms, in the same order, as in the one product, and the taps are
    added in the same order. That relies on BLAS giving a product element
    the same bits whatever the width of the other operand, which
    OpenBLAS's blocked matrix-matrix kernels do. Other kernels sum in
    another order, so the one product stays where a block or tap could
    reach them:
    - columns that are a view of x (``np.reshape`` without a copy, as
      with one input channel and a one-wide window), which BLAS reads
      with another kernel than a copied block;
    - an input gradient unless Cin is a multiple of 8 and each tap holds
      at least 4096 reals. With one input channel a tap product would be
      matrix-vector; smaller taps reach the small-matrix kernels of some
      cores (SkylakeX: a transposed product of at most 1200 outputs); and
      with Cin of 33 or 36, say, about 1-3% of the tap products' elements
      had other bits in float64 under one and two BLAS threads;
    - a weight gradient unless Cin is a multiple of 8 and each tap product
      takes more than 10**6 multiply-adds. SkylakeX's small-matrix kernels
      take products of at most 10**6, and with Cin of 33 or 36, say, tap
      products had other bits in float64 under one and two BLAS threads.
      With one input channel the product is ``cols.T @ dy2``.

    The golden metrics digests are the guard on another BLAS.
    """

    kh: int
    kw: int
    out_channels: int
    stride: int = 1

    BLOCK_BYTES = 1 << 20  # the columns a forward block copies (at least one image)

    def __post_init__(self):
        if min(self.kh, self.kw, self.out_channels, self.stride) < 1:
            raise ValueError("Conv2D dimensions and stride must be positive")

    @property
    def drops_non_finite(self):
        return self.stride > 1  # strided windows can skip rows and columns

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
        w, b = store.view((key, "w")), store.view((key, "b"))
        y = np.empty(x.shape[:-3] + self.output_shape(x.shape[-3:]), np.result_type(x, w))
        for args in zip(x, w, b, y):  # one device at a time, into its slice of y
            self._forward(*args)
        return y, x

    def _windows(self, x):
        """The (N, Ho, Wo, Cin, kh, kw) view of every window of ``x``."""
        s = self.stride
        return sliding_window_view(x, (self.kh, self.kw), axis=(1, 2))[:, ::s, ::s]

    def _forward(self, x, w, b, y):
        windows = self._windows(x)
        n, ho, wo, cin = windows.shape[:4]
        depth = cin * self.kh * self.kw
        wmat = w.transpose(2, 0, 1, 3).reshape(depth, self.out_channels)
        try:
            cols = np.reshape(windows, (n, ho, wo, depth), copy=False)
        except ValueError:  # blocks of whole images, copied into one reused buffer
            per = max(1, self.BLOCK_BYTES // (ho * wo * depth * x.itemsize))
            buf = np.empty((min(per, n), ho, wo, depth), x.dtype)
            for lo in range(0, n, per):
                cols = buf[:min(per, n - lo)]
                cols.reshape(windows[lo:lo + per].shape)[...] = windows[lo:lo + per]
                np.matmul(cols, wmat, out=y[lo:lo + per])
        else:  # columns that are a view of x: one product (see the class docstring)
            np.matmul(cols, wmat, out=y)
        y += b

    def backward_params(self, store, key, x, dy, grads):
        for args in zip(x, dy, grads.view((key, "w")), grads.view((key, "b"))):
            self._param_grads(*args)

    def _param_grads(self, x, dy, gw, gb):
        cin, cout = x.shape[3], dy.shape[3]
        n, ho, wo = dy.shape[:3]
        kh, kw, s = self.kh, self.kw, self.stride
        dy2 = dy.reshape(-1, cout)
        if cin % 8 or len(dy2) * cin * cout <= _SMALL_GEMM:  # see the class docstring
            cols2 = self._windows(x).reshape(len(dy2), cin * kh * kw)
            dwmat = (dy2.T @ cols2).T if cin > 1 else cols2.T @ dy2
            gw[...] += dwmat.reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
        else:  # one kernel tap at a time, its columns copied into one reused buffer
            tap = np.empty((n, ho, wo, cin), x.dtype)
            for i in range(kh):
                for j in range(kw):
                    tap[...] = x[:, i:i + ho * s:s, j:j + wo * s:s, :]
                    gw[i, j] += (dy2.T @ tap.reshape(-1, cin)).T
        gb[...] += dy2.sum(axis=0)

    def backward(self, store, key, x, dy, grads):
        self.backward_params(store, key, x, dy, grads)
        w = store.view((key, "w"))
        dx = np.zeros(x.shape, dtype=dy.dtype)
        for args in zip(dy, w, dx):
            self._input_grad(*args)
        return dx

    def _input_grad(self, dy, w, dx):
        """Add the input gradient into ``dx``, zeros of the input's shape."""
        n, ho, wo, cout = dy.shape
        cin = dx.shape[3]
        kh, kw, s = self.kh, self.kw, self.stride
        dy2 = dy.reshape(-1, cout)
        per_tap = cin % 8 == 0 and len(dy2) * cin >= 4096  # see the class docstring
        if per_tap:
            tap = np.empty((len(dy2), cin), dtype=np.result_type(dy, w))
        else:
            wmat = w.transpose(2, 0, 1, 3).reshape(cin * kh * kw, cout)
            dcols = (dy2 @ wmat.T).reshape(n, ho, wo, cin, kh, kw)
        for i in range(kh):
            for j in range(kw):
                dx[:, i:i + ho * s:s, j:j + wo * s:s, :] += (
                    np.matmul(dy2, w[i, j].T, out=tap).reshape(n, ho, wo, cin) if per_tap
                    else dcols[:, :, :, :, i, j])


@dataclass(frozen=True)
class ReLU(Layer):
    # ``mask.astype`` then an in-place product: the bits of ``x * mask``
    # (IEEE products commute), without the ufunc's cast of the bool mask
    def forward(self, store, key, x, train, rng):
        mask = x > 0
        y = mask.astype(x.dtype)
        y *= x
        return y, mask

    def backward(self, store, key, mask, dy, grads):
        dx = mask.astype(dy.dtype)
        dx *= dy
        return dx


@dataclass(frozen=True)
class MaxPool2D(Layer):
    """Max over non-overlapping ph x pw windows, over the leading (D, N) axes.

    Forward walks the ``ph*pw`` strided taps ``x[..., i::ph, j::pw, :]``
    in row-major order with a running ``np.maximum``, and records each
    output's routing index (its tap) with a strict ``>``, so the first
    maximum wins a tie, as ``argmax`` does. The index is held in the
    smallest unsigned dtype that holds ``ph*pw - 1``. Backward adds, for
    each tap, ``dy`` where the index names the tap (0.0 elsewhere) into
    the tap's strided slice of a zeroed dx. The bits are those of an argmax over copied windows. A
    window with a NaN gives a NaN, which a chain rejects; its routing
    index, and which NaN it gives if the window holds NaNs of other bits,
    may differ from the argmax's.
    """

    ph: int
    pw: int
    drops_non_finite = True

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
        ph, pw = self.ph, self.pw
        ho, wo = x.shape[-3] // ph, x.shape[-2] // pw
        taps = [x[..., i:i + ho * ph:ph, j:j + wo * pw:pw, :]
                for i in range(ph) for j in range(pw)]
        y = taps[0].copy()
        idx = np.zeros(y.shape, np.min_scalar_type(ph * pw - 1))
        greater = np.empty(y.shape, bool)
        for k, tap in enumerate(taps[1:], 1):
            np.greater(tap, y, out=greater)
            np.putmask(idx, greater, k)
            np.maximum(tap, y, out=y)  # a +-0.0 tie gives the second operand: y, as argmax
        return y, (idx, x.shape)

    def backward(self, store, key, cache, dy, grads):
        idx, x_shape = cache
        ph, pw = self.ph, self.pw
        ho, wo = dy.shape[-3:-1]
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for k in range(ph * pw):
            i, j = divmod(k, pw)
            # added into the zeros, not copied: a -0.0 gradient lands as +0.0
            dx[..., i:i + ho * ph:ph, j:j + wo * pw:pw, :] += np.where(idx == k, dy, 0.0)
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
        shape = x.shape[:1] + self.draw_shape(x.shape[1:])
        if self.p >= 1.0:
            scale = np.zeros(shape, dtype=store.dtype)
        else:  # each device's draw from its own generator, in its own shape
            draws = np.empty(shape)
            for g, row in zip(rng, draws):
                g.random(out=row)
            scale = ((draws >= self.p) / (1.0 - self.p)).astype(store.dtype, copy=False)
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
        return x.reshape(x.shape[:2] + (-1,)), x.shape

    def backward(self, store, key, x_shape, dy, grads):
        return dy.reshape(x_shape)


@dataclass(frozen=True)
class Softmax(Layer):
    drops_non_finite = True  # exp(-inf) is 0

    def forward(self, store, key, x, train, rng):
        p = x - x.max(axis=-1, keepdims=True)
        np.exp(p, out=p)  # in place: the bits of the expression form
        p /= p.sum(axis=-1, keepdims=True)
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
    cls = _KIND_TO_CLS.get(kind) if isinstance(kind, str) else None
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


def walk(layers: tuple[Layer, ...] | list[Layer],
         input_shape: Shape) -> Iterator[tuple[Layer, Shape]]:
    """Each layer of a sequential chain with the input shape it takes; the
    walk checks that every layer accepts its input (a ``ShapeError`` if not)."""
    shape = tuple(input_shape)
    for layer in layers:
        yield layer, shape
        shape = layer.output_shape(shape)


def chain_shapes(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> list[Shape]:
    """Per-layer output shapes of a sequential chain (validates it composes)."""
    return [layer.output_shape(shape) for layer, shape in walk(layers, input_shape)]


def count_parameters(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> int:
    """Total scalar parameter count of a sequential chain."""
    return sum(math.prod(p) for layer, shape in walk(layers, input_shape)
               for p in layer.param_shapes(shape).values())


def count_operations(layers: tuple[Layer, ...] | list[Layer], input_shape: Shape) -> int:
    """Rough multiply-accumulate estimate for one forward pass of one sample.

    Counting conventions for operation totals vary widely between tools;
    this estimate (MACs for Dense/Conv2D, one op per element for
    activations and pooling) is for relative comparisons only.
    """
    return sum(layer.operations(shape) for layer, shape in walk(layers, input_shape))
