"""Conv2D's blocked forward and backward against the im2col arithmetic.

``_ReferenceConv2D`` keeps the im2col ``forward``, ``backward_params`` and
``backward``: one product of all the columns forward, the weight gradient
as one product of the cached columns (the layer's documented product,
``(dy2.T @ cols).T``, or ``cols.T @ dy2`` for one input channel), and the
input gradient as one (N*Ho*Wo x Cin*kh*kw) product, reshaped to 6-D and
scattered tap by tap. The layer keeps only its input, and must give the
same bits, in float32 and float64, alone (on its store's one row) and on
two stacked rows: with its forward in blocks of whole images (one image
each, under a patched budget), with columns that are a view of the
input, with its weight gradient per kernel tap or in one product (the
shapes on both sides of the tap rule), and with its input gradient per
tap or in one product. Memory guards check what the layer
keeps and builds.
"""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hetsim.config import parse_config
from hetsim.nn import Conv2D, build_layout, make_keyed
from hetsim.nn.params import ParamStore, store_over
from hetsim.topology import DeviceNetwork

from one_device import LayerAlone, one_device, predict_alone

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class _ReferenceConv2D(Conv2D):
    """The im2col Conv2D arithmetic, as it was before the per-tap backward."""

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

    def backward_params(self, store, key, cache, dy, grads):
        cols, x_shape, _ = cache
        cin, cout = x_shape[3], dy.shape[3]
        dy2 = dy.reshape(-1, cout)
        cols2 = cols.reshape(-1, cin * self.kh * self.kw)
        dwmat = (dy2.T @ cols2).T if cin > 1 else cols2.T @ dy2  # the layer's product
        grads.view((key, "w"))[...] += dwmat.reshape(cin, self.kh, self.kw,
                                                     cout).transpose(1, 2, 0, 3)
        grads.view((key, "b"))[...] += dy2.sum(axis=0)

    def backward(self, store, key, cache, dy, grads):
        self.backward_params(store, key, cache, dy, grads)
        _, x_shape, wmat = cache
        n, ho, wo, cout = dy.shape
        cin = x_shape[3]
        kh, kw, s = self.kh, self.kw, self.stride
        dcols = (dy.reshape(-1, cout) @ wmat.T).reshape(n, ho, wo, cin, kh, kw)
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, i:i + ho * s:s, j:j + wo * s:s, :] += dcols[:, :, :, :, i, j]
        return dx


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def _assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    mismatched = int((_bits(got) != _bits(want)).sum())
    assert mismatched == 0, f"{what}: {mismatched} of {want.size} elements differ"


def _run(layer, store, grads, x, dy):
    """One forward and one backward; returns (y, dx), accumulating into grads."""
    key = ("net", 0)
    y, cache = layer.forward(store, key, x, True, None)
    return y, layer.backward(store, key, cache, dy, grads)


def _check(n, h, w, cin, kh, kw, cout, stride, dtype, seed):
    layer = Conv2D(kh, kw, cout, stride)
    reference = _ReferenceConv2D(kh, kw, cout, stride)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    rng = np.random.default_rng(seed)
    store = ParamStore(layout, dtype=dtype)
    store.flat[...] = rng.normal(size=store.size)
    x = rng.normal(size=(n, h, w, cin)).astype(dtype)
    ho, wo, _ = layer.output_shape((h, w, cin))
    dy = rng.normal(size=(n, ho, wo, cout)).astype(dtype)
    dy[rng.random(dy.shape) < 0.2] = -0.0
    start = rng.normal(size=store.size)  # the gradients accumulate with +=
    grads, ref_grads = ParamStore(layout, dtype=dtype), ParamStore(layout, dtype=dtype)
    grads.flat[...] = start
    ref_grads.flat[...] = start

    y, dx = _run(LayerAlone(layer), store, grads, x, dy)
    ref_y, ref_dx = _run(reference, store, ref_grads, x, dy)
    _assert_same_bits(y, ref_y, "y")
    _assert_same_bits(dx, ref_dx, "dx")
    _assert_same_bits(grads.view((("net", 0), "w")), ref_grads.view((("net", 0), "w")), "dw")
    _assert_same_bits(grads.view((("net", 0), "b")), ref_grads.view((("net", 0), "b")), "db")


# (n, h, w, cin, kh, kw, cout, stride)
SHAPES = {
    "cifar-stem-1": (2, 32, 32, 3, 3, 3, 32, 1),
    "cifar-stem-2": (2, 30, 30, 32, 3, 3, 32, 1),
    "cifar-complex-1": (2, 14, 14, 32, 3, 3, 64, 1),
    "cifar-complex-2": (2, 12, 12, 64, 3, 3, 64, 1),
    "atari-8x8-s4": (2, 84, 84, 4, 8, 8, 32, 4),
    "atari-4x4-s2": (2, 20, 20, 32, 4, 4, 64, 2),
    "2x2-s3-leftover-rows": (3, 9, 10, 2, 2, 2, 5, 3),
    "cin-1": (3, 7, 6, 1, 3, 2, 4, 1),
    "cin-1-kw-1": (1, 6, 6, 1, 2, 1, 4, 1),  # the columns are a view of the input
    "cout-1": (3, 7, 6, 5, 2, 3, 1, 2),
    "batch-1": (1, 12, 12, 16, 3, 3, 8, 1),
    "cin-1-many-rows": (2, 50, 50, 1, 3, 3, 8, 1),  # a per-tap product would be a gemv
    "one-output-row": (1, 3, 3, 8, 3, 3, 40, 1),
    "one-output-row-per-tap": (1, 2, 2, 4096, 2, 2, 40, 1),
    "small-taps-long-sums": (8, 6, 6, 8, 3, 3, 32, 1),  # BLAS small-matrix kernels
    "just-per-tap": (8, 10, 10, 8, 3, 3, 32, 1),  # 512 rows x 8 channels per tap
    "view-columns": (2, 1, 3, 1, 1, 2, 1, 1),  # a copied block would differ here
    # 16 input channels, so one weight-gradient product on either side of
    # 10**6 multiply-adds per block of 8 channels (the rule before the
    # per-tap weight gradient; a per-tap product there differs)
    "channel-blocks-just-below-1e6": (1, 22, 22, 16, 3, 3, 32, 1),
    "channel-blocks-just-above-1e6": (1, 23, 23, 16, 3, 3, 32, 1),
    # products of 32 x 37 = 1,184 and 32 x 38 = 1,216 outputs per 8-channel
    # block, the small-kernel size of a transposed SkylakeX product
    "channel-blocks-just-below-1200-outputs": (4, 20, 20, 24, 2, 2, 37, 1),
    "channel-blocks-just-above-1200-outputs": (4, 20, 20, 24, 2, 2, 38, 1),
    "channel-blocks-1x1": (4, 20, 20, 32, 1, 1, 64, 1),  # one tap, whose columns are x
    "channel-blocks-five": (8, 12, 12, 40, 3, 3, 24, 1),
    # 2x2 kernels over 24 channels with 150 or 151 outputs: under two BLAS
    # threads the swapped weight-gradient product differs from ``cols.T @ dy2``
    "wide-outputs-150": (2, 10, 10, 24, 2, 2, 150, 1),
    "wide-outputs-151": (2, 10, 10, 24, 2, 2, 151, 1),
    "wide-outputs-150-blocks": (4, 10, 10, 24, 2, 2, 150, 1),
    "wide-outputs-151-blocks": (4, 10, 10, 24, 2, 2, 151, 1),
    # the per-tap weight-gradient rule: 32 input channels with R*Cout*Cin
    # (R = N*Ho*Wo rows) at 10**6 (625 x 50 x 32: one product) and just
    # above it (391 x 80 x 32 = 1,000,960: taps)
    "per-tap-grad-at-1e6": (1, 27, 27, 32, 3, 3, 50, 1),
    "per-tap-grad-just-above-1e6": (1, 19, 25, 32, 3, 3, 80, 1),
    "per-tap-grad-cin-24": (16, 12, 12, 24, 3, 3, 40, 1),  # 1,600 x 40 x 24: taps
    "per-tap-grad-cin-40": (16, 12, 12, 40, 3, 3, 24, 1),  # 1,600 x 24 x 40: taps
    # fewer than 32 input channels, a multiple of 8, above 10**6: taps
    "per-tap-grad-cin-8": (16, 12, 12, 8, 3, 3, 96, 1),  # 1,600 x 96 x 8
    "per-tap-grad-cin-8-2x2": (8, 17, 17, 8, 2, 2, 80, 1),  # 2,048 x 80 x 8
    "per-tap-grad-cin-16": (16, 12, 12, 16, 3, 3, 48, 1),  # 1,600 x 48 x 16
    "per-tap-grad-cin-16-s2": (8, 25, 25, 16, 3, 3, 64, 2),  # 1,152 x 64 x 16
    "per-tap-grad-cin-24-s2": (16, 21, 21, 24, 3, 3, 64, 2),  # 1,600 x 64 x 24
    "atari-4x4-s2-per-tap": (32, 20, 20, 32, 4, 4, 64, 2),  # 2,592 x 64 x 32: taps
    # above 10**6 multiply-adds but Cin not a multiple of 8: one product, as
    # per-tap weight gradients gave other bits in float64 under one and two
    # BLAS threads (1,024 x 37 x 33 and 784 x 40 x 36)
    "per-tap-grad-cin-33": (16, 10, 10, 33, 3, 3, 37, 1),
    "per-tap-grad-cin-36": (4, 16, 16, 36, 3, 3, 40, 1),
    # input channels that are not a multiple of 8, with taps of at least
    # 4096 reals: a per-tap input gradient gave other bits in float64
    "input-grad-cin-33": (2, 20, 23, 33, 3, 3, 54, 1),
    "input-grad-cin-36-cout-27": (2, 21, 19, 36, 3, 3, 27, 1),
    "input-grad-cin-36-cout-104": (3, 25, 14, 36, 3, 3, 104, 1),
    "input-grad-cin-36-cout-21": (7, 12, 17, 36, 3, 3, 21, 1),
    "input-grad-cin-36-cout-91": (6, 11, 9, 36, 3, 3, 91, 1),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_backward_is_the_im2col_backward_bit_for_bit(shape, dtype):
    _check(*shape, dtype=dtype, seed=7)


_SHAPES_SCRIPT = """
import json
import numpy as np
from test_conv2d import SHAPES, _check
failed = []
for name, shape in SHAPES.items():
    for dtype in (np.float64, np.float32):
        try:
            _check(*shape, dtype=dtype, seed=7)
        except AssertionError as exc:
            failed.append(f"{name} {np.dtype(dtype).name}: {exc}")
print(json.dumps(failed))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_backward_is_the_im2col_backward_under_one_and_two_blas_threads(threads):
    """Every shape above in a fresh process whose OpenBLAS runs ``threads``
    threads: the bits of a product may depend on the thread count, and the
    rest of the suite runs with the default (see ``tests/test_golden.py``)."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _SHAPES_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@st.composite
def _small_convs(draw):
    """Shapes on both sides of the per-tap size rule, with sums of up to 40 terms."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    h = draw(st.integers(kh, kh + 11))
    w = draw(st.integers(kw, kw + 11))
    return (draw(st.integers(1, 4)), h, w, draw(st.integers(1, 16)), kh, kw,
            draw(st.integers(1, 40)), stride)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=_small_convs(), dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**16))
def test_backward_is_the_im2col_backward_on_small_shapes(shape, dtype, seed):
    _check(*shape, dtype=dtype, seed=seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=_small_convs(), dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**16))
def test_one_image_forward_blocks_are_the_im2col_arithmetic(shape, dtype, seed):
    with mock.patch.object(Conv2D, "BLOCK_BYTES", 1):  # every block holds one image
        _check(*shape, dtype=dtype, seed=seed)


@pytest.mark.parametrize("budget", [1, Conv2D.BLOCK_BYTES], ids=["one-image", "default"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("shape", [SHAPES[k] for k in (
    "cifar-stem-2", "cifar-complex-2", "view-columns", "channel-blocks-just-above-1e6")],
    ids=["cifar-stem-2", "cifar-complex-2", "view-columns", "channel-blocks"])
def test_stacked_devices_get_the_bits_of_the_im2col_layer_alone(shape, dtype, budget):
    n, h, w, cin, kh, kw, cout, stride = shape
    layer = Conv2D(kh, kw, cout, stride)
    reference = _ReferenceConv2D(kh, kw, cout, stride)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    rng = np.random.default_rng(3)
    size = ParamStore(layout).size
    params = rng.normal(size=(2, size)).astype(dtype)
    start = rng.normal(size=(2, size)).astype(dtype)
    x = rng.normal(size=(2, n, h, w, cin)).astype(dtype)
    ho, wo, _ = layer.output_shape((h, w, cin))
    dy = rng.normal(size=(2, n, ho, wo, cout)).astype(dtype)
    grads = start.copy()
    with mock.patch.object(Conv2D, "BLOCK_BYTES", budget):
        y, dx = _run(layer, store_over(layout, params), store_over(layout, grads), x, dy)
    for d in range(2):
        ref_grads = store_over(layout, start[d].copy())
        ref_y, ref_dx = _run(reference, store_over(layout, params[d]), ref_grads, x[d], dy[d])
        _assert_same_bits(y[d], ref_y, f"device {d} y")
        _assert_same_bits(dx[d], ref_dx, f"device {d} dx")
        _assert_same_bits(grads[d], ref_grads.flat, f"device {d} grads")


def _arrays(cache):
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from _arrays(item)


@pytest.mark.parametrize("rows", [1, 2], ids=["alone", "stacked"])
@pytest.mark.parametrize("shape", [SHAPES[k] for k in (
    "cifar-stem-1", "cifar-stem-2", "atari-8x8-s4", "view-columns")],
    ids=["cifar-stem-1", "cifar-stem-2", "atari-8x8-s4", "view-columns"])
def test_the_cache_holds_no_array_larger_than_the_input(shape, rows):
    n, h, w, cin, kh, kw, cout, stride = shape
    layer = Conv2D(kh, kw, cout, stride)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    store = store_over(layout, np.zeros((rows, ParamStore(layout).size)))
    x = np.ones((rows, n, h, w, cin))
    _, cache = layer.forward(store, ("net", 0), x, True, None)
    assert max(a.nbytes for a in _arrays(cache)) <= x.nbytes


def test_forward_and_backward_build_no_im2col_matrix():
    # the CIFAR stem's second conv at batch 16: its im2col matrix is
    # 16*28*28 x 32*3*3 float64 reals, about 29 MB
    n, h, w, cin, cout = 16, 30, 30, 32, 32
    layer = Conv2D(3, 3, cout)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    rng = np.random.default_rng(0)
    store = ParamStore(layout)
    store.flat[...] = rng.normal(size=store.size)
    grads = ParamStore(layout)
    x = rng.normal(size=(n, h, w, cin))
    dy = rng.normal(size=(n, h - 2, w - 2, cout))
    cols_bytes = dy.shape[0] * dy.shape[1] * dy.shape[2] * cin * 9 * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y, cache = LayerAlone(layer).forward(store, ("net", 0), x, True, None)
        del y  # as in a chain, where the next layer (a ReLU) keeps only its mask
        LayerAlone(layer).backward(store, ("net", 0), cache, dy, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak -= before
    # the output (3.2 MB), then one tap's columns for the weight gradient
    # (3.2 MB) or dx and one tap product are the most that is live
    assert peak < cols_bytes / 3, f"peak {peak / 2**20:.1f} MiB"


def test_the_weight_gradient_copies_one_tap_at_a_time():
    # the CIFAR stem's second conv at batch 16: one tap's columns are
    # 16*28*28 x 32 float64 reals, 3.2 MB; the 8-channel blocks it used
    # before were 7.2 MB
    n, h, w, cin, cout = 16, 30, 30, 32, 32
    layer = Conv2D(3, 3, cout)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, n, h, w, cin))
    dy = rng.normal(size=(1, n, h - 2, w - 2, cout))
    grads = ParamStore(layout)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        layer.backward_params(None, ("net", 0), x, dy, grads.row())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 5e6, f"peak {(peak - before) / 1e6:.2f} MB"


def test_an_eval_pass_of_the_cifar_network_builds_no_im2col_matrix():
    # the powerful network of configs/supervised_cifar10.json (and of the
    # benchmark's sup-cifar-conv) on 64 images: the stem's second conv
    # alone has 116 MB of im2col columns, and the pass peaked at 172 MB
    # when they were built; it now peaks at about 58 MB
    config = parse_config(json.loads((CONFIGS / "supervised_cifar10.json").read_text()))
    net = DeviceNetwork(config.topology, "complex")
    store = one_device(net, np.random.default_rng(0)).stores[0]
    x = np.random.default_rng(1).random((64, 32, 32, 3))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        predict_alone(net, store, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 80 * 2**20, f"peak {(peak - before) / 2**20:.1f} MiB"


def test_backward_builds_no_im2col_sized_input_gradient():
    # the CIFAR stem's second conv at batch 16: the im2col input gradient
    # is 16*28*28 x 32*3*3 float64 reals, about 29 MB
    n, h, w, cin, cout = 16, 30, 30, 32, 32
    layer = Conv2D(3, 3, cout)
    layout = build_layout(make_keyed("net", [layer]), (h, w, cin))
    rng = np.random.default_rng(0)
    store = ParamStore(layout)
    store.flat[...] = rng.normal(size=store.size)
    grads = ParamStore(layout)
    key = ("net", 0)
    layer = LayerAlone(layer)
    _, cache = layer.forward(store, key, rng.normal(size=(n, h, w, cin)), True, None)
    dy = rng.normal(size=(n, h - 2, w - 2, cout))
    dcols_bytes = dy.shape[0] * dy.shape[1] * dy.shape[2] * cin * 9 * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        layer.backward(store, key, cache, dy, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak -= before
    # dx (3.7 MB) and one tap product (3.2 MB) are all that should be live
    assert peak < dcols_bytes / 3, f"peak {peak / 2**20:.1f} MiB"
