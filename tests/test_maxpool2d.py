"""MaxPool2D's strided-tap kernels against the argmax over copied windows.

``_ReferenceMaxPool2D`` keeps the arithmetic the layer had before it walked
its window taps: copy every window, take its ``argmax``, read the output
with ``take_along_axis`` and scatter ``dy`` back with ``put_along_axis``
into zeroed windows that are added into a zeroed dx. The layer must give
the same output, routing index (its values; the layer holds them in a
narrower dtype) and dx, byte for byte, in float32 and float64, over
leading (D, N) axes, with windows that leave rows and columns over,
planted ties, +-0.0 and +-inf in x and -0.0 in dy. With a NaN in x only
the output must match (the routing of a NaN window differs), and a chain
must raise where it raised with the reference pool. A memory guard checks
what the forward pass builds.
"""
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
import pytest

from hetsim.nn import Dense, Flatten, MaxPool2D, forward_chain

from test_finite_checks import _chain, _outcome


class _ReferenceMaxPool2D(MaxPool2D):
    """The argmax MaxPool2D arithmetic, as it was before the strided taps."""

    def forward(self, store, key, x, train, rng):
        *lead, h, w, c = x.shape
        ph, pw = self.ph, self.pw
        ho = (h - ph) // ph + 1
        wo = (w - pw) // pw + 1
        # windows: (..., H-ph+1, W-pw+1, C, ph, pw) -> subsample by the window
        windows = sliding_window_view(x, (ph, pw), axis=(-3, -2))[..., ::ph, ::pw, :, :, :]
        flat = windows.reshape(*lead, ho, wo, c, ph * pw)
        am = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, am[..., None], axis=-1)[..., 0]
        return y, (am, x.shape)

    def backward(self, store, key, cache, dy, grads):
        am, x_shape = cache
        *lead, ho, wo, c = dy.shape
        ph, pw = self.ph, self.pw
        dwin = np.zeros((*lead, ho, wo, c, ph * pw), dtype=dy.dtype)
        np.put_along_axis(dwin, am[..., None], dy[..., None], axis=-1)
        dwin = dwin.reshape(*lead, ho, wo, c, ph, pw)
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for i in range(ph):
            for j in range(pw):
                dx[..., i:i + ho * ph:ph, j:j + wo * pw:pw, :] += dwin[..., i, j]
        return dx


def _bytes_equal(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


@st.composite
def _pools(draw):
    """A pool, an input with leading (D, N) axes and leftover rows and
    columns, of small whole numbers (so windows tie) with planted +-0.0
    and +-inf, and a dy with planted -0.0."""
    ph, pw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d, n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h = draw(st.integers(1, 4)) * ph + draw(st.integers(0, ph - 1))
    w = draw(st.integers(1, 4)) * pw + draw(st.integers(0, pw - 1))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(d, n, h, w, c)).astype(dtype)
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    for value in (np.inf, -np.inf):
        x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = value
    dy = rng.normal(size=(d, n, h // ph, w // pw, c)).astype(dtype)
    dy[rng.random(dy.shape) < 0.3] = -0.0
    return MaxPool2D(ph, pw), x, dy


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pools())
def test_strided_taps_are_the_argmax_pool_byte_for_byte(case):
    layer, x, dy = case
    reference = _ReferenceMaxPool2D(layer.ph, layer.pw)
    y, cache = layer.forward(None, None, x, True, None)
    ref_y, ref_cache = reference.forward(None, None, x, True, None)
    assert _bytes_equal(y, ref_y)
    idx, am = cache[0], ref_cache[0]
    assert idx.dtype == np.min_scalar_type(layer.ph * layer.pw - 1)
    assert _bytes_equal(idx.astype(am.dtype), am)
    dx = layer.backward(None, None, cache, dy, None)
    assert _bytes_equal(dx, reference.backward(None, None, ref_cache, dy, None))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pools(), st.sampled_from([np.nan, -np.nan]), st.data())
def test_a_nan_gives_the_argmax_pool_output_and_the_same_chain_error(case, nan, data):
    layer, x, _ = case
    x = x[:1]  # a chain runs one device
    for _ in range(data.draw(st.integers(1, 3))):
        x.reshape(-1)[data.draw(st.integers(0, x.size - 1))] = nan
    reference = _ReferenceMaxPool2D(layer.ph, layer.pw)
    y, _ = layer.forward(None, None, x, True, None)
    assert _bytes_equal(y, reference.forward(None, None, x, True, None)[0])

    keyed, store = _chain([layer, Flatten(), Dense(3)], x.shape[2:], x.dtype)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: forward_chain(keyed, store, x[0]))
        with mock.patch.object(MaxPool2D, "forward", _ReferenceMaxPool2D.forward):
            want = _outcome(lambda: forward_chain(keyed, store, x[0]))
    assert got == want


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_the_stem_pool_forward_copies_no_input_sized_array(dtype):
    # the CIFAR stem's pool at batch 16 on one device: the input is
    # 16*28*28*32 reals (3.2 MB of float64); copying every window of it
    # for an argmax peaked at 5 MB
    x = np.random.default_rng(0).normal(size=(1, 16, 28, 28, 32)).astype(dtype)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y, (idx, _) = MaxPool2D(2, 2).forward(None, None, x, True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.dtype == np.uint8
    # y (a quarter of x), its index and one comparison mask
    assert peak - before < x.nbytes, f"peak {(peak - before) / 2**20:.2f} MiB"
