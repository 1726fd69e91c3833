"""Forward-pass behaviour and shape rules of the layer kinds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim import nn
from hetsim.nn import (
    Conv2D,
    Dense,
    Dropout,
    BranchDropout,
    Flatten,
    MaxPool2D,
    ReLU,
    ShapeError,
    Softmax,
    build_layout,
    forward_chain,
    make_keyed,
)
from hetsim.nn.layers import layer_from_dict
from hetsim.nn.params import ParamStore

from one_device import LayerAlone


def _store_for(layers, input_shape):
    keyed = make_keyed("net", layers)
    return keyed, ParamStore(build_layout(keyed, input_shape))


def test_dense_affine_identity():
    keyed, store = _store_for([Dense(1)], (1,))
    store.view((("net", 0), "w"))[...] = [[2.0]]
    store.view((("net", 0), "b"))[...] = [1.0]
    out, _ = forward_chain(keyed, store, np.array([[3.0]]))
    np.testing.assert_allclose(out, [[7.0]])


def test_relu_definition():
    keyed, store = _store_for([ReLU()], (3,))
    out, _ = forward_chain(keyed, store, np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def _bits(a):
    return a.view(np.dtype(f"u{a.itemsize}"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 10), (2, 3, 10)])
def test_relu_gives_the_bits_of_the_masked_products(dtype, shape):
    """Forward is ``x * (x > 0)`` and backward ``dy * mask``, bit for bit,
    also on zeros of either sign, infinities, NaN of either sign and
    subnormals, in 2-D batches and stacked 3-D ones."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny,
                         -1.5], dtype)
    rng = np.random.default_rng(len(shape))
    x, dy = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    for a in (x, dy):
        a.reshape(-1)[rng.permutation(a.size)[:specials.size]] = specials
    x.reshape(-1)[:specials.size] = specials  # every special meets every mask value
    dy.reshape(-1)[:specials.size] = specials[::-1]
    relu = ReLU()
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN
        y, mask = relu.forward(None, None, x, True, None)
        dx = relu.backward(None, None, mask, dy, None)
        want_y, want_dx = x * (x > 0), dy * (x > 0)
    assert y.dtype == dx.dtype == dtype and y.shape == dx.shape == shape
    assert np.array_equal(_bits(y), _bits(want_y))
    assert np.array_equal(_bits(dx), _bits(want_dx))


def test_softmax_symmetry():
    keyed, store = _store_for([Softmax()], (2,))
    out, _ = forward_chain(keyed, store, np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_softmax_sums_to_one():
    rng = np.random.default_rng(7)
    keyed, store = _store_for([Softmax()], (11,))
    out, _ = forward_chain(keyed, store, rng.normal(size=(40, 11)) * 10)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([np.float32, np.float64]), st.sampled_from([1.0, 30.0, 1e3]))
def test_dense_and_softmax_forward_are_their_expression_forms_bit_for_bit(
        seed, n, d_in, d_out, dtype, scale):
    rng = np.random.default_rng(seed)
    key = ("net", 0)
    store = ParamStore(build_layout([(key, Dense(d_out))], (d_in,)), dtype)
    store.flat[:] = rng.normal(size=store.size)
    w, b = store.view((key, "w")), store.view((key, "b"))
    x = (rng.normal(size=(n, d_in)) * scale).astype(dtype)
    y, _ = LayerAlone(Dense(d_out)).forward(store, key, x, True, None)
    want = x @ w + b
    assert y.dtype == want.dtype and y.tobytes() == want.tobytes()
    x[:, 1:][rng.random((n, d_in - 1)) < 0.2] = -np.inf  # softmax maps these to 0
    before = x.tobytes()
    p, cached = Softmax().forward(None, None, x, True, None)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    assert p is cached
    assert p.dtype == want.dtype and p.tobytes() == want.tobytes()
    assert x.tobytes() == before  # the input is not written


def test_flatten_then_dense_shapes():
    layers = [Flatten(), Dense(4)]
    keyed, store = _store_for(layers, (2, 3, 1))
    out, _ = forward_chain(keyed, store, np.zeros((5, 2, 3, 1)))
    assert out.shape == (5, 4)


def test_dense_on_image_without_flatten_is_an_error():
    with pytest.raises(ShapeError):
        nn.count_parameters([Conv2D(3, 3, 32), Dense(10)], (16, 16, 32))


def test_conv_valid_output_shape():
    assert nn.output_shape(Conv2D(8, 8, 32, stride=4), (84, 84, 4)) == (20, 20, 32)
    assert nn.output_shape(Conv2D(4, 4, 64, stride=2), (20, 20, 32)) == (9, 9, 64)


def test_conv_known_values():
    # 2x2 input, 2x2 kernel of ones -> single output = sum of inputs + bias
    keyed, store = _store_for([Conv2D(2, 2, 1)], (2, 2, 1))
    store.view((("net", 0), "w"))[...] = np.ones((2, 2, 1, 1))
    store.view((("net", 0), "b"))[...] = [0.5]
    x = np.arange(4.0).reshape(1, 2, 2, 1)
    out, _ = forward_chain(keyed, store, x)
    np.testing.assert_allclose(out, [[[[6.5]]]])


def test_maxpool_windows_and_remainder():
    keyed, store = _store_for([MaxPool2D(2, 2)], (5, 5, 1))
    x = np.arange(25.0).reshape(1, 5, 5, 1)
    out, _ = forward_chain(keyed, store, x)
    # stride == window: disjoint 2x2 blocks, last row/col dropped (VALID)
    np.testing.assert_array_equal(out[0, :, :, 0], [[6.0, 8.0], [16.0, 18.0]])


def test_dropout_eval_is_identity_and_train_scales():
    keyed, store = _store_for([Dropout(0.5)], (1000,))
    x = np.ones((1, 1000))
    out_eval, _ = forward_chain(keyed, store, x, mode="eval")
    np.testing.assert_array_equal(out_eval, x)
    rng = np.random.default_rng(3)
    out_train, _ = forward_chain(keyed, store, x, mode="train", rng=rng)
    kept = out_train[out_train > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling 1/(1-p)
    assert 0.4 < kept.size / 1000 < 0.6


def test_branch_dropout_is_all_or_nothing_per_sample():
    keyed, store = _store_for([BranchDropout(0.5)], (8,))
    x = np.ones((64, 8))
    rng = np.random.default_rng(11)
    out, _ = forward_chain(keyed, store, x, mode="train", rng=rng)
    per_sample = out.sum(axis=1)
    assert set(np.round(per_sample, 12)) <= {0.0, 16.0}  # dropped or scaled by 2
    assert (per_sample == 0).any() and (per_sample > 0).any()


def test_branch_dropout_p1_zeroes_everything():
    keyed, store = _store_for([BranchDropout(1.0)], (4,))
    out, _ = forward_chain(keyed, store, np.ones((3, 4)), mode="train",
                           rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_dropout_p_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    BranchDropout(1.0)  # allowed
    with pytest.raises(ValueError):
        BranchDropout(1.5)


@pytest.mark.parametrize("kind", ["lstm", ["dense"], {"dense": 1}, None, 3])
def test_unknown_or_non_string_layer_kind_rejected(kind):
    with pytest.raises(ValueError, match="unknown layer kind"):
        layer_from_dict({"kind": kind, "units": 4})


def test_eval_forward_is_pure():
    rng = np.random.default_rng(5)
    layers = [Dense(8), ReLU(), Dropout(0.3), Dense(3), Softmax()]
    keyed = make_keyed("net", layers)
    store = ParamStore(build_layout(keyed, (6,)))
    nn.init_chain_params(keyed, (6,), store, rng)
    x = rng.normal(size=(4, 6))
    a, _ = forward_chain(keyed, store, x, mode="eval")
    b, _ = forward_chain(keyed, store, x, mode="eval")
    assert np.array_equal(a, b)


def test_non_finite_input_is_surfaced():
    keyed, store = _store_for([ReLU()], (2,))
    with pytest.raises(nn.NonFiniteError):
        forward_chain(keyed, store, np.array([[1.0, np.nan]]))


def test_operation_estimate_is_positive_and_monotone():
    small = nn.count_operations([Dense(4)], (8,))
    large = nn.count_operations([Dense(4), Dense(4)], (8,))
    assert 0 < small < large
