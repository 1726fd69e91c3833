"""Where chains check for NaN and +-inf, against a check after every layer.

A chain checks the output of the layer in front of each layer that can
drop a non-finite value, and its own output. That is only as strict as a
check after every layer if every other layer kind turns a non-finite
input into a non-finite output; the property below pins that, and the
chain-level test compares the two rules directly.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn import (
    BranchDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NonFiniteError,
    ReLU,
    Softmax,
    build_layout,
    forward_chain,
    init_chain_params,
    make_keyed,
)
from hetsim.nn.network import ChainPlan
from hetsim.nn.params import ParamStore

from one_device import LayerAlone

BAD = (np.nan, np.inf, -np.inf)
DTYPES = (np.float64, np.float32)


def _chain(layers, input_shape, dtype, seed=0):
    keyed = make_keyed("net", layers)
    store = ParamStore(build_layout(keyed, input_shape), dtype)
    init_chain_params(keyed, input_shape, store, np.random.default_rng(seed))
    return keyed, store


# -- the kinds without the flag pass any non-finite input on -------------------

@st.composite
def _passing_layer(draw):
    """(layer, batch-less input shape) for every kind whose flag is false."""
    kind = draw(st.sampled_from(["dense", "conv2d", "relu", "dropout",
                                 "branch_dropout", "flatten"]))
    if kind == "dense":
        return Dense(draw(st.integers(1, 5))), (draw(st.integers(1, 6)),)
    if kind == "conv2d":
        h, w, c = (draw(st.integers(1, 5)) for _ in range(3))
        layer = Conv2D(draw(st.integers(1, h)), draw(st.integers(1, w)),
                       draw(st.integers(1, 3)))
        return layer, (h, w, c)
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    if kind == "dropout":
        return Dropout(draw(st.sampled_from([0.0, 0.5, 0.9]))), shape
    if kind == "branch_dropout":
        return BranchDropout(draw(st.sampled_from([0.0, 0.5, 1.0]))), shape
    return (ReLU() if kind == "relu" else Flatten()), shape


@settings(max_examples=300, deadline=None)
@given(_passing_layer(), st.integers(1, 3), st.sampled_from(BAD), st.data(),
       st.booleans(), st.sampled_from(DTYPES), st.integers(0, 2**31 - 1))
def test_kinds_without_the_flag_keep_a_non_finite_input(case, n, bad, data, train,
                                                        dtype, seed):
    layer, in_shape = case
    assert not layer.drops_non_finite
    key = ("net", 0)
    _, store = _chain([layer], in_shape, dtype, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *in_shape)).astype(dtype)
    x.reshape(-1)[data.draw(st.integers(0, x.size - 1))] = bad
    with np.errstate(all="ignore"):
        y, _ = LayerAlone(layer).forward(store, key, x, train, rng)
    assert not np.isfinite(y).all()


@pytest.mark.parametrize("layer,x", [
    (MaxPool2D(2, 1), np.array([[[[-np.inf]], [[0.0]]]])),  # the max absorbs -inf
    (MaxPool2D(2, 2), np.array([[[[0.0], [1.0], [np.nan]], [[2.0], [3.0], [0.0]]]])),
    (Softmax(), np.array([[0.0, -np.inf]])),  # exp(-inf) is 0
    (Conv2D(1, 1, 1, stride=2), np.array([[[[0.0], [np.inf]]]])),  # skipped column
])
def test_flagged_kinds_can_drop_a_non_finite_input(layer, x):
    assert layer.drops_non_finite
    _, store = _chain([layer], x.shape[1:], np.float64)
    y, _ = LayerAlone(layer).forward(store, ("net", 0), x, False, None)
    assert np.isfinite(y).all()


def test_only_a_strided_convolution_is_flagged():
    assert not Conv2D(3, 3, 4).drops_non_finite
    assert Conv2D(3, 3, 4, stride=2).drops_non_finite


# -- chain-level: the plan against a check after every layer --------------------

def _per_layer_rule(keyed, store, x, train, rng):
    """The rule before chain plans: check every layer's output, in order.

    Returns the error message that rule raised, or None.
    """
    out = np.asarray(x, dtype=store.dtype)
    for key, layer in keyed:
        out, _ = LayerAlone(layer).forward(store, key, out, train, rng)
        if not np.isfinite(out).all():
            return f"non-finite values in {layer.__class__.__name__} output"
    return None


IMAGE = (6, 6, 2)
CHAINS = [
    (IMAGE, [MaxPool2D(2, 2), Flatten(), Dense(3)]),
    (IMAGE, [Conv2D(3, 3, 2), ReLU(), MaxPool2D(2, 2), Flatten(), Dense(4), Softmax()]),
    (IMAGE, [Conv2D(2, 2, 3, stride=2), ReLU(), Flatten(), Dropout(0.3), Dense(3)]),
    (IMAGE, [MaxPool2D(2, 2), Conv2D(1, 1, 2, stride=2), Flatten(), Softmax()]),
    (IMAGE, [ReLU(), MaxPool2D(4, 4), Flatten(), Dense(2), Softmax()]),
    ((5,), [Dense(4), ReLU(), Dense(3), Softmax()]),
    ((5,), [Softmax(), Dense(3), BranchDropout(0.5), Softmax(), Dense(2)]),
    ((5,), [Dropout(0.5), Dense(4), ReLU(), Softmax()]),
]


def _outcome(call):
    try:
        call()
    except NonFiniteError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(CHAINS))), st.integers(1, 3), st.data(),
       st.sampled_from(DTYPES), st.booleans(), st.integers(0, 2**31 - 1))
def test_plan_raises_where_a_check_after_every_layer_raises(index, n, data, dtype,
                                                            train, seed):
    in_shape, layers = CHAINS[index]
    keyed, store = _chain(layers, in_shape, dtype, seed)
    x = np.random.default_rng(seed).standard_normal((n, *in_shape))
    x *= data.draw(st.sampled_from([1.0, 1e20, 1e200]))  # large inputs overflow
    for _ in range(data.draw(st.integers(0, 3))):
        x.reshape(-1)[data.draw(st.integers(0, x.size - 1))] = data.draw(
            st.sampled_from(BAD))
    mode = "train" if train else "eval"
    with np.errstate(all="ignore"):
        want = _per_layer_rule(keyed, store, x, train, np.random.default_rng(seed))
        got = _outcome(lambda: forward_chain(keyed, store, x, mode=mode,
                                             rng=np.random.default_rng(seed)))
        assert got == want
        if not train:
            plan = ChainPlan(keyed, store.span_of(key for key, _ in keyed))
            assert _outcome(lambda: plan.predict(store.row(), x[None])) == want


def test_maxpool_first_chain_accepts_a_minus_inf_its_pool_drops():
    keyed, store = _chain([MaxPool2D(2, 2), Flatten(), Dense(3)], (2, 2, 1), np.float64)
    x = np.array([[[[-np.inf], [1.0]], [[0.0], [2.0]]]])
    assert _per_layer_rule(keyed, store, x, False, None) is None
    forward_chain(keyed, store, x)
    x[0, :, :, 0] = -np.inf  # every pixel of the window: the pool output is -inf
    with pytest.raises(NonFiniteError, match="MaxPool2D output"):
        forward_chain(keyed, store, x)


def test_error_names_the_first_non_finite_layer_between_check_points():
    # one check point, at the Flatten in front of the Softmax; the Dense
    # output was the first to hold a non-finite value
    keyed, store = _chain([Dense(4), ReLU(), Flatten(), Softmax()], (2,), np.float64)
    store.view((("net", 0), "b"))[0] = np.inf
    with pytest.raises(NonFiniteError, match="non-finite values in Dense output"):
        forward_chain(keyed, store, np.ones((1, 2)))
    keyed, store = _chain([ReLU(), Dense(3), Softmax()], (2,), np.float64)
    with pytest.raises(NonFiniteError, match="non-finite values in ReLU output"):
        forward_chain(keyed, store, np.array([[np.nan, 1.0]]))
    with pytest.raises(NonFiniteError, match="non-finite values in ReLU output"):
        ChainPlan(keyed, store.span_of(key for key, _ in keyed)).predict(
            store.row(), np.array([[[np.nan, 1.0]]]))
