"""Parameter store round-trips and canonical ordering."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn import Dense, Flatten, ReLU, Sgd, build_layout, from_flat, make_keyed
from hetsim.nn.params import ParamStore
from hetsim.protocol import DeviceEndpoint, ParamBroadcast
from hetsim.topology import ParameterPartition


def _layout(dims):
    layout = []
    for i, (a, b) in enumerate(dims):
        layout.append(((("net", i), "w"), (a, b)))
        layout.append(((("net", i), "b"), (b,)))
    return layout


def test_flatten_unflatten_is_identity():
    store = ParamStore(_layout([(3, 4), (4, 2)]))
    store.flat[:] = np.arange(store.size, dtype=np.float64)
    rebuilt = from_flat(store.layout, store.flatten())
    assert rebuilt == store
    for key in store.keys():
        np.testing.assert_array_equal(rebuilt.view(key), store.view(key))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_flatten_roundtrip_property(dims, seed):
    store = ParamStore(_layout(dims))
    store.flat[:] = np.random.default_rng(seed).normal(size=store.size)
    again = from_flat(store.layout, store.flatten())
    assert np.array_equal(again.flat, store.flat)
    store2 = ParamStore(store.layout)
    store2.set_flat(store.flatten())
    assert np.array_equal(store2.flat, store.flat)


def test_views_share_memory_with_flat():
    store = ParamStore(_layout([(2, 2)]))
    store.view((("net", 0), "w"))[0, 0] = 42.0
    assert store.flat[0] == 42.0
    store.flat[3] = -1.0
    assert store.view((("net", 0), "w"))[1, 1] == -1.0


def test_canonical_order_is_stable_weights_before_biases():
    keyed = make_keyed("stem", [Dense(4), ReLU(), Dense(2)])
    layout = build_layout(keyed, (3,))
    keys = [k for k, _ in layout]
    assert keys == [
        ((("stem", 0)), "w"), ((("stem", 0)), "b"),
        ((("stem", 2)), "w"), ((("stem", 2)), "b"),
    ]
    # same topology, same order, every time
    assert build_layout(keyed, (3,)) == layout


def test_wrong_length_vector_rejected():
    store = ParamStore(_layout([(2, 3)]))
    with pytest.raises(ValueError):
        store.set_flat(np.zeros(store.size + 1))
    with pytest.raises(ValueError):
        from_flat(store.layout, np.zeros(store.size - 1))


def test_duplicate_keys_rejected():
    layout = [((("net", 0), "w"), (2, 2)), ((("net", 0), "w"), (2, 2))]
    with pytest.raises(ValueError):
        ParamStore(layout)


def test_parameterless_chain_has_empty_store():
    keyed = make_keyed("net", [Flatten(), ReLU()])
    store = ParamStore(build_layout(keyed, (2, 2, 1)))
    assert store.size == 0
    assert store.flatten().size == 0


def _aliases_flat(store):
    return all(np.shares_memory(store.view(key), store.flat) for key in store.keys())


def test_views_stay_bound_to_flat_after_every_in_place_writer():
    store = ParamStore(_layout([(3, 4), (4, 2)]))
    key = store.keys()[0]
    store.set_flat(np.arange(store.size, dtype=np.float64))
    assert _aliases_flat(store) and store.view(key)[0, 1] == 1.0
    Sgd(learning_rate=1.0).step(store.flat, np.ones(store.size))
    assert _aliases_flat(store) and store.view(key)[0, 1] == 0.0
    endpoint = DeviceEndpoint(0, ParameterPartition("b", 16, store.size - 16), store, 1)
    endpoint.apply_broadcast(ParamBroadcast(np.full(16, 7.0)))
    assert _aliases_flat(store) and store.view(key)[0, 1] == 7.0


def test_copies_have_views_into_their_own_flat():
    store = ParamStore(_layout([(2, 3), (3, 1)]))
    store.flat[:] = 1.0
    for other in (store.copy(), store.zeros_like(), from_flat(store.layout, store.flat)):
        assert _aliases_flat(other)
        assert not any(np.shares_memory(other.view(k), store.flat) for k in other.keys())
        other.view(store.keys()[0])[...] = 5.0
        assert (store.flat == 1.0).all()


def test_layer_spans_cover_each_layers_tensors():
    keyed = make_keyed("net", [Dense(4), ReLU(), Dense(2)])
    store = ParamStore(build_layout(keyed, (3,)))  # 3*4 + 4, then 4*2 + 2
    assert store.span_of([("net", 0)]) == (0, 16)
    assert store.span_of([("net", 2)]) == (16, 26)
    assert store.span_of([("net", 0), ("net", 1), ("net", 2)]) == (0, 26)
    assert store.span_of([("net", 1)]) == (0, 0)  # ReLU has no parameters
    assert store.span_of([]) == (0, 0)
