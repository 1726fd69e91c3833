"""Parameter store round-trips and canonical ordering."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn import Dense, Flatten, ReLU, Sgd, build_layout, make_keyed
from hetsim.nn.params import ParamStore, store_over
from hetsim.protocol import Coordinator, sync_round


def _layout(dims):
    layout = []
    for i, (a, b) in enumerate(dims):
        layout.append(((("net", i), "w"), (a, b)))
        layout.append(((("net", i), "b"), (b,)))
    return layout


def test_flatten_unflatten_is_identity():
    store = ParamStore(_layout([(3, 4), (4, 2)]))
    store.flat[:] = np.arange(store.size, dtype=np.float64)
    rebuilt = ParamStore(store.layout, flat=store.flatten())
    assert rebuilt == store
    for key in store.keys():
        np.testing.assert_array_equal(rebuilt.view(key), store.view(key))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_flatten_roundtrip_property(dims, seed):
    store = ParamStore(_layout(dims))
    store.flat[:] = np.random.default_rng(seed).normal(size=store.size)
    again = ParamStore(store.layout, flat=store.flatten())
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
        ParamStore(store.layout, flat=np.zeros(store.size - 1))


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
    coordinator = Coordinator("sync", "uniform-sum", [1], [store.flat[:16]])
    coordinator.theta[...] = 7.0
    sync_round(coordinator)  # no training: the device adopts theta as it is
    assert _aliases_flat(store) and store.view(key)[0, 1] == 7.0


def test_copies_have_views_into_their_own_flat():
    store = ParamStore(_layout([(2, 3), (3, 1)]))
    store.flat[:] = 1.0
    for other in (store.copy(), store.zeros_like(),
                  ParamStore(store.layout, flat=store.flat)):
        assert _aliases_flat(other)
        assert not any(np.shares_memory(other.view(k), store.flat) for k in other.keys())
        other.view(store.keys()[0])[...] = 5.0
        assert (store.flat == 1.0).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_zeros_like_views_are_bound_to_its_own_flat(dtype):
    store = ParamStore(_layout([(2, 3), (3, 1)]), dtype)
    store.flat[:] = 1.0
    a, b = store.zeros_like(), store.zeros_like()
    for twin in (a, b):
        assert twin.dtype == dtype and twin.flat.dtype == dtype
        assert twin.layout == store.layout and twin.size == store.size
        assert (twin.flat == 0.0).all()
        assert _aliases_flat(twin)
        assert twin.span_of([("net", 1)]) == store.span_of([("net", 1)])
    a.view(store.keys()[2])[...] = 4.0
    assert (a.flat[9:12] == 4.0).all() and (b.flat == 0.0).all() and (store.flat == 1.0).all()
    a.flat[:] = 2.0  # written in place: every view follows
    assert all((a.view(k) == 2.0).all() for k in a.keys())


def test_layer_spans_cover_each_layers_tensors():
    keyed = make_keyed("net", [Dense(4), ReLU(), Dense(2)])
    store = ParamStore(build_layout(keyed, (3,)))  # 3*4 + 4, then 4*2 + 2
    assert store.span_of([("net", 0)]) == (0, 16)
    assert store.span_of([("net", 2)]) == (16, 26)
    assert store.span_of([("net", 0), ("net", 1), ("net", 2)]) == (0, 26)
    assert store.span_of([("net", 1)]) == (0, 0)  # ReLU has no parameters
    assert store.span_of([]) == (0, 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_over_reads_the_given_vector_without_copying(dtype):
    store = ParamStore(_layout([(2, 3), (3, 1)]), dtype)
    vec = np.arange(store.size, dtype=dtype)
    other = store.over(vec)
    assert other.flat is vec and other.dtype == dtype
    assert all(np.shares_memory(other.view(k), vec) for k in other.keys())
    assert other.span_of([("net", 1)]) == store.span_of([("net", 1)])
    np.testing.assert_array_equal(other.view(store.keys()[1]), vec[6:9])
    assert (store.flat == 0.0).all()
    widened = store.over(np.ones(store.size, dtype=np.float16))
    assert widened.flat.dtype == dtype and (widened.flat == 1.0).all()
    with pytest.raises(ValueError, match="expected flat length 13"):
        store.over(np.zeros(store.size + 1, dtype=dtype))


def test_a_stores_row_is_built_once_over_flat_and_a_derived_store_builds_its_own():
    store = ParamStore(_layout([(2, 3), (3, 1)]))
    row = store.row()
    assert store.row() is row
    assert row.flat.shape == (1, store.size) and np.shares_memory(row.flat, store.flat)
    assert row.view(store.keys()[0]).shape == (1, 2, 3)
    store.set_flat(np.arange(store.size, dtype=np.float64))  # written in place
    np.testing.assert_array_equal(row.flat[0], store.flat)
    for other in (store.copy(), store.zeros_like(), store.over(np.ones(store.size)),
                  store_over(store.layout, np.ones((2, store.size))[1])):
        own = other.row()
        assert own is not row and other.row() is own
        assert np.shares_memory(own.flat, other.flat)
        assert not np.shares_memory(own.flat, store.flat)
