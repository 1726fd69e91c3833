"""Sync protocol: merge weights, coordinators, device endpoints, wire format."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn.params import ParamStore
from hetsim.protocol import (
    Coordinator,
    DeviceEndpoint,
    GradientUpdate,
    LocalHub,
    ParamBroadcast,
    ProtocolError,
    SyncStallError,
    compute_merge_weights,
    decode_message,
    encode_message,
    merge_deltas,
    payload_nbytes,
    sync_round,
)
from hetsim.topology import ParameterPartition


def _store(n):
    store = ParamStore([((("net", 0), "w"), (n,))])
    return store


def _endpoint(device_id=0, shared=2, local=3, data_size=1):
    part = ParameterPartition("b", shared, local)
    store = _store(shared + local)
    store.flat[:] = np.arange(shared + local, dtype=np.float64)
    return DeviceEndpoint(device_id, part, store, data_size=data_size), store


# -- merge weights -------------------------------------------------------------

def test_data_proportional_ratio():
    np.testing.assert_allclose(compute_merge_weights([40_000, 10_000],
                                                     "data-proportional"),
                               [0.8, 0.2])


def test_data_proportional_symmetry():
    np.testing.assert_allclose(compute_merge_weights([1, 1, 1, 1], "data-proportional"),
                               [0.25] * 4)


def test_uniform_sum_is_all_ones():
    np.testing.assert_array_equal(compute_merge_weights([3, 9, 2], "uniform-sum"),
                                  [1.0, 1.0, 1.0])


def test_uniform_average():
    np.testing.assert_allclose(compute_merge_weights([5, 7], "uniform-average"),
                               [0.5, 0.5])


def test_data_proportional_needs_positive_sizes():
    with pytest.raises(ValueError):
        compute_merge_weights([3, 0], "data-proportional")


def test_merge_deltas_weighted_sum():
    out = merge_deltas([0.8, 0.2], [np.array([10.0]), np.array([-10.0])])
    np.testing.assert_allclose(out, [6.0])


def test_merge_deltas_zero():
    out = merge_deltas([1.0, 1.0], [np.zeros(4), np.zeros(4)])
    np.testing.assert_array_equal(out, np.zeros(4))


def test_merge_deltas_length_mismatch():
    with pytest.raises(ValueError):
        merge_deltas([1.0, 1.0], [np.zeros(3), np.zeros(4)])


# -- device endpoint (Algorithm-1 style bookkeeping) ----------------------------

def test_local_step_mode_sends_shared_delta_since_last_sync():
    ep, store = _endpoint(shared=2, local=2)
    start = store.flatten()
    store.flat += np.array([0.5, -0.25, 9.0, 9.0])
    update = ep.make_update()
    np.testing.assert_allclose(update.delta, [0.5, -0.25])
    ep.apply_broadcast(ParamBroadcast(np.array([7.0, 8.0]), 1))
    np.testing.assert_array_equal(store.flat[:2], [7.0, 8.0])
    # local parameters untouched by sync
    np.testing.assert_array_equal(store.flat[2:], start[2:] + 9.0)
    np.testing.assert_array_equal(ep.make_update().delta, [0.0, 0.0])


def test_broadcast_length_mismatch_is_an_error():
    ep, _ = _endpoint()
    with pytest.raises(ProtocolError):
        ep.apply_broadcast(ParamBroadcast(np.zeros(5), 1))


def test_second_update_before_a_broadcast_is_an_error():
    ep, store = _endpoint(shared=2, local=1)
    store.flat[:2] += 1.0
    np.testing.assert_array_equal(ep.make_update().delta, [1.0, 1.0])
    with pytest.raises(ProtocolError, match="already sent"):
        ep.make_update()
    with pytest.raises(ProtocolError, match="in flight"):
        ep.state_dict()
    ep.apply_broadcast(ParamBroadcast(np.array([5.0, 6.0]), 1))
    store.flat[:2] += 0.5
    np.testing.assert_array_equal(ep.make_update().delta, [0.5, 0.5])


def test_checkpoint_reference_is_validated_and_copied_in():
    ep, store = _endpoint(shared=3, local=2)
    with pytest.raises(ProtocolError, match=r"\(4,\).*3"):
        ep.load_state_dict({"shared_ref": np.zeros(4)})
    with pytest.raises(ProtocolError, match=r"\(2,\).*3"):
        ep.load_state_dict({"shared_ref": np.zeros(2)})
    saved = np.array([0.5, 1.0, -1.0])
    ep.load_state_dict({"shared_ref": saved})
    saved[:] = 99.0  # the endpoint keeps its own copy
    np.testing.assert_array_equal(ep.state_dict()["shared_ref"], [0.5, 1.0, -1.0])
    np.testing.assert_array_equal(ep.make_update().delta, [-0.5, 0.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**31 - 1))
def test_only_the_shared_slice_merges_property(shared_len, local_len, seed):
    """The shared block comes first: the delta is its length, and adopting
    a broadcast leaves every bit of the local slice as it was."""
    rng = np.random.default_rng(seed)
    part = ParameterPartition("b", shared_len, local_len)
    store = _store(shared_len + local_len)
    store.flat[:] = rng.normal(size=store.size)
    ep = DeviceEndpoint(0, part, store, data_size=1)
    ref = store.flat[:shared_len].copy()
    store.flat += rng.normal(size=store.size)
    local = store.flat[shared_len:].copy()
    update = ep.make_update()
    assert update.delta.shape == (shared_len,)
    assert np.array_equal(update.delta, store.flat[:shared_len] - ref)
    params = rng.normal(size=shared_len)
    ep.apply_broadcast(ParamBroadcast(params, 1))
    assert np.array_equal(store.flat[:shared_len], params)
    assert np.array_equal(store.flat[shared_len:].view(np.uint64), local.view(np.uint64))


# -- synchronous coordinator ----------------------------------------------------

def _sync_coordinator(sizes, weighting="uniform-sum", theta=None):
    coord = Coordinator("sync", weighting)
    for i, s in enumerate(sizes):
        coord.register(i, 2, s)
    coord.initialize(np.zeros(2) if theta is None else theta)
    return coord

def test_sync_round_literal_sum():
    coord = _sync_coordinator([1, 1])
    assert coord.handle_update(GradientUpdate(0, np.array([1.0, 1.0]))) == []
    out = coord.handle_update(GradientUpdate(1, np.array([2.0, 0.0])))
    assert len(out) == 1 and out[0][0] is None
    np.testing.assert_array_equal(coord.theta, [3.0, 1.0])
    assert coord.round_index == 1


def test_sync_round_data_proportional():
    coord = _sync_coordinator([40_000, 10_000], "data-proportional")
    d1, d2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    coord.handle_update(GradientUpdate(0, d1))
    coord.handle_update(GradientUpdate(1, d2))
    np.testing.assert_allclose(coord.theta, 0.8 * d1 + 0.2 * d2)


def test_single_device_reduces_to_local_update():
    for weighting in ("uniform-sum", "data-proportional", "uniform-average"):
        coord = _sync_coordinator([17], weighting)
        coord.handle_update(GradientUpdate(0, np.array([0.5, -0.5])))
        np.testing.assert_allclose(coord.theta, [0.5, -0.5])


def test_sync_is_a_barrier_no_broadcast_until_all_arrive():
    coord = _sync_coordinator([1, 1, 1])
    assert coord.handle_update(GradientUpdate(0, np.zeros(2))) == []
    assert coord.handle_update(GradientUpdate(2, np.zeros(2))) == []
    assert coord.missing_device_ids() == [1]
    assert coord.handle_update(GradientUpdate(1, np.zeros(2))) != []


def test_duplicate_update_in_a_round_rejected():
    coord = _sync_coordinator([1, 1])
    coord.handle_update(GradientUpdate(0, np.zeros(2)))
    with pytest.raises(ProtocolError):
        coord.handle_update(GradientUpdate(0, np.zeros(2)))


def test_unknown_device_rejected():
    coord = _sync_coordinator([1])
    with pytest.raises(ProtocolError):
        coord.handle_update(GradientUpdate(9, np.zeros(2)))


def test_update_length_mismatch_rejected():
    coord = _sync_coordinator([1])
    with pytest.raises(ProtocolError):
        coord.handle_update(GradientUpdate(0, np.zeros(3)))


# -- asynchronous coordinator -----------------------------------------------------

def test_async_serialization_replies():
    coord = Coordinator("async", "uniform-sum")
    coord.register(0, 1, 1)
    coord.register(1, 1, 1)
    coord.initialize(np.array([0.0]))
    out_a = coord.handle_update(GradientUpdate(0, np.array([1.0])))
    out_b = coord.handle_update(GradientUpdate(1, np.array([2.0])))
    np.testing.assert_array_equal(coord.theta, [3.0])
    assert out_a[0][0] == 0 and out_b[0][0] == 1
    np.testing.assert_array_equal(out_a[0][1].params, [1.0])
    np.testing.assert_array_equal(out_b[0][1].params, [3.0])


def test_async_opposite_order_same_final_state():
    def run(order):
        coord = Coordinator("async", "uniform-sum")
        coord.register(0, 1, 1)
        coord.register(1, 1, 1)
        coord.initialize(np.array([0.0]))
        replies = {}
        for dev, delta in order:
            out = coord.handle_update(GradientUpdate(dev, np.array([delta])))
            replies[dev] = out[0][1].params[0]
        return coord.theta[0], replies

    theta_ab, replies_ab = run([(0, 1.0), (1, 2.0)])
    theta_ba, replies_ba = run([(1, 2.0), (0, 1.0)])
    assert theta_ab == theta_ba == 3.0
    assert replies_ab != replies_ba


def test_async_zero_delta_is_fixed_point():
    coord = Coordinator("async", "uniform-sum")
    coord.register(0, 2, 1)
    coord.initialize(np.array([4.0, 5.0]))
    out = coord.handle_update(GradientUpdate(0, np.zeros(2)))
    np.testing.assert_array_equal(out[0][1].params, [4.0, 5.0])
    np.testing.assert_array_equal(coord.theta, [4.0, 5.0])


def test_async_bookkeeping_random_interleaving_bit_exact():
    rng = np.random.default_rng(123)
    n_dev, dim = 4, 7
    coord = Coordinator("async", "data-proportional")
    sizes = [10, 20, 30, 40]
    for i in range(n_dev):
        coord.register(i, dim, sizes[i])
    theta0 = rng.normal(size=dim)
    coord.initialize(theta0)
    expected = coord.theta.copy()
    for _ in range(1000):
        dev = int(rng.integers(n_dev))
        delta = rng.normal(size=dim)
        coord.handle_update(GradientUpdate(dev, delta))
        expected += coord.weight_of(dev) * delta
    assert np.array_equal(coord.theta, expected)


# -- hub wiring and sync_round ----------------------------------------------------

def test_device_sync_roundtrip_async():
    ep, store = _endpoint(device_id=0, shared=2, local=1)
    coord = Coordinator("async", "uniform-sum")
    coord.register(0, 2, 1)
    hub = LocalHub(coord)
    hub.connect(0)
    hub.broadcast_initial(store.flat[:2].copy())
    hub.take_reply(0)  # drop the initial broadcast
    store.flat[:2] += 1.0
    sync_round([ep], hub)
    np.testing.assert_allclose(store.flat[:2], coord.theta)


def test_sync_round_helper_runs_barrier():
    eps, stores = [], []
    coord = Coordinator("sync", "uniform-average")
    hub = LocalHub(coord)
    for i in range(2):
        ep, store = _endpoint(device_id=i, shared=2, local=1)
        coord.register(i, 2, 1)
        hub.connect(i)
        eps.append(ep)
        stores.append(store)
    hub.broadcast_initial(stores[0].flat[:2].copy())
    for i in range(2):
        hub.take_reply(i)
    stores[0].flat[:2] += np.array([2.0, 0.0])
    stores[1].flat[:2] += np.array([0.0, 4.0])
    sync_round(eps, hub)
    np.testing.assert_allclose(stores[0].flat[:2], stores[1].flat[:2])
    np.testing.assert_allclose(coord.theta, np.array([0.0, 1.0]) + [1.0, 2.0])


def test_stalled_sync_round_surfaces_diagnostic():
    coord = Coordinator("sync", "uniform-sum")
    hub = LocalHub(coord)
    ep0, store0 = _endpoint(device_id=0, shared=2, local=0)
    ep1, _ = _endpoint(device_id=1, shared=2, local=0)
    coord.register(0, 2, 1)
    coord.register(1, 2, 1)
    hub.connect(0)
    hub.connect(1)
    hub.broadcast_initial(store0.flat[:2].copy())
    hub.take_reply(0)
    hub.take_reply(1)
    with pytest.raises(SyncStallError, match="missing"):
        sync_round([ep0], hub)  # device 1 never sends


def test_hub_replies_are_taken_in_arrival_order():
    ep, store = _endpoint(device_id=0, shared=2, local=0)
    coord = Coordinator("async", "uniform-sum")
    coord.register(0, 2, 1)
    hub = LocalHub(coord)
    hub.connect(0)
    hub.broadcast_initial(store.flat[:2].copy())
    hub.send_update(GradientUpdate(0, np.array([1.0, 0.0])))
    hub.send_update(GradientUpdate(0, np.array([0.0, 1.0])))
    assert [hub.take_reply(0).round_index for _ in range(3)] == [0, 1, 2]
    with pytest.raises(SyncStallError):
        hub.take_reply(0)


def test_only_shared_values_cross_the_boundary():
    """Communication-volume assertion: every frame carries exactly shared_len."""
    eps, stores = [], []
    coord = Coordinator("sync", "uniform-average")
    hub = LocalHub(coord)
    shared, local = 3, 5
    for i in range(2):
        ep, store = _endpoint(device_id=i, shared=shared, local=local)
        coord.register(i, shared, 1)
        hub.connect(i)
        eps.append(ep); stores.append(store)
    hub.broadcast_initial(stores[0].flat[:shared].copy())
    for i in range(2):
        hub.take_reply(i)
    for store in stores:
        store.flat += 1.0
    sync_round(eps, hub)
    assert hub.update_log == [(0, shared * 8), (1, shared * 8)]


# -- wire format -------------------------------------------------------------------

def test_frame_roundtrip_gradient_update():
    msg = GradientUpdate(7, np.array([1.5, -2.25, 3.0]))
    for dtype in (np.float64, np.float32):
        buf = encode_message(msg, dtype)
        assert len(buf) == 16 + 3 * np.dtype(dtype).itemsize
        back = decode_message(buf, dtype)
        assert isinstance(back, GradientUpdate)
        assert back.device_id == 7
        np.testing.assert_allclose(back.delta, np.asarray(msg.delta, dtype=dtype))


def test_frame_roundtrip_param_broadcast():
    msg = ParamBroadcast(np.linspace(0, 1, 5), round_index=42)
    back = decode_message(encode_message(msg), np.float64)
    assert isinstance(back, ParamBroadcast)
    assert back.round_index == 42
    np.testing.assert_array_equal(back.params, msg.params)


def test_frame_header_layout_is_little_endian():
    buf = encode_message(GradientUpdate(1, np.array([1.0])), np.float64)
    assert buf[0:4] == b"\x01\x00\x00\x00"          # tag
    assert buf[4:8] == b"\x01\x00\x00\x00"          # device id
    assert buf[8:16] == b"\x01" + b"\x00" * 7       # u64 length
    assert len(buf) == 16 + 8


def test_frame_truncation_rejected():
    buf = encode_message(GradientUpdate(1, np.zeros(4)))
    with pytest.raises(ProtocolError):
        decode_message(buf[:-3], np.float64)


def test_payload_bytes_is_length_times_width():
    assert payload_nbytes(10_144, np.float64) == 10_144 * 8
    assert payload_nbytes(3, np.float32) == 12


# -- the in-place round against the allocating reference ----------------------------

class _ReferenceProtocol:
    """The allocating protocol as first written: a fresh delta per update, a
    float64 copy per pending update, a fresh ``w * d`` term per device, and
    a fresh reference copy per adopted broadcast."""

    def __init__(self, stores, shared_len, weights, mode, theta0):
        self.stores, self.s, self.weights, self.mode = stores, shared_len, weights, mode
        self.refs = [store.flat[:shared_len].copy() for store in stores]
        self.theta = theta0.copy()
        self.sent = []

    def make_update(self, i):
        return self.stores[i].flat[:self.s] - self.refs[i]

    @staticmethod
    def merge_deltas(weights, deltas):
        weights = np.asarray(weights, dtype=np.float64)
        out = np.zeros_like(np.asarray(deltas[0]), dtype=np.float64)
        for w, d in zip(weights, deltas):
            out += w * np.asarray(d)
        return out

    def apply_broadcast(self, i, params):
        self.stores[i].flat[:self.s] = params
        self.refs[i] = self.stores[i].flat[:self.s].copy()

    def sync_round(self, order):
        replies, pending = {}, {}
        for i in order:
            delta = self.make_update(i)
            self.sent.append((i, delta))
            if self.mode == "async":
                self.theta += self.weights[i] * np.asarray(delta, dtype=np.float64)
                replies[i] = self.theta.copy()
            else:
                pending[i] = np.asarray(delta, dtype=np.float64)
        if self.mode == "sync":
            ids = sorted(pending)  # registration order
            self.theta += self.merge_deltas([self.weights[i] for i in ids],
                                            [pending[i] for i in ids])
            replies = {i: self.theta.copy() for i in order}
        for i in order:
            self.apply_broadcast(i, replies[i])


class _RecordingHub(LocalHub):
    def __init__(self, coordinator, dtype=np.float64):
        super().__init__(coordinator, dtype)
        self.sent = []

    def send_update(self, update):
        self.sent.append((update.device_id, update.delta.copy()))
        super().send_update(update)


def _bits(a):
    a = np.asarray(a)
    return a.view(np.dtype(f"u{a.itemsize}"))


def _perturb(rng, flats):
    """The same 'training' on each pair of stores: noise, plus entries set to
    zeros of either sign, so that deltas and sums of signed zeros occur.
    Entry 0 is -0.0 on every device, so its first deltas are all -0.0."""
    for pair in flats:
        noise = rng.normal(size=pair[0].size) * rng.integers(0, 2, size=pair[0].size)
        noise[:4] = 0.0  # these entries only ever hold zeros
        zeros = rng.choice([-0.0, 0.0], size=pair[0].size)
        mask = rng.random(pair[0].size) < 0.2
        for flat in pair:
            flat += noise.astype(flat.dtype)
            flat[mask] = zeros[mask]
            flat[0] = -0.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("weighting,sizes", [
    ("data-proportional", [3, 1, 7]),
    ("uniform-average", [1, 1, 1, 1, 1]),
    ("uniform-sum", [2, 5, 1, 4]),
])
def test_in_place_rounds_match_the_allocating_reference(dtype, mode, weighting, sizes):
    rng = np.random.default_rng(len(sizes) * 10 + (mode == "async"))
    shared, local = 37, 5
    part = ParameterPartition("b", shared, local)
    stores, ref_stores = [], []
    for _ in sizes:
        store = ParamStore([((("net", 0), "w"), (shared + local,))], dtype)
        store.flat[:] = rng.normal(size=store.size)
        store.flat[:4] = [0.0, -0.0, -0.0, 0.0]
        stores.append(store)
        ref_stores.append(store.copy())
    coord = Coordinator(mode, weighting)
    hub = _RecordingHub(coord, dtype)
    eps = []
    for i, (store, size) in enumerate(zip(stores, sizes)):
        eps.append(DeviceEndpoint(i, part, store, data_size=size))
        coord.register(i, shared, size)
        hub.connect(i)
    theta0 = stores[0].flat[:shared].astype(np.float64)
    theta0[0] = -0.0  # a sum of -0.0 terms must not keep it negative
    hub.broadcast_initial(theta0)
    for i in range(len(sizes)):
        hub.take_reply(i)
    reference = _ReferenceProtocol(
        ref_stores, shared, compute_merge_weights(sizes, weighting), mode, theta0)
    assert np.array_equal(_bits(coord.theta), _bits(reference.theta))

    negative_zeros = 0
    for _ in range(12):
        _perturb(rng, [(a.flat, b.flat) for a, b in zip(stores, ref_stores)])
        order = [int(i) for i in rng.permutation(len(sizes))]  # out-of-order arrivals
        sync_round([eps[i] for i in order], hub)
        reference.sync_round(order)
        assert [i for i, _ in hub.sent] == [i for i, _ in reference.sent]
        for (_, got), (_, want) in zip(hub.sent, reference.sent):
            assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
            negative_zeros += int(np.sum((got == 0.0) & np.signbit(got)))
        hub.sent.clear()
        reference.sent.clear()
        assert np.array_equal(_bits(coord.theta), _bits(reference.theta))
        for i, (store, ref_store) in enumerate(zip(stores, ref_stores)):
            assert np.array_equal(_bits(store.flat), _bits(ref_store.flat))
            assert np.array_equal(_bits(eps[i].state_dict()["shared_ref"]),
                                  _bits(reference.refs[i]))
    assert negative_zeros and np.any(coord.theta[:4] == 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_merge_deltas_buffers_match_the_allocating_reference(dtype):
    rng = np.random.default_rng(5)
    deltas = [(rng.normal(size=50) * 100).astype(dtype) for _ in range(4)]
    deltas[1][:10] = 0
    if dtype != np.int64:
        deltas[2][:10] = -0.0
    weights = [0.1, 0.2, 0.3, 0.4]
    want = _ReferenceProtocol.merge_deltas(weights, deltas)
    out, scratch = np.full(50, np.nan), np.full(50, np.nan)
    for got in (merge_deltas(weights, deltas),
                merge_deltas(weights, deltas, out=out, scratch=scratch)):
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))
    assert merge_deltas(weights, deltas, out=out) is out


def test_second_sync_round_allocates_only_the_broadcast_copy():
    """Per-device parameter-sized temporaries would show as a multiple of
    the shared slice's bytes in the traced peak."""
    n_dev, shared = 8, 1 << 16
    part = ParameterPartition("b", shared, 3)
    coord = Coordinator("sync", "data-proportional")
    hub = LocalHub(coord)
    eps = []
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=shared)
    for i in range(n_dev):
        store = _store(shared + 3)
        store.flat[:shared] = theta0
        eps.append(DeviceEndpoint(i, part, store, data_size=i + 1))
        coord.register(i, shared, i + 1)
        hub.connect(i)
    hub.broadcast_initial(theta0)
    for i in range(n_dev):
        hub.take_reply(i)
    noise = rng.normal(size=shared)
    tracemalloc.start()
    try:
        for _ in range(2):  # the peak of the second round counts
            for k, ep in enumerate(eps):
                ep.store.flat[:shared] += (k + 1) * noise
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            sync_round(eps, hub)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak -= before
    assert peak <= 1.5 * shared * 8, f"peak {peak / (shared * 8):.2f}x the shared slice"
