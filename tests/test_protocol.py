"""Sync protocol: merge weights, the coordinator, sync rounds, wire format."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn.params import ParamStore
from hetsim.protocol import (
    Coordinator,
    GradientUpdate,
    ParamBroadcast,
    ProtocolError,
    compute_merge_weights,
    decode_message,
    encode_message,
    merge_deltas,
    payload_nbytes,
    sync_round,
)


def _store(n):
    store = ParamStore([((("net", 0), "w"), (n,))])
    return store


def _arange_store(shared=2, local=3):
    store = _store(shared + local)
    store.flat[:] = np.arange(shared + local, dtype=np.float64)
    return store


class _RecordingCoordinator(Coordinator):
    """Keeps a copy of each delta it is sent, as (device id, delta), in
    arrival order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sent = []

    def merge(self, deltas):
        self.sent.extend((i, np.array(d)) for i, d in enumerate(deltas))
        super().merge(deltas)

    def apply(self, device_id, delta):
        self.sent.append((device_id, np.array(delta)))
        super().apply(device_id, delta)


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


# -- a device's side of a round (Algorithm-1 style bookkeeping) -----------------

def test_local_step_mode_sends_shared_delta_since_last_sync():
    store = _arange_store(shared=2, local=2)
    coord = _RecordingCoordinator("sync", "uniform-sum", [1], [store.flat[:2]])
    start = store.flatten()
    store.flat += np.array([0.5, -0.25, 9.0, 9.0])
    sync_round(coord)
    np.testing.assert_allclose(coord.sent[-1][1], [0.5, -0.25])
    np.testing.assert_array_equal(store.flat[:2], [0.5, 0.75])
    np.testing.assert_array_equal(store.flat[:2], coord.theta)
    # local parameters untouched by sync
    np.testing.assert_array_equal(store.flat[2:], start[2:] + 9.0)
    sync_round(coord)
    np.testing.assert_array_equal(coord.sent[-1][1], [0.0, 0.0])


def test_slices_of_another_length_are_rejected():
    with pytest.raises(ValueError, match="disagree"):
        Coordinator("sync", "uniform-sum", [1, 1], [np.zeros(2), np.zeros(5)])


def test_initial_shared_slices_must_agree():
    a, b = np.array([1.0, 2.0]), np.array([1.0, 2.5])
    for mode in ("sync", "async"):
        with pytest.raises(ValueError, match="disagree"):
            Coordinator(mode, "uniform-average", [1, 1], [a, b])
    # equal values agree whatever the dtype; 0.0 and -0.0 are equal values
    Coordinator("sync", "uniform-average", [1, 1],
                [np.array([0.0, 2.0]), np.array([-0.0, 2.0], dtype=np.float32)])


def test_one_shared_slice_per_data_size():
    for slices in ([np.zeros(2)], [np.zeros(2)] * 3):
        with pytest.raises(ValueError, match="shared slices for 2 devices"):
            Coordinator("sync", "uniform-sum", [1, 1], slices)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**31 - 1))
def test_only_the_shared_slice_merges_property(shared_len, local_len, seed):
    """The shared block comes first: the delta is its length, and adopting
    ``theta`` leaves every bit of the local slice as it was."""
    rng = np.random.default_rng(seed)
    store = _store(shared_len + local_len)
    store.flat[:] = rng.normal(size=store.size)
    other = store.copy()
    coord = _RecordingCoordinator("sync", "uniform-average", [1, 3],
                                  [store.flat[:shared_len], other.flat[:shared_len]])
    ref = store.flat[:shared_len].copy()
    store.flat += rng.normal(size=store.size)
    other.flat[:shared_len] += rng.normal(size=shared_len)
    local = store.flat[shared_len:].copy()
    want = store.flat[:shared_len] - ref
    sync_round(coord)
    delta = coord.sent[0][1]
    assert delta.shape == (shared_len,)
    assert np.array_equal(delta, want)
    assert np.array_equal(store.flat[:shared_len], coord.theta)
    assert np.array_equal(store.flat[shared_len:].view(np.uint64), local.view(np.uint64))


# -- synchronous coordinator ----------------------------------------------------

def _sync_coordinator(sizes, weighting="uniform-sum", theta=None):
    theta = np.zeros(2) if theta is None else theta
    return Coordinator("sync", weighting, sizes, [theta] * len(sizes))


def test_sync_round_literal_sum():
    coord = _sync_coordinator([1, 1])
    coord.merge([np.array([1.0, 1.0]), np.array([2.0, 0.0])])
    np.testing.assert_array_equal(coord.theta, [3.0, 1.0])


def test_sync_round_data_proportional():
    coord = _sync_coordinator([40_000, 10_000], "data-proportional")
    d1, d2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    coord.merge([d1, d2])
    np.testing.assert_allclose(coord.theta, 0.8 * d1 + 0.2 * d2)


def test_single_device_reduces_to_local_update():
    for weighting in ("uniform-sum", "data-proportional", "uniform-average"):
        coord = _sync_coordinator([17], weighting)
        coord.merge([np.array([0.5, -0.5])])
        np.testing.assert_allclose(coord.theta, [0.5, -0.5])


def test_coordinator_copies_theta0_and_checks_its_settings():
    theta0 = np.array([1.0, 2.0], dtype=np.float32)
    coord = _sync_coordinator([1], theta=theta0)
    theta0[:] = 9.0  # the coordinator keeps its own float64 copy
    assert coord.theta.dtype == np.float64
    np.testing.assert_array_equal(coord.theta, [1.0, 2.0])
    # and a reference copy in the device's dtype
    assert coord.refs[0].dtype == np.float32
    np.testing.assert_array_equal(coord.refs[0], [1.0, 2.0])
    with pytest.raises(ValueError, match="mode"):
        Coordinator("eventual", "uniform-sum", [1], [np.zeros(2)])
    with pytest.raises(ValueError, match="weighting"):
        Coordinator("sync", "median", [1], [np.zeros(2)])


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_sync_mode_shares_one_reference_and_async_keeps_one_per_device(mode):
    stores = [_arange_store() for _ in range(3)]
    coord = Coordinator(mode, "uniform-average", [1, 1, 1], [s.flat[:2] for s in stores])
    refs = list(coord.refs)
    for step in range(3):
        assert [ref is refs[0] for ref in coord.refs] == [True, mode == "sync", mode == "sync"]
        assert all(a is b for a, b in zip(coord.refs, refs))  # written in place
        assert not any(np.shares_memory(ref, s.flat) for ref in refs for s in stores)
        for ref, store in zip(coord.refs, stores):
            np.testing.assert_array_equal(ref, store.flat[:2])
        stores[step].flat[:2] += 3.0
        sync_round(coord)


def test_merge_needs_one_delta_per_device():
    coord = _sync_coordinator([1, 1])
    for deltas in ([np.zeros(2)], [np.zeros(2)] * 3):
        with pytest.raises(ProtocolError, match="deltas for 2 devices"):
            coord.merge(deltas)
    np.testing.assert_array_equal(coord.theta, [0.0, 0.0])


def test_unknown_device_rejected():
    coord = Coordinator("async", "uniform-sum", [1], [np.zeros(2)])
    for device_id in (9, 1, -1):
        with pytest.raises(ProtocolError, match="unknown device"):
            coord.apply(device_id, np.zeros(2))
        with pytest.raises(ProtocolError, match="unknown device"):
            coord.weight_of(device_id)


def test_update_length_mismatch_rejected():
    coord = _sync_coordinator([1, 1])
    # a length-1 delta would broadcast silently into the length-2 buffers
    for bad in (np.zeros(3), np.zeros(1)):
        with pytest.raises(ProtocolError, match="delta length"):
            coord.merge([np.zeros(2), bad])
        with pytest.raises(ProtocolError, match="delta length"):
            coord.apply(0, bad)
    np.testing.assert_array_equal(coord.theta, [0.0, 0.0])


# -- asynchronous coordinator -----------------------------------------------------

def test_async_updates_apply_in_arrival_order():
    coord = Coordinator("async", "uniform-sum", [1, 1], [np.array([0.0])] * 2)
    coord.apply(0, np.array([1.0]))
    np.testing.assert_array_equal(coord.theta, [1.0])
    coord.apply(1, np.array([2.0]))
    np.testing.assert_array_equal(coord.theta, [3.0])


def test_async_opposite_order_same_final_state():
    def run(order):
        coord = Coordinator("async", "uniform-sum", [1, 1], [np.array([0.0])] * 2)
        seen = {}
        for dev, delta in order:
            coord.apply(dev, np.array([delta]))
            seen[dev] = coord.theta[0]
        return coord.theta[0], seen

    theta_ab, seen_ab = run([(0, 1.0), (1, 2.0)])
    theta_ba, seen_ba = run([(1, 2.0), (0, 1.0)])
    assert theta_ab == theta_ba == 3.0
    assert seen_ab != seen_ba


def test_async_zero_delta_is_fixed_point():
    coord = Coordinator("async", "uniform-sum", [1], [np.array([4.0, 5.0])])
    coord.apply(0, np.zeros(2))
    np.testing.assert_array_equal(coord.theta, [4.0, 5.0])


def test_async_bookkeeping_random_interleaving_bit_exact():
    rng = np.random.default_rng(123)
    n_dev, dim = 4, 7
    sizes = [10, 20, 30, 40]
    theta0 = rng.normal(size=dim)
    coord = Coordinator("async", "data-proportional", sizes, [theta0] * n_dev)
    expected = coord.theta.copy()
    for _ in range(1000):
        dev = int(rng.integers(n_dev))
        delta = rng.normal(size=dim)
        coord.apply(dev, delta)
        expected += coord.weight_of(dev) * delta
    assert np.array_equal(coord.theta, expected)


# -- sync_round ------------------------------------------------------------------------

def _devices(n, shared=2, local=1, mode="sync", weighting="uniform-sum"):
    stores = [_arange_store(shared=shared, local=local) for _ in range(n)]
    coord = Coordinator(mode, weighting, [1] * n, [store.flat[:shared] for store in stores])
    return stores, coord


def test_device_sync_roundtrip_async():
    (store,), coord = _devices(1, mode="async")
    store.flat[:2] += 1.0
    sync_round(coord)
    np.testing.assert_allclose(store.flat[:2], coord.theta)


def test_async_round_each_device_adopts_right_after_its_own_update():
    stores, coord = _devices(2, shared=1, local=0, mode="async")
    theta0 = coord.theta.copy()
    stores[0].flat[:] += 1.0
    stores[1].flat[:] += 2.0
    sync_round(coord)
    np.testing.assert_array_equal(stores[0].flat, theta0 + 1.0)  # before device 1's delta
    np.testing.assert_array_equal(stores[1].flat, theta0 + 3.0)
    np.testing.assert_array_equal(coord.theta, theta0 + 3.0)


def test_sync_round_merges_and_every_device_adopts():
    stores, coord = _devices(2, weighting="uniform-average")
    stores[0].flat[:2] += np.array([2.0, 0.0])
    stores[1].flat[:2] += np.array([0.0, 4.0])
    sync_round(coord)
    np.testing.assert_allclose(stores[0].flat[:2], stores[1].flat[:2])
    np.testing.assert_allclose(coord.theta, np.array([0.0, 1.0]) + [1.0, 2.0])


def test_only_shared_values_cross_the_boundary():
    """Communication-volume assertion: every device sends exactly shared_len reals."""
    shared, local = 3, 5
    for dtype in (np.float64, np.float32):
        stores = [ParamStore([((("net", 0), "w"), (shared + local,))], dtype)
                  for _ in range(2)]
        coord = Coordinator("sync", "uniform-average", [1, 1],
                            [store.flat[:shared] for store in stores])
        for store in stores:
            store.flat += 1.0
        assert sync_round(coord) == [shared * np.dtype(dtype).itemsize] * 2


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

    def sync_round(self):
        order = range(len(self.stores))
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
            self.theta += self.merge_deltas(self.weights, [pending[i] for i in order])
            replies = {i: self.theta.copy() for i in order}
        for i in order:
            self.apply_broadcast(i, replies[i])


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
    stores, ref_stores = [], []
    shared0 = rng.normal(size=shared)  # the devices start on one shared slice
    shared0[:4] = [0.0, -0.0, -0.0, 0.0]
    for _ in sizes:
        store = ParamStore([((("net", 0), "w"), (shared + local,))], dtype)
        store.flat[:] = rng.normal(size=store.size)
        store.flat[:shared] = shared0
        stores.append(store)
        ref_stores.append(store.copy())
    coord = _RecordingCoordinator(mode, weighting, sizes,
                                  [store.flat[:shared] for store in stores])
    sent = coord.sent
    theta0 = stores[0].flat[:shared].astype(np.float64)
    # theta starts at -0.0 in entries 1 and 2, which a merged +0.0 turns positive
    assert np.all(np.signbit(coord.theta[1:3])) and not np.signbit(coord.theta[0])
    reference = _ReferenceProtocol(
        ref_stores, shared, compute_merge_weights(sizes, weighting), mode, theta0)
    assert np.array_equal(_bits(coord.theta), _bits(reference.theta))

    negative_zeros = 0
    for _ in range(12):
        _perturb(rng, [(a.flat, b.flat) for a, b in zip(stores, ref_stores)])
        nbytes = sync_round(coord)
        reference.sync_round()
        assert [i for i, _ in sent] == [i for i, _ in reference.sent]
        for (_, got), (_, want), n in zip(sent, reference.sent, nbytes):
            assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
            assert n == got.nbytes == shared * np.dtype(dtype).itemsize
            negative_zeros += int(np.sum((got == 0.0) & np.signbit(got)))
        sent.clear()
        reference.sent.clear()
        assert np.array_equal(_bits(coord.theta), _bits(reference.theta))
        for i, (store, ref_store) in enumerate(zip(stores, ref_stores)):
            assert np.array_equal(_bits(store.flat), _bits(ref_store.flat))
            assert np.array_equal(_bits(coord.refs[i]), _bits(reference.refs[i]))
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


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_second_sync_round_allocates_no_parameter_sized_array(mode):
    """A parameter-sized temporary (a copy of a delta, of a merged vector or
    of ``theta``) would show in the traced peak as the shared slice's bytes."""
    n_dev, shared = 8, 1 << 16
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=shared)
    stores = []
    for _ in range(n_dev):
        store = _store(shared + 3)
        store.flat[:shared] = theta0
        stores.append(store)
    coord = Coordinator(mode, "data-proportional", [i + 1 for i in range(n_dev)],
                        [store.flat[:shared] for store in stores])
    noise = rng.normal(size=shared)
    tracemalloc.start()
    try:
        for _ in range(2):  # the peak of the second round counts
            for k, store in enumerate(stores):
                store.flat[:shared] += (k + 1) * noise
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            sync_round(coord)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak -= before
    assert peak < 0.25 * shared * 8, f"peak {peak / (shared * 8):.2f}x the shared slice"
