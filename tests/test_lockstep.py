"""Devices in lockstep: a DeviceStack step gives every device the bits of its
own step alone, keeps the padding of shorter rows untouched, and keeps the
stale and finite checks, naming the device that failed."""
import numpy as np
import pytest

from hetsim import build_cascaded, build_share_first
from hetsim.learners import SupervisedTrainer
from hetsim.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    NonFiniteError,
    ReLU,
    RmsProp,
    Softmax,
    cross_entropy,
)
from hetsim.nn.params import store_over
from hetsim.topology import DeviceNetwork, DeviceStack, full_share_network

from one_device import backward_alone, forward_alone, one_device, predict_alone


def _dense_cascade():
    return build_cascaded([Dense(8), ReLU(), Dropout(0.3)],
                          [Dense(12), ReLU(), Dense(4)],
                          [Dense(3), ReLU(), Dense(4), Softmax()], 0.5, (6,))


def _conv_cascade():
    return build_cascaded([Conv2D(3, 3, 4), ReLU(), MaxPool2D(2, 2), Dropout(0.25)],
                          [Conv2D(3, 3, 4, stride=2), ReLU(), Flatten(), Dense(4)],
                          [MaxPool2D(2, 2), Flatten(), Dense(4), Softmax()], 0.5,
                          (12, 12, 2))


def _share_first():
    return build_share_first([Dense(8), ReLU()],
                             {"wide": [Dense(12), ReLU(), Dropout(0.2), Dense(4), Softmax()],
                              "narrow": [Dense(4), Softmax()]}, (6,))


def _networks(case):
    if case == "cascade":
        topo = _dense_cascade()
        return [DeviceNetwork(topo, b) for b in ("complex", "lightweight", "lightweight",
                                                 "complex")]
    if case == "conv-cascade":
        topo = _conv_cascade()
        return [DeviceNetwork(topo, b) for b in ("complex", "lightweight")]
    if case == "share-first":
        topo = _share_first()
        return [DeviceNetwork(topo, b) for b in ("wide", "narrow", "narrow")]
    net = full_share_network(_share_first(), "narrow")  # homogeneous: all shared
    return [net, net, net]


def _stack(networks, dtype=np.float64):
    stack = DeviceStack(networks, dtype)
    for d, (net, store) in enumerate(zip(networks, stack.stores)):
        net.init_store(store, np.random.default_rng(0), np.random.default_rng(10 + d))
    return stack


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CASES = ["cascade", "conv-cascade", "share-first", "homogeneous"]


@pytest.mark.parametrize("batch", [5, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", CASES)
def test_a_stack_step_gives_each_device_the_bits_of_its_own_step(case, dtype, batch,
                                                                  monkeypatch):
    networks = _networks(case)
    stack = _stack(networks, dtype)
    alone = [one_device(net, flat=store.flat, dtype=dtype)
             for net, store in zip(networks, stack.stores)]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((len(networks), batch) + networks[0].input_shape)
    y = rng.integers(0, 4, size=(len(networks), batch))
    probs, cache = networks[0].forward(stack, x, "train",
                                       [np.random.default_rng(d) for d in range(len(x))])
    loss, dlogits = cross_entropy(probs, y)
    grads = networks[0].backward(cache, dlogits, stack, from_logits=True)
    for d, one in enumerate(alone):
        p, c = forward_alone(one, x[d], "train", np.random.default_rng(d))
        l, dl = cross_entropy(p, y[d])
        g = backward_alone(one, c, dl, from_logits=True)
        assert _same_bits(probs[d], p) and loss[d] == l and _same_bits(dlogits[d], dl)
        assert _same_bits(grads[d].flat, g.flat), d
    # eval mode, on the whole stack and on groups of one row: the same bits
    monkeypatch.setattr(DeviceStack, "GROUP_BYTES", 1)
    grouped = DeviceStack(networks, dtype)
    grouped.params[...] = stack.params
    assert [len(g.stores) for g in grouped.groups] == [1] * len(x)
    out, _ = networks[0].forward(stack, x, "eval")
    assert grouped.groups is grouped.rows
    for d, (net, one, group) in enumerate(zip(networks, alone, grouped.groups)):
        assert group.stores[0] is grouped.stores[d] and group.params.base is grouped.params
        assert _same_bits(out[d], predict_alone(net, one.stores[0], x[d]))
        assert _same_bits(networks[0].forward(group, x[d:d + 1], "eval")[0][0], out[d])


def test_a_stack_of_wide_devices_steps_them_one_at_a_time_over_one_gradient_row(
        monkeypatch):
    networks = _networks("cascade")
    monkeypatch.setattr(DeviceStack, "GROUP_BYTES", 1)
    stack = _stack(networks)
    sizes = [net.count_params() for net in networks]
    assert stack.params.shape == (4, max(sizes)) and stack.grads.shape == (1, max(sizes))
    x = np.random.default_rng(1).standard_normal((4, 7, 6))
    with pytest.raises(ValueError, match="a group at a time"):
        networks[0].forward(stack, x, "eval")
    alone = [one_device(net, flat=store.flat) for net, store in zip(networks, stack.stores)]
    for d, (one, group) in enumerate(zip(alone, stack.groups)):
        assert group.grads is stack.grads and group.grad_stores[0] is stack.grad_stores[d]
        rng = np.random.default_rng(d)
        probs, cache = networks[0].forward(group, x[d:d + 1], "train", [rng])
        _, dlogits = cross_entropy(probs, np.zeros((1, 7), dtype=int))
        got, = networks[0].backward(cache, dlogits, group, from_logits=True)
        assert got.flat.base is stack.grads
        p, c = forward_alone(one, x[d], "train", np.random.default_rng(d))
        _, dl = cross_entropy(p, np.zeros(7, dtype=int))
        assert _same_bits(got.flat, backward_alone(one, c, dl, from_logits=True).flat)


def test_padding_of_shorter_rows_is_never_written():
    networks = _networks("cascade")
    stack = _stack(networks)
    sizes = [net.count_params() for net in networks]
    assert stack.params.shape == stack.grads.shape == (4, max(sizes))
    x = np.random.default_rng(1).standard_normal((4, 7, 6))
    probs, cache = networks[0].forward(stack, x, "train",
                                       [np.random.default_rng(d) for d in range(4)])
    _, dlogits = cross_entropy(probs, np.zeros((4, 7), dtype=int))
    for store, grads in zip(stack.stores, networks[0].backward(cache, dlogits, stack,
                                                                from_logits=True)):
        RmsProp(0.1).step(store.flat, grads.flat)
    for d, size in enumerate(sizes):
        assert stack.stores[d].flat.base is stack.params
        assert not stack.params[d, size:].any() and not stack.grads[d, size:].any()


@pytest.mark.parametrize("row", [0, 1])
def test_a_write_to_any_row_of_the_stacked_span_makes_the_cache_stale(row):
    networks = _networks("cascade")
    stack = _stack(networks)
    x = np.ones((4, 3, 6))
    probs, cache = networks[0].forward(stack, x, "eval")
    stack.params[row, 0] = -stack.params[row, 0]
    with pytest.raises(ValueError, match="stale"):
        networks[0].backward(cache, probs, stack)


@pytest.mark.parametrize("case", CASES)
def test_a_non_finite_value_names_the_device_it_appeared_on(case):
    networks = _networks(case)
    stack = _stack(networks)
    x = np.ones((len(networks), 3) + networks[0].input_shape)
    x[1, 0, 0] = np.nan  # device 1's input: its first layer is the first to go
    with pytest.raises(NonFiniteError, match="non-finite values in (Dense|Conv2D) output"
                       ) as info:
        networks[0].forward(stack, x, "eval")
    assert info.value.device == 1


def test_devices_of_a_stack_must_share_their_first_layers():
    nets = [DeviceNetwork(_dense_cascade(), "complex"),
            DeviceNetwork(_share_first(), "narrow")]
    with pytest.raises(ValueError, match="share their first layers"):
        DeviceStack(nets)


@pytest.mark.parametrize("case", CASES)
def test_a_row_steps_its_device_on_the_stacks_own_arrays(case):
    """``rows[d]`` is a stack of one over row d of ``params`` and of
    ``grads``: a step on it writes the stack's arrays, with the bits of a
    step on a stack of that device alone."""
    networks = _networks(case)
    stack = _stack(networks)
    assert stack.groups == [stack] and len(stack.rows) == len(networks)
    x = np.random.default_rng(1).standard_normal((len(networks), 5) + networks[0].input_shape)
    for d, (net, row) in enumerate(zip(networks, stack.rows)):
        assert row.networks == (net,) and row.stores[0] is stack.stores[d]
        assert row.grad_stores[0] is stack.grad_stores[d] and row.rows == []
        assert row.params.base is stack.params and row.grads.base is stack.grads
        one = one_device(net, flat=stack.stores[d].flat)
        got, want = (forward_alone(s, x[d], "train", np.random.default_rng(d))
                     for s in (row, one))
        dl = cross_entropy(got[0], np.zeros(5, dtype=int))[1]
        assert _same_bits(got[0], want[0])
        grads = backward_alone(row, got[1], dl, from_logits=True)
        assert grads is stack.grad_stores[d]
        assert _same_bits(grads.flat, backward_alone(one, want[1], dl, from_logits=True).flat)


def test_networks_that_differ_in_their_softmax_step_one_row_at_a_time():
    """A share-first stack whose branches differ in whether they end in
    Softmax is built, as an RL run's is, but steps a row at a time: a pass
    over several rows applies one softmax to all of them."""
    topo = build_share_first([Dense(8), ReLU()],
                             {"probs": [Dense(4), Softmax()], "q": [Dense(4)]}, (6,))
    networks = [DeviceNetwork(topo, "probs"), DeviceNetwork(topo, "q")]
    stack = _stack(networks)
    assert stack.groups is stack.rows and stack.grads.shape[0] == 1
    x = np.random.default_rng(1).standard_normal((2, 3, 6))
    with pytest.raises(ValueError, match="a group at a time"):
        networks[0].forward(stack, x, "eval")
    for d, (net, row) in enumerate(zip(networks, stack.rows)):
        out, _ = net.forward(row, x[d:d + 1], "eval")
        assert _same_bits(out[0], predict_alone(net, stack.stores[d], x[d]))
        assert np.allclose(out.sum(axis=-1), 1.0) == net.ends_in_softmax


def _trainers(stacked, seeds=(0, 1, 2)):
    """Three trainers on a cascade, in one stack or each alone, with the same
    initial parameters, shards and generators."""
    topo = _dense_cascade()
    networks = [DeviceNetwork(topo, b) for b in ("complex", "lightweight", "lightweight")]
    stack = _stack(networks)
    data = np.random.default_rng(5)
    trainers = []
    for d, net in enumerate(networks):
        x, y = data.standard_normal((40, 6)), data.integers(0, 4, size=40)
        own = stack if stacked else one_device(net, flat=stack.stores[d].flat)
        trainers.append(SupervisedTrainer(
            net, own.stores[d if stacked else 0], RmsProp(0.01), x[:30], y[:30], x[30:],
            y[30:], rng=np.random.default_rng(seeds[d]), round_samples=23, minibatch_size=8,
            stack=own, taken={}))
    return trainers


@pytest.mark.parametrize("group_bytes", [DeviceStack.GROUP_BYTES, 1])
def test_train_round_in_lockstep_is_each_trainers_round_alone(group_bytes, monkeypatch):
    monkeypatch.setattr(DeviceStack, "GROUP_BYTES", group_bytes)
    together, alone = _trainers(True), _trainers(False)
    assert len(together[0].stack.groups) == (1 if group_bytes > 1 else 3)
    for _ in range(2):
        results = together[0].train_round(tuple(together[1:]))
        assert results == [t.train_round()[0] for t in alone]
    for a, b in zip(together, alone):
        assert _same_bits(a.store.flat, b.store.flat)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_train_round_takes_the_rows_of_its_stack_in_order():
    trainers = _trainers(True)
    with pytest.raises(ValueError, match="rows of one stack"):
        trainers[0].train_round((trainers[2], trainers[1]))
    with pytest.raises(ValueError, match="rows of one stack"):
        trainers[0].train_round((trainers[1],))


def test_stores_over_rows_and_over_the_matrix_share_it():
    layouts = [[((("a", 0), "w"), (2, 3)), ((("a", 0), "b"), (3,)), ((("c", 0), "w"), (4,))],
               [((("a", 0), "w"), (2, 3)), ((("a", 0), "b"), (3,))]]
    matrix = np.zeros((2, 13), np.float32)
    stores = [store_over(layout, row) for layout, row in zip(layouts, matrix)]
    assert [s.size for s in stores] == [13, 9] and stores[1].flat.base is matrix
    assert stores[1].dtype == np.float32 and stores[1].view((("a", 0), "w")).shape == (2, 3)
    row = stores[1].row()  # one device's store as a stack of one row
    assert row.view((("a", 0), "w")).shape == (1, 2, 3) and row.flat.base is matrix
    shared = store_over(layouts[1], matrix)
    assert shared.view((("a", 0), "w")).shape == (2, 2, 3)
    shared.view((("a", 0), "b"))[1] = 7.0
    assert (stores[1].view((("a", 0), "b")) == 7.0).all()
    shared.view((("a", 0), "w"))[...] += np.ones((2, 2, 3), np.float32)
    assert (stores[0].view((("a", 0), "w")) == 1.0).all() and not matrix[1, 9:].any()
