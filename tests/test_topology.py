"""Branched topologies: golden parameter counts, partitioning, cascading."""
import numpy as np
import pytest

from hetsim import (
    build_cascaded,
    build_share_first,
    count_parameters,
)
from hetsim.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    ShapeError,
    Softmax,
    backward_chain,
    cross_entropy,
)
from hetsim.nn.params import store_over
from hetsim.topology import DeviceNetwork, DeviceStack

from one_device import backward_alone, forward_alone


def atari_topology():
    stem = [Conv2D(8, 8, 32, stride=4), ReLU(), Conv2D(4, 4, 64, stride=2), ReLU()]
    complex_branch = [Conv2D(3, 3, 64), ReLU(), Flatten(), Dense(512), ReLU(), Dense(6)]
    light_branch = [Conv2D(3, 3, 8), ReLU(), Flatten(), Dense(64), ReLU(), Dense(6)]
    return build_share_first(stem, {"complex": complex_branch,
                                    "lightweight": light_branch}, (84, 84, 4))


def cifar_stem():
    return [Conv2D(3, 3, 32), ReLU(), Conv2D(3, 3, 32), ReLU(),
            MaxPool2D(2, 2), Dropout(0.25)]


def cifar_light_branch():
    return [MaxPool2D(2, 2), Dropout(0.5), Flatten(), Dense(10), Softmax()]


def cifar_complex_branch_logits():
    return [Conv2D(3, 3, 64), ReLU(), Conv2D(3, 3, 64), ReLU(), MaxPool2D(2, 2),
            Dropout(0.25), Flatten(), Dense(512), ReLU(), Dropout(0.25), Dense(10)]


def cifar_share_first():
    complex_branch = cifar_complex_branch_logits() + [Softmax()]
    return build_share_first(cifar_stem(), {"complex": complex_branch,
                                            "lightweight": cifar_light_branch()},
                             (32, 32, 3))


def cifar_cascaded(p=0.5):
    return build_cascaded(cifar_stem(), cifar_complex_branch_logits(),
                          cifar_light_branch(), p, (32, 32, 3))


# -- golden parameter counts --------------------------------------------------

def test_golden_count_atari_complex():
    assert count_parameters(atari_topology(), "complex") == 1_687_206


def test_golden_count_atari_lightweight():
    assert count_parameters(atari_topology(), "lightweight") == 71_214


def test_golden_count_cifar_lightweight():
    assert count_parameters(cifar_share_first(), "lightweight") == 25_834
    assert count_parameters(cifar_cascaded(), "lightweight") == 25_834


def test_two_branch_heads_have_matching_output_sizes():
    topo = atari_topology()
    assert topo.branch_output_shape("complex") == (6,)
    assert topo.branch_output_shape("lightweight") == (6,)


# -- construction and validation ----------------------------------------------

def test_empty_stem_degenerates_to_plain_network():
    topo = build_share_first([], {"only": [Dense(3), Softmax()]}, (4,))
    part = DeviceNetwork(topo, "only").partition
    assert part.shared_len == 0
    assert part.local_len == 4 * 3 + 3


def test_stem_branch_seam_shape_error():
    with pytest.raises(ShapeError):
        build_share_first([Conv2D(3, 3, 32)], {"bad": [Dense(10)]}, (16, 16, 4))


def test_unknown_branch_rejected():
    topo = atari_topology()
    with pytest.raises(KeyError):
        DeviceNetwork(topo, "nope")


def test_cascade_requires_matching_logits():
    with pytest.raises(ShapeError):
        build_cascaded([Dense(8), ReLU()], [Dense(5)], [Dense(3), Softmax()], 0.5, (4,))


def test_cascade_light_branch_must_end_in_softmax():
    with pytest.raises(ShapeError):
        build_cascaded([Dense(8), ReLU()], [Dense(3)], [Dense(3)], 0.5, (4,))


# -- partitioning ---------------------------------------------------------------

def test_share_first_cifar_shared_is_stem():
    part = DeviceNetwork(cifar_share_first(), "complex").partition
    assert part.shared_len == 896 + 9_248  # the two stem convolutions
    part_light = DeviceNetwork(cifar_share_first(), "lightweight").partition
    assert part_light.shared_len == 10_144


def test_cascade_shares_the_whole_lightweight_network():
    topo = cifar_cascaded()
    for branch in ("complex", "lightweight"):
        assert DeviceNetwork(topo, branch).partition.shared_len == 25_834
    assert DeviceNetwork(topo, "lightweight").partition.local_len == 0
    complex_part = DeviceNetwork(topo, "complex").partition
    assert complex_part.shared_len + complex_part.local_len == \
        count_parameters(topo, "complex")


# -- device networks and cascade behaviour -------------------------------------

def small_cascade(p):
    stem = [Dense(8), ReLU()]
    complex_branch = [Dense(6), ReLU(), Dense(4)]
    light_branch = [Dense(4), Softmax()]
    return build_cascaded(stem, complex_branch, light_branch, p, (5,))


def test_cascaded_p0_includes_both_branches():
    topo = small_cascade(0.0)
    net = DeviceNetwork(topo, "complex")
    store = net.init_store(np.random.default_rng(0), np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(6, 5))
    out_train, _ = forward_alone(net, store, x, mode="train", rng=np.random.default_rng(3))
    out_eval, _ = forward_alone(net, store, x, mode="eval")
    np.testing.assert_allclose(out_train, out_eval)  # p=0: mask is all-keep, scale 1


def test_cascaded_p1_equals_standalone_lightweight_bitwise():
    topo = small_cascade(1.0)
    complex_net = DeviceNetwork(topo, "complex")
    light_net = DeviceNetwork(topo, "lightweight")
    store_c = complex_net.init_store(np.random.default_rng(0), np.random.default_rng(1))
    store_l = light_net.init_store(np.random.default_rng(0))
    # stores agree on the shared block by construction
    s = light_net.partition.shared_len
    assert np.array_equal(store_c.flat[:s], store_l.flat[:s])
    x = np.random.default_rng(2).normal(size=(100, 5))
    out_c, _ = forward_alone(complex_net, store_c, x, mode="train", rng=np.random.default_rng(3))
    out_l, _ = forward_alone(light_net, store_l, x, mode="eval")
    assert np.array_equal(out_c, out_l)


def test_cascaded_dropped_branch_gets_zero_gradient():
    topo = small_cascade(1.0)
    net = DeviceNetwork(topo, "complex")
    store = net.init_store(np.random.default_rng(0), np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(8, 5))
    labels = np.random.default_rng(4).integers(0, 4, size=8)
    out, cache = forward_alone(net, store, x, mode="train", rng=np.random.default_rng(3))
    _, dlogits = cross_entropy(out, labels)
    grads = backward_alone(net, cache, dlogits, store, from_logits=True)
    s = net.partition.shared_len
    local_grads = grads.flat[s:]
    assert local_grads.size > 0
    np.testing.assert_array_equal(local_grads, np.zeros_like(local_grads))
    # the shared (stem + lightweight) side still learns
    assert np.abs(grads.flat[:s]).max() > 0


def test_lightweight_standalone_equals_cascade_under_forced_drop_all_inputs():
    topo = small_cascade(1.0)
    complex_net = DeviceNetwork(topo, "complex")
    light_net = DeviceNetwork(topo, "lightweight")
    store_c = complex_net.init_store(np.random.default_rng(10), np.random.default_rng(11))
    store_l = light_net.init_store(np.random.default_rng(10))
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.normal(size=(20, 5))
        out_c, _ = forward_alone(complex_net, store_c, x, mode="train", rng=rng)
        out_l, _ = forward_alone(light_net, store_l, x, mode="eval")
        assert np.array_equal(out_c, out_l)


def test_canonical_layout_is_stable_across_runs():
    a, b = (DeviceNetwork(cifar_cascaded(), "complex").init_store(
        np.random.default_rng(0)).layout for _ in range(2))
    assert a == b
    names = [key for key, _ in a]
    # shared block: stem first, then the lightweight branch, then local complex
    stem_count = sum(1 for (scope, _), _n in names if scope == "stem")
    assert all(scope == "stem" for (scope, _), _n in names[:stem_count])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("make_topo,branch", [
    (lambda: small_cascade(0.5), "complex"),
    (lambda: small_cascade(0.5), "lightweight"),
    (cifar_cascaded, "complex"),
    (lambda: build_share_first([Dense(8), ReLU(), Dropout(0.5)],
                               {"b": [Dense(3)]}, (5,)), "b"),
])
def test_predict_is_the_eval_forward_bit_for_bit(make_topo, branch, dtype):
    net = DeviceNetwork(make_topo(), branch)
    store = net.init_store(np.random.default_rng(0), np.random.default_rng(1), dtype=dtype)
    x = np.random.default_rng(2).normal(size=(3, *net.input_shape))
    want, _ = forward_alone(net, store, x, mode="eval")
    got = net.predict(store, x)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


# -- the stack's gradient store -------------------------------------------------

def _train_pass(net, stack, seed):
    """A train-mode forward of one minibatch on a stack of one: its cache and
    fused dlogits."""
    rng = np.random.default_rng(seed)
    probs, cache = net.forward(stack, rng.normal(size=(1, 6, 5)), mode="train", rng=[rng])
    _, dlogits = cross_entropy(probs, rng.integers(0, 4, size=(1, 6)))
    return cache, dlogits


@pytest.mark.parametrize("branch", ["complex", "lightweight"])
def test_backward_refills_one_gradient_store(branch):
    net = DeviceNetwork(small_cascade(0.5), branch)
    store = net.init_store(np.random.default_rng(0), np.random.default_rng(1))
    stack = DeviceStack.alone(net, store)
    first, = net.backward(*_train_pass(net, stack, 2), stack, from_logits=True)
    kept = first.flat.copy()
    cache, dlogits = _train_pass(net, stack, 3)
    second, = net.backward(cache, dlogits, stack, from_logits=True)
    assert second is first
    assert not np.array_equal(second.flat, kept)
    # zeroed first, not accumulated: the bits of a new stack's first backward
    want, = net.backward(cache, dlogits, DeviceStack.alone(net, store), from_logits=True)
    assert second.flat.tobytes() == want.flat.tobytes()


def test_backward_store_holds_the_bits_of_a_backward_chain_into_fresh_zeros():
    net = DeviceNetwork(small_cascade(0.5), "lightweight")  # one chain, to its logits
    store = net.init_store(np.random.default_rng(0))
    stack = DeviceStack.alone(net, store)
    for seed in (2, 3):  # the second pass refills the store of the first
        cache, dlogits = _train_pass(net, stack, seed)
        got, = net.backward(cache, dlogits, stack, from_logits=True)
        want = np.zeros_like(stack.grads)  # a stacked store of one row
        backward_chain(cache[0], dlogits, stack.shared, store_over(stack.shared.layout, want))
        assert got.flat.tobytes() == want[0].tobytes()


def test_a_store_of_another_dtype_gets_a_new_gradient_store():
    net = DeviceNetwork(small_cascade(0.5), "complex")
    grads = []
    for dtype in (np.float32, np.float64):
        store = net.init_store(np.random.default_rng(0), np.random.default_rng(1),
                               dtype=dtype)
        stack = DeviceStack.alone(net, store)
        grads.append(net.backward(*_train_pass(net, stack, 2), stack, from_logits=True)[0])
    assert grads[1] is not grads[0]
    assert (grads[0].dtype, grads[1].dtype) == (np.float32, np.float64)
