"""Central-difference verification of every layer kind's backward pass.

The finite-difference oracle only calls the forward pass, so it is an
independent check of the hand-written gradients.
"""
import numpy as np
import pytest

from hetsim.nn import (
    BranchDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Softmax,
    backward_chain,
    build_layout,
    forward_chain,
    init_chain_params,
    make_keyed,
)
from hetsim.nn.network import ChainPlan
from hetsim.nn.params import ParamStore
from hetsim import topology as topo
from hetsim.nn.losses import cross_entropy

from gradcheck import finite_diff_check
from one_device import backward_alone, forward_alone, one_device

H = 1e-3
TOL = 1e-4


def _build(layers, input_shape, seed):
    keyed = make_keyed("net", layers)
    store = ParamStore(build_layout(keyed, input_shape))
    init_chain_params(keyed, input_shape, store, np.random.default_rng(seed))
    return keyed, store


def _spread_input(rng, shape, gap=0.05):
    """Random input whose entries are separated enough that max/relu argument
    orderings cannot flip under +-h perturbations."""
    n = int(np.prod(shape))
    base = rng.permutation(n).astype(np.float64) * gap
    values = base + rng.uniform(0, gap / 4, size=n) - n * gap / 2
    values += np.where(values >= 0, 0.1, -0.1)  # keep a band around zero clear
    return values.reshape(shape)


def _clear_relu_kinks(keyed, store, x, margin=0.06):
    """Shift first-layer biases so no pre-activation sits within ``margin`` of
    the ReLU kink, where central differences break down."""
    key = keyed[0][0]
    z = x @ store.view((key, "w")) + store.view((key, "b"))
    bias = store.view((key, "b"))
    for j in range(z.shape[1]):
        for shift in (0.0, 0.12, -0.12, 0.24, -0.24, 0.36, -0.36, 0.48, -0.48):
            if np.abs(z[:, j] + shift).min() > margin:
                bias[j] += shift
                break
        else:
            raise AssertionError("could not clear the kink; adjust the test data")


def test_quadratic_scalar_gradient_exact():
    # squared-error loss on Dense(1) with unit input reduces to L = theta^2
    keyed, store = _build([Dense(1)], (1,), seed=0)
    store.view((("net", 0), "w"))[...] = [[3.0]]
    store.view((("net", 0), "b"))[...] = [0.0]
    report = finite_diff_check(keyed, store, np.array([[1.0]]), label=0, h=H)
    w_key = (("net", 0), "w")
    assert report.analytic.view(w_key)[0, 0] == pytest.approx(6.0, abs=1e-9)
    assert report.numeric.view(w_key)[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_relu_gradient_definition():
    keyed, store = _build([ReLU()], (2,), seed=0)
    x = np.array([[-1.0, 2.0]])
    out, cache = forward_chain(keyed, store, x)
    grads = store.zeros_like()
    dx = backward_chain(cache, np.array([[1.0, 1.0]]), store, grads)
    np.testing.assert_array_equal(dx, [[0.0, 1.0]])


def test_two_layer_dense_net_matches_central_differences():
    rng = np.random.default_rng(42)
    keyed, store = _build([Dense(8), ReLU(), Dense(3)], (5,), seed=42)
    x = rng.normal(size=(4, 5))
    _clear_relu_kinks(keyed, store, x)
    report = finite_diff_check(keyed, store, x, label=0.5, h=H)
    assert report.max_rel_err < TOL, report.per_param


@pytest.mark.parametrize("case", [
    "dense", "conv2d", "relu", "maxpool2d", "flatten", "softmax",
    "dropout", "branch_dropout",
])
def test_every_layer_kind_20_random_instances(case):
    failures = []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        mode = "eval"
        if case == "dense":
            layers, shape = [Dense(4), ReLU(), Dense(2)], (6,)
            x = rng.normal(size=(3, 6))
        elif case == "conv2d":
            layers, shape = [Conv2D(2, 2, 3, stride=1), Flatten(), Dense(2)], (4, 4, 2)
            x = rng.normal(size=(2, 4, 4, 2))
        elif case == "relu":
            layers, shape = [ReLU(), Dense(2)], (4,)
            x = _spread_input(rng, (2, 4))
        elif case == "maxpool2d":
            layers, shape = [MaxPool2D(2, 2), Flatten(), Dense(2)], (4, 4, 2)
            x = _spread_input(rng, (2, 4, 4, 2))
        elif case == "flatten":
            layers, shape = [Flatten(), Dense(3)], (3, 2, 2)
            x = rng.normal(size=(2, 3, 2, 2))
        elif case == "softmax":
            layers, shape = [Dense(4), Softmax()], (3,)
            x = rng.normal(size=(2, 3))
        elif case == "dropout":
            layers, shape = [Dense(6), Dropout(0.4), Dense(2)], (5,)
            x = rng.normal(size=(3, 5))
            mode = "train"  # mask pinned by the re-seeded generator per evaluation
        else:
            layers, shape = [Dense(6), BranchDropout(0.5), Dense(2)], (5,)
            x = rng.normal(size=(4, 5))
            mode = "train"
        keyed, store = _build(layers, shape, seed=2000 + trial)
        if case == "dense":
            _clear_relu_kinks(keyed, store, x)
        label = 1 if layers and isinstance(layers[-1], Softmax) else 0.3
        report = finite_diff_check(keyed, store, x, label=label, h=H, mode=mode,
                                   rng_seed=trial)
        if report.max_rel_err >= TOL:
            failures.append((trial, report.max_rel_err))
    assert not failures, f"{case}: {failures}"


def test_add_combine_gradient():
    """The cascade combine (add of two branch logits) against the oracle.

    Kink-free chains so the finite differences probe the combine itself.
    """
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        stem = [Dense(6)]
        complex_branch = [Dense(5), Dense(3)]
        light_branch = [Dense(3), Softmax()]
        t = topo.build_cascaded(stem, complex_branch, light_branch, 0.0, (4,))
        stack = one_device(topo.DeviceNetwork(t, "complex"),
                           np.random.default_rng(4000 + trial))
        store = stack.stores[0]
        x = rng.normal(size=(3, 4))
        label = np.array([trial % 3] * 3)

        out, cache = forward_alone(stack, x, mode="eval")
        _, dlogits = cross_entropy(out, label)
        analytic = backward_alone(stack, cache, dlogits, from_logits=True)

        numeric = store.zeros_like()
        for i in range(store.size):
            orig = store.flat[i]
            store.flat[i] = orig + H
            up, _ = forward_alone(stack, x, mode="eval")
            lu, _ = cross_entropy(up, label)
            store.flat[i] = orig - H
            down, _ = forward_alone(stack, x, mode="eval")
            ld, _ = cross_entropy(down, label)
            store.flat[i] = orig
            numeric.flat[i] = (lu - ld) / (2 * H)
        denom = np.maximum(np.maximum(np.abs(analytic.flat), np.abs(numeric.flat)), 1e-2)
        assert (np.abs(analytic.flat - numeric.flat) / denom).max() < TOL


def test_cache_reuse_after_parameter_mutation_is_an_error():
    keyed, store = _build([Dense(3), Dense(2)], (4,), seed=1)
    x = np.random.default_rng(1).normal(size=(2, 4))
    _, cache = forward_chain(keyed, store, x)
    store.flat[0] += 0.5  # parameters mutated between forward and backward
    with pytest.raises(ValueError, match="stale"):
        backward_chain(cache, np.ones((2, 2)), store, store.zeros_like())


def _cascade_complex(seed=3):
    t = topo.build_cascaded([Dense(6), ReLU()], [Dense(5), ReLU(), Dense(3)],
                            [Dense(4), ReLU(), Dense(3), Softmax()], 0.5, (4,))
    return one_device(topo.DeviceNetwork(t, "complex"), np.random.default_rng(seed))


@pytest.mark.parametrize("tensor", [
    (("stem", 0), "w"),                  # shared stem
    (("branch:lightweight", 2), "b"),    # shared lightweight head
    (("branch:complex", 2), "w"),        # local complex branch
])
def test_write_to_any_part_of_a_cascade_makes_its_cache_stale(tensor):
    stack = _cascade_complex()
    x = np.random.default_rng(0).normal(size=(2, 4))
    probs, cache = forward_alone(stack, x, mode="train", rng=np.random.default_rng(1))
    _, dlogits = cross_entropy(probs, np.array([0, 2]))
    stack.stores[0].view(tensor).reshape(-1)[0] += 1e-12
    with pytest.raises(ValueError, match="stale"):
        backward_alone(stack, cache, dlogits, from_logits=True)


def test_zero_to_negative_zero_write_makes_the_cache_stale():
    keyed, store = _build([Dense(3), Dense(2)], (4,), seed=1)
    bias = store.view((("net", 1), "b"))
    assert bias[0] == 0.0 and not np.signbit(bias[0])  # biases start at +0.0
    _, cache = forward_chain(keyed, store, np.ones((2, 4)))
    bias[0] = -0.0  # equal as a float, different bits
    with pytest.raises(ValueError, match="stale"):
        backward_chain(cache, np.ones((2, 2)), store, store.zeros_like())


def test_a_store_of_another_dtype_makes_the_cache_stale():
    keyed, store = _build([Dense(3), Dense(2)], (4,), seed=1)
    _, cache = forward_chain(keyed, store, np.ones((2, 4)))
    narrow = ParamStore(store.layout, np.float32)
    narrow.set_flat(store.flat)  # the same values, rounded to 32 bits
    with pytest.raises(ValueError, match="stale"):
        backward_chain(cache, np.ones((2, 2)), narrow, narrow.zeros_like())


def test_parameter_free_chain_backprops():
    keyed, store = _build([ReLU()], (3,), seed=0)
    assert store.size == 0
    out, cache = forward_chain(keyed, store, np.array([[-1.0, 0.5, 2.0]]))
    dx = backward_chain(cache, np.ones_like(out), store, store.zeros_like())
    np.testing.assert_array_equal(dx, [[0.0, 1.0, 1.0]])


def test_dropout_eval_mode_check_is_deterministic():
    keyed, store = _build([Dense(4), Dropout(0.5), Dense(2)], (3,), seed=9)
    x = np.random.default_rng(9).normal(size=(2, 3))
    a = finite_diff_check(keyed, store, x, label=0.0, h=H, mode="eval")
    b = finite_diff_check(keyed, store, x, label=0.0, h=H, mode="eval")
    assert a.max_rel_err == b.max_rel_err
    assert a.passed(TOL)


def test_gradcheck_requires_float64():
    keyed = make_keyed("net", [Dense(2)])
    store = ParamStore(build_layout(keyed, (2,)), dtype=np.float32)
    with pytest.raises(ValueError):
        finite_diff_check(keyed, store, np.zeros((1, 2)), label=0.0)


# -- no input gradient for the chain that reads the network input ----------------

FIRST_LAYER_NETS = {
    "plain-dense-first": lambda: topo.build_share_first(
        [Dense(6), ReLU()], {"b": [Dropout(0.3), Dense(3), Softmax()]}, (4,)),
    "plain-conv-first": lambda: topo.build_share_first(
        [Conv2D(3, 3, 2), ReLU(), MaxPool2D(2, 2)],
        {"b": [Flatten(), Dropout(0.3), Dense(3), Softmax()]}, (8, 8, 3)),
    "cascade-dense-first": lambda: topo.build_cascaded(
        [Dense(6), ReLU()], [Dense(5), ReLU(), Dense(3)], [Dense(3), Softmax()], 0.5, (4,)),
    "cascade-conv-first": lambda: topo.build_cascaded(
        [Conv2D(3, 3, 2), ReLU(), Conv2D(2, 2, 2, stride=2)], [Flatten(), Dense(3)],
        [Flatten(), Dropout(0.25), Dense(3), Softmax()], 0.5, (9, 9, 1)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(FIRST_LAYER_NETS))
def test_first_layer_skip_gives_the_gradients_of_a_full_backward(name, dtype):
    t = FIRST_LAYER_NETS[name]()
    branch = t.cascade.complex_branch if t.cascade else "b"
    net, full = topo.DeviceNetwork(t, branch), topo.DeviceNetwork(t, branch)
    for plan in vars(full).values():  # every chain of ``full`` returns its dx
        if isinstance(plan, ChainPlan):
            plan.reads_input = False
    x = np.random.default_rng(6).normal(size=(5, *t.input_shape))
    labels = np.arange(5) % 3
    grads = []
    for network in (net, full):
        stack = one_device(network, np.random.default_rng(5), dtype=dtype)
        probs, cache = forward_alone(stack, x, mode="train", rng=np.random.default_rng(7))
        _, dlogits = cross_entropy(probs, labels)
        grads.append(backward_alone(stack, cache, dlogits, from_logits=True).flat)
        first = cache[0]  # the shared chain, which reads x
        assert first.reads_input == (network is net)
    assert grads[0].dtype == dtype
    assert grads[0].tobytes() == grads[1].tobytes()


def test_only_a_plan_that_reads_the_input_skips_dx():
    t = FIRST_LAYER_NETS["plain-conv-first"]()
    net = topo.DeviceNetwork(t, "b")
    store = one_device(net, np.random.default_rng(0)).stores[0]
    x = np.random.default_rng(1).normal(size=(2, 8, 8, 3))
    row = store.row()
    out, cache = net._stack_plan.forward(row, x[None])  # the stem, which reads x
    assert cache.backward(np.ones_like(out), row, store.zeros_like().row()) is None
    keyed = list(cache.keyed_layers)
    out, cache = forward_chain(keyed, store, x)
    dx = backward_chain(cache, np.ones_like(out), store, store.zeros_like())
    assert dx.shape == x.shape
