"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is fixed here, not tuned at runtime.
"""
import copy
import json
import time

import numpy as np
import pytest

from hetsim.cli import main as cli_main
from hetsim.config import parse_config
from hetsim.harness import run_experiment
from hetsim.metrics import read_csv
from hetsim.nn import (
    BranchDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sgd,
    Softmax,
    cross_entropy,
    forward_chain,
    init_chain_params,
    make_keyed,
)
from hetsim.nn.params import ParamStore
from hetsim.nn.network import build_layout
from hetsim.protocol import Coordinator, merge_deltas, sync_round
from hetsim.topology import DeviceNetwork, build_cascaded, build_share_first
from hetsim.harness import full_share_network

from gradcheck import finite_diff_check
from one_device import backward_alone, forward_alone, one_device


def _report(num, ok, started, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status} ({time.time() - started:.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. golden parameter counts -------------------------------------------------

def test_criterion_1_golden_parameter_counts(capsys):
    t0 = time.time()
    assert cli_main(["describe", "configs/atari_topologies.json"]) == 0
    atari = capsys.readouterr().out
    assert cli_main(["describe", "configs/supervised_cifar10.json"]) == 0
    cifar = capsys.readouterr().out
    ok = ("parameters 1,687,206" in atari
          and "parameters 71,214" in atari
          and "parameters 25,834" in cifar)
    _report(1, ok, t0, "describe reports 1,687,206 / 71,214 / 25,834 exactly")


# -- 2. merge-weight equivalence with a full-batch gradient oracle ----------------

def _mean_gradient(keyed, store, x, y):
    out, cache = forward_chain(keyed, store, x, mode="eval")
    _, dlogits = cross_entropy(out, y)
    grads = store.zeros_like()
    sub = copy.copy(cache)
    sub.keyed_layers = cache.keyed_layers[:-1]
    sub.per_layer = cache.per_layer[:-1]
    from hetsim.nn import backward_chain
    backward_chain(sub, dlogits, store, grads)
    return grads.flatten()


def test_criterion_2_shard_merge_equals_full_batch_gradient():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    keyed = make_keyed("net", [Dense(8), ReLU(), Dense(3), Softmax()])
    store = ParamStore(build_layout(keyed, (6,)))
    init_chain_params(keyed, (6,), store, rng)
    x = rng.normal(size=(50, 6))
    y = rng.integers(0, 3, size=50)

    g_full = _mean_gradient(keyed, store, x, y)          # the oracle
    g_a = _mean_gradient(keyed, store, x[:37], y[:37])
    g_b = _mean_gradient(keyed, store, x[37:], y[37:])
    merged = merge_deltas([37 / 50, 13 / 50], [g_a, g_b])

    rel = np.abs(merged - g_full) / np.maximum(np.abs(g_full), 1e-30)
    worst = float(rel.max())
    _report(2, worst < 1e-10, t0,
            f"disjoint shards (37, 13) merged with data-proportional weights "
            f"match the 50-example gradient; max rel err {worst:.2e} < 1e-10")


# -- 3. gradient suite over every layer kind --------------------------------------

def test_criterion_3_gradient_suite_every_layer_kind():
    t0 = time.time()
    worst_by_kind = {}
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        cases = {
            "dense": ([Dense(5), Dense(2)], (4,), rng.normal(size=(3, 4)), "eval"),
            "conv2d": ([Conv2D(2, 2, 3, stride=2), Flatten(), Dense(2)], (5, 5, 2),
                       rng.normal(size=(2, 5, 5, 2)), "eval"),
            "relu": ([ReLU(), Dense(2)], (6,),
                     rng.normal(size=(2, 6)) + np.where(rng.normal(size=(2, 6)) > 0,
                                                        0.2, -0.2), "eval"),
            "maxpool2d": ([MaxPool2D(2, 2), Flatten(), Dense(2)], (4, 4, 1),
                          (rng.permutation(32).reshape(2, 4, 4, 1) * 0.1), "eval"),
            "flatten": ([Flatten(), Dense(2)], (2, 3, 2), rng.normal(size=(2, 2, 3, 2)),
                        "eval"),
            "softmax": ([Dense(4), Softmax()], (5,), rng.normal(size=(3, 5)), "eval"),
            "dropout": ([Dense(5), Dropout(0.3), Dense(2)], (4,),
                        rng.normal(size=(3, 4)), "train"),
            "branch_dropout": ([Dense(5), BranchDropout(0.5), Dense(2)], (4,),
                               rng.normal(size=(4, 4)), "train"),
        }
        for kind, (layers, shape, x, mode) in cases.items():
            keyed = make_keyed("net", layers)
            store = ParamStore(build_layout(keyed, shape))
            init_chain_params(keyed, shape, store, np.random.default_rng(6000 + trial))
            label = 1 if isinstance(layers[-1], Softmax) else 0.4
            report = finite_diff_check(keyed, store, x, label=label, h=1e-3,
                                       mode=mode, rng_seed=trial)
            worst_by_kind[kind] = max(worst_by_kind.get(kind, 0.0), report.max_rel_err)
    # the add combine is exercised through the cascade network; the chains are
    # kink-free so the check isolates the combine itself
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        topo = build_cascaded([Dense(6)], [Dense(4), Dense(3)],
                              [Dense(3), Softmax()], 0.0, (5,))
        stack = one_device(DeviceNetwork(topo, "complex"), np.random.default_rng(7100 + trial))
        store = stack.stores[0]
        x = rng.normal(size=(2, 5))
        y = rng.integers(0, 3, size=2)
        out, cache = forward_alone(stack, x, mode="eval")
        _, dlogits = cross_entropy(out, y)
        analytic = backward_alone(stack, cache, dlogits, from_logits=True)
        numeric = np.zeros(store.size)
        h = 1e-3
        for i in range(store.size):
            orig = store.flat[i]
            store.flat[i] = orig + h
            up, _ = forward_alone(stack, x, mode="eval")
            lu, _ = cross_entropy(up, y)
            store.flat[i] = orig - h
            down, _ = forward_alone(stack, x, mode="eval")
            ld, _ = cross_entropy(down, y)
            store.flat[i] = orig
            numeric[i] = (lu - ld) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic.flat), np.abs(numeric)), 1e-2)
        worst_by_kind["add"] = max(worst_by_kind.get("add", 0.0),
                                   float((np.abs(analytic.flat - numeric) / denom).max()))
    worst = max(worst_by_kind.values())
    ok = worst < 1e-4 and time.time() - t0 < 30
    _report(3, ok, t0,
            f"20 random instances per layer kind, h=1e-3; worst rel err {worst:.2e} "
            f"< 1e-4 across {sorted(worst_by_kind)}")


# -- 4. homogeneous reduction ------------------------------------------------------

def _local_steps(stack, optimizer, batches):
    for x, y in batches:
        out, cache = forward_alone(stack, x, mode="eval")
        _, dlogits = cross_entropy(out, y)
        grads = backward_alone(stack, cache, dlogits, from_logits=True)
        optimizer.step(stack.stores[0].flat, grads.flat)


def test_criterion_4_homogeneous_reduction_matches_reference_averaging():
    t0 = time.time()
    rng = np.random.default_rng(99)
    topo = build_share_first([Dense(10), ReLU(), Dense(4), Softmax()], {"b": ()}, (6,))
    rounds, steps_per_round = 50, 2
    sizes = [30, 70]
    weights = [s / 100 for s in sizes]
    schedule = [[[(rng.normal(size=(8, 6)), rng.integers(0, 4, size=8))
                  for _ in range(steps_per_round)] for _ in range(2)]
                for _ in range(rounds)]

    # protocol path: two devices under the heterogeneous machinery, full sharing
    nets = [DeviceNetwork(topo, "b") for _ in range(2)]
    stacks = [one_device(net, np.random.default_rng(1234)) for net in nets]
    optimizers = [Sgd(learning_rate=0.05) for _ in range(2)]
    for i in range(2):
        assert nets[i].partition.shared_len == nets[i].count_params()
    coordinator = Coordinator("sync", "data-proportional", sizes,
                              [stack.stores[0].flat for stack in stacks])
    protocol_trace = []
    for rnd in range(rounds):
        for i in range(2):
            _local_steps(stacks[i], optimizers[i], schedule[rnd][i])
        sync_round(coordinator)
        protocol_trace.append(coordinator.theta.copy())

    # reference: plain parameter averaging, reimplemented from scratch
    ref_net = DeviceNetwork(topo, "b")
    ref_stacks = [one_device(ref_net, np.random.default_rng(1234)) for _ in range(2)]
    theta = ref_stacks[0].stores[0].flatten()
    ref_optimizers = [Sgd(learning_rate=0.05) for _ in range(2)]
    worst = 0.0
    for rnd in range(rounds):
        thetas = []
        for i in range(2):
            ref_stacks[i].stores[0].set_flat(theta)
            _local_steps(ref_stacks[i], ref_optimizers[i], schedule[rnd][i])
            thetas.append(ref_stacks[i].stores[0].flatten())
        theta = weights[0] * thetas[0] + weights[1] * thetas[1]
        worst = max(worst, float(np.abs(protocol_trace[rnd] - theta).max()))
    _report(4, worst < 1e-10, t0,
            f"50 rounds of fully-shared protocol vs reference weighted averaging; "
            f"max per-round deviation {worst:.2e} < 1e-10")


# -- 5. branch-dropout invariants ----------------------------------------------------

def _cifar_cascade(p):
    stem = [Conv2D(3, 3, 32), ReLU(), Conv2D(3, 3, 32), ReLU(), MaxPool2D(2, 2),
            Dropout(0.25)]
    complex_branch = [Conv2D(3, 3, 64), ReLU(), Conv2D(3, 3, 64), ReLU(),
                      MaxPool2D(2, 2), Dropout(0.25), Flatten(), Dense(512), ReLU(),
                      Dropout(0.25), Dense(10)]
    light_branch = [MaxPool2D(2, 2), Dropout(0.5), Flatten(), Dense(10), Softmax()]
    return build_cascaded(stem, complex_branch, light_branch, p, (32, 32, 3))


def test_criterion_5_branch_dropout_invariants():
    t0 = time.time()
    topo = _cifar_cascade(1.0)
    complex_net = DeviceNetwork(topo, "complex")
    light_net = DeviceNetwork(topo, "lightweight")
    stack_c = one_device(complex_net, np.random.default_rng(0), np.random.default_rng(1))
    stack_l = one_device(light_net, np.random.default_rng(0))
    x = np.random.default_rng(2).random(size=(100, 32, 32, 3))

    # p = 1 drops the complex branch in train mode; the shared chain draws
    # its dropout masks first, so one seed gives both networks the same masks
    out_forced, _ = forward_alone(stack_c, x, mode="train", rng=np.random.default_rng(5))
    out_light, _ = forward_alone(stack_l, x, mode="train", rng=np.random.default_rng(5))
    bit_equal = np.array_equal(out_forced, out_light)

    xb = x[:16]
    yb = np.random.default_rng(3).integers(0, 10, size=16)
    out, cache = forward_alone(stack_c, xb, mode="train", rng=np.random.default_rng(4))
    _, dlogits = cross_entropy(out, yb)
    grads = backward_alone(stack_c, cache, dlogits, from_logits=True)
    local = grads.flat[complex_net.partition.shared_len:]
    zero_grads = local.size > 0 and not np.any(local)
    shared_alive = np.any(grads.flat[:complex_net.partition.shared_len])

    _report(5, bit_equal and zero_grads and shared_alive, t0,
            "forced drop output bit-equals the standalone lightweight network on "
            "100 inputs; p=1 training yields identically zero complex-branch "
            "gradients while shared gradients remain live")


# -- 6. desk-scale trend checks ----------------------------------------------------

def _load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.slow
def test_criterion_6a_supervised_trend_orderings():
    t0 = time.time()
    base = _load_doc("configs/supervised_synthetic.json")
    medians = {}
    for mode in ("heterogeneous", "homogeneous", "isolated"):
        doc = copy.deepcopy(base)
        doc["mode"] = mode
        summary = run_experiment(parse_config(doc))
        medians[mode] = {d: v["median"] for d, v in summary["devices"].items()}
    gain_powerful = medians["heterogeneous"]["powerful"] - medians["homogeneous"]["powerful"]
    gain_weak = medians["heterogeneous"]["weak"] - medians["isolated"]["weak"]
    ok = gain_powerful >= 0.02 and gain_weak >= 0.02 and time.time() - t0 < 300
    _report("6a", ok, t0,
            f"median final test accuracy: heterogeneous powerful "
            f"{medians['heterogeneous']['powerful']:.3f} vs homogeneous "
            f"{medians['homogeneous']['powerful']:.3f} (+{gain_powerful * 100:.1f} pts), "
            f"heterogeneous weak {medians['heterogeneous']['weak']:.3f} vs isolated "
            f"{medians['isolated']['weak']:.3f} (+{gain_weak * 100:.1f} pts); "
            f"both gains >= 2 points over 5 seeds")


OPTIMAL_GRIDWORLD_RETURN = 1.0 - 0.01 * 7  # value iteration over the 5x5 task


def _rl_reach_and_final(rows, device, threshold, total_steps):
    reach = total_steps
    rewards = []
    for r in rows:
        if r.device == device and r.phase == "test" and r.metric == "reward":
            rewards.append(r.value)
            if r.value >= threshold and reach == total_steps:
                reach = r.round
    return reach, float(np.mean(rewards[-5:]))


@pytest.mark.slow
def test_criterion_6b_rl_trend_orderings(tmp_path):
    t0 = time.time()
    base = _load_doc("configs/rl_gridworld.json")
    threshold = 0.9 * OPTIMAL_GRIDWORLD_RETURN
    total = base["rl"]["total_steps"]
    stats = {}
    for mode in ("heterogeneous", "isolated"):
        doc = copy.deepcopy(base)
        doc["mode"] = mode
        run_experiment(parse_config(doc), out_dir=tmp_path / mode)
        all_rows = read_csv(tmp_path / mode / "metrics.csv")
        reaches, finals = [], []
        for seed in base["seeds"]:
            rows = [r for r in all_rows if r.seed == seed]
            reach, _ = _rl_reach_and_final(rows, "weak", threshold, total)
            _, final_powerful = _rl_reach_and_final(rows, "powerful", threshold, total)
            reaches.append(reach)
            finals.append(final_powerful)
        stats[mode] = {"reach": float(np.median(reaches)),
                       "final": float(np.median(finals))}
    speedup_ok = stats["heterogeneous"]["reach"] <= 0.5 * stats["isolated"]["reach"]
    powerful_ok = abs(stats["heterogeneous"]["final"] - stats["isolated"]["final"]) <= 0.05
    ok = speedup_ok and powerful_ok and time.time() - t0 < 600
    _report("6b", ok, t0,
            f"weak reaches {threshold:.3f} at median step "
            f"{stats['heterogeneous']['reach']:.0f} heterogeneous vs "
            f"{stats['isolated']['reach']:.0f} isolated (need <= half); powerful final "
            f"{stats['heterogeneous']['final']:.3f} vs {stats['isolated']['final']:.3f} "
            f"(within 0.05)")


# -- 7. async bookkeeping -------------------------------------------------------------

def test_criterion_7_async_bookkeeping_bit_exact():
    t0 = time.time()
    rng = np.random.default_rng(777)  # the deterministic scheduler
    dim, n_dev = 11, 5
    sizes = [5, 10, 20, 25, 40]
    theta0 = rng.normal(size=dim)
    coordinator = Coordinator("async", "data-proportional", sizes, [theta0] * n_dev)
    expected = coordinator.theta.copy()
    for _ in range(1000):
        device = int(rng.integers(n_dev))
        delta = rng.normal(size=dim)
        coordinator.apply(device, delta)
        expected += coordinator.weight_of(device) * delta
    ok = np.array_equal(coordinator.theta, expected)
    _report(7, ok, t0,
            "1,000 randomly interleaved async updates leave the shared vector "
            "bit-equal to initial + sum of applied weighted deltas")


# -- 8. determinism ---------------------------------------------------------------------

def test_criterion_8_byte_identical_metrics(tmp_path):
    t0 = time.time()
    doc = _load_doc("configs/supervised_synthetic.json")
    doc["seeds"] = [1, 2]
    doc["supervised"]["rounds"] = 10
    config = parse_config(doc)
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    ok = (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    _report(8, ok, t0, "two runs of the same config and seeds produce byte-identical "
                       "raw metrics CSVs")


# -- 9. communication accounting ----------------------------------------------------------

def test_criterion_9_communication_accounting():
    t0 = time.time()
    stem = [Conv2D(3, 3, 32), ReLU(), Conv2D(3, 3, 32), ReLU(), MaxPool2D(2, 2),
            Dropout(0.25)]
    complex_branch = [Conv2D(3, 3, 64), ReLU(), Conv2D(3, 3, 64), ReLU(),
                      MaxPool2D(2, 2), Dropout(0.25), Flatten(), Dense(512), ReLU(),
                      Dropout(0.25), Dense(10), Softmax()]
    light_branch = [MaxPool2D(2, 2), Dropout(0.5), Flatten(), Dense(10), Softmax()]
    topo = build_share_first(stem, {"complex": complex_branch,
                                    "lightweight": light_branch}, (32, 32, 3))

    def one_sync(nets):
        stores = [one_device(net, np.random.default_rng(0), np.random.default_rng(i)).stores[0]
                  for i, net in enumerate(nets)]
        coordinator = Coordinator("sync", "uniform-average", [1] * len(nets),
                                  [store.flat[:net.partition.shared_len]
                                   for net, store in zip(nets, stores)])
        for store in stores:
            store.flat += 1e-3  # a simulated local training step
        return sync_round(coordinator)

    het_bytes = one_sync([DeviceNetwork(topo, "complex"),
                          DeviceNetwork(topo, "lightweight")])
    hom_net = full_share_network(topo, "lightweight")
    hom_bytes = one_sync([full_share_network(topo, "lightweight"),
                          full_share_network(topo, "lightweight")])

    ok = (het_bytes == [10_144 * 8, 10_144 * 8]
          and hom_bytes == [25_834 * 8, 25_834 * 8]
          and hom_net.partition.shared_len == 25_834
          and het_bytes[0] < hom_bytes[0])
    _report(9, ok, t0,
            f"per sync event: heterogeneous sends {het_bytes[0]:,} bytes "
            f"(10,144 shared x 8) < homogeneous {hom_bytes[0]:,} bytes "
            f"(25,834 params x 8)")
