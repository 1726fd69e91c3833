"""Harness behaviour: determinism, run modes, byte accounting, checkpoints,
CSV formats, seeds in worker processes, and the CLI surface."""
import functools
import json
import math
import os
import re
import tempfile
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetsim import metrics
from hetsim.cli import main as cli_main
from hetsim.config import (
    ConfigError,
    CoordinatorConfig,
    RlConfig,
    load_config,
    parse_config,
)
from hetsim.harness import (
    RlRun,
    SupervisedRun,
    build_device_network,
    describe,
    load_run_checkpoint,
    make_run,
    run_experiment,
    save_run_checkpoint,
    weakest_branch,
)
from hetsim.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from hetsim.data import Dataset, write_cifar10_binary
from hetsim.learners import SupervisedTrainer
from hetsim.metrics import (
    MetricsRow,
    aggregate_rows,
    read_csv,
    write_aggregated_csv,
    write_csv,
)
from hetsim.protocol import ProtocolError
from hetsim.topology import DeviceStack


def tiny_supervised_doc(mode="heterogeneous", seeds=(7,)):
    return {
        "task": "supervised", "mode": mode, "scheme": "cascaded",
        "seeds": list(seeds),
        "topology": {
            "input_shape": [8],
            "stem": [{"kind": "dense", "units": 8}, {"kind": "relu"}],
            "branches": {
                "complex": [{"kind": "dense", "units": 12}, {"kind": "relu"},
                            {"kind": "dense", "units": 4}],
                "lightweight": [{"kind": "dense", "units": 3}, {"kind": "relu"},
                                {"kind": "dense", "units": 4}, {"kind": "softmax"}],
            },
            "cascade": {"complex_branch": "complex", "lightweight_branch": "lightweight",
                        "branch_dropout_p": 0.5},
        },
        "devices": [
            {"id": "powerful", "branch": "complex", "data_fraction": 0.8,
             "optimizer": {"algorithm": "rmsprop", "learning_rate": 0.001}},
            {"id": "weak", "branch": "lightweight", "data_fraction": 0.2,
             "optimizer": {"algorithm": "rmsprop", "learning_rate": 0.001}},
        ],
        "coordinator": {"mode": "sync", "weighting": "data-proportional"},
        "supervised": {"rounds": 3, "round_samples": 64, "minibatch_size": 16},
        "data": {"source": "synthetic", "num_classes": 4, "per_class": 25,
                 "dims": 8, "class_separation": 3.0, "test_per_class": 10},
    }


def tiny_rl_doc(mode="heterogeneous", seeds=(3,)):
    return {
        "task": "rl", "mode": mode, "scheme": "share-first",
        "seeds": list(seeds),
        "topology": {
            "input_shape": [9],
            "stem": [{"kind": "dense", "units": 12}, {"kind": "relu"}],
            "branches": {
                "complex": [{"kind": "dense", "units": 12}, {"kind": "relu"},
                            {"kind": "dense", "units": 4}],
                "lightweight": [{"kind": "dense", "units": 3}, {"kind": "relu"},
                                {"kind": "dense", "units": 4}],
            },
        },
        "devices": [
            {"id": "powerful", "branch": "complex", "replay_capacity": 200,
             "optimizer": {"algorithm": "adam", "learning_rate": 0.001}},
            {"id": "weak", "branch": "lightweight", "replay_capacity": 60,
             "optimizer": {"algorithm": "adam", "learning_rate": 0.001}},
        ],
        "coordinator": {"mode": "sync", "weighting": "uniform-average"},
        "rl": {"total_steps": 120, "sync_period": 40, "epsilon_decay_steps": 80,
               "test_episodes": 2},
        "environment": {"type": "gridworld", "width": 3, "height": 3,
                        "start": [0, 0], "goal": [2, 2], "max_episode_steps": 12},
    }


# -- config validation ----------------------------------------------------------

def test_unknown_keys_rejected_everywhere():
    doc = tiny_supervised_doc()
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    doc = tiny_supervised_doc()
    doc["devices"][0]["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    doc = tiny_supervised_doc()
    doc["topology"]["stem"][0]["surprise"] = 1
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_unknown_branch_reference_rejected():
    doc = tiny_supervised_doc()
    doc["devices"][0]["branch"] = "missing"
    with pytest.raises(ConfigError, match="unknown branch"):
        parse_config(doc)


def test_fractions_must_sum_to_one():
    doc = tiny_supervised_doc()
    doc["devices"][0]["data_fraction"] = 0.7
    with pytest.raises(ConfigError, match="fractions"):
        parse_config(doc)


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _with_fraction(index, fraction):
    """tiny_supervised_doc with one device's data_fraction set, so that a
    second edit can keep the fractions summing to 1."""
    return lambda: _set(tiny_supervised_doc(), ("devices", index, "data_fraction"), fraction)


@pytest.mark.parametrize("make_doc,path,value", [
    (tiny_rl_doc, ("rl", "sync_period"), 0),
    (tiny_rl_doc, ("rl", "total_steps"), 0),
    (tiny_supervised_doc, ("supervised", "rounds"), -5),
    (tiny_supervised_doc, ("supervised", "rounds"), 0),
    (tiny_rl_doc, ("devices", 1, "rate"), -1),
    (tiny_rl_doc, ("devices", 1, "rate"), 0),
    (tiny_rl_doc, ("devices", 1, "rate"), 1.5),
    (tiny_supervised_doc, ("supervised", "minibatch_size"), 0),
    (tiny_supervised_doc, ("supervised", "round_samples"), 0),
    (tiny_supervised_doc, ("supervised", "round_samples"), -3),
    (tiny_rl_doc, ("rl", "batch_size"), 0),
    (tiny_rl_doc, ("rl", "test_episodes"), 0),
    (tiny_rl_doc, ("devices", 0, "replay_capacity"), 0),
    (tiny_rl_doc, ("seeds",), [True]),
    # numbers must be numbers of the right kind, never truncated or coerced
    (tiny_supervised_doc, ("supervised", "minibatch_size"), 2.7),
    (tiny_supervised_doc, ("supervised", "minibatch_size"), "abc"),
    (tiny_supervised_doc, ("supervised", "rounds"), True),
    (tiny_rl_doc, ("rl", "epsilon_decay_steps"), 10.5),
    (tiny_rl_doc, ("rl", "warmup_steps"), "8"),
    (tiny_rl_doc, ("rl", "gamma"), "x"),
    (tiny_rl_doc, ("rl", "gamma"), 1.5),
    (tiny_rl_doc, ("rl", "epsilon_start"), 2.0),
    (tiny_rl_doc, ("devices", 1, "rate"), "0.5"),
    (tiny_supervised_doc, ("devices", 1, "data_fraction"), "0.2"),
    (tiny_supervised_doc, ("topology", "cascade", "branch_dropout_p"), 1.5),
    (tiny_supervised_doc, ("topology", "cascade", "branch_dropout_p"), "half"),
    # seeds must be distinct
    (tiny_supervised_doc, ("seeds",), [7, 7, 8]),
    # data and environment fields are checked at parse time, not in make_run
    (tiny_supervised_doc, ("data", "per_class"), 0),
    (tiny_supervised_doc, ("data", "test_per_class"), 0),
    (tiny_supervised_doc, ("data", "class_separation"), "x"),
    (tiny_supervised_doc, ("data", "num_classes"), "4"),
    (tiny_rl_doc, ("environment", "slip"), 2.0),
    (tiny_rl_doc, ("environment", "width"), 0),
    (tiny_rl_doc, ("environment", "goal"), [5, 5]),
    (tiny_rl_doc, ("environment", "step_penalty"), "a"),
    (tiny_rl_doc, ("environment", "max_episode_steps"), 0),
    # optimizer reals are finite and in the optimizer's own ranges
    (tiny_supervised_doc, ("devices", 1, "optimizer", "learning_rate"), float("nan")),
    (tiny_supervised_doc, ("devices", 1, "optimizer", "learning_rate"), float("inf")),
    (tiny_supervised_doc, ("devices", 1, "optimizer", "learning_rate"), True),
    (tiny_supervised_doc, ("devices", 1, "optimizer", "decay"), float("nan")),
    (tiny_supervised_doc, ("devices", 1, "optimizer", "rho"), 1.5),
    (tiny_rl_doc, ("devices", 1, "optimizer", "beta1"), 1.0),
    (tiny_rl_doc, ("devices", 1, "optimizer", "eps"), -1),
    # data fractions are in (0, 1], even when they sum to 1
    (_with_fraction(0, 1.5), ("devices", 1, "data_fraction"), -0.5),
    (_with_fraction(1, 1.5), ("devices", 0, "data_fraction"), -0.5),
    (_with_fraction(0, 1.0), ("devices", 1, "data_fraction"), 0.0),
    # a device entry is an object
    (tiny_supervised_doc, ("devices",), [3]),
    # a replay that cannot hold its warmup (batch_size 32) never trains
    (tiny_rl_doc, ("devices", 1, "replay_capacity"), 20),
    (tiny_rl_doc, ("rl", "warmup_steps"), 61),
])
def test_bad_run_lengths_and_rates_rejected(make_doc, path, value):
    with pytest.raises(ConfigError, match=path[-1]):
        parse_config(_set(make_doc(), path, value))


def test_replay_below_its_warmup_names_the_device():
    doc = _set(tiny_rl_doc(), ("rl", "batch_size"), 61)
    with pytest.raises(ConfigError, match=r"devices\[1\] \('weak'\): replay_capacity 60 "
                                          r"is below the 61 transitions"):
        parse_config(doc)
    parse_config(_set(doc, ("rl", "batch_size"), 60))  # a replay that just holds it


@pytest.mark.parametrize("make_doc,path,value", [
    (tiny_supervised_doc, ("rl",), {"total_steps": "x"}),
    (tiny_supervised_doc, ("environment",), {"type": "maze"}),
    (tiny_supervised_doc, ("devices", 1, "replay_capacity"), "x"),
    (tiny_supervised_doc, ("devices", 1, "rate"), 0.5),
    (tiny_rl_doc, ("supervised",), {"rounds": 3}),
    (tiny_rl_doc, ("data",), {"source": "bogus", "oops": 1}),
    (tiny_rl_doc, ("devices", 1, "data_fraction"), 0.5),
])
def test_other_tasks_sections_and_device_keys_rejected(make_doc, path, value):
    doc = _set(make_doc(), path, value)
    with pytest.raises(ConfigError, match=f"'{path[-1]}'.* do not apply to a {doc['task']}"):
        parse_config(doc)


@pytest.mark.parametrize("make_doc,path,value", [
    (tiny_supervised_doc, ("coordinator",), 5),
    (tiny_supervised_doc, ("coordinator",), ["mode"]),
    (tiny_supervised_doc, ("coordinator",), None),
    (tiny_supervised_doc, ("topology",), 5),
    (tiny_supervised_doc, ("topology", "cascade"), 5),
    (tiny_supervised_doc, ("supervised",), 5),
    (tiny_supervised_doc, ("data",), [1]),
    (tiny_supervised_doc, ("devices", 0), "powerful"),
    (tiny_supervised_doc, ("devices", 0, "optimizer"), "sgd"),
    (tiny_rl_doc, ("rl",), 5),
    (tiny_rl_doc, ("environment",), "gridworld"),
])
def test_non_object_sections_rejected(make_doc, path, value):
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    with pytest.raises(ConfigError, match=re.escape(f"{where} must be an object")):
        parse_config(_set(make_doc(), path, value))


def test_a_non_object_config_rejected():
    with pytest.raises(ConfigError, match="config must be an object"):
        parse_config([tiny_supervised_doc()])


@pytest.mark.parametrize("make_doc", [tiny_supervised_doc, tiny_rl_doc])
@pytest.mark.parametrize("device_id",
                         ["weak,x", "weak\nx", "weak\rx", '"x', '"q"', "", [1], 1, None])
def test_device_ids_that_metrics_csv_cannot_hold_rejected(make_doc, device_id):
    doc = _set(make_doc(), ("devices", 1, "id"), device_id)
    with pytest.raises(ConfigError, match=r"devices\[1\]\.id must be a non-empty string"):
        parse_config(doc)


def test_omitted_optional_keys_take_the_dataclass_defaults():
    doc = tiny_rl_doc()
    del doc["coordinator"], doc["devices"][0]["optimizer"], doc["rl"]["epsilon_decay_steps"]
    config = parse_config(doc)
    assert config.coordinator == CoordinatorConfig()
    assert config.devices[0].optimizer == {"algorithm": "sgd", "learning_rate": 0.01}
    assert config.devices[0].rate == 1.0
    assert config.rl.epsilon_decay_steps == RlConfig(1, 1).epsilon_decay_steps


def test_cascaded_device_must_use_a_cascade_branch():
    doc = tiny_supervised_doc()
    doc["topology"]["branches"]["extra"] = [{"kind": "dense", "units": 4},
                                            {"kind": "softmax"}]
    doc["devices"][1]["branch"] = "extra"
    with pytest.raises(ConfigError, match=r"devices\[1\] \('weak'\).*'extra'"):
        parse_config(doc)


@pytest.mark.parametrize("key,value", [
    ("learning_rate", "0.1"), ("learning_rate", -0.1), ("algorithm", "lbfgs"),
])
def test_bad_optimizer_settings_rejected(key, value):
    doc = tiny_supervised_doc()
    doc["devices"][1]["optimizer"][key] = value
    with pytest.raises(ConfigError, match=r"devices\[1\]\.optimizer"):
        parse_config(doc)


@pytest.mark.parametrize("make_doc,path,value", [
    (tiny_supervised_doc, ("topology", "input_shape"), [2, 2, 2]),  # Dense on an image
    (tiny_supervised_doc, ("topology", "stem", 0), {"kind": "add"}),
    (tiny_supervised_doc, ("topology", "input_shape"), [9]),
    (tiny_supervised_doc, ("data", "num_classes"), 5),
    (tiny_rl_doc, ("topology", "input_shape"), [8]),
    (tiny_rl_doc, ("topology", "branches", "complex", 2, "units"), 3),  # 4 actions
    # shapes and layer sizes must be whole JSON numbers
    (tiny_supervised_doc, ("topology", "input_shape"), 8),
    (tiny_supervised_doc, ("topology", "stem", 0, "units"), 2.5),
    (tiny_supervised_doc, ("topology", "stem", 0, "units"), True),
])
def test_topology_must_fit_the_data(make_doc, path, value):
    # a bad topology fails to parse; one that disagrees with the data fails
    # when the run is built, before any device trains
    with pytest.raises(ConfigError, match="topology"):
        make_run(parse_config(_set(make_doc(), path, value)), 7)


def _tiny_cifar_doc(tmp_path, records=(8, 4)):
    """The tiny supervised doc on CIFAR-format files of ``records`` train and
    test records, written into ``tmp_path``."""
    doc = tiny_supervised_doc()
    doc["topology"]["input_shape"] = [32, 32, 3]
    doc["topology"]["stem"].insert(0, {"kind": "flatten"})
    doc["topology"]["branches"]["complex"][-1]["units"] = 10
    doc["topology"]["branches"]["lightweight"][-2]["units"] = 10
    rng = np.random.default_rng(0)
    doc["data"] = {"source": "cifar10"}
    for key, n in zip(("train_path", "test_path"), records):
        path = tmp_path / f"{key}.bin"
        write_cifar10_binary(Dataset(rng.random((n, 32, 32, 3)), rng.integers(0, 10, n),
                                     10, "cifar10"), path)
        doc["data"][key] = str(path)
    return doc


@pytest.mark.parametrize("key", ["train_path", "test_path"])
@pytest.mark.parametrize("damage,message", [
    (lambda blob: b"", "holds no CIFAR-10 records"),
    (lambda blob: blob[:-5], "truncated"),
    (lambda blob: b"\x0c" + blob[1:], "label byte 12 out of range"),
])
def test_bad_cifar_file_rejected_when_the_run_is_built(tmp_path, key, damage, message):
    # before any device trains: an empty test file used to fail only after
    # the last round, in the test pass
    doc = _tiny_cifar_doc(tmp_path)
    path = tmp_path / f"{key}.bin"
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigError, match=f"^data.{key}: .*{message}"):
        make_run(parse_config(doc), 7)


@pytest.mark.parametrize("records,message", [
    (1, r"fractions \(0.8, 0.2\) give an empty shard for 1 examples"),
    (4, r"4 examples leave a device with no training example"),
])
def test_too_few_examples_for_the_fractions_rejected(tmp_path, records, message):
    doc = _tiny_cifar_doc(tmp_path, records=(records, 4))
    with pytest.raises(ConfigError, match=f"^data: {message}"):
        make_run(parse_config(doc), 7)


@pytest.mark.parametrize("mode", ["isolated", "heterogeneous"])
@pytest.mark.parametrize("key,value", [("mode", "eventual"), ("weighting", "median")])
def test_bad_coordinator_settings_rejected(mode, key, value):
    doc = tiny_supervised_doc(mode)
    doc["coordinator"][key] = value
    with pytest.raises(ConfigError, match=f"coordinator.{key}"):
        parse_config(doc)


# -- run modes -------------------------------------------------------------------

def test_isolated_mode_sends_nothing():
    summary_rows = make_run(parse_config(tiny_supervised_doc("isolated")), 7).run()
    sent = [r for r in summary_rows if r.metric == "bytes_sent"]
    assert sent and all(r.value == 0.0 for r in sent)


def test_homogeneous_mode_shares_everything_on_the_weakest_topology():
    config = parse_config(tiny_supervised_doc("homogeneous"))
    assert weakest_branch(config.topology) == "lightweight"
    for dev_cfg in config.devices:
        net = build_device_network(config, dev_cfg)
        assert net.partition.shared_len == net.count_params()
        assert net.partition.local_len == 0
    rows = make_run(config, 7).run()
    sent = {r.value for r in rows if r.metric == "bytes_sent"}
    light = build_device_network(config, config.devices[1])
    assert sent == {light.count_params() * 8.0}


def test_heterogeneous_bytes_equal_shared_len_times_width():
    config = parse_config(tiny_supervised_doc("heterogeneous"))
    rows = make_run(config, 7).run()
    sent = {r.value for r in rows if r.metric == "bytes_sent"}
    shared = build_device_network(config, config.devices[0]).partition.shared_len
    assert sent == {shared * 8.0}


def test_same_config_same_seed_byte_identical_csv(tmp_path):
    config = parse_config(tiny_supervised_doc(seeds=(7, 8)))
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "metrics_agg.csv").read_bytes() == \
        (tmp_path / "b" / "metrics_agg.csv").read_bytes()


def test_rl_run_deterministic_and_sync_cadence():
    config = parse_config(tiny_rl_doc())
    run_a, run_b = make_run(config, 3), make_run(config, 3)
    rows_a, rows_b = run_a.run(), run_b.run()
    assert rows_a == rows_b
    for a, b in zip(run_a.devices, run_b.devices):
        np.testing.assert_array_equal(a["store"].flat, b["store"].flat)
    test_steps = sorted({r.round for r in rows_a if r.phase == "test"})
    assert test_steps == [40, 80, 120]  # exactly every sync_period


def test_target_networks_adopt_the_broadcast_at_sync_events():
    config = parse_config(tiny_rl_doc("heterogeneous"))
    run = make_run(config, 3)
    while run.step < config.rl.sync_period:
        run.play_step()
    theta = run.coordinator.theta
    for dev in run.devices:
        shared_len = dev["net"].partition.shared_len
        target_shared = dev["learner"].target_store.flat[:shared_len]
        np.testing.assert_array_equal(target_shared, theta)
        online_shared = dev["store"].flat[:shared_len]
        np.testing.assert_array_equal(online_shared, theta)


def test_isolated_target_copy_equals_local_online_params():
    config = parse_config(tiny_rl_doc("isolated"))
    run = make_run(config, 3)
    while run.step < config.rl.sync_period:
        run.play_step()
    for dev in run.devices:
        np.testing.assert_array_equal(dev["learner"].target_store.flat,
                                      dev["store"].flat)


def test_isolated_rl_devices_do_not_interact():
    """An isolated RL device's rows do not depend on the other devices: each
    device draws only from streams keyed by its own id, and nothing syncs.

    Supervised isolated runs do not have this property, because the data
    partition draws over every device's fraction."""
    doc = tiny_rl_doc("isolated")
    with_weak = make_run(parse_config(doc), 3).run()
    doc["devices"] = doc["devices"][:1]
    alone = make_run(parse_config(doc), 3).run()
    assert alone and {r.device for r in alone} == {"powerful"}
    assert [r for r in with_weak if r.device == "powerful"] == alone


def test_rate_gating_quarters_the_weak_interactions():
    doc = tiny_rl_doc()
    doc["devices"][1]["rate"] = 0.25
    config = parse_config(doc)
    run = make_run(config, 3)
    run.run()
    powerful = next(d for d in run.devices if d["cfg"].id == "powerful")
    weak = next(d for d in run.devices if d["cfg"].id == "weak")
    assert powerful["learner"].steps == 120
    assert weak["learner"].steps == 30


@pytest.mark.parametrize("rate,steps", [
    (0.5, 101), (0.3, 97), (1 / 3, 100), (0.7, 53), (0.1, 10), (0.999, 1000),
])
def test_a_device_of_rate_r_acts_floor_t_r_times_in_t_steps(rate, steps):
    doc = tiny_rl_doc()
    doc["devices"][1]["rate"] = rate
    doc["rl"].update(total_steps=steps, sync_period=steps)
    run = make_run(parse_config(doc), 3)
    run.run()
    weak = next(d for d in run.devices if d["cfg"].id == "weak")
    assert weak["learner"].steps == math.floor(steps * rate)


def test_real_width_32_runs_and_scales_bytes():
    doc = tiny_supervised_doc()
    doc["real_width"] = 32
    config = parse_config(doc)
    rows = make_run(config, 7).run()
    shared = build_device_network(config, config.devices[0]).partition.shared_len
    sent = {r.value for r in rows if r.metric == "bytes_sent"}
    assert sent == {shared * 4.0}


def test_homogeneous_rl_devices_agree_after_sync():
    config = parse_config(tiny_rl_doc("homogeneous"))
    run = make_run(config, 3)
    while run.step < config.rl.sync_period:
        run.play_step()
    a, b = run.devices
    assert a["net"].partition.shared_len == a["net"].count_params()
    np.testing.assert_array_equal(a["store"].flat, b["store"].flat)


def test_seed_offset_shifts_seeds(tmp_path):
    config = parse_config(tiny_supervised_doc(seeds=(7,)))
    summary = run_experiment(config, out_dir=tmp_path, seed_offset=10)
    assert summary["seeds"] == [17]
    rows = read_csv(tmp_path / "metrics.csv")
    assert {r.seed for r in rows} == {17}


def _count_test_passes(monkeypatch, run) -> list:
    """Wrap SupervisedTrainer.evaluate; the list gets each snapshot that a
    pass over the run's test set scores."""
    scored = []
    evaluate = SupervisedTrainer.evaluate

    def counting(trainer, x, y, flat=None, chunk=512):
        if x is run.test_set.features:
            scored.append(flat.copy())
        return evaluate(trainer, x, y, flat, chunk)

    monkeypatch.setattr(SupervisedTrainer, "evaluate", counting)
    return scored


def _test_accuracies(run) -> list[float]:
    return [r.value for r in run.rows if r.phase == "test"]


def _distinct_bits(arrays) -> int:
    return len({a.tobytes() for a in arrays})


def test_devices_that_train_one_network_share_it():
    doc = tiny_rl_doc()
    doc["devices"].append(dict(doc["devices"][1], id="weak2"))
    nets = [dev["net"] for dev in make_run(parse_config(doc), 3).devices]
    assert nets[1] is nets[2] and nets[0] is not nets[1]
    doc["mode"] = "homogeneous"
    nets = [dev["net"] for dev in make_run(parse_config(doc), 3).devices]
    assert nets[0] is nets[1] is nets[2]


def test_homogeneous_finalize_scores_each_distinct_snapshot_once(monkeypatch):
    doc = tiny_supervised_doc("homogeneous")
    doc["devices"] = [{"id": f"d{i}", "branch": "lightweight", "data_fraction": 0.25,
                       "optimizer": {"algorithm": "sgd", "learning_rate": 0.05}}
                      for i in range(4)]
    run = make_run(parse_config(doc), 7)
    while run.round < run.config.supervised.rounds:
        run.play_round()
    snapshots = [dev["trainer"].snapshot for dev in run.devices]
    scored = _count_test_passes(monkeypatch, run)
    run.finalize()
    assert len(scored) == _distinct_bits(snapshots) < len(run.devices)
    assert _distinct_bits(scored) == len(scored)
    # each device's row is the accuracy its own pass would give
    assert _test_accuracies(run) == [
        dev["trainer"].evaluate(run.test_set.features, run.test_set.labels,
                                flat=dev["trainer"].snapshot) for dev in run.devices]


def test_heterogeneous_finalize_scores_every_device(monkeypatch):
    run = make_run(parse_config(tiny_supervised_doc("heterogeneous")), 7)
    run.play_round()
    scored = _count_test_passes(monkeypatch, run)
    run.finalize()
    assert len(scored) == len(run.devices) == 2


def test_snapshots_that_differ_in_the_sign_of_a_zero_are_both_scored(monkeypatch):
    run = make_run(parse_config(tiny_supervised_doc("homogeneous")), 7)
    first, second = (dev["trainer"] for dev in run.devices)
    first.snapshot = first.snapshot.copy()  # snapshots are read-only: write copies
    first.snapshot[0] = 0.0
    second.snapshot = first.snapshot.copy()
    second.snapshot[0] = -0.0
    scored = _count_test_passes(monkeypatch, run)
    run.finalize()
    assert len(scored) == 2 and np.signbit(scored[1][0])
    accuracy = _test_accuracies(run)
    assert accuracy[0] == accuracy[1]


def _homogeneous_devices(doc, n, branch="lightweight"):
    doc["devices"] = [{"id": f"d{i}", "branch": branch, "data_fraction": 1 / n,
                       "optimizer": {"algorithm": "sgd", "learning_rate": 0.05}}
                      for i in range(n)]
    return doc


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_snapshots_are_read_only_and_bit_identical_ones_are_one_array(mode, tmp_path):
    doc = _homogeneous_devices(tiny_supervised_doc("homogeneous"), 4)
    doc["coordinator"]["mode"] = mode
    run = make_run(parse_config(doc), 7)
    trainers = [dev["trainer"] for dev in run.devices]
    assert all(t.snapshot is trainers[0].snapshot for t in trainers)  # one broadcast state
    for _ in range(3):
        before = [t.snapshot for t in trainers]
        run.play_round()
        snapshots = [t.snapshot for t in trainers]
        # the parameters move every round, so equal bits mean one round's snapshot
        assert len({id(s) for s in snapshots}) == _distinct_bits(snapshots)
        taken = [s for s, old in zip(snapshots, before) if s is not old]
        assert taken and _distinct_bits(taken) == (1 if mode == "sync" else len(taken))
    for trainer in trainers:
        assert not trainer.snapshot.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            trainer.snapshot[0] = 0.0
    save_run_checkpoint(run, tmp_path / "run.ckpt")  # a shared snapshot is saved once
    fresh = load_run_checkpoint(parse_config(doc), 7, tmp_path / "run.ckpt")
    resumed = [dev["trainer"].snapshot for dev in fresh.devices]
    assert [[a is b for b in resumed] for a in resumed] == [
        [a is b for b in snapshots] for a in snapshots]
    for got, want in zip(resumed, snapshots):
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_building_eight_homogeneous_devices_holds_one_reference_and_one_snapshot():
    """Built, a sync run of eight devices of one network holds their
    parameters (8 vectors), a row of gradients, theta with the merge's two
    buffers, one sync reference and one snapshot: 14 vectors and a little
    data. A reference and a snapshot per device would make it 28."""
    doc = _homogeneous_devices(tiny_supervised_doc("homogeneous"), 8, branch="head")
    doc["scheme"] = "share-first"
    doc["topology"] = {
        "input_shape": [8], "stem": [{"kind": "dense", "units": 128}, {"kind": "relu"}],
        "branches": {"head": [{"kind": "dense", "units": 128}, {"kind": "relu"},
                              {"kind": "dense", "units": 4}, {"kind": "softmax"}]}}
    config = parse_config(doc)
    make_run(config, 7)  # warm: imports and caches
    tracemalloc.start()
    try:
        run = make_run(config, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vector = run.devices[0]["store"].flat.nbytes
    assert vector > DeviceStack.GROUP_BYTES  # so the devices step one at a time
    assert peak < 18 * vector, peak / vector


# -- seeds in worker processes ------------------------------------------------------

def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _variant_doc(make_doc, variant, seeds):
    mode = variant if variant in ("isolated", "homogeneous") else "heterogeneous"
    doc = make_doc(mode, seeds=seeds)
    if variant == "async":
        doc["coordinator"]["mode"] = "async"
    if variant == "real-width-32":
        doc["real_width"] = 32
    return doc


OUTPUT_FILES = ("metrics.csv", "metrics_agg.csv", "summary.json")


@pytest.mark.parametrize("variant", ["isolated", "homogeneous", "heterogeneous",
                                     "async", "real-width-32"])
@pytest.mark.parametrize("make_doc,seeds", [(tiny_supervised_doc, (7, 8, 9)),
                                            (tiny_rl_doc, (3, 4, 5))])
def test_outputs_byte_identical_with_one_and_two_usable_cpus(
        tmp_path, monkeypatch, make_doc, seeds, variant):
    config = parse_config(_variant_doc(make_doc, variant, seeds))
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    run_experiment(config, out_dir=tmp_path / "one", seed_offset=10)
    assert forks == []
    _usable_cpus(monkeypatch, 2)
    run_experiment(config, out_dir=tmp_path / "two", seed_offset=10)
    assert len(forks) == 1  # one worker; this process runs the other seeds
    for name in OUTPUT_FILES:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


def test_single_seed_starts_no_process(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    run_experiment(parse_config(tiny_supervised_doc(seeds=(7,))), out_dir=tmp_path)
    assert forks == []


@pytest.mark.parametrize("run_cls,make_doc,seeds,error", [
    (SupervisedRun, tiny_supervised_doc, (7, 8, 9), ProtocolError),
    (RlRun, tiny_rl_doc, (3, 4, 5), ConfigError),
])
def test_worker_exception_reraised_with_its_type_and_message(
        monkeypatch, run_cls, make_doc, seeds, error):
    # patched before the call, so the forked worker runs the patched method
    caller = os.getpid()
    real_run = run_cls.run

    def run(self, *args):
        if os.getpid() != caller:
            raise error(f"seed {self.seed} failed in a worker")
        return real_run(self, *args)

    monkeypatch.setattr(run_cls, "run", run)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(error, match=f"seed {seeds[1]} failed in a worker"):
        run_experiment(parse_config(make_doc(seeds=seeds)))


def test_worker_that_dies_is_an_error_not_missing_rows(tmp_path, monkeypatch):
    caller = os.getpid()
    real_run = SupervisedRun.run

    def run(self, *args):
        if os.getpid() != caller:
            os._exit(3)
        return real_run(self, *args)

    monkeypatch.setattr(SupervisedRun, "run", run)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(parse_config(tiny_supervised_doc(seeds=(7, 8))), out_dir=tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


# -- checkpointing ----------------------------------------------------------------

def test_supervised_checkpoint_resume_bit_identical(tmp_path):
    doc = tiny_supervised_doc()
    doc["supervised"]["rounds"] = 6
    config = parse_config(doc)

    straight = make_run(config, 7)
    straight_rows = straight.run()

    path = tmp_path / "run.ckpt"
    assert make_run(config, 7).run(checkpoint_at=3, path=path) == straight_rows
    resumed = load_run_checkpoint(config, 7, path)
    assert resumed.round == 3
    assert resumed.run() == straight_rows
    for a, b in zip(resumed.devices, straight.devices):
        np.testing.assert_array_equal(a["store"].flat, b["store"].flat)


def test_rl_checkpoint_resume_bit_identical(tmp_path):
    config = parse_config(tiny_rl_doc())
    straight = make_run(config, 3)
    straight_rows = straight.run()

    # between sync events, so the target net differs from the online net
    path = tmp_path / "run.ckpt"
    assert make_run(config, 3).run(checkpoint_at=50, path=path) == straight_rows
    resumed = load_run_checkpoint(config, 3, path)
    assert resumed.step == 50
    assert resumed.run() == straight_rows
    # the rows of this short run barely depend on training, so compare the
    # parameters the resumed optimizer state and target net produced
    for a, b in zip(resumed.devices, straight.devices):
        np.testing.assert_array_equal(a["store"].flat, b["store"].flat)
        np.testing.assert_array_equal(a["learner"].target_store.flat,
                                      b["learner"].target_store.flat)


@pytest.mark.parametrize("make_doc,seed", [(tiny_supervised_doc, 7), (tiny_rl_doc, 3)])
def test_checkpoint_at_the_start_and_the_end_equals_a_fresh_run(tmp_path, make_doc, seed):
    config = parse_config(make_doc())
    straight = make_run(config, seed).run()
    for at in (0, make_run(config, seed).end):
        path = tmp_path / f"{at}.ckpt"
        make_run(config, seed).run(checkpoint_at=at, path=path)
        assert load_run_checkpoint(config, seed, path).run() == straight


def test_checkpoint_before_the_resumed_clock_rejected(tmp_path):
    config = parse_config(tiny_supervised_doc())
    make_run(config, 7).run(checkpoint_at=2, path=tmp_path / "run.ckpt")
    resumed = load_run_checkpoint(config, 7, tmp_path / "run.ckpt")
    with pytest.raises(ValueError, match="the run is at 2"):
        resumed.run(checkpoint_at=1, path=tmp_path / "early.ckpt")


def test_checkpoint_topology_mismatch_rejected(tmp_path):
    config = parse_config(tiny_supervised_doc())
    run = make_run(config, 7)
    path = tmp_path / "x.ckpt"
    save_run_checkpoint(run, path)
    other_doc = tiny_supervised_doc()
    other_doc["topology"]["stem"][0]["units"] = 9
    other = parse_config(other_doc)
    with pytest.raises(CheckpointError, match="different topology"):
        load_run_checkpoint(other, 7, path)


@pytest.mark.parametrize("path,value", [(("coordinator", "weighting"), "uniform-sum"),
                                        (("data", "class_separation"), 0.5),
                                        (("supervised", "round_samples"), 16)])
def test_checkpoint_of_another_config_rejected(tmp_path, path, value):
    path_ckpt = tmp_path / "run.ckpt"
    make_run(parse_config(tiny_supervised_doc()), 7).run(checkpoint_at=2, path=path_ckpt)
    other_doc = tiny_supervised_doc()
    _set(other_doc, path, value)
    with pytest.raises(CheckpointError, match="different topology or config"):
        load_run_checkpoint(parse_config(other_doc), 7, path_ckpt)


@pytest.mark.parametrize("make_doc,at,length,longer", [
    (tiny_supervised_doc, 2, ("supervised", "rounds"), 5),
    (tiny_rl_doc, 50, ("rl", "total_steps"), 200)])
def test_resume_with_a_longer_run_gives_the_longer_straight_run_files(
        tmp_path, make_doc, at, length, longer):
    doc = make_doc(seeds=(7, 8))
    run_experiment(parse_config(doc), tmp_path / "first", checkpoint_at=at)
    _set(doc, length, longer)
    config = parse_config(doc)
    run_experiment(config, tmp_path / "straight")
    run_experiment(config, tmp_path / "resumed", resume=tmp_path / "first")
    for name in OUTPUT_FILES:
        assert ((tmp_path / "resumed" / name).read_bytes()
                == (tmp_path / "straight" / name).read_bytes()), name


# the tiny docs to stop and resume, each with the last value of its clock
_RESUMED = {
    "supervised": (tiny_supervised_doc, 3),
    "rl": (lambda: _set(tiny_rl_doc(), ("rl", "total_steps"), 240), 240),
}


def _resumed_config(task, coordinator):
    make_doc, end = _RESUMED[task]
    config = parse_config(_set(make_doc(), ("coordinator", "mode"), coordinator))
    assert make_run(config, config.seeds[0]).end == end
    return config


def _output_files(config, out_dir, **kwargs):
    run_experiment(config, out_dir, **kwargs)
    return {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}


@functools.lru_cache(maxsize=None)
def _straight_run_files(task, coordinator):
    with tempfile.TemporaryDirectory() as tmp:
        return _output_files(_resumed_config(task, coordinator), Path(tmp))


@st.composite
def _stops(draw):
    """A tiny doc's task, its coordinator mode, and a clock value to stop at."""
    task = draw(st.sampled_from(sorted(_RESUMED)))
    coordinator = draw(st.sampled_from(["sync", "async"]))
    return task, coordinator, draw(st.integers(0, _RESUMED[task][1]))


def _at_every_supervised_round(test):
    for coordinator in ("sync", "async"):
        for at in range(_RESUMED["supervised"][1] + 1):
            test = example(stop=("supervised", coordinator, at))(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True)
@_at_every_supervised_round
@given(stop=_stops())
def test_resuming_at_any_clock_value_gives_the_files_of_a_run_never_stopped(stop):
    task, coordinator, at = stop
    config = _resumed_config(task, coordinator)
    with tempfile.TemporaryDirectory() as tmp:
        first, resumed = Path(tmp) / "first", Path(tmp) / "resumed"
        assert _output_files(config, first, checkpoint_at=at) == \
            _straight_run_files(task, coordinator)
        assert _output_files(config, resumed, resume=first) == \
            _straight_run_files(task, coordinator)


@pytest.mark.parametrize("make_doc", [tiny_supervised_doc, tiny_rl_doc])
def test_a_seeds_metrics_lines_do_not_depend_on_the_seeds_run_beside_it(tmp_path, make_doc):
    lines = []
    for seeds in ([3, 4], [4], [4, 5]):
        out = tmp_path / "-".join(map(str, seeds))
        run_experiment(parse_config(make_doc(seeds=seeds)), out)
        text = (out / "metrics.csv").read_text(encoding="utf-8")
        lines.append([line for line in text.splitlines() if line.startswith("4,")])
    assert lines[0] and lines[0] == lines[1] == lines[2]


def test_checkpoint_reference_is_validated_and_copied_in():
    config = parse_config(tiny_supervised_doc())
    run = make_run(config, 7)
    run.play_round()
    state = run.state_dict()
    fresh = make_run(config, 7)
    refs = [dev["endpoint"]["shared_ref"] for dev in state["devices"]]
    for k, ref in enumerate(refs):
        for bad in (np.zeros(ref.size + 1), np.zeros(ref.size - 1)):
            state["devices"][k]["endpoint"]["shared_ref"] = bad
            with pytest.raises(CheckpointError,
                               match=rf"device {k}'s shared_ref has shape \({bad.size},\)"):
                fresh.load_state_dict(state)
        state["devices"][k]["endpoint"]["shared_ref"] = ref
    theta = state["coordinator"]["theta"]
    state["coordinator"]["theta"] = theta[:-1]
    with pytest.raises(CheckpointError, match=rf"theta has shape \({theta.size - 1},\)"):
        fresh.load_state_dict(state)
    state["coordinator"]["theta"] = theta
    fresh.load_state_dict(state)
    for ref in refs:
        ref[:] = 99.0  # the run keeps its own copies
    for got, want in zip(fresh.coordinator.refs, run.coordinator.refs):
        np.testing.assert_array_equal(got, want)
    run.play_round()
    fresh.play_round()
    assert fresh.rows == run.rows


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_sync_checkpoint_references_must_agree(mode):
    doc = tiny_supervised_doc()
    doc["coordinator"]["mode"] = mode
    config = parse_config(doc)
    run = make_run(config, 7)
    run.play_round()
    state = run.state_dict()
    refs = [dev["endpoint"]["shared_ref"] for dev in state["devices"]]
    assert (refs[0] is refs[1]) == (mode == "sync")  # a shared reference is saved once
    other = refs[1].copy()
    other[-1] = np.nextafter(other[-1], np.inf)
    state["devices"][1]["endpoint"]["shared_ref"] = other
    fresh = make_run(config, 7)
    if mode == "sync":
        with pytest.raises(CheckpointError,
                           match=r"device 1's shared_ref differs from device 0's"):
            fresh.load_state_dict(state)
    else:  # each device has its own reference
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.coordinator.refs[1], other)


def test_isolated_checkpoint_holds_no_sync_state():
    run = make_run(parse_config(tiny_rl_doc("isolated")), 3)
    state = run.state_dict()
    assert run.coordinator is None and "coordinator" not in state
    assert all(set(dev) == {"learner"} for dev in state["devices"])


def test_corrupt_checkpoint_rejected(tmp_path):
    config = parse_config(tiny_supervised_doc())
    path = tmp_path / "c.ckpt"
    save_run_checkpoint(make_run(config, 7), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
        load_run_checkpoint(config, 7, path)


def test_version_1_checkpoint_rejected_by_version(tmp_path):
    config = parse_config(tiny_supervised_doc())
    path = tmp_path / "v1.ckpt"
    save_run_checkpoint(make_run(config, 7), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")  # the u32 version after the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checkpoint version 1, expected 2"):
        load_run_checkpoint(config, 7, path)


# -- metrics files -----------------------------------------------------------------

def test_csv_exact_header_and_roundtrip(tmp_path):
    rows = [MetricsRow(1, 2, "dev", "train", "loss", 0.5)]
    path = tmp_path / "m.csv"
    write_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "seed,round,device,phase,metric,value"
    assert len(text.splitlines()) == 2
    assert read_csv(path) == rows


@pytest.mark.parametrize("writer", [write_csv, write_aggregated_csv])
def test_failed_metrics_write_leaves_the_old_file_whole(tmp_path, monkeypatch, writer):
    path = tmp_path / "metrics.csv"
    writer([MetricsRow(1, t, "dev", "train", "loss", 0.5) for t in range(5)], path)
    old = path.read_bytes()
    calls = []

    def fmt(value):
        calls.append(value)
        if len(calls) == 4:
            raise OSError("disk full")
        return repr(float(value))

    monkeypatch.setattr(metrics, "_fmt", fmt)
    with pytest.raises(OSError, match="disk full"):
        writer([MetricsRow(2, t, "dev", "train", "loss", 1.5) for t in range(5)], path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["metrics.csv"]


def test_failed_checkpoint_write_leaves_the_old_checkpoint_whole(tmp_path):
    path = tmp_path / "run.ckpt"
    topo_hash = bytes(32)
    save_checkpoint(path, {"step": 1}, topo_hash)
    old = path.read_bytes()
    with pytest.raises(TypeError):  # the header is written, then the str hash fails
        save_checkpoint(path, {"step": 2}, "not bytes")
    assert path.read_bytes() == old
    assert load_checkpoint(path, topo_hash) == {"step": 1}
    assert os.listdir(tmp_path) == ["run.ckpt"]


def test_aggregation_order_statistics():
    rows = [MetricsRow(s, 1, "d", "test", "accuracy", v)
            for s, v in [(1, 1.0), (2, 2.0), (3, 9.0)]]
    agg = aggregate_rows(rows)
    assert agg == [{"round": 1, "device": "d", "phase": "test", "metric": "accuracy",
                    "median": 2.0, "min": 1.0, "max": 9.0}]


def test_aggregate_rows_matches_each_groups_own_numpy_calls_bit_for_bit():
    """3000 random tables, with +-0.0, NaN and +-inf among the values and
    groups of several sizes in one call."""
    rng = np.random.default_rng(0)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0])
    for _ in range(3000):
        groups, seeds = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        values = rng.standard_normal((groups, seeds))
        special = rng.random(values.shape) < 0.3
        values[special] = rng.choice(specials, size=int(special.sum()))
        rows = [MetricsRow(s, t, "d", "test", "accuracy", float(values[t, s]))
                for t in range(groups) for s in range(seeds)]
        rows.append(MetricsRow(0, groups, "d", "test", "accuracy", float(values[0, 0])))
        with np.errstate(invalid="ignore"):  # the median of +inf and -inf is NaN
            got = aggregate_rows(rows)
            want = [np.array([np.median(v), np.min(v), np.max(v)]).tobytes()
                    for v in [*values.tolist(), [values[0, 0]]]]
        assert [np.array([g["median"], g["min"], g["max"]]).tobytes() for g in got] == want


def test_aggregated_csv_matches_naive_recomputation(tmp_path):
    config = parse_config(tiny_supervised_doc(seeds=(7, 8, 9)))
    run_experiment(config, out_dir=tmp_path)
    raw = read_csv(tmp_path / "metrics.csv")
    agg_lines = (tmp_path / "metrics_agg.csv").read_text().splitlines()
    assert agg_lines[0] == "round,device,phase,metric,median,min,max"
    naive = {}
    for r in raw:
        naive.setdefault((r.round, r.device, r.phase, r.metric), []).append(r.value)
    for line in agg_lines[1:]:
        rnd, device, phase, metric, med, lo, hi = line.split(",")
        values = naive[(int(rnd), device, phase, metric)]
        assert float(med) == np.median(values)
        assert float(lo) == min(values) and float(hi) == max(values)


# -- describe and CLI -------------------------------------------------------------

def test_describe_reports_parameters_and_split():
    config = parse_config(tiny_supervised_doc())
    text = describe(config)
    assert "branch complex" in text and "branch lightweight" in text
    assert "shared" in text and "bytes/sync" in text


@pytest.mark.parametrize("width", [64, 32])
@pytest.mark.parametrize("mode", ["heterogeneous", "homogeneous", "isolated"])
@pytest.mark.parametrize("make_doc", [tiny_supervised_doc, tiny_rl_doc])
def test_describe_bytes_per_sync_are_each_devices_bytes_sent(make_doc, mode, width):
    """Every sync sends each device's shared block, ``shared_len`` reals of
    ``real_width`` bits, and nothing in isolated mode, as ``describe`` says."""
    doc = make_doc(mode)
    doc["real_width"] = width
    config = parse_config(doc)
    described = dict(re.findall(r"^device (\S+) .*\| bytes/sync ([\d,]+)$",
                                describe(config), re.MULTILINE))
    assert sorted(described) == sorted(d.id for d in config.devices)
    syncs = (config.supervised.rounds if config.task == "supervised"
             else config.rl.total_steps // config.rl.sync_period)
    rows = make_run(config, config.seeds[0]).run()
    for dev_cfg in config.devices:
        shared = build_device_network(config, dev_cfg).partition.shared_len
        nbytes = 0 if mode == "isolated" else shared * width // 8
        assert described[dev_cfg.id] == f"{nbytes:,}"
        sent = [r.value for r in rows if r.metric == "bytes_sent" and r.device == dev_cfg.id]
        assert sent == [float(nbytes)] * syncs, dev_cfg.id


def test_cli_describe_and_run_and_aggregate(tmp_path, capsys):
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(tiny_supervised_doc()))
    assert cli_main(["describe", str(conf_path)]) == 0
    out = capsys.readouterr().out
    assert "branch complex" in out

    assert cli_main(["run", str(conf_path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()

    assert cli_main(["aggregate", str(tmp_path / "out" / "metrics.csv"),
                     "--out", str(tmp_path / "agg.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "agg.csv").read_text().splitlines()[0] == \
        "round,device,phase,metric,median,min,max"


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("make_doc,seeds,at", [(tiny_supervised_doc, (7, 8), 2),
                                               (tiny_rl_doc, (3, 4), 50)])
def test_cli_checkpoint_and_resume_give_the_straight_run_files(
        tmp_path, monkeypatch, capsys, make_doc, seeds, at, cpus):
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(make_doc(seeds=seeds)))
    _usable_cpus(monkeypatch, cpus)
    first, resumed, straight = (str(tmp_path / name) for name in ("first", "resumed",
                                                                  "straight"))
    assert cli_main(["run", str(conf_path), "--out", straight]) == 0
    assert cli_main(["run", str(conf_path), "--checkpoint-at", str(at),
                     "--out", first]) == 0
    assert sorted(os.listdir(tmp_path / "first" / "checkpoints")) == [
        f"seed-{s}.ckpt" for s in seeds]
    assert cli_main(["run", str(conf_path), "--resume", first, "--out", resumed]) == 0
    capsys.readouterr()
    for name in OUTPUT_FILES:
        want = (tmp_path / "straight" / name).read_bytes()
        assert (tmp_path / "first" / name).read_bytes() == want, name
        assert (tmp_path / "resumed" / name).read_bytes() == want, name


@pytest.mark.parametrize("at", ["-1", "4"])
def test_cli_checkpoint_outside_the_run_rejected(tmp_path, capsys, at):
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(tiny_supervised_doc()))  # 3 rounds
    assert cli_main(["run", str(conf_path), "--checkpoint-at", at,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hetsim: error: cannot checkpoint at round {at}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_bad_config_and_foreign_checkpoint_are_errors_not_tracebacks(tmp_path, capsys):
    bad_doc = tiny_supervised_doc()
    bad_doc["supervised"]["rounds"] = 0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_doc))
    assert cli_main(["describe", str(bad_path)]) == 2
    assert capsys.readouterr().err.startswith("hetsim: error: supervised.rounds")
    assert cli_main(["run", str(bad_path), "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err.startswith("hetsim: error: supervised.rounds")

    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(tiny_supervised_doc()))
    assert cli_main(["run", str(conf_path), "--checkpoint-at", "2",
                     "--out", str(tmp_path / "first")]) == 0
    other_doc = tiny_supervised_doc()
    other_doc["coordinator"]["weighting"] = "uniform-sum"
    conf_path.write_text(json.dumps(other_doc))
    capsys.readouterr()
    assert cli_main(["run", str(conf_path), "--resume", str(tmp_path / "first"),
                     "--out", str(tmp_path / "resumed")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hetsim: error: checkpoint was written for a different topology")
    assert not (tmp_path / "resumed" / "metrics.csv").exists()

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"task": "supervised",')
    missing = tmp_path / "missing"
    for argv, message in [
            (["run", str(tmp_path / "absent.json")], "[Errno 2] No such file"),
            (["describe", str(malformed)], f"{malformed} is not a JSON document: "),
            (["run", str(conf_path), "--resume", str(missing),
              "--out", str(tmp_path / "resumed")], "[Errno 2] No such file"),
            (["aggregate", str(missing / "metrics.csv")], "[Errno 2] No such file")]:
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"hetsim: error: {message}"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("make_doc,clock", [(tiny_supervised_doc, r"seed 7, device {}, round 1"),
                                             (tiny_rl_doc, r"seed 3, device {}, step \d+")])
@pytest.mark.parametrize("diverging", [("powerful", "weak"), ("weak",)])
def test_cli_diverged_run_names_the_seed_device_and_clock(tmp_path, capsys, make_doc,
                                                          clock, diverging):
    doc = make_doc()
    for dev in doc["devices"]:
        if dev["id"] in diverging:
            dev["optimizer"]["learning_rate"] = 1e300
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the divergence
        assert cli_main(["run", str(conf_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.match(f"hetsim: error: {clock.format(diverging[0])}: non-finite values in "
                    "Dense output$", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("diverging", ["powerful", "weak"])
def test_cli_diverged_device_is_named_when_devices_step_one_at_a_time(
        tmp_path, capsys, monkeypatch, diverging):
    # every device is its own group: the weak one runs its chain without the
    # device axis, the powerful one on a one-row stack
    monkeypatch.setattr(DeviceStack, "GROUP_BYTES", 1)
    doc = tiny_supervised_doc()
    for dev in doc["devices"]:
        if dev["id"] == diverging:
            dev["optimizer"]["learning_rate"] = 1e300
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the divergence
        assert cli_main(["run", str(conf_path), "--out", str(tmp_path / "out")]) == 2
    assert re.match(f"hetsim: error: seed 7, device {diverging}, round 1: non-finite values "
                    "in Dense output$", capsys.readouterr().err)


def test_cli_bad_cifar_file_is_an_error_not_a_traceback(tmp_path, capsys):
    doc = _tiny_cifar_doc(tmp_path)
    (tmp_path / "test_path.bin").write_bytes(b"")
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(doc))
    assert cli_main(["run", str(conf_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hetsim: error: data.test_path: {tmp_path / 'test_path.bin'} "
                          "holds no CIFAR-10 records"), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("", "empty file, expected the header"),
    ("seed,round,device,metric,value\n", ":1: header 'seed,round,device,metric,value'"),
    ("seed,round,device,phase,metric,value\n1,1,a,train,loss,0.5\n1,2,a\n",
     ":3: 3 fields, expected 6"),
    ("seed,round,device,phase,metric,value\n1,x,a,train,loss,0.5\n",
     ":2: invalid literal for int()"),
])
def test_cli_malformed_metrics_csv_is_an_error_not_a_traceback(tmp_path, capsys, text,
                                                               message):
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    assert cli_main(["aggregate", str(path), "--out", str(tmp_path / "agg.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hetsim: error: {path}"), err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "agg.csv").exists()


def test_shipped_example_configs_parse():
    for name in ("rl_gridworld", "supervised_synthetic", "atari_topologies",
                 "supervised_cifar10"):
        config = load_config(f"configs/{name}.json")
        assert config.devices
        assert "bytes/sync" in describe(config)
