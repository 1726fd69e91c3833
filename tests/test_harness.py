"""Harness behaviour: determinism, run modes, byte accounting, checkpoints,
CSV formats, seeds in worker processes, and the CLI surface."""
import json
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from hetsim import metrics
from hetsim.cli import main as cli_main
from hetsim.config import ConfigError, load_config, parse_config
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
from hetsim.metrics import (
    MetricsRow,
    aggregate_rows,
    read_csv,
    sliding_window,
    write_aggregated_csv,
    write_csv,
)
from hetsim.protocol import SyncStallError


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
])
def test_bad_run_lengths_and_rates_rejected(make_doc, path, value):
    with pytest.raises(ConfigError, match=path[-1]):
        parse_config(_set(make_doc(), path, value))


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
        shared_len = dev["endpoint"].shared_len
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
    assert a["endpoint"].shared_len == a["net"].count_params()
    np.testing.assert_array_equal(a["store"].flat, b["store"].flat)


def test_seed_offset_shifts_seeds(tmp_path):
    config = parse_config(tiny_supervised_doc(seeds=(7,)))
    summary = run_experiment(config, out_dir=tmp_path, seed_offset=10)
    assert summary["seeds"] == [17]
    rows = read_csv(tmp_path / "metrics.csv")
    assert {r.seed for r in rows} == {17}


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
    (SupervisedRun, tiny_supervised_doc, (7, 8, 9), SyncStallError),
    (RlRun, tiny_rl_doc, (3, 4, 5), ConfigError),
])
def test_worker_exception_reraised_with_its_type_and_message(
        monkeypatch, run_cls, make_doc, seeds, error):
    # patched before the call, so the forked worker runs the patched method
    caller = os.getpid()
    real_run = run_cls.run

    def run(self):
        if os.getpid() != caller:
            raise error(f"seed {self.seed} failed in a worker")
        return real_run(self)

    monkeypatch.setattr(run_cls, "run", run)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(error, match=f"seed {seeds[1]} failed in a worker"):
        run_experiment(parse_config(make_doc(seeds=seeds)))


def test_worker_that_dies_is_an_error_not_missing_rows(tmp_path, monkeypatch):
    caller = os.getpid()
    real_run = SupervisedRun.run

    def run(self):
        if os.getpid() != caller:
            os._exit(3)
        return real_run(self)

    monkeypatch.setattr(SupervisedRun, "run", run)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(parse_config(tiny_supervised_doc(seeds=(7, 8))), out_dir=tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


# -- checkpointing ----------------------------------------------------------------

def _rows_after(rows, cutoff):
    return [r for r in rows if r.round > cutoff]


def test_supervised_checkpoint_resume_bit_identical(tmp_path):
    doc = tiny_supervised_doc()
    doc["supervised"]["rounds"] = 6
    config = parse_config(doc)

    straight = make_run(config, 7)
    straight_rows = straight.run()

    partial = make_run(config, 7)
    while partial.round < 3:
        partial.play_round()
    path = tmp_path / "run.ckpt"
    save_run_checkpoint(partial, path)

    resumed = load_run_checkpoint(config, 7, path)
    resumed_rows = resumed.run()
    assert resumed_rows == _rows_after(straight_rows, 3)
    for a, b in zip(resumed.devices, straight.devices):
        np.testing.assert_array_equal(a["store"].flat, b["store"].flat)


def test_rl_checkpoint_resume_bit_identical(tmp_path):
    config = parse_config(tiny_rl_doc())
    straight = make_run(config, 3)
    straight_rows = straight.run()

    # between sync events, so the target net differs from the online net
    partial = make_run(config, 3)
    while partial.step < 50:
        partial.play_step()
    path = tmp_path / "run.ckpt"
    save_run_checkpoint(partial, path)
    resumed = load_run_checkpoint(config, 3, path)
    resumed_rows = resumed.run()
    assert resumed_rows == _rows_after(straight_rows, 50)
    # the rows of this short run barely depend on training, so compare the
    # parameters the resumed optimizer state and target net produced
    for a, b in zip(resumed.devices, straight.devices):
        np.testing.assert_array_equal(a["store"].flat, b["store"].flat)
        np.testing.assert_array_equal(a["learner"].target_store.flat,
                                      b["learner"].target_store.flat)


def test_checkpoint_at_round_zero_equals_fresh_run(tmp_path):
    config = parse_config(tiny_supervised_doc())
    fresh = make_run(config, 7)
    path = tmp_path / "zero.ckpt"
    save_run_checkpoint(fresh, path)
    resumed = load_run_checkpoint(config, 7, path)
    assert resumed.run() == make_run(config, 7).run()


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


def test_corrupt_checkpoint_rejected(tmp_path):
    config = parse_config(tiny_supervised_doc())
    path = tmp_path / "c.ckpt"
    save_run_checkpoint(make_run(config, 7), path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
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


def test_sliding_window_constant_fixed_point():
    series = np.full(100, 3.25)
    np.testing.assert_array_equal(sliding_window(series, 25), series)


def test_sliding_window_trailing_mean():
    out = sliding_window([0.0, 1.0, 2.0, 3.0], 2)
    np.testing.assert_allclose(out, [0.0, 0.5, 1.5, 2.5])


# -- describe and CLI -------------------------------------------------------------

def test_describe_reports_parameters_and_split():
    config = parse_config(tiny_supervised_doc())
    text = describe(config)
    assert "branch complex" in text and "branch lightweight" in text
    assert "shared" in text and "bytes/sync" in text


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


def test_cli_checkpoint_roundtrip(tmp_path, capsys):
    doc = tiny_supervised_doc()
    doc["supervised"]["rounds"] = 4
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(doc))
    ckpt = tmp_path / "run.ckpt"
    assert cli_main(["run", str(conf_path), "--checkpoint", str(ckpt),
                     "--checkpoint-round", "2", "--out", str(tmp_path / "o1")]) == 0
    capsys.readouterr()
    assert ckpt.exists()
    assert cli_main(["run", str(conf_path), "--resume", str(ckpt),
                     "--out", str(tmp_path / "o2")]) == 0
    capsys.readouterr()
    resumed = read_csv(tmp_path / "o2" / "metrics.csv")
    config = parse_config(doc)
    straight = make_run(config, 7).run()
    assert resumed == [r for r in straight if r.round > 2]


def test_shipped_example_configs_parse():
    for name in ("rl_gridworld", "supervised_synthetic", "atari_topologies",
                 "supervised_cifar10"):
        config = load_config(f"configs/{name}.json")
        assert config.devices
        assert "bytes/sync" in describe(config)
