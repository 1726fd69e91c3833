"""The benchmark's workloads: configs and input files made from a seed.

Every workload is a config document in the repository's JSON schema. The
topology, devices and optimizers are copies of the shipped configs taken
when the benchmark was defined, so a later edit of ``configs/`` cannot
move the golden digests; only the round/step count and the seed list are
cut so that one pass over all seeds takes one to two seconds. The CIFAR-format
files are written here, byte by byte, never with hetsim's own writer.

A benchmark seed ``n`` selects pool entry ``n % POOL``; entry ``p`` runs
the experiment seeds ``[2p + 1, 2p + 2]`` and, for the CIFAR workload,
files drawn from ``p``. Golden digests exist for every pool entry.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 16
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 colour planes of 32x32 bytes

SUP_SYNTH_TOPOLOGY = {
    "input_shape": [16],
    "stem": [{"kind": "dense", "units": 16}, {"kind": "relu"}],
    "branches": {
        "complex": [{"kind": "dense", "units": 32}, {"kind": "relu"},
                    {"kind": "dense", "units": 10}],
        "lightweight": [{"kind": "dense", "units": 3}, {"kind": "relu"},
                        {"kind": "dense", "units": 10}, {"kind": "softmax"}],
    },
    "cascade": {"complex_branch": "complex", "lightweight_branch": "lightweight",
                "branch_dropout_p": 0.5},
}

RL_TOPOLOGY = {
    "input_shape": [25],
    "stem": [{"kind": "dense", "units": 64}, {"kind": "relu"}],
    "branches": {
        "complex": [{"kind": "dense", "units": 64}, {"kind": "relu"},
                    {"kind": "dense", "units": 4}],
        "lightweight": [{"kind": "dense", "units": 8}, {"kind": "relu"},
                        {"kind": "dense", "units": 4}],
    },
}

CIFAR_TOPOLOGY = {
    "input_shape": [32, 32, 3],
    "stem": [
        {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": 32}, {"kind": "relu"},
        {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": 32}, {"kind": "relu"},
        {"kind": "maxpool2d", "ph": 2, "pw": 2}, {"kind": "dropout", "p": 0.25},
    ],
    "branches": {
        "complex": [
            {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": 64}, {"kind": "relu"},
            {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": 64}, {"kind": "relu"},
            {"kind": "maxpool2d", "ph": 2, "pw": 2}, {"kind": "dropout", "p": 0.25},
            {"kind": "flatten"}, {"kind": "dense", "units": 512}, {"kind": "relu"},
            {"kind": "dropout", "p": 0.25}, {"kind": "dense", "units": 10},
        ],
        "lightweight": [
            {"kind": "maxpool2d", "ph": 2, "pw": 2}, {"kind": "dropout", "p": 0.5},
            {"kind": "flatten"}, {"kind": "dense", "units": 10}, {"kind": "softmax"},
        ],
    },
    "cascade": {"complex_branch": "complex", "lightweight_branch": "lightweight",
                "branch_dropout_p": 0.5},
}

FEDAVG_TOPOLOGY = {
    "input_shape": [16],
    "stem": [{"kind": "dense", "units": 256}, {"kind": "relu"},
             {"kind": "dense", "units": 256}, {"kind": "relu"}],
    "branches": {"head": [{"kind": "dense", "units": 10}, {"kind": "softmax"}]},
}

GRIDWORLD = {"type": "gridworld", "width": 5, "height": 5, "start": [0, 0],
             "goal": [4, 4], "max_episode_steps": 50}

# Shapes for the nn microbenchmarks of layers no dense workload runs: the
# CIFAR stem's second conv and its pool, and the Atari 8x8 stride-4 conv
# from configs/atari_topologies.json.
CONV_MICRO = {"input_shape": [30, 30, 32],
              "layer": {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": 32}}
MAXPOOL_MICRO = {"input_shape": [28, 28, 32], "layer": {"kind": "maxpool2d", "ph": 2, "pw": 2}}
CONV_S4_MICRO = {"input_shape": [84, 84, 4],
                 "layer": {"kind": "conv2d", "kh": 8, "kw": 8, "out_channels": 32, "stride": 4}}
MICRO_BATCH = 32


def _supervised_doc(topology, devices, rounds, round_samples, minibatch, data, seeds,
                    mode="heterogeneous", scheme="cascaded"):
    return {
        "task": "supervised", "mode": mode, "scheme": scheme, "seeds": seeds,
        "topology": topology, "devices": devices,
        "coordinator": {"mode": "sync", "weighting": "data-proportional"},
        "supervised": {"rounds": rounds, "round_samples": round_samples,
                       "minibatch_size": minibatch},
        "data": data,
    }


def _two_devices(algorithm, lr, **extra):
    opt = {"algorithm": algorithm, "learning_rate": lr, **extra}
    return [
        {"id": "powerful", "branch": "complex", "data_fraction": 0.8, "optimizer": dict(opt)},
        {"id": "weak", "branch": "lightweight", "data_fraction": 0.2, "optimizer": dict(opt)},
    ]


def _synthetic(per_class, test_per_class):
    return {"source": "synthetic", "num_classes": 10, "per_class": per_class, "dims": 16,
            "class_separation": 3.0, "test_per_class": test_per_class}


def sup_synth_config(seeds, inputs: Path, probe: bool) -> dict:
    return _supervised_doc(SUP_SYNTH_TOPOLOGY, _two_devices("rmsprop", 0.001),
                           rounds=2 if probe else 10, round_samples=2000, minibatch=32,
                           data=_synthetic(250, 100), seeds=seeds)


def rl_grid_config(seeds, inputs: Path, probe: bool) -> dict:
    opt = {"algorithm": "adam", "learning_rate": 0.001}
    return {
        "task": "rl", "mode": "heterogeneous", "scheme": "share-first", "seeds": seeds,
        "topology": RL_TOPOLOGY,
        "devices": [
            {"id": "powerful", "branch": "complex", "replay_capacity": 4000, "rate": 1.0,
             "optimizer": dict(opt)},
            {"id": "weak", "branch": "lightweight", "replay_capacity": 400, "rate": 0.5,
             "optimizer": dict(opt)},
        ],
        "coordinator": {"mode": "sync", "weighting": "data-proportional"},
        "rl": {"total_steps": 250 if probe else 500, "sync_period": 250,
               "epsilon_decay_steps": 2000, "test_episodes": 4},
        "environment": GRIDWORLD,
    }


def sup_cifar_config(seeds, inputs: Path, probe: bool) -> dict:
    train, test = inputs / "cifar_train.bin", inputs / "cifar_test.bin"
    return _supervised_doc(CIFAR_TOPOLOGY,
                           _two_devices("rmsprop", 0.0001, decay=1e-06),
                           rounds=1 if probe else 2, round_samples=4 if probe else 16,
                           minibatch=4 if probe else 16,
                           data={"source": "cifar10", "train_path": str(train),
                                 "test_path": str(test)}, seeds=seeds)


def fedavg_config(seeds, inputs: Path, probe: bool) -> dict:
    devices = [{"id": f"d{i}", "branch": "head", "data_fraction": 0.125,
                "optimizer": {"algorithm": "sgd", "learning_rate": 0.05}} for i in range(8)]
    return _supervised_doc(FEDAVG_TOPOLOGY, devices, rounds=2 if probe else 15,
                           round_samples=32, minibatch=32, data=_synthetic(200, 100),
                           seeds=seeds, mode="homogeneous", scheme="share-first")


def write_cifar_files(inputs: Path, pool: int, n_train: int, n_test: int) -> None:
    """CIFAR-10 binary records: a label byte, then three 1024-byte planes.

    Each class has its own random mean image in [0, 128); a record is its
    class mean plus uniform noise in [0, 128), so the classes are learnable.
    """
    rng = np.random.default_rng([pool, 0xC1FA])
    means = rng.integers(0, 128, size=(10, 3072), dtype=np.uint8)
    for name, n in (("cifar_train.bin", n_train), ("cifar_test.bin", n_test)):
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = labels
        records[:, 1:] = means[labels] + rng.integers(0, 128, size=(n, 3072), dtype=np.uint8)
        records.tofile(inputs / name)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: object  # (seeds, inputs dir, probe) -> config document
    # (input shape, layers) of a dense chain from the workload's network,
    # timed by the nn.dense, nn.params and nn.chain_overhead microbenchmarks
    chain: tuple
    cifar_records: tuple[int, int] | None = None  # (train, test) files to write

    def seeds(self, pool: int) -> list[int]:
        return [2 * pool + 1, 2 * pool + 2]

    def prepare(self, seed: int, inputs: Path, probe: bool = False) -> Path:
        """Write this workload's inputs for a benchmark seed; returns the config path."""
        pool = seed % POOL
        inputs.mkdir(parents=True, exist_ok=True)
        if self.cifar_records is not None:
            n_train, n_test = (24, 8) if probe else self.cifar_records
            write_cifar_files(inputs, pool, n_train, n_test)
        seeds = self.seeds(pool)[:1] if probe else self.seeds(pool)
        path = inputs / "config.json"
        path.write_text(json.dumps(self.config(seeds, inputs, probe), indent=1) + "\n")
        return path


WORKLOADS = {w.name: w for w in (
    Workload(
        "sup-synth-cascade",
        "Shipped synthetic cascade (2 devices, RMSProp): tiny dense nets, so time goes to "
        "per-step Python bookkeeping in nn and learners; sync is ~0% of the time.",
        sup_synth_config,
        chain=([16], SUP_SYNTH_TOPOLOGY["stem"] + SUP_SYNTH_TOPOLOGY["branches"]["complex"])),
    Workload(
        "rl-grid-ddql",
        "Shipped gridworld DDQL (Adam, 10:1 replay, half-rate weak device): batch-1 acting "
        "plus batch-32 replay updates, replay sampling, gridworld and test epochs.",
        rl_grid_config,
        chain=([25], RL_TOPOLOGY["stem"] + RL_TOPOLOGY["branches"]["complex"])),
    Workload(
        "sup-cifar-conv",
        "Shipped CIFAR-10 conv cascade on generated CIFAR-format files: conv2d/maxpool "
        "kernels take most of a round, so kernel changes show here and not elsewhere.",
        sup_cifar_config,
        chain=([5, 5, 64], CIFAR_TOPOLOGY["branches"]["complex"][6:]),
        cifar_records=(100, 16)),
    Workload(
        "fedavg-wide-8dev",
        "Homogeneous federated averaging, 8 shards, 16-256-256-10 dense net (72.7k shared "
        "reals), SGD: the only workload where protocol sync carries load.",
        fedavg_config,
        chain=([16], FEDAVG_TOPOLOGY["stem"] + FEDAVG_TOPOLOGY["branches"]["head"])),
)}


def expected_steps(doc: dict) -> int:
    """Optimizer minibatch steps one pass over the config's seeds must take."""
    seeds = len(doc["seeds"])
    if doc["task"] == "supervised":
        sup = doc["supervised"]
        per_round = math.ceil(sup["round_samples"] / sup["minibatch_size"])
        return seeds * len(doc["devices"]) * sup["rounds"] * per_round
    rl = doc["rl"]
    batch = rl.get("batch_size", 32)
    total = 0
    for dev in doc["devices"]:
        # a device of rate v acts floor(T * v) times in T global steps, and
        # trains once per interaction from the one that fills its warmup
        interactions = math.floor(rl["total_steps"] * dev.get("rate", 1.0))
        warmup = rl.get("warmup_steps")
        if warmup is None:
            warmup = max(batch, dev["replay_capacity"] // 20)
        warmup = max(warmup, batch)
        if dev["replay_capacity"] >= warmup:
            total += max(0, interactions - warmup + 1)
    return seeds * total
