"""Experiment configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere so typos fail loudly. See the
``configs/`` directory for one full example per experiment family.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn.layers import Layer, layer_from_dict
from .nn.optim import make_optimizer
from .protocol import COORDINATOR_MODES, WEIGHTINGS
from .topology import BranchedTopology, build_cascaded, build_share_first

TASKS = ("supervised", "rl")
MODES = ("isolated", "homogeneous", "heterogeneous")
SCHEMES = ("share-first", "cascaded")


class ConfigError(ValueError):
    pass


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _whole(value, what: str, minimum: int) -> int:
    """A JSON integer (or integral float) of at least ``minimum``; no bools."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value}")
    return int(value)


def _require_count(d: dict, key: str, where: str, default: int | None = None,
                   minimum: int = 1) -> int:
    """A whole number of at least ``minimum``; required unless it has a default."""
    value = _require(d, key, where) if default is None else d.get(key, default)
    return _whole(value, f"{where}.{key}", minimum)


def _real(value, what: str) -> float:
    """A finite JSON number; no bools."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _parse_layers(specs, where: str) -> tuple[Layer, ...]:
    if not isinstance(specs, list):
        raise ConfigError(f"{where}: expected a list of layer dicts")
    try:
        return tuple(layer_from_dict(s) for s in specs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class DeviceConfig:
    id: str
    branch: str
    data_fraction: float | None = None
    rate: float = 1.0
    replay_capacity: int | None = None
    optimizer: dict = field(default_factory=lambda: {"algorithm": "sgd",
                                                     "learning_rate": 0.01})


@dataclass(frozen=True)
class CoordinatorConfig:
    mode: str = "sync"
    weighting: str = "data-proportional"


@dataclass(frozen=True)
class SupervisedConfig:
    rounds: int
    round_samples: int = 2000
    minibatch_size: int = 32


@dataclass(frozen=True)
class RlConfig:
    total_steps: int
    sync_period: int
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_steps: int = 1_000_000
    epsilon_test: float = 0.02
    batch_size: int = 32
    warmup_steps: int | None = None  # default: replay capacity / 20 per device
    test_episodes: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    mode: str
    scheme: str
    seeds: tuple[int, ...]
    topology: BranchedTopology
    devices: tuple[DeviceConfig, ...]
    coordinator: CoordinatorConfig
    supervised: SupervisedConfig | None
    rl: RlConfig | None
    data: dict | None
    environment: dict | None
    real_width: int = 64
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def dtype(self):
        return np.float64 if self.real_width == 64 else np.float32

    def device(self, device_id: str) -> DeviceConfig:
        for d in self.devices:
            if d.id == device_id:
                return d
        raise KeyError(device_id)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, {"task", "mode", "scheme", "seeds", "topology", "devices",
                      "coordinator", "supervised", "rl", "data", "environment",
                      "real_width"}, "config")
    task = _require(doc, "task", "config")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    mode = _require(doc, "mode", "config")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    scheme = _require(doc, "scheme", "config")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    real_width = doc.get("real_width", 64)
    if real_width not in (32, 64):
        raise ConfigError("real_width must be 32 or 64")
    seeds = _require(doc, "seeds", "config")
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ConfigError("seeds must be a non-empty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")

    topo_doc = _require(doc, "topology", "config")
    _check_keys(topo_doc, {"input_shape", "stem", "branches", "cascade"}, "topology")
    shape_doc = _require(topo_doc, "input_shape", "topology")
    if not isinstance(shape_doc, list) or not shape_doc:
        raise ConfigError(f"topology.input_shape must be a non-empty list, got {shape_doc!r}")
    input_shape = tuple(_whole(n, "topology.input_shape", 1) for n in shape_doc)
    stem = _parse_layers(_require(topo_doc, "stem", "topology"), "topology.stem")
    branches_doc = _require(topo_doc, "branches", "topology")
    if not isinstance(branches_doc, dict) or not branches_doc:
        raise ConfigError("topology.branches must be a non-empty object")
    branches = {bid: _parse_layers(spec, f"topology.branches.{bid}")
                for bid, spec in branches_doc.items()}

    if scheme == "cascaded":
        casc = _require(topo_doc, "cascade", "topology")
        _check_keys(casc, {"complex_branch", "lightweight_branch", "branch_dropout_p"},
                    "topology.cascade")
        cb = _require(casc, "complex_branch", "topology.cascade")
        lb = _require(casc, "lightweight_branch", "topology.cascade")
        for b in (cb, lb):
            if b not in branches:
                raise ConfigError(f"topology.cascade references unknown branch {b!r}")
        branch_dropout_p = _real(casc.get("branch_dropout_p", 0.5),
                                 "topology.cascade.branch_dropout_p")
    elif topo_doc.get("cascade") is not None:
        raise ConfigError("topology.cascade is only valid with scheme 'cascaded'")
    try:
        if scheme == "cascaded":
            topology = build_cascaded(stem, branches[cb], branches[lb], branch_dropout_p,
                                      input_shape, complex_id=cb, lightweight_id=lb)
        else:
            topology = build_share_first(stem, branches, input_shape)
    except ValueError as exc:  # a ShapeError, or the branch dropout range
        raise ConfigError(f"topology: {exc}") from exc

    devices_doc = _require(doc, "devices", "config")
    if not isinstance(devices_doc, list) or not devices_doc:
        raise ConfigError("devices must be a non-empty list")
    devices = []
    for i, dd in enumerate(devices_doc):
        where = f"devices[{i}]"
        _check_keys(dd, {"id", "branch", "data_fraction", "rate", "replay_capacity",
                         "optimizer"}, where)
        device_id = str(_require(dd, "id", where))
        branch = _require(dd, "branch", where)
        if branch not in branches:
            raise ConfigError(f"{where}: unknown branch {branch!r}")
        if branch not in topology.branches:
            raise ConfigError(f"{where} ({device_id!r}): branch {branch!r} is not one of "
                              f"the cascade's branches {sorted(topology.branches)}")
        optimizer = dd.get("optimizer", {"algorithm": "sgd", "learning_rate": 0.01})
        _check_keys(optimizer, {"algorithm", "learning_rate", "decay", "beta1",
                                "beta2", "eps", "rho"}, f"{where}.optimizer")
        try:
            make_optimizer(optimizer)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.optimizer: {exc}") from exc
        rate = _real(dd.get("rate", 1.0), f"{where}.rate")
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"{where}: rate must be in (0, 1], got {rate}")
        fraction = dd.get("data_fraction")
        if fraction is not None:
            fraction = _real(fraction, f"{where}.data_fraction")
        devices.append(DeviceConfig(
            id=device_id, branch=branch, data_fraction=fraction, rate=rate,
            replay_capacity=(_require_count(dd, "replay_capacity", where)
                             if task == "rl" else dd.get("replay_capacity")),
            optimizer=dict(optimizer)))
    if len({d.id for d in devices}) != len(devices):
        raise ConfigError("device ids must be unique")

    coord_doc = doc.get("coordinator", {})
    _check_keys(coord_doc, {"mode", "weighting"}, "coordinator")
    coordinator = CoordinatorConfig(coord_doc.get("mode", "sync"),
                                    coord_doc.get("weighting", "data-proportional"))
    if coordinator.mode not in COORDINATOR_MODES:
        raise ConfigError(f"coordinator.mode must be one of {COORDINATOR_MODES}, "
                          f"got {coordinator.mode!r}")
    if coordinator.weighting not in WEIGHTINGS:
        raise ConfigError(f"coordinator.weighting must be one of {WEIGHTINGS}, "
                          f"got {coordinator.weighting!r}")

    supervised = rl = None
    if task == "supervised":
        sup_doc = _require(doc, "supervised", "config")
        _check_keys(sup_doc, {"rounds", "round_samples", "minibatch_size"}, "supervised")
        supervised = SupervisedConfig(
            rounds=_require_count(sup_doc, "rounds", "supervised"),
            round_samples=_require_count(sup_doc, "round_samples", "supervised", 2000),
            minibatch_size=_require_count(sup_doc, "minibatch_size", "supervised", 32))
        data_doc = _require(doc, "data", "config")
        source = _require(data_doc, "source", "data")
        if source == "synthetic":
            _check_keys(data_doc, {"source", "num_classes", "per_class", "dims",
                                   "class_separation", "test_per_class"}, "data")
        elif source == "cifar10":
            _check_keys(data_doc, {"source", "train_path", "test_path"}, "data")
        else:
            raise ConfigError(f"data.source must be synthetic or cifar10, got {source!r}")
        fractions = [d.data_fraction for d in devices]
        if any(f is None for f in fractions):
            raise ConfigError("supervised runs need data_fraction on every device")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"data fractions sum to {sum(fractions)}, expected 1")
    else:
        rl_doc = _require(doc, "rl", "config")
        _check_keys(rl_doc, {"total_steps", "sync_period", "gamma", "epsilon_start",
                             "epsilon_end", "epsilon_decay_steps", "epsilon_test",
                             "batch_size", "warmup_steps", "test_episodes"}, "rl")
        warmup = rl_doc.get("warmup_steps")
        rl = RlConfig(
            total_steps=_require_count(rl_doc, "total_steps", "rl"),
            sync_period=_require_count(rl_doc, "sync_period", "rl"),
            gamma=_real(rl_doc.get("gamma", 0.99), "rl.gamma"),
            epsilon_start=_real(rl_doc.get("epsilon_start", 1.0), "rl.epsilon_start"),
            epsilon_end=_real(rl_doc.get("epsilon_end", 0.1), "rl.epsilon_end"),
            epsilon_decay_steps=_require_count(rl_doc, "epsilon_decay_steps", "rl",
                                               1_000_000, minimum=0),
            epsilon_test=_real(rl_doc.get("epsilon_test", 0.02), "rl.epsilon_test"),
            batch_size=_require_count(rl_doc, "batch_size", "rl", 32),
            warmup_steps=None if warmup is None else _whole(warmup, "rl.warmup_steps", 0),
            test_episodes=_require_count(rl_doc, "test_episodes", "rl", 1))
        if not 0.0 < rl.gamma < 1.0:
            raise ConfigError(f"rl.gamma must be in (0, 1), got {rl.gamma}")
        for key in ("epsilon_start", "epsilon_end", "epsilon_test"):
            if not 0.0 <= getattr(rl, key) <= 1.0:
                raise ConfigError(f"rl.{key} must be in [0, 1], got {getattr(rl, key)}")
        env_doc = _require(doc, "environment", "config")
        _check_keys(env_doc, {"type", "width", "height", "start", "goal", "pits",
                              "step_penalty", "goal_reward", "pit_reward",
                              "max_episode_steps", "slip"}, "environment")
        if env_doc.get("type") != "gridworld":
            raise ConfigError("environment.type must be 'gridworld'")

    return ExperimentConfig(
        task=task, mode=mode, scheme=scheme, seeds=tuple(seeds), topology=topology,
        devices=tuple(devices), coordinator=coordinator, supervised=supervised,
        rl=rl, data=doc.get("data"), environment=doc.get("environment"),
        real_width=real_width, raw=doc)


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))
