"""Experiment configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere so typos fail loudly. See the
``configs/`` directory for one full example per experiment family.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .gridworld import GridWorld
from .nn.layers import Layer, layer_from_dict
from .nn.optim import make_optimizer
from .protocol import COORDINATOR_MODES, WEIGHTINGS
from .topology import BranchedTopology, build_cascaded, build_share_first

TASKS = ("supervised", "rl")
# per task: the config sections and the device keys that only it reads
TASK_SECTIONS = {"supervised": {"supervised", "data"}, "rl": {"rl", "environment"}}
TASK_DEVICE_KEYS = {"supervised": {"data_fraction"}, "rl": {"rate", "replay_capacity"}}
OPTIMIZER_REALS = ("learning_rate", "decay", "beta1", "beta2", "eps", "rho")
MODES = ("isolated", "homogeneous", "heterogeneous")
SCHEMES = ("share-first", "cascaded")


class ConfigError(ValueError):
    pass


def _object(value, where: str) -> dict:
    """A JSON object; any other value is a ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


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


def _require_count(d: dict, key: str, where: str) -> int:
    """A required whole number of at least 1."""
    return _whole(_require(d, key, where), f"{where}.{key}", 1)


def _real(value, what: str) -> float:
    """A finite JSON number; no bools."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _cell(value, what: str) -> tuple[int, int]:
    """A grid cell: a list of two whole numbers, x then y."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be a list of two whole numbers, got {value!r}")
    return _whole(value[0], what, 0), _whole(value[1], what, 0)


def _fraction(value, what: str) -> float:
    """A real in (0, 1]."""
    value = _real(value, what)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{what} must be in (0, 1], got {value}")
    return value


def _parse_data(data_doc) -> dict:
    """The ``data`` section, with counts as ints and reals as floats."""
    data_doc = _object(data_doc, "data")
    source = _require(data_doc, "source", "data")
    if source == "synthetic":
        _check_keys(data_doc, {"source", "num_classes", "per_class", "dims",
                               "class_separation", "test_per_class"}, "data")
        data = {"source": source}
        for key in ("num_classes", "per_class", "dims"):
            data[key] = _require_count(data_doc, key, "data")
        data["class_separation"] = _real(_require(data_doc, "class_separation", "data"),
                                         "data.class_separation")
        if "test_per_class" in data_doc:
            data["test_per_class"] = _require_count(data_doc, "test_per_class", "data")
        if data["dims"] < 2 and data["num_classes"] > data["dims"]:  # means on a circle
            raise ConfigError("data.dims must be at least 2 when num_classes exceeds it")
        return data
    if source == "cifar10":
        _check_keys(data_doc, {"source", "train_path", "test_path"}, "data")
        for key in ("train_path", "test_path"):
            if not isinstance(_require(data_doc, key, "data"), str):
                raise ConfigError(f"data.{key} must be a path string")
        return dict(data_doc)
    raise ConfigError(f"data.source must be synthetic or cifar10, got {source!r}")


def _parse_environment(env_doc) -> dict:
    """The ``environment`` section, typed, and checked by the gridworld's own
    range rules; cells become tuples, ready to pass to :class:`GridWorld`."""
    env_doc = _object(env_doc, "environment")
    _check_keys(env_doc, {"type", "width", "height", "start", "goal", "pits",
                          "step_penalty", "goal_reward", "pit_reward",
                          "max_episode_steps", "slip"}, "environment")
    if env_doc.get("type") != "gridworld":
        raise ConfigError("environment.type must be 'gridworld'")
    env = {"type": "gridworld"}
    for key, value in env_doc.items():
        what = f"environment.{key}"
        if key in ("width", "height", "max_episode_steps"):
            env[key] = _whole(value, what, 1)
        elif key in ("step_penalty", "goal_reward", "pit_reward", "slip"):
            env[key] = _real(value, what)
        elif key in ("start", "goal"):
            env[key] = _cell(value, what)
        elif key == "pits":
            if not isinstance(value, list):
                raise ConfigError(f"{what} must be a list of cells, got {value!r}")
            env[key] = [_cell(cell, f"{what}[{i}]") for i, cell in enumerate(value)]
    try:
        GridWorld(**{k: v for k, v in env.items() if k != "type"})
    except ValueError as exc:
        raise ConfigError(f"environment: {exc}") from exc
    return env


def _reject_other_task(d: dict, keys: set[str], where: str, task: str) -> None:
    """Keys that only the other task reads are errors, not silently dropped."""
    foreign = set(d) & keys
    if foreign:
        raise ConfigError(f"{where}: {sorted(foreign)} do not apply to a {task} task")


def _parse_optimizer(opt_doc, where: str) -> dict:
    """An optimizer object with finite reals, checked by the optimizer's own
    range rules (:mod:`hetsim.nn.optim`)."""
    _check_keys(_object(opt_doc, where), {"algorithm", *OPTIMIZER_REALS}, where)
    optimizer = {key: _real(value, f"{where}.{key}") if key in OPTIMIZER_REALS else value
                 for key, value in opt_doc.items()}
    try:
        make_optimizer(optimizer)
    except (TypeError, ValueError) as exc:  # an unknown or unhashable algorithm
        raise ConfigError(f"{where}: {exc}") from exc
    return optimizer


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


def _parse_counts_and_reals(section: dict, cls, minimums: dict[str, int], where: str):
    """A dataclass from a section whose keys are its fields: the keys in
    ``minimums`` are whole numbers of at least that value, the rest finite
    reals; the fields a section leaves out keep the dataclass defaults."""
    _check_keys(section, {f.name for f in fields(cls)}, where)
    for f in fields(cls):
        if f.default is MISSING:
            _require(section, f.name, where)
    return cls(**{key: _whole(value, f"{where}.{key}", minimums[key]) if key in minimums
                  else _real(value, f"{where}.{key}") for key, value in section.items()})


def _device_id(value, where: str) -> str:
    """Device ids are metrics.csv fields: non-empty strings without ',', CR or LF."""
    if not isinstance(value, str) or not value or any(c in value for c in ",\r\n"):
        raise ConfigError(f"{where}.id must be a non-empty string without ',', CR or "
                          f"LF, got {value!r}")
    return value


def parse_config(doc: dict) -> ExperimentConfig:
    _check_keys(_object(doc, "config"), {
        "task", "mode", "scheme", "seeds", "topology", "devices", "coordinator",
        "supervised", "rl", "data", "environment", "real_width"}, "config")
    task = _require(doc, "task", "config")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    other_task = next(t for t in TASKS if t != task)
    _reject_other_task(doc, TASK_SECTIONS[other_task], "config", task)
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

    topo_doc = _object(_require(doc, "topology", "config"), "topology")
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
        casc = _object(_require(topo_doc, "cascade", "topology"), "topology.cascade")
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
        _check_keys(_object(dd, where), {"id", "branch", "data_fraction", "rate",
                                         "replay_capacity", "optimizer"}, where)
        _reject_other_task(dd, TASK_DEVICE_KEYS[other_task], where, task)
        device_id = _device_id(_require(dd, "id", where), where)
        branch = _require(dd, "branch", where)
        if branch not in branches:
            raise ConfigError(f"{where}: unknown branch {branch!r}")
        if branch not in topology.branches:
            raise ConfigError(f"{where} ({device_id!r}): branch {branch!r} is not one of "
                              f"the cascade's branches {sorted(topology.branches)}")
        given = {}  # the optional keys present; DeviceConfig holds the defaults
        if "optimizer" in dd:
            given["optimizer"] = _parse_optimizer(dd["optimizer"], f"{where}.optimizer")
        for key in ("rate", "data_fraction"):
            if key in dd:
                given[key] = _fraction(dd[key], f"{where}.{key}")
        if task == "rl":
            given["replay_capacity"] = _require_count(dd, "replay_capacity", where)
        devices.append(DeviceConfig(id=device_id, branch=branch, **given))
    if len({d.id for d in devices}) != len(devices):
        raise ConfigError("device ids must be unique")

    coord_doc = _object(doc.get("coordinator", {}), "coordinator")
    _check_keys(coord_doc, {"mode", "weighting"}, "coordinator")
    coordinator = CoordinatorConfig(**coord_doc)
    if coordinator.mode not in COORDINATOR_MODES:
        raise ConfigError(f"coordinator.mode must be one of {COORDINATOR_MODES}, "
                          f"got {coordinator.mode!r}")
    if coordinator.weighting not in WEIGHTINGS:
        raise ConfigError(f"coordinator.weighting must be one of {WEIGHTINGS}, "
                          f"got {coordinator.weighting!r}")

    supervised = rl = data = environment = None
    if task == "supervised":
        supervised = _parse_counts_and_reals(
            _object(_require(doc, "supervised", "config"), "supervised"), SupervisedConfig,
            {"rounds": 1, "round_samples": 1, "minibatch_size": 1}, "supervised")
        data = _parse_data(_require(doc, "data", "config"))
        fractions = [d.data_fraction for d in devices]
        if any(f is None for f in fractions):
            raise ConfigError("supervised runs need data_fraction on every device")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"data fractions sum to {sum(fractions)}, expected 1")
    else:
        rl = _parse_counts_and_reals(
            _object(_require(doc, "rl", "config"), "rl"), RlConfig,
            {"total_steps": 1, "sync_period": 1, "batch_size": 1, "test_episodes": 1,
             "epsilon_decay_steps": 0, "warmup_steps": 0}, "rl")
        if not 0.0 < rl.gamma < 1.0:
            raise ConfigError(f"rl.gamma must be in (0, 1), got {rl.gamma}")
        for key in ("epsilon_start", "epsilon_end", "epsilon_test"):
            if not 0.0 <= getattr(rl, key) <= 1.0:
                raise ConfigError(f"rl.{key} must be in [0, 1], got {getattr(rl, key)}")
        # DdqlLearner trains once its replay holds this many transitions;
        # the default warmup, capacity // 20, always fits
        warmup = max(rl.batch_size, rl.warmup_steps or 0)
        for i, dev in enumerate(devices):
            if dev.replay_capacity < warmup:
                raise ConfigError(
                    f"devices[{i}] ({dev.id!r}): replay_capacity {dev.replay_capacity} is "
                    f"below the {warmup} transitions it must hold before training "
                    f"(rl.batch_size {rl.batch_size}, rl.warmup_steps "
                    f"{rl.warmup_steps}), so the device would never train")
        environment = _parse_environment(_require(doc, "environment", "config"))

    return ExperimentConfig(
        task=task, mode=mode, scheme=scheme, seeds=tuple(seeds), topology=topology,
        devices=tuple(devices), coordinator=coordinator, supervised=supervised,
        rl=rl, data=data, environment=environment,
        real_width=real_width, raw=doc)


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ConfigError(f"{path} is not a JSON document: {exc}") from exc
    return parse_config(doc)
