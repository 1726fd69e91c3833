"""Experiment configuration: a single JSON document, strictly validated.

Every key of every section is listed once in the schema tables below, with
its kind, whether it is required and the task that reads it; one walker,
:func:`_section`, applies them, and rejects unknown keys everywhere so typos
fail loudly. The rules that link several keys follow in :func:`parse_config`.
See the ``configs/`` directory for one full example per experiment family.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .gridworld import GridWorld
from .nn.layers import layer_from_dict
from .nn.optim import make_optimizer
from .protocol import COORDINATOR_MODES, WEIGHTINGS
from .topology import (BranchedTopology, DeviceNetwork, build_cascaded, build_share_first,
                       count_parameters, weakest_branch)

TASKS = ("supervised", "rl")
MODES = ("isolated", "homogeneous", "heterogeneous")
SCHEMES = ("share-first", "cascaded")


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One key of a config section.

    ``kind`` is one of: count (a whole number of at least 1), natural (whole,
    at least 0), integer (whole), real (finite), interval (a real in the
    interval ``arg``, such as "(0, 1]"), choice (one of the values in
    ``arg``), string (non-empty), cell (two naturals, x then y), list (of
    entries of kind ``arg``; not empty if required), layers (a list of layer
    specs) or section (an object). ``task`` is the task that reads the key,
    or None for both; in the other task's config the key is an error.
    """
    kind: str
    required: bool = False
    task: str | None = None
    arg: object = None


# The schema, one table per section. The defaults live in the dataclasses.
CONFIG = {  # "task" comes first, so it is checked before the keys a task owns
    "task": Key("choice", True, arg=TASKS),
    "mode": Key("choice", True, arg=MODES),
    "scheme": Key("choice", True, arg=SCHEMES),
    "real_width": Key("choice", arg=(32, 64)),
    "seeds": Key("list", True, arg="integer"),
    "topology": Key("section", True),
    "devices": Key("list", True, arg="section"),
    "coordinator": Key("section"),
    "supervised": Key("section", True, "supervised"),
    "data": Key("section", True, "supervised"),
    "rl": Key("section", True, "rl"),
    "environment": Key("section", True, "rl"),
}
TOPOLOGY = {
    "input_shape": Key("list", True, arg="count"),
    "stem": Key("layers", True),
    "branches": Key("section", True),  # branch id -> layers
    "cascade": Key("section"),  # required with scheme "cascaded", and only valid there
}
CASCADE = {
    "complex_branch": Key("string", True),
    "lightweight_branch": Key("string", True),
    "branch_dropout_p": Key("real"),  # in [0, 1], checked by build_cascaded
}
DEVICE = {
    "id": Key("string", True),
    "branch": Key("string", True),
    "data_fraction": Key("interval", True, "supervised", "(0, 1]"),
    "rate": Key("interval", False, "rl", "(0, 1]"),
    "replay_capacity": Key("count", True, "rl"),
    "optimizer": Key("section"),
}
OPTIMIZER = {  # the ranges are the optimizer constructors' own (hetsim.nn.optim)
    "algorithm": Key("string", True),
    **{key: Key("real") for key in ("learning_rate", "decay", "beta1", "beta2", "eps", "rho")},
}
COORDINATOR = {
    "mode": Key("choice", arg=COORDINATOR_MODES),
    "weighting": Key("choice", arg=WEIGHTINGS),
}
SUPERVISED = {
    "rounds": Key("count", True),
    "round_samples": Key("count"),
    "minibatch_size": Key("count"),
}
RL = {
    "total_steps": Key("count", True),
    "sync_period": Key("count", True),
    "gamma": Key("interval", arg="(0, 1)"),
    "epsilon_start": Key("interval", arg="[0, 1]"),
    "epsilon_end": Key("interval", arg="[0, 1]"),
    "epsilon_decay_steps": Key("natural"),
    "epsilon_test": Key("interval", arg="[0, 1]"),
    "batch_size": Key("count"),
    "warmup_steps": Key("natural"),
    "test_episodes": Key("count"),
}
SOURCE = Key("choice", True, arg=("synthetic", "cifar10"))
DATA = {  # by data.source
    "synthetic": {"source": SOURCE, "num_classes": Key("count", True),
                  "per_class": Key("count", True), "dims": Key("count", True),
                  "class_separation": Key("real", True), "test_per_class": Key("count")},
    "cifar10": {"source": SOURCE, "train_path": Key("string", True),
                "test_path": Key("string", True)},
}
ENVIRONMENT = {  # the ranges that link keys are the gridworld's own (hetsim.gridworld)
    "type": Key("choice", True, arg=("gridworld",)),
    "width": Key("count"),
    "height": Key("count"),
    "start": Key("cell"),
    "goal": Key("cell"),
    "pits": Key("list", arg="cell"),
    "step_penalty": Key("real"),
    "goal_reward": Key("real"),
    "pit_reward": Key("real"),
    "max_episode_steps": Key("count"),
    "slip": Key("real"),
}

_LEAST = {"count": 1, "natural": 0, "integer": -math.inf}  # the whole-number kinds


def _object(value, where: str) -> dict:
    """A JSON object; any other value is a ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _within(value: float, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low <= value) if interval[0] == "[" else (low < value)) and (
        (value <= high) if interval[-1] == "]" else (value < high))


def _value(value, key: Key, what: str):
    """``value`` checked against the kind of ``key``, as the type a run reads;
    any other value is a ConfigError naming ``what``."""
    kind = key.kind
    if kind in _LEAST:  # JSON integers or integral floats; no bools
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{what} must be a whole number, got {value!r}")
        if value < _LEAST[kind]:
            raise ConfigError(f"{what} must be at least {_LEAST[kind]}, got {value}")
        return int(value)
    if kind in ("real", "interval"):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):  # NaN, infinite, or no float
            raise ConfigError(f"{what} must be a finite number, got {value!r}")
        if kind == "interval" and not _within(value, key.arg):
            raise ConfigError(f"{what} must be in {key.arg}, got {float(value)}")
        return float(value)
    if kind == "choice":
        if value not in key.arg:  # a tuple, so an unhashable value is just absent
            raise ConfigError(f"{what} must be one of {key.arg}, got {value!r}")
        return value
    if kind == "string":
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{what} must be a non-empty string, got {value!r}")
        return value
    if kind == "cell":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{what} must be a list of two whole numbers, got {value!r}")
        return tuple(_value(n, Key("natural"), what) for n in value)
    if kind == "list":
        if not isinstance(value, list) or key.required and not value:
            raise ConfigError(f"{what} must be a {'non-empty ' if key.required else ''}list, "
                              f"got {value!r}")
        return [_value(entry, Key(key.arg), f"{what}[{i}]") for i, entry in enumerate(value)]
    if kind == "layers":
        if not isinstance(value, list):
            raise ConfigError(f"{what}: expected a list of layer dicts")
        try:
            return tuple(layer_from_dict(spec) for spec in value)
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    return _object(value, what)  # a section


def _section(doc, table: dict[str, Key], where: str, task) -> dict:
    """The keys of the ``where`` object that ``table`` lists, checked in table
    order and converted by their kinds. A key left out stays out, so the
    dataclass default applies."""
    doc = _object(doc, where)
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for name, key in table.items():
        if name not in doc:
            if key.required and key.task in (None, task):
                raise ConfigError(f"{where}: missing required key {name!r}")
        elif key.task not in (None, task):  # read only by the other task: not dropped
            foreign = sorted(k for k in doc if table[k].task not in (None, task))
            raise ConfigError(f"{where}: {foreign} do not apply to a {task} task")
        else:
            out[name] = _value(doc[name], key, name if where == "config" else f"{where}.{name}")
    return out


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

    def warmup(self, replay_capacity: int) -> int:
        """The replay size at which a device with this capacity starts to
        train: ``warmup_steps``, by default ``replay_capacity // 20``, and at
        least one batch."""
        return max(self.batch_size, replay_capacity // 20 if self.warmup_steps is None
                   else self.warmup_steps)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    mode: str
    scheme: str
    seeds: tuple[int, ...]
    topology: BranchedTopology
    devices: tuple[DeviceConfig, ...]
    coordinator: CoordinatorConfig
    supervised: SupervisedConfig | None = None
    rl: RlConfig | None = None
    data: dict | None = None
    environment: dict | None = None
    real_width: int = 64
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def dtype(self):
        return np.float64 if self.real_width == 64 else np.float32


def _check_array_sizes(topology: BranchedTopology, devices, mode: str, task: str,
                       real_width: int) -> None:
    """Every parameter array of a run must fit: a layer, a device's vector
    or (supervised) the seed's (devices x largest vector) stack whose reals
    of ``real_width`` bits take more bytes than ``np.intp`` counts (so also
    one whose count does not fit it) is a ConfigError naming it, and no
    array of it is made."""
    limit = np.iinfo(np.intp).max // (real_width // 8)
    chains = [("topology.stem", topology.stem, topology.input_shape)] + [
        (f"topology.branches.{bid}", layers, topology.stem_output_shape)
        for bid, layers in topology.branches.items()]
    for where, layers, shape in chains:
        for i, layer in enumerate(layers):
            if sum(math.prod(p) for p in layer.param_shapes(shape).values()) > limit:
                raise ConfigError(f"{where}[{i}]: a {type(layer).__name__} layer of more "
                                  f"than {limit} {real_width}-bit parameters, which no "
                                  f"array can hold")
            shape = layer.output_shape(shape)
    if mode == "homogeneous":  # every device trains the weakest branch's network
        counts = [count_parameters(topology, weakest_branch(topology))] * len(devices)
    else:
        counts = [count_parameters(topology, dev.branch) for dev in devices]
    for i, (dev, count) in enumerate(zip(devices, counts)):
        if count > limit:
            raise ConfigError(f"devices[{i}] ({dev.id!r}): a network of {count} "
                              f"{real_width}-bit parameters, more than the {limit} an "
                              f"array can hold")
    if task == "supervised" and len(devices) * max(counts, default=0) > limit:
        raise ConfigError(f"devices: {len(devices)} devices of up to {max(counts)} "
                          f"{real_width}-bit parameters, more than the {limit} that one "
                          f"array of their vectors can hold")


def check_data_shapes(topology: BranchedTopology, data_in: tuple, data_out: tuple) -> None:
    """The topology must take the data's input and give one output per class
    or action. An RL run checks its environment when it is built, so that
    ``describe`` takes ``configs/atari_topologies.json``, whose networks are
    for an environment hetsim lacks."""
    if tuple(topology.input_shape) != data_in:
        raise ConfigError(f"topology.input_shape {tuple(topology.input_shape)} does not "
                          f"match the data's {data_in}")
    for branch_id in topology.branches:
        out = topology.branch_output_shape(branch_id)
        if out != data_out:
            raise ConfigError(f"topology.branches.{branch_id} outputs {out}, the data "
                              f"needs {data_out}")


def parse_config(doc: dict) -> ExperimentConfig:
    task = _object(doc, "config").get("task")  # CONFIG checks it before the keys it owns
    top = _section(doc, CONFIG, "config", task)
    if len(set(top["seeds"])) != len(top["seeds"]):
        raise ConfigError(f"seeds must be distinct, got {top['seeds']}")

    topo = _section(top["topology"], TOPOLOGY, "topology", task)
    input_shape = tuple(topo["input_shape"])
    branches = {bid: _value(spec, Key("layers"), f"topology.branches.{bid}")
                for bid, spec in topo["branches"].items()}
    if top["scheme"] == "cascaded":
        if "cascade" not in topo:
            raise ConfigError("topology: missing required key 'cascade'")
        casc = _section(topo["cascade"], CASCADE, "topology.cascade", task)
        cb, lb = casc["complex_branch"], casc["lightweight_branch"]
        for b in (cb, lb):
            if b not in branches:
                raise ConfigError(f"topology.cascade references unknown branch {b!r}")
        extra = [b for b in branches if b not in (cb, lb)]
        if extra:
            raise ConfigError(f"topology.branches.{extra[0]}: a cascaded topology declares "
                              f"only its complex and lightweight branches, {cb!r} and {lb!r}")
    elif "cascade" in topo:
        raise ConfigError("topology.cascade is only valid with scheme 'cascaded'")
    try:
        if top["scheme"] == "cascaded":
            topology = build_cascaded(topo["stem"], branches[cb], branches[lb],
                                      casc.get("branch_dropout_p", 0.5), input_shape,
                                      complex_id=cb, lightweight_id=lb)
        else:
            topology = build_share_first(topo["stem"], branches, input_shape)
    except ValueError as exc:  # a ShapeError, no branch, or the branch dropout range
        raise ConfigError(f"topology: {exc}") from exc

    devices = []
    for i, entry in enumerate(top["devices"]):
        where = f"devices[{i}]"
        dev = _section(entry, DEVICE, where, task)
        if any(c in dev["id"] for c in ',"\r\n'):  # ids are metrics.csv fields
            raise ConfigError(f"{where}.id must be a non-empty string without ',', '\"', "
                              f"CR or LF, got {dev['id']!r}")
        if dev["branch"] not in branches:
            raise ConfigError(f"{where}: unknown branch {dev['branch']!r}")
        if "optimizer" in dev:
            dev["optimizer"] = _section(dev["optimizer"], OPTIMIZER, f"{where}.optimizer", task)
            try:
                make_optimizer(dev["optimizer"])
            except (TypeError, ValueError) as exc:  # an unknown algorithm or setting
                raise ConfigError(f"{where}.optimizer: {exc}") from exc
        devices.append(DeviceConfig(**dev))
    if len({d.id for d in devices}) != len(devices):
        raise ConfigError("device ids must be unique")
    _check_array_sizes(topology, devices, top["mode"], task, top.get("real_width", 64))

    coordinator = _section(top.get("coordinator", {}), COORDINATOR, "coordinator", task)
    top.update(seeds=tuple(top["seeds"]), topology=topology, devices=tuple(devices),
               coordinator=CoordinatorConfig(**coordinator))
    if task == "supervised":
        top["supervised"] = SupervisedConfig(**_section(
            top["supervised"], SUPERVISED, "supervised", task))
        source = _value(top["data"].get("source"), SOURCE, "data.source")
        data = top["data"] = _section(top["data"], DATA[source], "data", task)
        if source == "synthetic" and data["dims"] < 2 and data["num_classes"] > data["dims"]:
            raise ConfigError("data.dims must be at least 2 when num_classes exceeds it")
        total = sum(d.data_fraction for d in devices)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"data fractions sum to {total}, expected 1")
        if source == "synthetic":
            check_data_shapes(topology, (data["dims"],), (data["num_classes"],))
        else:  # CIFAR-10
            check_data_shapes(topology, (32, 32, 3), (10,))
        # the loss reads each trained network's output as class probabilities
        for branch in ([weakest_branch(topology)] if top["mode"] == "homogeneous"
                       else [dev.branch for dev in devices]):
            if not DeviceNetwork(topology, branch).ends_in_softmax:
                raise ConfigError(f"topology.branches.{branch} must end with a softmax "
                                  f"layer: a supervised network outputs probabilities")
    else:
        rl = top["rl"] = RlConfig(**_section(top["rl"], RL, "rl", task))
        for i, dev in enumerate(devices):
            # the device trains once its replay holds this many transitions
            warmup = rl.warmup(dev.replay_capacity)
            if dev.replay_capacity < warmup:
                raise ConfigError(
                    f"devices[{i}] ({dev.id!r}): replay_capacity {dev.replay_capacity} is "
                    f"below the {warmup} transitions it must hold before training "
                    f"(rl.batch_size {rl.batch_size}, rl.warmup_steps "
                    f"{rl.warmup_steps}), so the device would never train")
        env = top["environment"] = _section(
            top["environment"], ENVIRONMENT, "environment", task)
        try:
            GridWorld(**{k: v for k, v in env.items() if k != "type"})
        except ValueError as exc:
            raise ConfigError(f"environment: {exc}") from exc
    return ExperimentConfig(**top, raw=doc)


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ConfigError(f"{path} is not a JSON document: {exc}") from exc
    return parse_config(doc)
