"""Experiment orchestration: run modes, seeding, metrics, checkpoints.

Each seed runs on one deterministic worker: its devices take turns in
config order, and the coordinator is invoked inline through the protocol
hub. Seeds are independent (every stream comes from ``child_rng(seed,
...)``), so :func:`run_experiment` may run them in separate processes; it
writes their rows in config seed order, and a run's metrics output is a
pure function of (config, seed list).

Run modes:

* heterogeneous: each device trains its configured branch; only the
  shared block (stem, plus the lightweight branch in cascaded scheme)
  crosses the wire.
* homogeneous: every device trains the weakest branch's full network and
  synchronizes all of its parameters.
* isolated: no synchronization at all.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .config import ConfigError, DeviceConfig, ExperimentConfig
from .data import Dataset, generate_synthetic_dataset, load_cifar10_binary, partition_dataset
from .fileio import atomic_open
from .gridworld import GridWorld
from .learners import DdqlLearner, EpsilonSchedule, ReplayBuffer, SupervisedTrainer
from .metrics import MetricsRow, write_aggregated_csv, write_csv
from .nn.optim import make_optimizer
from .protocol import Coordinator, DeviceEndpoint, LocalHub, sync_round
from .rng import child_rng, child_seed
from .topology import BranchedTopology, DeviceNetwork, build_share_first, count_parameters
from . import checkpoint as ckpt


def weakest_branch(topology: BranchedTopology) -> str:
    """The branch whose full network has the fewest parameters."""
    return min(topology.branches,
               key=lambda b: (count_parameters(topology, b), b))


def full_share_network(topology: BranchedTopology, branch_id: str) -> DeviceNetwork:
    """A single-chain network with every parameter shared (homogeneous mode)."""
    chain = list(topology.stem) + list(topology.branches[branch_id])
    flat_topo = build_share_first(chain, {branch_id: ()}, topology.input_shape)
    return DeviceNetwork(flat_topo, branch_id)


def build_device_network(config: ExperimentConfig, device: DeviceConfig) -> DeviceNetwork:
    if config.mode == "homogeneous":
        return full_share_network(config.topology, weakest_branch(config.topology))
    return DeviceNetwork(config.topology, device.branch)


def _init_device_store(net: DeviceNetwork, config: ExperimentConfig, seed: int,
                       device_id: str):
    # every device replays the same "shared" stream so shared blocks agree
    shared_rng = child_rng(seed, "init", "shared")
    local_rng = child_rng(seed, "init", device_id)
    return net.init_store(shared_rng, local_rng, dtype=config.dtype)


def _wire_coordinator(config: ExperimentConfig, devices: list[dict]):
    """Register devices, adopt the common initial shared block, broadcast it."""
    coordinator = Coordinator(config.coordinator.mode, config.coordinator.weighting)
    hub = LocalHub(coordinator, dtype=config.dtype)
    for dev in devices:
        endpoint = dev["endpoint"]
        coordinator.register(endpoint.device_id, endpoint.shared_len, endpoint.data_size)
        hub.connect(endpoint.device_id)
    theta0 = devices[0]["endpoint"].shared_slice().astype(np.float64)
    hub.broadcast_initial(theta0)
    for dev in devices:
        first = hub.take_reply(dev["endpoint"].device_id)
        if not np.array_equal(first.params.astype(config.dtype),
                              dev["endpoint"].shared_slice()):
            raise RuntimeError("initial shared parameters disagree across devices")
    return coordinator, hub


class _Run:
    """One seed's devices, coordinator wiring, sync logging and checkpoints.

    Subclasses name their clock attribute (``CLOCK``) and the device key of
    their learner (``LEARNER``), and build each device's learner in
    :meth:`_make_learner`.
    """

    CLOCK: str
    LEARNER: str

    def __init__(self, config: ExperimentConfig, seed: int):
        self.config = config
        self.seed = seed
        setattr(self, self.CLOCK, 0)
        self.rows: list[MetricsRow] = []
        self.devices: list[dict] = []
        for i, dev_cfg in enumerate(config.devices):
            net = build_device_network(config, dev_cfg)
            store = _init_device_store(net, config, seed, dev_cfg.id)
            learner, data_size = self._make_learner(
                i, dev_cfg, net, store, make_optimizer(dev_cfg.optimizer))
            self.devices.append({
                "cfg": dev_cfg, "net": net, "store": store,
                "endpoint": DeviceEndpoint(i, net.partition, store, data_size),
                self.LEARNER: learner})
        if config.mode == "isolated":
            self.coordinator, self.hub = None, None
        else:
            self.coordinator, self.hub = _wire_coordinator(config, self.devices)

    def _make_learner(self, index: int, dev_cfg: DeviceConfig, net: DeviceNetwork,
                      store, optimizer):
        """The device's learner and the data size its merge weight uses."""
        raise NotImplementedError

    def _row(self, t: int, device: str, phase: str, metric: str, value: float):
        self.rows.append(MetricsRow(self.seed, t, device, phase, metric, value))

    def _sync_and_log(self, t: int) -> None:
        """One sync round, then a bytes_sent row per update (zero if isolated)."""
        if self.hub is None:
            for dev in self.devices:
                self._row(t, dev["cfg"].id, "train", "bytes_sent", 0.0)
            return
        sync_round([d["endpoint"] for d in self.devices], self.hub)
        for device_index, nbytes in self.hub.update_log:
            self._row(t, self.devices[device_index]["cfg"].id,
                      "train", "bytes_sent", float(nbytes))
        self.hub.update_log.clear()

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        state = {"seed": self.seed, self.CLOCK: getattr(self, self.CLOCK),
                 "devices": [{self.LEARNER: dev[self.LEARNER].state_dict(),
                              "endpoint": dev["endpoint"].state_dict()}
                             for dev in self.devices]}
        if self.coordinator is not None:
            state["coordinator"] = {
                "theta": self.coordinator.theta.copy(),
                "round_index": self.coordinator.round_index,
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        if state["seed"] != self.seed:
            raise ValueError("checkpoint seed does not match run seed")
        setattr(self, self.CLOCK, int(state[self.CLOCK]))
        for dev, dev_state in zip(self.devices, state["devices"]):
            dev[self.LEARNER].load_state_dict(dev_state[self.LEARNER])
            dev["endpoint"].load_state_dict(dev_state["endpoint"])
        if self.coordinator is not None:
            self.coordinator.theta = state["coordinator"]["theta"].copy()
            self.coordinator.round_index = int(state["coordinator"]["round_index"])
        self.rows = []


def _summarize(rows: list[MetricsRow], final_metric: str) -> dict:
    """Per-device median/min/max across seeds of the final test-phase value."""
    finals: dict[str, dict[int, float]] = {}
    for r in rows:
        if r.phase == "test" and r.metric == final_metric:
            finals.setdefault(r.device, {})[r.seed] = r.value  # last write wins
    summary = {}
    for device in sorted(finals):
        values = list(finals[device].values())
        summary[device] = {
            "metric": final_metric,
            "median": float(np.median(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "per_seed": {str(seed): v for seed, v in sorted(finals[device].items())},
        }
    return summary


# ---------------------------------------------------------------------------
# Supervised runs
# ---------------------------------------------------------------------------

def _load_supervised_data(config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    d = config.data
    if d["source"] == "synthetic":
        train = generate_synthetic_dataset(
            d["num_classes"], d["per_class"], d["dims"], d["class_separation"],
            child_seed(seed, "data"))
        test = generate_synthetic_dataset(
            d["num_classes"], d.get("test_per_class", max(1, d["per_class"] // 5)),
            d["dims"], d["class_separation"], child_seed(seed, "data-test"))
        return train, test
    return load_cifar10_binary(d["train_path"]), load_cifar10_binary(d["test_path"])


class SupervisedRun(_Run):
    """One seed of a round-based supervised experiment."""

    CLOCK = "round"
    LEARNER = "trainer"

    def __init__(self, config: ExperimentConfig, seed: int):
        if config.supervised is None:
            raise ValueError("config has no supervised section")
        pool, self.test_set = _load_supervised_data(config, seed)
        fractions = [d.data_fraction for d in config.devices]
        self.partition = partition_dataset(pool, fractions, child_seed(seed, "partition"))
        # per device: train features, train labels, validation features and labels
        self._shards = [(pool.features[train], pool.labels[train],
                         pool.features[val], pool.labels[val])
                        for train, val in zip(self.partition.train_indices,
                                              self.partition.val_indices)]
        super().__init__(config, seed)

    def _make_learner(self, index, dev_cfg, net, store, optimizer):
        trainer = SupervisedTrainer(
            net, store, optimizer, *self._shards[index],
            rng=child_rng(self.seed, "train", dev_cfg.id),
            round_samples=self.config.supervised.round_samples,
            minibatch_size=self.config.supervised.minibatch_size)
        return trainer, self.partition.shard_size(index)

    def play_round(self) -> None:
        self.round += 1
        for dev in self.devices:
            _, loss, acc = dev["trainer"].train_round()
            self._row(self.round, dev["cfg"].id, "train", "loss", loss)
            self._row(self.round, dev["cfg"].id, "train", "accuracy", acc)
        self._sync_and_log(self.round)
        for dev in self.devices:
            val_acc = dev["trainer"].validate_and_snapshot()
            self._row(self.round, dev["cfg"].id, "validation", "accuracy", val_acc)

    def finalize(self) -> None:
        for dev in self.devices:
            trainer = dev["trainer"]
            acc = trainer.evaluate(self.test_set.features, self.test_set.labels,
                                   flat=trainer.snapshot)
            self._row(self.round, dev["cfg"].id, "test", "accuracy", acc)

    def run(self) -> list[MetricsRow]:
        while self.round < self.config.supervised.rounds:
            self.play_round()
        self.finalize()
        return self.rows


# ---------------------------------------------------------------------------
# Reinforcement-learning runs
# ---------------------------------------------------------------------------

def _make_env(env_doc: dict, rng) -> GridWorld:
    kwargs = {k: v for k, v in env_doc.items() if k != "type"}
    if "start" in kwargs:
        kwargs["start"] = tuple(kwargs["start"])
    if "goal" in kwargs:
        kwargs["goal"] = tuple(kwargs["goal"])
    if "pits" in kwargs:
        kwargs["pits"] = [tuple(p) for p in kwargs["pits"]]
    return GridWorld(rng=rng, **kwargs)


def _acts_now(global_step: int, rate: float) -> bool:
    """A device with interaction rate v acts on the steps where floor(t*v) grows."""
    return int(np.floor(global_step * rate)) > int(np.floor((global_step - 1) * rate))


class RlRun(_Run):
    """One seed of a DDQL gridworld experiment on the shared global clock."""

    CLOCK = "step"
    LEARNER = "learner"

    def __init__(self, config: ExperimentConfig, seed: int):
        if config.rl is None:
            raise ValueError("config has no rl section")
        rl = config.rl
        self.schedule = EpsilonSchedule(rl.epsilon_start, rl.epsilon_end,
                                        rl.epsilon_decay_steps, rl.epsilon_test)
        super().__init__(config, seed)

    def _make_learner(self, index, dev_cfg, net, store, optimizer):
        seed, rl = self.seed, self.config.rl
        learner = DdqlLearner(
            net, store, optimizer,
            env=_make_env(self.config.environment, child_rng(seed, "env", dev_cfg.id)),
            eval_env=_make_env(self.config.environment,
                               child_rng(seed, "eval-env", dev_cfg.id)),
            replay=ReplayBuffer(dev_cfg.replay_capacity), schedule=self.schedule,
            act_rng=child_rng(seed, "act", dev_cfg.id),
            replay_rng=child_rng(seed, "replay", dev_cfg.id),
            eval_rng=child_rng(seed, "eval-act", dev_cfg.id),
            gamma=rl.gamma, batch_size=rl.batch_size,
            warmup_steps=rl.warmup_steps)
        return learner, dev_cfg.replay_capacity

    def play_step(self) -> None:
        """One tick of the global clock: interactions, then any sync event."""
        self.step += 1
        for dev in self.devices:
            if _acts_now(self.step, dev["cfg"].rate):
                dev["learner"].interact()
        if self.step % self.config.rl.sync_period == 0:
            self._sync_event()

    def _sync_event(self) -> None:
        # test epoch first, then synchronization, then the target copy
        for dev in self.devices:
            reward = dev["learner"].test_epoch(self.config.rl.test_episodes)
            self._row(self.step, dev["cfg"].id, "test", "reward", reward)
        self._sync_and_log(self.step)
        for dev in self.devices:
            dev["learner"].copy_target()

    def run(self) -> list[MetricsRow]:
        while self.step < self.config.rl.total_steps:
            self.play_step()
        return self.rows


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _check_data_shapes(config: ExperimentConfig) -> None:
    """The topology must take the data's input and give one output per class or action."""
    if config.task == "rl":
        env = _make_env(config.environment, rng=None)
        data_in, data_out = (env.state_dim,), (env.n_actions,)
    elif config.data["source"] == "synthetic":
        data_in, data_out = (config.data["dims"],), (config.data["num_classes"],)
    else:  # CIFAR-10
        data_in, data_out = (32, 32, 3), (10,)
    topo = config.topology
    if tuple(topo.input_shape) != data_in:
        raise ConfigError(f"topology.input_shape {tuple(topo.input_shape)} does not "
                          f"match the data's {data_in}")
    for branch_id in topo.branches:
        out = topo.branch_output_shape(branch_id)
        if out != data_out:
            raise ConfigError(f"topology.branches.{branch_id} outputs {out}, the data "
                              f"needs {data_out}")


def make_run(config: ExperimentConfig, seed: int):
    _check_data_shapes(config)
    return SupervisedRun(config, seed) if config.task == "supervised" else RlRun(config, seed)


def _run_seeds(config: ExperimentConfig, seeds: list[int]) -> dict[int, list[MetricsRow]]:
    return {seed: make_run(config, seed).run() for seed in seeds}


def _run_all_seeds(config: ExperimentConfig, seeds: list[int]) -> dict[int, list[MetricsRow]]:
    """Every seed's rows, the seeds split over ``min(seeds, usable CPUs)`` processes.

    This process runs ``seeds[0::k]``; forked worker ``j`` runs ``seeds[j::k]``.
    A worker's exception is re-raised here; a worker that dies raises
    ``BrokenProcessPool``.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = 1
    k = min(len(seeds), cpus)
    if k == 1:
        return _run_seeds(config, seeds)
    # imported here: make_run and sequential runs never pay for the pool modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers start without importing numpy and hetsim again, which
    # spawn would do on every call
    with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_seeds, config, seeds[j::k]) for j in range(1, k)]
        by_seed = _run_seeds(config, seeds[0::k])
        for future in futures:
            by_seed.update(future.result())
    return by_seed


def run_experiment(config: ExperimentConfig, out_dir=None, seed_offset: int = 0) -> dict:
    """Run every seed, write metrics and the aggregated companion, return a summary."""
    seeds = [s + seed_offset for s in config.seeds]
    by_seed = _run_all_seeds(config, seeds)
    rows = [row for seed in seeds for row in by_seed[seed]]
    final_metric = "accuracy" if config.task == "supervised" else "reward"
    summary = {
        "task": config.task,
        "mode": config.mode,
        "seeds": seeds,
        "devices": _summarize(rows, final_metric),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(rows, out / "metrics.csv")
        write_aggregated_csv(rows, out / "metrics_agg.csv")
        with atomic_open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def save_run_checkpoint(run, path) -> None:
    payload = {"kind": run.__class__.__name__, "state": run.state_dict()}
    ckpt.save_checkpoint(path, payload, ckpt.topology_hash(run.config.raw))


def load_run_checkpoint(config: ExperimentConfig, seed: int, path):
    payload = ckpt.load_checkpoint(path, ckpt.topology_hash(config.raw))
    run = make_run(config, seed)
    if payload["kind"] != run.__class__.__name__:
        raise ckpt.CheckpointError(
            f"checkpoint holds a {payload['kind']}, config builds a "
            f"{run.__class__.__name__}")
    run.load_state_dict(payload["state"])
    return run


def describe(config: ExperimentConfig) -> str:
    """Human-readable topology and sharing report for a config."""
    from .topology import count_branch_operations

    topo = config.topology
    lines = [
        f"task: {config.task}  mode: {config.mode}  scheme: {config.scheme}",
        f"input shape: {'x'.join(str(d) for d in topo.input_shape)}",
        f"stem layers: {len(topo.stem)}",
    ]
    for branch_id in sorted(topo.branches):
        params = count_parameters(topo, branch_id)
        ops = count_branch_operations(topo, branch_id)
        lines.append(f"branch {branch_id}: parameters {params:,} "
                     f"(operation estimate {ops:,})")
    width_bytes = np.dtype(config.dtype).itemsize
    for dev_cfg in config.devices:
        net = build_device_network(config, dev_cfg)
        part = net.partition
        sync_bytes = 0 if config.mode == "isolated" else part.shared_len * width_bytes
        lines.append(
            f"device {dev_cfg.id} (branch {net.branch_id}): total {net.count_params():,} "
            f"| shared {part.shared_len:,} | local {part.local_len:,} "
            f"| bytes/sync {sync_bytes:,}")
    return "\n".join(lines)
