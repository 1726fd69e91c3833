"""Experiment orchestration: run modes, seeding, metrics, checkpoints.

Each seed runs on one deterministic worker: its devices take turns in
config order, and each sync round calls the coordinator inline, with the
devices in the same order (:func:`~hetsim.protocol.sync_round`). Seeds
are independent (every stream comes from ``child_rng(seed, ...)``), so
:func:`run_experiment` may run them in separate processes; it writes
their rows in config seed order, and a run's metrics output is a pure
function of (config, seed list).

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
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .config import ConfigError, DeviceConfig, ExperimentConfig, check_data_shapes
from .data import Dataset, generate_synthetic_dataset, load_cifar10_binary, partition_dataset
from .fileio import atomic_open
from .gridworld import GridWorld
from .learners import DdqlLearner, EpsilonSchedule, ReplayBuffer, SupervisedTrainer, same_bits
from .metrics import MetricsRow, write_aggregated_csv, write_csv
from .nn.network import NonFiniteError
from .nn.optim import make_optimizer
from .protocol import Coordinator, sync_round
from .rng import child_rng, child_seed
from .topology import (BranchedTopology, DeviceNetwork, DeviceStack, build_share_first,
                       count_parameters, weakest_branch)
from . import checkpoint as ckpt


def full_share_network(topology: BranchedTopology, branch_id: str) -> DeviceNetwork:
    """A single-chain network with every parameter shared (homogeneous mode)."""
    chain = list(topology.stem) + list(topology.branches[branch_id])
    flat_topo = build_share_first(chain, {branch_id: ()}, topology.input_shape)
    return DeviceNetwork(flat_topo, branch_id)


def build_device_network(config: ExperimentConfig, device: DeviceConfig) -> DeviceNetwork:
    if config.mode == "homogeneous":
        return full_share_network(config.topology, weakest_branch(config.topology))
    return DeviceNetwork(config.topology, device.branch)


class _Run:
    """One seed's devices, coordinator, sync logging, run loop and checkpoints.

    The devices' parameters are the rows of one :class:`DeviceStack`,
    ``stack``. Subclasses name their clock attribute (``CLOCK``) and the
    device key of their learner (``LEARNER``), set the clock's last value
    (``end``), build each device's learner in :meth:`_make_learner`, and
    define one tick of the clock (``_tick``) and the rows written after the
    last one (:meth:`finalize`).
    """

    CLOCK: str
    LEARNER: str

    def __init__(self, config: ExperimentConfig, seed: int):
        self.config = config
        self.seed = seed
        setattr(self, self.CLOCK, 0)
        self.rows: list[MetricsRow] = []
        self.devices: list[dict] = []
        data_sizes = []
        # devices that train the same network share one DeviceNetwork (it
        # holds no parameters or buffers)
        nets: dict[str, DeviceNetwork] = {}
        networks = []
        for dev_cfg in config.devices:
            key = "" if config.mode == "homogeneous" else dev_cfg.branch
            if key not in nets:
                nets[key] = build_device_network(config, dev_cfg)
            networks.append(nets[key])
        self.stack = DeviceStack(networks, config.dtype)
        stores = self.stack.stores
        for i, (dev_cfg, net, store) in enumerate(zip(config.devices, networks, stores)):
            # the shared blocks have one layout: drawn once from the "shared"
            # stream, into the first store, and copied into the others
            net.init_store(store, None if i else child_rng(seed, "init", "shared"),
                           child_rng(seed, "init", dev_cfg.id))
            store.flat[:net.partition.shared_len] = stores[0].flat[:net.partition.shared_len]
            learner, data_size = self._make_learner(i, dev_cfg,
                                                    make_optimizer(dev_cfg.optimizer))
            self.devices.append({"cfg": dev_cfg, "net": net, "store": store,
                                 self.LEARNER: learner})
            data_sizes.append(data_size)
        self.coordinator = None
        if config.mode != "isolated":
            self.coordinator = Coordinator(
                config.coordinator.mode, config.coordinator.weighting, data_sizes,
                [dev["store"].flat[:dev["net"].partition.shared_len]
                 for dev in self.devices])

    def _make_learner(self, index: int, dev_cfg: DeviceConfig, optimizer):
        """Device ``index``'s learner, on its row of ``stack``, and the data
        size its merge weight uses."""
        raise NotImplementedError

    def run(self, checkpoint_at: int | None = None, path=None) -> list[MetricsRow]:
        """Tick the clock to ``end``, then :meth:`finalize`; return the rows.

        With ``checkpoint_at``, the run is saved to ``path`` when its clock
        reaches that value (at once if it is there already), and goes on.
        A ``checkpoint_at`` outside [clock, end] is a ``ConfigError``.
        """
        if checkpoint_at is not None:
            clock = getattr(self, self.CLOCK)
            if not clock <= checkpoint_at <= self.end:
                raise ConfigError(f"cannot checkpoint at {self.CLOCK} {checkpoint_at}: the "
                                  f"run is at {clock} and ends at {self.end}")
        try:
            if checkpoint_at is not None:
                self._advance(checkpoint_at)
                save_run_checkpoint(self, path)
            self._advance(self.end)
            self.finalize()
        except NonFiniteError as exc:  # name where the run diverged
            where = [f"seed {self.seed}"]
            if exc.device is not None:
                where.append(f"device {self.devices[exc.device]['cfg'].id}")
            where.append(f"{self.CLOCK} {getattr(self, self.CLOCK)}")
            raise NonFiniteError(f"{', '.join(where)}: {exc}") from exc
        return self.rows

    def _advance(self, until: int) -> None:
        while getattr(self, self.CLOCK) < until:
            self._tick()

    def _row(self, t: int, device: str, phase: str, metric: str, value: float):
        self.rows.append(MetricsRow(self.seed, t, device, phase, metric, value))

    def _sync_and_log(self, t: int) -> None:
        """One sync round, then a bytes_sent row per device (zero if isolated)."""
        sent = ([0] * len(self.devices) if self.coordinator is None
                else sync_round(self.coordinator))
        for dev, nbytes in zip(self.devices, sent):
            self._row(t, dev["cfg"].id, "train", "bytes_sent", float(nbytes))

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        state = {"seed": self.seed, self.CLOCK: getattr(self, self.CLOCK),
                 "rows": [astuple(row) for row in self.rows],
                 "devices": [{self.LEARNER: dev[self.LEARNER].state_dict()}
                             for dev in self.devices]}
        if self.coordinator is not None:
            state["coordinator"] = {"theta": self.coordinator.theta.copy()}
            saved = {}  # one copy of each reference, however many devices share it
            for dev_state, ref in zip(state["devices"], self.coordinator.refs):
                if id(ref) not in saved:
                    saved[id(ref)] = ref.copy()
                dev_state["endpoint"] = {"shared_ref": saved[id(ref)]}
        return state

    def load_state_dict(self, state: dict) -> None:
        if state["seed"] != self.seed:
            raise ckpt.CheckpointError(f"checkpoint is of seed {state['seed']}, the run "
                                       f"resuming from it is of seed {self.seed}")
        if len(state["devices"]) != len(self.devices):
            raise ckpt.CheckpointError(f"checkpoint holds {len(state['devices'])} devices, "
                                       f"the run {len(self.devices)}")
        setattr(self, self.CLOCK, int(state[self.CLOCK]))
        for dev, dev_state in zip(self.devices, state["devices"]):
            dev[self.LEARNER].load_state_dict(dev_state[self.LEARNER])
        if self.coordinator is not None:
            refs = self.coordinator.refs
            for k, (ref, dev_state) in enumerate(zip(refs, state["devices"])):
                name = f"device {k}'s shared_ref"
                saved = _checked(ref, dev_state["endpoint"]["shared_ref"], name)
                if k and ref is refs[0]:  # sync mode: device 0's reference is every device's
                    if not same_bits(ref, saved.astype(ref.dtype, copy=False)):
                        raise ckpt.CheckpointError(
                            f"checkpoint {name} differs from device 0's, but every "
                            f"device of a sync-mode run measures its delta from one "
                            f"reference")
                else:
                    ref[...] = saved
            self.coordinator.theta[...] = _checked(
                self.coordinator.theta, state["coordinator"]["theta"], "theta")
        self.rows = [MetricsRow(*row) for row in state["rows"]]


def _on_device(exc: NonFiniteError, index: int) -> NonFiniteError:
    """``exc``, naming device ``index``: it came from that device's own call
    (on a stack of one, whose index is 0)."""
    exc.device = index
    return exc


def _checked(dst: np.ndarray, saved, name: str) -> np.ndarray:
    """A checkpoint array that goes into ``dst``; another shape is a ``CheckpointError``."""
    saved = np.asarray(saved)
    if saved.shape != dst.shape:
        raise ckpt.CheckpointError(
            f"checkpoint {name} has shape {saved.shape}, the run holds {dst.shape}")
    return saved


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
    return _load_cifar(d, "train_path"), _load_cifar(d, "test_path")


def _load_cifar(data: dict, key: str) -> Dataset:
    """The CIFAR-10 file at ``data[key]``; one that holds no records, or is
    not CIFAR-10 binary, is a ``ConfigError`` naming ``data.<key>``."""
    try:
        dataset = load_cifar10_binary(data[key])
    except ValueError as exc:
        raise ConfigError(f"data.{key}: {exc}") from None
    if len(dataset) == 0:
        raise ConfigError(f"data.{key}: {data[key]} holds no CIFAR-10 records")
    return dataset


class SupervisedRun(_Run):
    """One seed of a round-based supervised experiment."""

    CLOCK = "round"
    LEARNER = "trainer"

    def __init__(self, config: ExperimentConfig, seed: int):
        if config.supervised is None:
            raise ValueError("config has no supervised section")
        self.end = config.supervised.rounds
        pool, self.test_set = _load_supervised_data(config, seed)
        fractions = [d.data_fraction for d in config.devices]
        try:
            self.partition = partition_dataset(pool, fractions, child_seed(seed, "partition"))
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from None
        if not all(len(train) for train in self.partition.train_indices):
            raise ConfigError(f"data: {len(pool)} examples leave a device with no "
                              f"training example under the fractions {tuple(fractions)}")
        # per device: train features, train labels, validation features and labels
        self._shards = [(pool.features[train], pool.labels[train],
                         pool.features[val], pool.labels[val])
                        for train, val in zip(self.partition.train_indices,
                                              self.partition.val_indices)]
        super().__init__(config, seed)

    def _make_learner(self, index, dev_cfg, optimizer):
        # the devices step in lockstep, on the whole stack
        trainer = SupervisedTrainer(
            self.stack.networks[index], self.stack.stores[index], optimizer,
            *self._shards[index],
            rng=child_rng(self.seed, "train", dev_cfg.id),
            round_samples=self.config.supervised.round_samples,
            minibatch_size=self.config.supervised.minibatch_size, stack=self.stack,
            taken={dev["net"]: dev["trainer"].snapshot for dev in self.devices})
        return trainer, self.partition.shard_size(index)

    def play_round(self) -> None:
        self.round += 1
        first, *peers = [dev["trainer"] for dev in self.devices]
        for dev, (loss, acc) in zip(self.devices, first.train_round(tuple(peers))):
            self._row(self.round, dev["cfg"].id, "train", "loss", loss)
            self._row(self.round, dev["cfg"].id, "train", "accuracy", acc)
        self._sync_and_log(self.round)
        taken = {}  # the snapshots taken this round, see SupervisedTrainer
        for k, dev in enumerate(self.devices):
            try:
                val_acc = dev["trainer"].validate_and_snapshot(taken)
            except NonFiniteError as exc:
                raise _on_device(exc, k)
            self._row(self.round, dev["cfg"].id, "validation", "accuracy", val_acc)

    _tick = play_round

    def finalize(self) -> None:
        """One test accuracy row per device, from its best-validation snapshot.

        A snapshot is scored once per distinct model: a device that shares an
        earlier device's network (devices on one branch do) and whose snapshot
        is the same array, or has the same bits (so ``0.0`` and ``-0.0``
        differ), reuses that accuracy, which the same pass would reproduce
        bit for bit. In homogeneous mode, where every sync broadcasts one set
        of parameters, most devices end on a snapshot another already holds,
        most often as the same array.
        """
        scored: list[tuple[DeviceNetwork, np.ndarray, float]] = []
        for k, dev in enumerate(self.devices):
            trainer, net = dev["trainer"], dev["net"]
            snap = trainer.snapshot
            for other, other_snap, acc in scored:
                if other is net and same_bits(other_snap, snap):
                    break
            else:
                try:
                    acc = trainer.evaluate(self.test_set.features, self.test_set.labels,
                                           flat=snap)
                except NonFiniteError as exc:
                    raise _on_device(exc, k)
                scored.append((net, snap, acc))
            self._row(self.round, dev["cfg"].id, "test", "accuracy", acc)


# ---------------------------------------------------------------------------
# Reinforcement-learning runs
# ---------------------------------------------------------------------------

def _make_env(env: dict, rng) -> GridWorld:
    """A gridworld from the parsed ``environment`` section (cells are tuples)."""
    return GridWorld(rng=rng, **{k: v for k, v in env.items() if k != "type"})


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
        env = _make_env(config.environment, rng=None)
        check_data_shapes(config.topology, (env.state_dim,), (env.n_actions,))
        self.end = rl.total_steps
        self.schedule = EpsilonSchedule(rl.epsilon_start, rl.epsilon_end,
                                        rl.epsilon_decay_steps, rl.epsilon_test)
        super().__init__(config, seed)

    def _make_learner(self, index, dev_cfg, optimizer):
        seed, rl = self.seed, self.config.rl
        learner = DdqlLearner(
            self.stack.rows[index], optimizer,
            env=_make_env(self.config.environment, child_rng(seed, "env", dev_cfg.id)),
            eval_env=_make_env(self.config.environment,
                               child_rng(seed, "eval-env", dev_cfg.id)),
            replay=ReplayBuffer(dev_cfg.replay_capacity), schedule=self.schedule,
            act_rng=child_rng(seed, "act", dev_cfg.id),
            replay_rng=child_rng(seed, "replay", dev_cfg.id),
            eval_rng=child_rng(seed, "eval-act", dev_cfg.id),
            gamma=rl.gamma, batch_size=rl.batch_size,
            warmup_steps=rl.warmup(dev_cfg.replay_capacity))
        return learner, dev_cfg.replay_capacity

    def play_step(self) -> None:
        """One tick of the global clock: interactions, then any sync event."""
        self.step += 1
        for k, dev in enumerate(self.devices):
            if _acts_now(self.step, dev["cfg"].rate):
                try:
                    dev["learner"].interact()
                except NonFiniteError as exc:
                    raise _on_device(exc, k)
        if self.step % self.config.rl.sync_period == 0:
            self._sync_event()

    _tick = play_step

    def finalize(self) -> None:
        """Nothing: every RL row is written at a sync event."""

    def _sync_event(self) -> None:
        # test epoch first, then synchronization, then the target copy
        for k, dev in enumerate(self.devices):
            try:
                reward = dev["learner"].test_epoch(self.config.rl.test_episodes)
            except NonFiniteError as exc:
                raise _on_device(exc, k)
            self._row(self.step, dev["cfg"].id, "test", "reward", reward)
        self._sync_and_log(self.step)
        for dev in self.devices:
            dev["learner"].copy_target()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def make_run(config: ExperimentConfig, seed: int):
    return SupervisedRun(config, seed) if config.task == "supervised" else RlRun(config, seed)


def save_run_checkpoint(run: _Run, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    ckpt.save_checkpoint(path, run.state_dict(), ckpt.config_hash(run.config.raw))


def load_run_checkpoint(config: ExperimentConfig, seed: int, path) -> _Run:
    state = ckpt.load_checkpoint(path, ckpt.config_hash(config.raw))
    run = make_run(config, seed)
    try:
        run.load_state_dict(state)
    except (LookupError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ckpt.CheckpointError(f"{path}: the checkpoint payload is not a run's state "
                                   f"({type(exc).__name__}: {exc})") from exc
    return run


def _checkpoint_path(run_dir, seed: int) -> Path:
    return Path(run_dir) / "checkpoints" / f"seed-{seed}.ckpt"


def _run_seed(config: ExperimentConfig, seed: int, checkpoint_at: int | None,
              out_dir, resume) -> list[MetricsRow]:
    run = (make_run(config, seed) if resume is None else
           load_run_checkpoint(config, seed, _checkpoint_path(resume, seed)))
    path = None if checkpoint_at is None else _checkpoint_path(out_dir, seed)
    return run.run(checkpoint_at, path)


def _run_seeds(config: ExperimentConfig, seeds: list[int],
               *checkpointing) -> dict[int, list[MetricsRow]]:
    # one seed's run is freed before the next one is built
    return {seed: _run_seed(config, seed, *checkpointing) for seed in seeds}


def _run_all_seeds(config: ExperimentConfig, seeds: list[int],
                   *checkpointing) -> dict[int, list[MetricsRow]]:
    """Every seed's rows, the seeds split over ``min(seeds, usable CPUs)`` processes.

    This process runs ``seeds[0::k]``; forked worker ``j`` runs ``seeds[j::k]``.
    A worker's exception is re-raised here; a worker that dies raises
    ``BrokenProcessPool``. ``checkpointing`` is passed on to :func:`_run_seed`.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = 1
    k = min(len(seeds), cpus)
    if k == 1:
        return _run_seeds(config, seeds, *checkpointing)
    # imported here: make_run and sequential runs never pay for the pool modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers start without importing numpy and hetsim again, which
    # spawn would do on every call
    with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_seeds, config, seeds[j::k], *checkpointing)
                   for j in range(1, k)]
        by_seed = _run_seeds(config, seeds[0::k], *checkpointing)
        for future in futures:
            by_seed.update(future.result())
    return by_seed


def run_experiment(config: ExperimentConfig, out_dir=None, seed_offset: int = 0,
                   checkpoint_at: int | None = None, resume=None) -> dict:
    """Run every seed, write metrics and the aggregated companion, return a summary.

    With ``checkpoint_at``, each seed's run is saved to
    ``out_dir/checkpoints/seed-<s>.ckpt`` when its round (supervised) or
    step (RL) reaches that value, and then runs on. With ``resume``, each
    seed starts from ``resume/checkpoints/seed-<s>.ckpt``; the checkpoint
    holds the rows written before it, so the output files are those of a
    run that was never stopped.
    """
    if checkpoint_at is not None and out_dir is None:
        raise ValueError("checkpoints are written under out_dir; none was given")
    seeds = [s + seed_offset for s in config.seeds]
    by_seed = _run_all_seeds(config, seeds, checkpoint_at, out_dir, resume)
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
