"""Per-device training loops: double deep Q-learning and round-based
supervised training.

Both learners own their device's parameters and optimizer; the rest of
the system touches only the shared slice of those parameters, which the
coordinator reads and overwrites at a sync. All randomness comes from
generators injected at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn.losses import cross_entropy, huber
from .nn.network import NonFiniteError
from .nn.optim import Optimizer
from .nn.params import ParamStore
from .topology import DeviceNetwork, DeviceStack


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two flat vectors of one dtype hold the same bits, so that
    ``0.0`` and ``-0.0`` differ. One array is equal to itself at once, and
    the last entries are compared first: two devices' vectors that differ
    at all mostly differ there, in their local blocks, so most unequal
    pairs cost no pass."""
    if a is b:
        return True
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    bits = np.dtype(f"u{a.itemsize}")
    a, b = a.view(bits), b.view(bits)
    return bool(np.array_equal(a[-1:], b[-1:]) and np.array_equal(a, b))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Experience replay
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling.

    Once full, each insert overwrites the oldest entry. A sampled batch
    never repeats a slot (sampling without replacement within the batch).
    Each field lives in one array of ``capacity`` rows, allocated on the
    first insert with that state's shape and dtype; actions are int64,
    rewards float64 and terminal flags bool.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fields: tuple[np.ndarray, ...] | None = None
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, state, action, reward, next_state, terminal) -> None:
        state, next_state = np.asarray(state), np.asarray(next_state)
        if self._fields is None:
            rows = (self.capacity, *state.shape)
            self._fields = (np.zeros(rows, state.dtype), np.zeros(self.capacity, np.int64),
                            np.zeros(self.capacity, np.float64),
                            np.zeros(rows, state.dtype), np.zeros(self.capacity, bool))
        states, actions, rewards, next_states, terminals = self._fields
        if state.shape != states.shape[1:] or next_state.shape != states.shape[1:]:
            raise ValueError(f"transition states of shape {state.shape} and "
                             f"{next_state.shape}; the buffer holds {states.shape[1:]}")
        i = self._next
        states[i] = state
        actions[i] = int(action)
        rewards[i] = float(reward)
        next_states[i] = next_state
        terminals[i] = bool(terminal)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from {self._size} transitions")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return tuple(field[idx] for field in self._fields)

    def state_dict(self) -> dict:
        """``fields``: copies of the five field arrays, or None before the first insert."""
        fields = None if self._fields is None else [f.copy() for f in self._fields]
        return {"fields": fields, "next": self._next, "size": self._size}

    def load_state_dict(self, state: dict) -> None:
        fields = state["fields"]
        if fields is not None and len(fields[0]) != self.capacity:
            raise ValueError("replay capacity mismatch")
        self._fields = None if fields is None else tuple(f.copy() for f in fields)
        self._next = int(state["next"])
        self._size = int(state["size"])


# ---------------------------------------------------------------------------
# Epsilon schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear decay from start to end over decay_steps, then flat."""

    start: float = 1.0
    end: float = 0.1
    decay_steps: int = 1_000_000
    test: float = 0.02

    def value(self, t: int) -> float:
        if t >= self.decay_steps:
            return self.end
        frac = t / self.decay_steps
        return self.start + (self.end - self.start) * frac


def explore_action(epsilon: float, n_actions: int, rng: np.random.Generator) -> int | None:
    """The exploring half of the epsilon-greedy rule: a uniform action in
    ``range(n_actions)`` with probability epsilon, else None (act greedily).

    ``rng`` is drawn from once when epsilon > 0, and once more on explore.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def greedy_action(q_values: np.ndarray) -> int:
    """Argmax over the Q-values; the lowest index wins ties."""
    return int(np.argmax(q_values))


# ---------------------------------------------------------------------------
# Double deep Q-learning
# ---------------------------------------------------------------------------

def ddql_targets(rewards, next_states, terminals, gamma,
                 q_next_online: np.ndarray, q_next_target: np.ndarray) -> np.ndarray:
    """Bootstrap targets: reward, plus the target net's value at the online
    net's argmax action for non-terminal transitions."""
    best_actions = np.argmax(q_next_online, axis=1)
    boot = q_next_target[np.arange(len(best_actions)), best_actions]
    y = rewards + gamma * np.where(terminals, 0.0, boot)
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite Q target")
    return y


class DdqlLearner:
    """One device's DDQL loop: act, replay, minibatch updates, target copies.

    The environment must expose reset() -> state, step(a) -> (state, reward,
    terminal) and n_actions. ``eval_env`` is a separate instance used for
    test epochs so they never disturb the training episode. The learner
    trains as a stack of one over ``store`` and reads Q-values on
    ``store.row()`` and ``target_store.row()``.
    """

    def __init__(self, network: DeviceNetwork, store: ParamStore, optimizer: Optimizer,
                 env, eval_env, replay: ReplayBuffer, schedule: EpsilonSchedule,
                 act_rng: np.random.Generator, replay_rng: np.random.Generator,
                 eval_rng: np.random.Generator, gamma: float = 0.99,
                 batch_size: int = 32, warmup_steps: int | None = None):
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        self.network = network
        self.store = store
        self.stack = DeviceStack.alone(network, store)  # trains as a stack of one
        self.target_store = store.copy()
        self.optimizer = optimizer
        self.env = env
        self.eval_env = eval_env
        self.replay = replay
        self.schedule = schedule
        self.act_rng = act_rng
        self.replay_rng = replay_rng
        self.eval_rng = eval_rng
        self.gamma = gamma
        self.n_actions = math.prod(network.output_shape())
        self.batch_size = batch_size
        if warmup_steps is None:
            warmup_steps = max(batch_size, replay.capacity // 20)
        self.warmup_steps = max(warmup_steps, batch_size)
        self.steps = 0  # device-local interaction count
        self._state = None

    # -- acting --------------------------------------------------------------

    def q_of(self, row: ParamStore, states: np.ndarray) -> np.ndarray:
        """Q-values (B, A) of ``states`` on ``store.row()`` or ``target_store.row()``."""
        return self.network.predict(row, states[None])[0]

    def act(self, state: np.ndarray, epsilon: float) -> int:
        """Epsilon-greedy action for ``state``.

        The explore draw comes first, and the network runs only when the
        step exploits, so an exploring step reads no Q-values. A non-finite
        network therefore raises :class:`NonFiniteError` at the first greedy
        act, not at an exploring one (``train_batch`` reads Q on every warm
        step).
        """
        action = explore_action(epsilon, self.n_actions, self.act_rng)
        if action is None:
            action = greedy_action(self.q_of(self.store.row(), state[None])[0])
        return action

    # -- training ------------------------------------------------------------

    def train_batch(self, states, actions, rewards, next_states, terminals) -> float:
        """One minibatch update; returns the mean Huber loss."""
        q_next_online = self.q_of(self.store.row(), next_states)
        q_next_target = self.q_of(self.target_store.row(), next_states)
        y = ddql_targets(rewards, next_states, terminals, self.gamma,
                         q_next_online, q_next_target)
        q, cache = self.network.forward(self.stack, states[None], mode="train",
                                        rng=[self.act_rng])
        n = len(actions)
        rows = np.arange(n)
        picked = q[0, rows, actions]
        losses, dpicked = huber(y, picked, delta=1.0)
        dq = np.zeros_like(q)
        dq[0, rows, actions] = dpicked / n
        grads, = self.network.backward(cache, dq, self.stack)
        self.optimizer.step(self.store.flat, grads.flat)
        return float(losses.sum() / n)  # np.mean's own sum and division

    def interact(self) -> None:
        """One environment interaction plus one training minibatch when warm."""
        if self._state is None:
            self._state = self.env.reset()
        eps = self.schedule.value(self.steps)
        action = self.act(self._state, eps)
        next_state, reward, done = self.env.step(action)
        self.replay.add(self._state, action, reward, next_state, done)
        self._state = None if done else next_state
        self.steps += 1
        if len(self.replay) >= self.warmup_steps:
            self.train_batch(*self.replay.sample(self.replay_rng, self.batch_size))

    # -- evaluation & synchronization -----------------------------------------

    def test_epoch(self, episodes: int = 1) -> float:
        """Mean return of greedy-ish episodes (epsilon = schedule.test).

        Each step draws the explore decision first, as :meth:`act` does,
        and runs the network only on a greedy step. The parameters cannot
        change during the call, so each distinct state is passed through
        the network at most once: its greedy action is kept, keyed by the
        state's bytes, and reused whenever a greedy step meets the state
        again. A batch-1 pass on the same parameters and input gives the
        same bits, so the returns and ``eval_rng`` draws are those of a
        pass per step. The kept actions are dropped when the call returns.
        """
        greedy: dict[bytes, int] = {}
        total = 0.0
        for _ in range(episodes):
            state = self.eval_env.reset()
            done = False
            ep = 0.0
            while not done:
                action = explore_action(self.schedule.test, self.n_actions, self.eval_rng)
                if action is None:
                    key = state.tobytes()
                    action = greedy.get(key)
                    if action is None:
                        action = greedy[key] = greedy_action(
                            self.q_of(self.store.row(), state[None])[0])
                state, reward, done = self.eval_env.step(action)
                ep += reward
            total += ep
        return total / episodes

    def copy_target(self) -> None:
        """Adopt the current (post-sync) online parameters as the target net."""
        self.target_store.set_flat(self.store.flat)

    def state_dict(self) -> dict:
        return {
            "flat": self.store.flatten(),
            "target_flat": self.target_store.flatten(),
            "optimizer": self.optimizer.state_dict(),
            "replay": self.replay.state_dict(),
            "steps": self.steps,
            "state": None if self._state is None else np.asarray(self._state),
            "act_rng": self.act_rng.bit_generator.state,
            "replay_rng": self.replay_rng.bit_generator.state,
            "eval_rng": self.eval_rng.bit_generator.state,
            "env": self.env.state_dict(),
            "eval_env": self.eval_env.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.store.set_flat(state["flat"])
        self.target_store.set_flat(state["target_flat"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.replay.load_state_dict(state["replay"])
        self.steps = int(state["steps"])
        self._state = None if state["state"] is None else np.asarray(state["state"])
        self.act_rng.bit_generator.state = state["act_rng"]
        self.replay_rng.bit_generator.state = state["replay_rng"]
        self.eval_rng.bit_generator.state = state["eval_rng"]
        self.env.load_state_dict(state["env"])
        self.eval_env.load_state_dict(state["eval_env"])


# ---------------------------------------------------------------------------
# Round-based supervised training
# ---------------------------------------------------------------------------

class SupervisedTrainer:
    """One device's round loop over its local shard.

    Each round draws ``round_samples`` examples from the train split
    (without replacement when the split is large enough, with replacement
    otherwise) and trains in minibatches. Validation accuracy gates a
    best-parameters snapshot; evaluation always uses the snapshot.

    A snapshot is a read-only array that is replaced, never written, so
    devices may share one. ``taken``, at construction and at validation,
    maps a network to the last snapshot taken on it: if
    that has the bits of this device's parameters it becomes this
    device's snapshot too, with no copy; else a copy does, and the map
    keeps it.

    ``stack`` is the :class:`~hetsim.topology.DeviceStack` whose rows hold
    this device's parameters (``store``) and its peers'; without one, the
    device is a stack of one over ``store``.
    """

    def __init__(self, network: DeviceNetwork, store: ParamStore, optimizer: Optimizer,
                 train_x: np.ndarray, train_y: np.ndarray,
                 val_x: np.ndarray, val_y: np.ndarray,
                 rng: np.random.Generator, round_samples: int = 2000,
                 minibatch_size: int = 32, stack: DeviceStack | None = None,
                 taken: dict | None = None):
        if len(train_x) == 0:
            raise ValueError("empty training shard")
        if len(val_x) == 0:
            raise ValueError("empty validation shard")
        self.network = network
        self.store = store
        self.stack = DeviceStack.alone(network, store) if stack is None else stack
        self.optimizer = optimizer
        self.train_x, self.train_y = train_x, train_y
        self.val_x, self.val_y = val_x, val_y
        self.rng = rng
        self.round_samples = round_samples
        self.minibatch_size = minibatch_size
        self.best_val_accuracy = -np.inf
        self._take_snapshot(taken)  # the initial params

    def _draw_round_indices(self) -> np.ndarray:
        n = len(self.train_x)
        replace = n < self.round_samples
        return self.rng.choice(n, size=self.round_samples, replace=replace)

    def train_round(self, peers: tuple["SupervisedTrainer", ...] = ()
                    ) -> list[tuple[float, float]]:
        """Train one round of this device and its ``peers`` in lockstep;
        returns each one's (mean loss, accuracy), this device first.

        The trainers are the rows of this device's stack, in order, and
        take minibatch k of the round together, a group of the stack at a
        time: each draws its round's examples, and its dropout masks, from
        its own generator in the order it would alone, so each device gets
        the bits of its own round alone. With no peers this is one
        device's round.
        """
        trainers = (self, *peers)
        stack = self.stack
        if len(trainers) != len(stack.stores) or any(
                t.store is not store
                or (t.round_samples, t.minibatch_size) != (self.round_samples,
                                                          self.minibatch_size)
                for t, store in zip(trainers, stack.stores)):
            raise ValueError("the trainers must be the rows of one stack, in order, "
                             "with one round and minibatch size")
        rounds = [t._draw_round_indices() for t in trainers]
        ys = np.stack([t.train_y[idx] for t, idx in zip(trainers, rounds)])
        # minibatch k's examples, device d's in row d, gathered into one buffer
        xs = np.empty((len(trainers), self.minibatch_size) + self.train_x.shape[1:],
                      dtype=np.result_type(*(t.train_x for t in trainers)))
        rngs = [t.rng for t in trainers]
        starts = range(0, self.round_samples, self.minibatch_size)
        # each minibatch's summed loss, device d's in row d
        losses = np.empty((len(trainers), len(starts)))
        predicted = np.empty(ys.shape, dtype=np.intp)
        groups = stack.groups
        for k, lo in enumerate(starts):
            batch = slice(lo, lo + self.minibatch_size)
            y = ys[:, batch]
            x = xs[:, :y.shape[1]]
            for t, idx, row in zip(trainers, rounds, x):
                t.train_x.take(idx[batch], axis=0, out=row)
            first = 0
            for group in groups:  # one after another, see DeviceStack
                rows = slice(first, first + len(group.stores))
                try:
                    probs, cache = self.network.forward(group, x[rows], mode="train",
                                                        rng=rngs[rows])
                    loss, dlogits = cross_entropy(probs, y[rows])
                except NonFiniteError as exc:  # a device of the group, or its one device
                    exc.device = first + (exc.device or 0)
                    raise
                grads = self.network.backward(cache, dlogits, group, from_logits=True)
                del cache  # free the activations before the next group's forward pass
                for d, (t, g) in enumerate(zip(trainers[rows], grads), first):
                    try:
                        t.optimizer.step(t.store.flat, g.flat)
                    except NonFiniteError as exc:
                        exc.device = d
                        raise
                np.multiply(loss, y.shape[1], out=losses[rows, k])
                probs.argmax(axis=-1, out=predicted[rows, batch])
                first = rows.stop
        correct = (predicted == ys).sum(axis=-1)
        return [(float(np.sum(row) / self.round_samples), int(c) / self.round_samples)
                for row, c in zip(losses, correct)]

    def evaluate(self, x: np.ndarray, y: np.ndarray, flat: np.ndarray | None = None,
                 chunk: int = 512) -> float:
        """Accuracy of the given parameters (default: current) on (x, y).

        ``flat`` is read through a one-row store of the same layout over it,
        so the live store is never written, not even by a pass that raises.
        """
        row = (self.store if flat is None else self.store.over(flat)).row()
        correct = 0
        for lo in range(0, len(x), chunk):
            probs = self.network.predict(row, x[None, lo:lo + chunk])
            correct += int((probs[0].argmax(axis=1) == y[lo:lo + chunk]).sum())
        return correct / len(x)

    def validate_and_snapshot(self, taken: dict | None = None) -> float:
        """Validation accuracy; snapshots parameters on strict improvement,
        reusing a snapshot in ``taken`` (see the class docstring)."""
        accuracy = self.evaluate(self.val_x, self.val_y)
        if accuracy > self.best_val_accuracy:
            self.best_val_accuracy = accuracy
            self._take_snapshot(taken)
        return accuracy

    def _take_snapshot(self, taken: dict | None) -> None:
        taken = {} if taken is None else taken  # not ``or``: the caller's empty map fills
        flat, peer = self.store.flat, taken.get(self.network)
        if peer is not None and same_bits(peer, flat):
            self.snapshot = peer
        else:
            self.snapshot = taken[self.network] = _read_only(flat.copy())

    def state_dict(self) -> dict:
        return {
            "flat": self.store.flatten(),
            "optimizer": self.optimizer.state_dict(),
            "rng": self.rng.bit_generator.state,
            "best_val_accuracy": float(self.best_val_accuracy),
            "snapshot": self.snapshot,  # read-only: a snapshot is never written
        }

    def load_state_dict(self, state: dict) -> None:
        self.store.set_flat(state["flat"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["rng"]
        self.best_val_accuracy = float(state["best_val_accuracy"])
        # not copied: devices whose saved snapshot is one array keep sharing it
        self.snapshot = _read_only(np.asarray(state["snapshot"]))
