"""Per-device training loops: double deep Q-learning and round-based
supervised training.

Both learners own their device's parameters and optimizer exclusively and
interact with the rest of the system only through the sync endpoint the
harness wires in. All randomness comes from generators injected at
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn.losses import cross_entropy, huber
from .nn.network import NonFiniteError
from .nn.optim import Optimizer
from .nn.params import ParamStore
from .topology import DeviceNetwork


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

    def _write(self, i: int, state, action, reward, next_state, terminal) -> None:
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
        states[i] = state
        actions[i] = int(action)
        rewards[i] = float(reward)
        next_states[i] = next_state
        terminals[i] = bool(terminal)

    def add(self, state, action, reward, next_state, terminal) -> None:
        self._write(self._next, state, action, reward, next_state, terminal)
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
        """``slots`` holds one (state, action, reward, next_state, terminal)
        tuple per filled slot and None for the rest."""
        slots: list = [None] * self.capacity
        for i in range(self._size):
            s, a, r, ns, t = (field[i] for field in self._fields)
            slots[i] = (s.copy(), int(a), float(r), ns.copy(), bool(t))
        return {"slots": slots, "next": self._next, "size": self._size}

    def load_state_dict(self, state: dict) -> None:
        if len(state["slots"]) != self.capacity:
            raise ValueError("replay capacity mismatch")
        self._fields = None
        for i, slot in enumerate(state["slots"]):
            if slot is not None:
                self._write(i, *slot)
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


def epsilon_greedy_action(q_values: np.ndarray, epsilon: float,
                          rng: np.random.Generator) -> int:
    """Uniform action with probability epsilon, else argmax (lowest index wins ties)."""
    q_values = np.asarray(q_values).reshape(-1)
    action = explore_action(epsilon, q_values.size, rng)
    return greedy_action(q_values) if action is None else action


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
    test epochs so they never disturb the training episode.
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
        self.episode_returns: list[float] = []
        self._episode_return = 0.0

    # -- acting --------------------------------------------------------------

    def q_of(self, store: ParamStore, states: np.ndarray) -> np.ndarray:
        return self.network.predict(store, states)

    def act(self, state: np.ndarray, epsilon: float) -> int:
        """Epsilon-greedy action for ``state``.

        The explore draw comes first, and the network runs only when the
        step exploits, so an exploring step reads no Q-values. The draws
        and actions are those of :func:`epsilon_greedy_action` on the
        state's Q-row. A non-finite network therefore raises
        :class:`NonFiniteError` at the first greedy act, not at an
        exploring one (``train_batch`` reads Q on every warm step).
        """
        action = explore_action(epsilon, self.n_actions, self.act_rng)
        if action is None:
            action = greedy_action(self.q_of(self.store, state[None])[0])
        return action

    # -- training ------------------------------------------------------------

    def train_batch(self, states, actions, rewards, next_states, terminals) -> float:
        """One minibatch update; returns the mean Huber loss."""
        q_next_online = self.q_of(self.store, next_states)
        q_next_target = self.q_of(self.target_store, next_states)
        y = ddql_targets(rewards, next_states, terminals, self.gamma,
                         q_next_online, q_next_target)
        q, cache = self.network.forward(self.store, states, mode="train",
                                        rng=self.act_rng)
        n = len(actions)
        rows = np.arange(n)
        picked = q[rows, actions]
        losses, dpicked = huber(y, picked, delta=1.0)
        dq = np.zeros_like(q)
        dq[rows, actions] = dpicked / n
        grads = self.network.backward(cache, dq, self.store)
        self.optimizer.step(self.store.flat, grads.flat)
        return float(losses.sum() / n)  # np.mean's own sum and division

    def interact(self) -> dict:
        """One environment interaction plus one training minibatch when warm."""
        if self._state is None:
            self._state = self.env.reset()
        eps = self.schedule.value(self.steps)
        action = self.act(self._state, eps)
        next_state, reward, done = self.env.step(action)
        self.replay.add(self._state, action, reward, next_state, done)
        self._episode_return += reward
        self._state = None if done else next_state
        if done:
            self.episode_returns.append(self._episode_return)
            self._episode_return = 0.0
        self.steps += 1
        metrics = {"epsilon": eps}
        if len(self.replay) >= self.warmup_steps:
            metrics["loss"] = self.train_batch(*self.replay.sample(self.replay_rng,
                                                                   self.batch_size))
        return metrics

    # -- evaluation & synchronization -----------------------------------------

    def test_epoch(self, episodes: int = 1, max_steps: int | None = None) -> float:
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
            steps = 0
            while not done:
                action = explore_action(self.schedule.test, self.n_actions, self.eval_rng)
                if action is None:
                    key = state.tobytes()
                    action = greedy.get(key)
                    if action is None:
                        action = greedy[key] = greedy_action(
                            self.q_of(self.store, state[None])[0])
                state, reward, done = self.eval_env.step(action)
                ep += reward
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    break
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
            "episode_return": self._episode_return,
            "episode_returns": list(self.episode_returns),
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
        self._episode_return = float(state["episode_return"])
        self.episode_returns = list(state["episode_returns"])
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
    """

    def __init__(self, network: DeviceNetwork, store: ParamStore, optimizer: Optimizer,
                 train_x: np.ndarray, train_y: np.ndarray,
                 val_x: np.ndarray, val_y: np.ndarray,
                 rng: np.random.Generator, round_samples: int = 2000,
                 minibatch_size: int = 32):
        if len(train_x) == 0:
            raise ValueError("empty training shard")
        if len(val_x) == 0:
            raise ValueError("empty validation shard")
        self.network = network
        self.store = store
        self.optimizer = optimizer
        self.train_x, self.train_y = train_x, train_y
        self.val_x, self.val_y = val_x, val_y
        self.rng = rng
        self.round_samples = round_samples
        self.minibatch_size = minibatch_size
        self.best_val_accuracy = -np.inf
        self.snapshot = store.flatten()  # before any validation, the initial params

    def _draw_round_indices(self) -> np.ndarray:
        n = len(self.train_x)
        replace = n < self.round_samples
        return self.rng.choice(n, size=self.round_samples, replace=replace)

    def train_round(self) -> tuple[float, float]:
        """Train one round; returns (mean loss, accuracy)."""
        idx = self._draw_round_indices()
        losses, correct = [], 0
        for lo in range(0, len(idx), self.minibatch_size):
            batch = idx[lo:lo + self.minibatch_size]
            x, y = self.train_x[batch], self.train_y[batch]
            probs, cache = self.network.forward(self.store, x, mode="train", rng=self.rng)
            loss, dlogits = cross_entropy(probs, y)
            grads = self.network.backward(cache, dlogits, self.store, from_logits=True)
            self.optimizer.step(self.store.flat, grads.flat)
            losses.append(loss * len(batch))
            correct += int((probs.argmax(axis=1) == y).sum())
        return float(np.sum(losses) / len(idx)), correct / len(idx)

    def evaluate(self, x: np.ndarray, y: np.ndarray, flat: np.ndarray | None = None,
                 chunk: int = 512) -> float:
        """Accuracy of the given parameters (default: current) on (x, y).

        ``flat`` is read through a store of the same layout over it, so the
        live store is never written, not even by a pass that raises.
        """
        store = self.store if flat is None else self.store.over(flat)
        correct = 0
        for lo in range(0, len(x), chunk):
            probs = self.network.predict(store, x[lo:lo + chunk])
            correct += int((probs.argmax(axis=1) == y[lo:lo + chunk]).sum())
        return correct / len(x)

    def validate_and_snapshot(self) -> float:
        """Validation accuracy; snapshots parameters on strict improvement."""
        accuracy = self.evaluate(self.val_x, self.val_y)
        if accuracy > self.best_val_accuracy:
            self.best_val_accuracy = accuracy
            self.snapshot = self.store.flatten()
        return accuracy

    def state_dict(self) -> dict:
        return {
            "flat": self.store.flatten(),
            "optimizer": self.optimizer.state_dict(),
            "rng": self.rng.bit_generator.state,
            "best_val_accuracy": float(self.best_val_accuracy),
            "snapshot": self.snapshot.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.store.set_flat(state["flat"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["rng"]
        self.best_val_accuracy = float(state["best_val_accuracy"])
        self.snapshot = state["snapshot"].copy()
