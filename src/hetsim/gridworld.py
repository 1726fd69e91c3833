"""A small deterministic gridworld for desk-scale reinforcement learning.

The agent walks a width x height grid from a start cell toward a goal,
with optional pit cells. Moving into a wall keeps the agent in place.
Rewards: reaching the goal pays the goal reward, falling into a pit pays
the pit reward, every other move pays the step penalty. Episodes end at
the goal, a pit, or the step cap. With slip probability zero the world is
fully deterministic.
"""
from __future__ import annotations

import numpy as np

_MOVES = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}


class GridWorld:
    n_actions = 4

    def __init__(self, width: int = 5, height: int = 5, start=(0, 0), goal=(4, 4),
                 pits=(), step_penalty: float = -0.01, goal_reward: float = 1.0,
                 pit_reward: float = -1.0, max_episode_steps: int = 50,
                 slip: float = 0.0, rng: np.random.Generator | None = None):
        if not (0 <= start[0] < width and 0 <= start[1] < height):
            raise ValueError("start cell outside the grid")
        if not (0 <= goal[0] < width and 0 <= goal[1] < height):
            raise ValueError("goal cell outside the grid")
        if tuple(start) == tuple(goal):
            raise ValueError("start and goal must differ")
        if not 0.0 <= slip < 1.0:
            raise ValueError("slip must be in [0, 1)")
        if max_episode_steps < 1:
            raise ValueError("max_episode_steps must be at least 1")
        self.width = width
        self.height = height
        self.start = tuple(start)
        self.goal = tuple(goal)
        self.pits = {tuple(p) for p in pits}
        if self.goal in self.pits or self.start in self.pits:
            raise ValueError("start/goal cannot be pits")
        self.step_penalty = step_penalty
        self.goal_reward = goal_reward
        self.pit_reward = pit_reward
        self.max_episode_steps = max_episode_steps
        self.slip = slip
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = width * height
        self._cell = self.start
        self._steps = 0
        self._done = True  # require reset() before the first step

    def encode(self, cell) -> np.ndarray:
        onehot = np.zeros(self.state_dim)
        onehot[cell[1] * self.width + cell[0]] = 1.0
        return onehot

    def reset(self) -> np.ndarray:
        self._cell = self.start
        self._steps = 0
        self._done = False
        return self.encode(self._cell)

    def step(self, action: int):
        """Returns (next_state, reward, terminal)."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        if action not in _MOVES:
            raise ValueError(f"invalid action {action}")
        if self.slip > 0.0 and self.rng.random() < self.slip:
            action = int(self.rng.integers(self.n_actions))
        dx, dy = _MOVES[action]
        x = min(max(self._cell[0] + dx, 0), self.width - 1)
        y = min(max(self._cell[1] + dy, 0), self.height - 1)
        self._cell = (x, y)
        self._steps += 1
        if self._cell == self.goal:
            reward, self._done = self.goal_reward, True
        elif self._cell in self.pits:
            reward, self._done = self.pit_reward, True
        else:
            reward = self.step_penalty
            if self._steps >= self.max_episode_steps:
                self._done = True
        return self.encode(self._cell), reward, self._done

    # checkpoint support
    def state_dict(self) -> dict:
        return {"cell": self._cell, "steps": self._steps, "done": self._done,
                "rng": self.rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        self._cell = tuple(state["cell"])
        self._steps = int(state["steps"])
        self._done = bool(state["done"])
        self.rng.bit_generator.state = state["rng"]
