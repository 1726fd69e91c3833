"""Gradient-descent optimizers over flat parameter vectors.

All state (moments, step counter) is per-optimizer-instance and
shape-matched to the parameter vector. Steps mutate the parameter array
in place so that any views into it stay valid; Adam and RMSProp also
update their moment arrays in place, with at most two temporaries per
step, in the operation order of the textbook expressions (noted beside
each update), so the bits are those of the expression form. A step with
non-finite gradients raises before touching parameters or state.

Default hyperparameters: Adam lr 0.00025, RMSProp lr 0.0001 with lr decay
1e-6 per step. Decay follows the common schedule lr_t = lr / (1 + decay * t)
with t counted from 0 on the first step.

The constructors check the ranges: ``learning_rate`` and ``decay`` finite
and at least 0, ``beta1``, ``beta2`` and ``rho`` in [0, 1), ``eps`` finite
and above 0. A NaN fails every check.
"""
from __future__ import annotations

import math

import numpy as np

from .network import NonFiniteError


def _check_range(name: str, value: float, low: float, high: float = math.inf,
                 low_open: bool = False) -> None:
    """``value`` in [low, high), or (low, high) with ``low_open``; NaN fails."""
    above = value > low if low_open else value >= low
    if not (above and value < high):
        interval = f"{'(' if low_open else '['}{low}, {high})"
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


class Optimizer:
    """Base: subclasses implement _update(params, grads, lr)."""

    def __init__(self, learning_rate: float, decay: float = 0.0):
        # 0 is allowed as a degenerate no-op optimizer (useful in tests)
        _check_range("learning_rate", learning_rate, 0.0)
        _check_range("decay", decay, 0.0)
        self.learning_rate = float(learning_rate)
        self.decay = float(decay)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if params.shape != grads.shape:
            raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
        if not np.isfinite(grads).all():
            raise NonFiniteError("non-finite gradient; step aborted")
        lr = self.learning_rate / (1.0 + self.decay * self.t)
        self.t += 1
        self._update(params, grads, lr)

    def _update(self, params, grads, lr):
        raise NotImplementedError

    # state capture for checkpointing
    def state_dict(self) -> dict:
        return {"t": self.t}

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])


class Sgd(Optimizer):
    def __init__(self, learning_rate: float = 0.01, decay: float = 0.0):
        super().__init__(learning_rate, decay)

    def _update(self, params, grads, lr):
        params -= lr * grads


class Adam(Optimizer):
    def __init__(self, learning_rate: float = 0.00025, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, decay: float = 0.0):
        super().__init__(learning_rate, decay)
        _check_range("beta1", beta1, 0.0, 1.0)
        _check_range("beta2", beta2, 0.0, 1.0)
        _check_range("eps", eps, 0.0, low_open=True)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = None
        self._v = None

    def _update(self, params, grads, lr):
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        m, v = self._m, self._v
        # m = beta1 * m + (1 - beta1) * g
        tmp = np.multiply(grads, 1 - self.beta1)
        m *= self.beta1
        m += tmp
        # v = beta2 * v + ((1 - beta2) * g) * g
        np.multiply(grads, 1 - self.beta2, out=tmp)
        tmp *= grads
        v *= self.beta2
        v += tmp
        # params -= (lr * (m / (1 - beta1**t))) / (sqrt(v / (1 - beta2**t)) + eps)
        np.divide(m, 1 - self.beta1 ** self.t, out=tmp)
        tmp *= lr
        den = np.divide(v, 1 - self.beta2 ** self.t)
        np.sqrt(den, out=den)
        den += self.eps
        tmp /= den
        params -= tmp

    def state_dict(self) -> dict:
        return {"t": self.t,
                "m": None if self._m is None else self._m.copy(),
                "v": None if self._v is None else self._v.copy()}

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        self._m = None if state["m"] is None else state["m"].copy()
        self._v = None if state["v"] is None else state["v"].copy()


class RmsProp(Optimizer):
    def __init__(self, learning_rate: float = 0.0001, rho: float = 0.9,
                 eps: float = 1e-7, decay: float = 1e-6):
        super().__init__(learning_rate, decay)
        _check_range("rho", rho, 0.0, 1.0)
        _check_range("eps", eps, 0.0, low_open=True)
        self.rho, self.eps = rho, eps
        self._acc = None

    def _update(self, params, grads, lr):
        if self._acc is None:
            self._acc = np.zeros_like(params)
        acc = self._acc
        # acc = rho * acc + ((1 - rho) * g) * g
        tmp = np.multiply(grads, 1 - self.rho)
        tmp *= grads
        acc *= self.rho
        acc += tmp
        # params -= (lr * g) / (sqrt(acc) + eps)
        np.multiply(grads, lr, out=tmp)
        den = np.sqrt(acc)
        den += self.eps
        tmp /= den
        params -= tmp

    def state_dict(self) -> dict:
        return {"t": self.t, "acc": None if self._acc is None else self._acc.copy()}

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        self._acc = None if state["acc"] is None else state["acc"].copy()


_ALGORITHMS = {"sgd": Sgd, "adam": Adam, "rmsprop": RmsProp}


def make_optimizer(config: dict) -> Optimizer:
    """Build an optimizer from a config dict like {"algorithm": "adam", ...}."""
    cfg = dict(config)
    algo = cfg.pop("algorithm", None)
    if algo not in _ALGORITHMS:
        raise ValueError(f"unknown optimizer algorithm {algo!r}")
    return _ALGORITHMS[algo](**cfg)
