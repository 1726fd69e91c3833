"""Central-difference gradient verification: the test oracle for every
layer's backward pass.

The numeric side only ever calls the forward pass, so it stays independent
of the backward implementations it is checking. Stochastic layers are
handled by re-seeding an identical generator for every forward evaluation,
which pins the dropout masks across the perturbed evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hetsim.nn.layers import Softmax
from hetsim.nn.losses import cross_entropy
from hetsim.nn.network import KeyedLayer, backward_chain, forward_chain
from hetsim.nn.params import ParamKey, ParamStore


def _labels_for(out: np.ndarray, label) -> np.ndarray:
    if np.isscalar(label):
        return np.full(out.shape[0], int(label))
    return np.asarray(label)


def _chain_loss(keyed_layers: list[KeyedLayer], store: ParamStore, x, label,
                mode: str, rng_seed: int) -> float:
    rng = np.random.default_rng(rng_seed)
    out, _ = forward_chain(keyed_layers, store, x, mode=mode, rng=rng)
    if isinstance(keyed_layers[-1][1], Softmax):
        loss, _ = cross_entropy(out, _labels_for(out, label))
        return loss
    # squared-error against a constant target; sums over batch and features
    return float(((out - float(label)) ** 2).sum())


def _chain_grads(keyed_layers: list[KeyedLayer], store: ParamStore, x, label,
                 mode: str, rng_seed: int) -> ParamStore:
    rng = np.random.default_rng(rng_seed)
    out, cache = forward_chain(keyed_layers, store, x, mode=mode, rng=rng)
    grads = store.zeros_like()
    if isinstance(keyed_layers[-1][1], Softmax):
        # dL/dprobs of the mean cross-entropy, fed back through the Softmax
        rows, labels = np.arange(out.shape[0]), _labels_for(out, label)
        dy = np.zeros_like(out)
        dy[rows, labels] = -1.0 / (out.shape[0] * out[rows, labels])
    else:
        dy = 2.0 * (out - float(label))
    backward_chain(cache, dy, store, grads)
    return grads


@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic vs central-difference gradients."""

    max_rel_err: float
    per_param: dict[ParamKey, float]
    analytic: ParamStore
    numeric: ParamStore

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


def finite_diff_check(keyed_layers: list[KeyedLayer], store: ParamStore, x, label,
                      h: float = 1e-3, mode: str = "eval",
                      rng_seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against (L(p+h) - L(p-h)) / 2h per parameter.

    The loss is cross-entropy with integer ``label`` when the chain ends in
    Softmax, otherwise the summed squared deviation from the scalar
    ``label``. Relative error uses an absolute floor of 1e-2 in the
    denominator so near-zero gradients are compared on an absolute scale.
    """
    if store.dtype != np.float64:
        raise ValueError("gradient checks require 64-bit parameters")
    analytic = _chain_grads(keyed_layers, store, x, label, mode, rng_seed)
    numeric = store.zeros_like()
    work = store.copy()
    for i in range(store.size):
        orig = work.flat[i]
        work.flat[i] = orig + h
        up = _chain_loss(keyed_layers, work, x, label, mode, rng_seed)
        work.flat[i] = orig - h
        down = _chain_loss(keyed_layers, work, x, label, mode, rng_seed)
        work.flat[i] = orig
        numeric.flat[i] = (up - down) / (2.0 * h)
    per_param: dict[ParamKey, float] = {}
    worst = 0.0
    for key, _ in store.layout:
        a = analytic.view(key)
        n = numeric.view(key)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)
        rel = float((np.abs(a - n) / denom).max()) if a.size else 0.0
        per_param[key] = rel
        worst = max(worst, rel)
    return GradCheckReport(worst, per_param, analytic, numeric)
