"""Loss functions with analytic gradients.

Cross-entropy is mean-reduced over the batch and returns the gradient with
respect to the pre-softmax logits (the numerically stable fused form).
Huber is elementwise; callers reduce it themselves.
"""
from __future__ import annotations

import numpy as np

from .network import ensure_finite

_clamp_warnings = 0


def clamp_warning_count() -> int:
    """How many times a predicted probability had to be clamped so far.

    The count is this process's only: clamps in seeds that
    ``run_experiment`` ran in a forked worker process are not included.
    """
    return _clamp_warnings


def reset_clamp_warnings() -> None:
    global _clamp_warnings
    _clamp_warnings = 0


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    ``probs`` must be softmax outputs, shape (N, C); ``labels`` integer class
    indices, shape (N,). The returned gradient is (probs - onehot) / N, valid
    at the input of the final softmax. Zero predicted probabilities are
    clamped to 1e-12 and counted, not raised. An empty batch raises
    ``ValueError``.
    """
    global _clamp_warnings
    probs = np.atleast_2d(np.asarray(probs))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    n, c = probs.shape
    if n == 0:
        raise ValueError("cross-entropy of an empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    row_sums = probs.sum(axis=-1)
    # np.allclose(row_sums, 1.0, atol=1e-6) with its default rtol, written out
    if not (np.abs(row_sums - 1.0) <= 1e-6 + 1e-5).all():
        raise ValueError("probabilities must sum to 1 per row")
    rows = np.arange(n)
    picked = probs[rows, labels]
    if picked.min() < 1e-12:  # rows sum to 1, so no NaN reaches here
        _clamp_warnings += int((picked < 1e-12).sum())
        picked = np.maximum(picked, 1e-12)
    loss = float(-(np.log(picked).sum() / n))  # the bits of -log(picked).mean()
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    ensure_finite("cross-entropy gradient", dlogits)
    return loss, dlogits


def huber(y_true, y_pred, delta: float = 1.0):
    """Elementwise Huber loss and d(loss)/d(y_pred).

    Quadratic 0.5*e^2 inside |e| <= delta, linear delta*|e| - 0.5*delta^2
    outside, with e = y_true - y_pred. Continuous and C1 at the seam.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    e = y_true - y_pred
    abs_e = np.abs(e)
    quad = abs_e <= delta
    loss = np.where(quad, 0.5 * e * e, delta * abs_e - 0.5 * delta * delta)
    # dL/de = e (quadratic) or delta*sign(e) (linear); de/dy_pred = -1
    dpred = np.where(quad, -e, -delta * np.sign(e))
    if loss.ndim == 0:
        return float(loss), float(dpred)
    return loss, dpred
