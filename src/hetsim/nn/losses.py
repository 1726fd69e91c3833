"""Loss functions with analytic gradients.

Cross-entropy is mean-reduced over the batch and returns the gradient with
respect to the pre-softmax logits (the numerically stable fused form).
Huber is elementwise; callers reduce it themselves.
"""
from __future__ import annotations

import numpy as np

from .network import ensure_finite


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    ``probs`` must be softmax outputs, shape (N, C); ``labels`` integer class
    indices, shape (N,). The returned gradient is (probs - onehot) / N, valid
    at the input of the final softmax. Zero predicted probabilities are
    clamped to 1e-12, not raised. An empty batch raises
    ``ValueError``.

    Stacked devices pass ``probs`` of shape (D, N, C) and ``labels`` of
    shape (D, N); the loss is then a (D,) array, each entry and each
    gradient row with the bits of that device's call alone.
    """
    probs = np.asarray(probs)
    if probs.ndim < 2:
        probs = np.atleast_2d(probs)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.ndim < 1:
        labels = np.atleast_1d(labels)
    stacked = probs.ndim == 3 and labels.ndim == 2
    n, c = probs.shape[1:] if stacked else probs.shape
    if n == 0:
        raise ValueError("cross-entropy of an empty batch")
    if labels.shape != probs.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.view(np.uintp).max() >= c:  # a negative label wraps to above c
        raise ValueError("label out of range")
    # np.allclose(row sums, 1.0, atol=1e-6) with its default rtol, written
    # out; a NaN row makes the max NaN, which fails the test as it should
    if not np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-6 + 1e-5:
        raise ValueError("probabilities must sum to 1 per row")
    rows = np.arange(n)
    picked_at = (np.arange(len(probs))[:, None], rows, labels) if stacked else (rows, labels)
    picked = probs[picked_at]
    if picked.min() < 1e-12:  # rows sum to 1, so no NaN reaches here
        picked = np.maximum(picked, 1e-12)
    loss = -(np.log(picked).sum(axis=-1) / n)  # the bits of -log(picked).mean(), per device
    dlogits = probs.copy()
    dlogits[picked_at] -= 1.0
    dlogits /= n
    ensure_finite("cross-entropy gradient", dlogits, stacked)
    return (loss if stacked else float(loss)), dlogits


def huber(y_true, y_pred):
    """Elementwise Huber loss (delta 1) and d(loss)/d(y_pred), as arrays.

    Quadratic 0.5*e^2 inside |e| <= 1, linear |e| - 0.5 outside, with
    e = y_true - y_pred. Continuous and C1 at the seam.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    e = y_true - y_pred
    abs_e = np.abs(e)
    quad = abs_e <= 1.0
    loss = np.where(quad, 0.5 * e * e, abs_e - 0.5)
    # dL/de = e (quadratic) or sign(e) (linear); de/dy_pred = -1
    return loss, np.where(quad, -e, -np.sign(e))
