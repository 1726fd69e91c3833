"""The softmax cross-entropy of ``hetsim.nn.losses`` as it was before its
rank and row-sum checks took fewer NumPy calls, copied verbatim.

``tests/test_losses.py`` checks the current function against it: the same
exception with the same message, or the same loss and gradient bytes.
"""
from __future__ import annotations

import numpy as np

from hetsim.nn.network import ensure_finite


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    ``probs`` must be softmax outputs, shape (N, C); ``labels`` integer class
    indices, shape (N,). The returned gradient is (probs - onehot) / N, valid
    at the input of the final softmax. Zero predicted probabilities are
    clamped to 1e-12, not raised. An empty batch raises
    ``ValueError``.
    """
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
        picked = np.maximum(picked, 1e-12)
    loss = float(-(np.log(picked).sum() / n))  # the bits of -log(picked).mean()
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    ensure_finite("cross-entropy gradient", dlogits)
    return loss, dlogits
