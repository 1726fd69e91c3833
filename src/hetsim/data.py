"""Datasets: synthetic Gaussian blobs, CIFAR-10 binary files, shard partitioning."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CIFAR10_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes
CIFAR10_NUM_CLASSES = 10


@dataclass
class Dataset:
    """Feature and label arrays. Features are finite, labels in range."""

    features: np.ndarray  # (N, ...) real
    labels: np.ndarray    # (N,) integer class indices
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on example count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        if self.features.size and not np.isfinite(self.features).all():
            raise ValueError("non-finite feature values")

    def __len__(self) -> int:
        return self.features.shape[0]


def _class_means(num_classes: int, dims: int, separation: float) -> np.ndarray:
    """Class means: scaled one-hot corners when they fit, else a circle."""
    means = np.zeros((num_classes, dims))
    if dims >= num_classes:
        for k in range(num_classes):
            means[k, k] = separation
    else:
        if dims < 2:
            raise ValueError("dims must be >= 2 when num_classes > dims")
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means[:, 0] = separation * np.cos(angles)
        means[:, 1] = separation * np.sin(angles)
    return means


def generate_synthetic_dataset(num_classes: int, per_class: int, dims: int,
                               class_separation: float, seed: int) -> Dataset:
    """Unit-covariance Gaussian blobs, one mean per class, shuffled.

    ``class_separation`` scales the distance between class means, so class
    overlap (and with it the best achievable accuracy) is tunable. The same
    seed always produces the identical dataset.
    """
    if num_classes < 1 or per_class < 1 or dims < 1:
        raise ValueError("num_classes, per_class and dims must be positive")
    rng = np.random.default_rng(seed)
    means = _class_means(num_classes, dims, class_separation)
    labels = np.repeat(np.arange(num_classes), per_class)
    features = means[labels] + rng.standard_normal((labels.size, dims))
    order = rng.permutation(labels.size)
    return Dataset(features[order], labels[order], num_classes)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format: per record 1 label byte, then 3072 pixel bytes
# (three 1024-byte colour planes, each a row-major 32x32 image).
# ---------------------------------------------------------------------------

def load_cifar10_binary(path) -> Dataset:
    """Parse a CIFAR-10 binary file into (32, 32, 3) pixel tensors in [0, 1]."""
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size % CIFAR10_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {raw.size} is not a multiple of {CIFAR10_RECORD_BYTES}; "
            "file is truncated or not CIFAR-10 binary")
    n = raw.size // CIFAR10_RECORD_BYTES
    if n == 0:
        return Dataset(np.zeros((0, 32, 32, 3)), np.zeros(0, dtype=np.int64),
                       CIFAR10_NUM_CLASSES)
    records = raw.reshape(n, CIFAR10_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise ValueError(f"{path}: label byte {labels.max()} out of range 0..9")
    planes = records[:, 1:].reshape(n, 3, 32, 32)
    features = planes.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    return Dataset(features, labels, CIFAR10_NUM_CLASSES)


def write_cifar10_binary(dataset: Dataset, path) -> None:
    """Inverse of the loader, for fixtures and round-trip checks."""
    n = len(dataset)
    records = np.zeros((n, CIFAR10_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = dataset.labels.astype(np.uint8)
    pixels = np.round(np.asarray(dataset.features) * 255.0).astype(np.uint8)
    records[:, 1:] = pixels.transpose(0, 3, 1, 2).reshape(n, 3072)
    records.tofile(str(path))


# ---------------------------------------------------------------------------
# Shard partitioning
# ---------------------------------------------------------------------------

@dataclass
class DataPartition:
    """Disjoint per-device shards with an 80/20 train/validation split each."""

    shard_indices: list[np.ndarray]
    train_indices: list[np.ndarray]
    val_indices: list[np.ndarray]

    def shard_size(self, device: int) -> int:
        return int(self.shard_indices[device].size)


def _largest_remainder_sizes(n: int, fractions) -> list[int]:
    exact = [f * n for f in fractions]
    sizes = [int(np.floor(x)) for x in exact]
    leftover = n - sum(sizes)
    remainders = [x - s for x, s in zip(exact, sizes)]
    # hand leftover units to the largest remainders; ties go to the lower index
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def partition_dataset(dataset: Dataset, fractions, seed: int) -> DataPartition:
    """Random disjoint shards of the given fractions, then 80/20 per shard.

    Fractions must sum to 1 (within 1e-9). Shard sizes use largest-remainder
    rounding; the train side of each shard is floor(0.8 * shard size).
    """
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, expected 1")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    n = len(dataset)
    sizes = _largest_remainder_sizes(n, fractions)
    if any(s == 0 for s in sizes):
        raise ValueError(f"fractions {fractions} give an empty shard for {n} examples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    shards, trains, vals = [], [], []
    offset = 0
    for size in sizes:
        shard = np.sort(perm[offset:offset + size])
        offset += size
        n_train = int(np.floor(0.8 * size))
        split = rng.permutation(size)
        trains.append(shard[split[:n_train]])
        vals.append(shard[split[n_train:]])
        shards.append(shard)
    return DataPartition(shards, trains, vals)
