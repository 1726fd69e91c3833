"""Synthetic data, CIFAR-10 binary IO, and shard partitioning."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.data import (
    Dataset,
    generate_synthetic_dataset,
    load_cifar10_binary,
    partition_dataset,
    write_cifar10_binary,
)


# -- synthetic blobs ------------------------------------------------------------

def _nearest_mean_accuracy(train, test):
    """Oracle classifier: nearest class mean (optimal for isotropic blobs)."""
    means = np.stack([train.features[train.labels == k].mean(axis=0)
                      for k in range(train.num_classes)])
    d = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return (d.argmin(axis=1) == test.labels).mean()


def test_separable_blobs_are_easy():
    train = generate_synthetic_dataset(2, 200, 4, class_separation=100.0, seed=1)
    test = generate_synthetic_dataset(2, 200, 4, class_separation=100.0, seed=2)
    assert _nearest_mean_accuracy(train, test) >= 0.99


def test_zero_separation_is_chance_level():
    train = generate_synthetic_dataset(4, 500, 3, class_separation=0.0, seed=3)
    test = generate_synthetic_dataset(4, 500, 3, class_separation=0.0, seed=4)
    accuracy = _nearest_mean_accuracy(train, test)
    # 3 sigma of a binomial around 1/4 over 2000 draws
    sigma = np.sqrt(0.25 * 0.75 / len(test))
    assert abs(accuracy - 0.25) < 3 * sigma + 1e-9


def test_same_seed_is_bit_identical():
    a = generate_synthetic_dataset(5, 50, 8, 2.0, seed=99)
    b = generate_synthetic_dataset(5, 50, 8, 2.0, seed=99)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_more_classes_than_dims_uses_circle_means():
    d = generate_synthetic_dataset(10, 20, 2, 5.0, seed=0)
    assert d.features.shape == (200, 2)
    assert set(np.unique(d.labels)) == set(range(10))


# -- CIFAR-10 binary ---------------------------------------------------------------

def test_constructed_two_record_fixture(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    raw = bytearray()
    for i, label in enumerate((3, 7)):
        raw.append(label)
        raw.extend(pixels[i].tobytes())
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes(raw))

    ds = load_cifar10_binary(path)
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.labels, [3, 7])
    assert ds.features.shape == (2, 32, 32, 3)
    # first stored byte is plane 0 (red) at row 0, col 0 of record 0
    assert ds.features[0, 0, 0, 0] == pixels[0, 0, 0, 0] / 255.0
    assert ds.features[1, 5, 9, 2] == pixels[1, 2, 5, 9] / 255.0
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    ds = load_cifar10_binary(path)
    assert len(ds) == 0


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(ValueError, match="truncated|multiple"):
        load_cifar10_binary(path)


def test_label_byte_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes([11]) + b"\x00" * 3072)
    with pytest.raises(ValueError, match="label"):
        load_cifar10_binary(path)


def test_writer_loader_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    n = 4
    features = rng.integers(0, 256, size=(n, 32, 32, 3)).astype(np.float64) / 255.0
    labels = rng.integers(0, 10, size=n)
    original = Dataset(features, labels, 10)
    path = tmp_path / "rt.bin"
    write_cifar10_binary(original, path)
    again = load_cifar10_binary(path)
    assert np.array_equal(again.features, original.features)
    assert np.array_equal(again.labels, original.labels)
    # record order preserved on disk
    raw = path.read_bytes()
    assert raw[0] == labels[0] and raw[3073] == labels[1]


# -- partitioning --------------------------------------------------------------------

def test_partition_80_20_and_split_sizes():
    ds = generate_synthetic_dataset(10, 5000, 4, 1.0, seed=0)  # 50,000 examples
    part = partition_dataset(ds, (0.8, 0.2), seed=1)
    assert part.shard_size(0) == 40_000 and part.shard_size(1) == 10_000
    assert part.train_indices[1].size == 8_000
    assert part.val_indices[1].size == 2_000


def test_single_fraction_takes_everything():
    ds = generate_synthetic_dataset(2, 10, 2, 1.0, seed=0)
    part = partition_dataset(ds, (1.0,), seed=0)
    assert part.shard_size(0) == 20


def test_empty_shard_rejected():
    ds = generate_synthetic_dataset(2, 5, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="empty shard"):
        partition_dataset(ds, (0.999, 0.001), seed=0)


def test_fractions_must_sum_to_one():
    ds = generate_synthetic_dataset(2, 5, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        partition_dataset(ds, (0.5, 0.4), seed=0)


def test_weak_fraction_sweep_from_5_to_50_percent():
    ds = generate_synthetic_dataset(10, 100, 2, 1.0, seed=0)  # 1000 examples
    for weak in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        part = partition_dataset(ds, (1.0 - weak, weak), seed=0)
        assert part.shard_size(1) == round(weak * 1000)


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 400), st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_shards_disjoint_and_exhaustive(n, n_dev, seed):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(n_dev))
    if raw.min() * n < 1.5:  # keep every shard non-empty
        raw = np.full(n_dev, 1.0 / n_dev)
    fractions = raw / raw.sum()
    ds = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), 1)
    part = partition_dataset(ds, fractions, seed)
    union = np.concatenate(part.shard_indices)
    assert union.size == n
    assert np.unique(union).size == n  # disjoint
    for i in range(n_dev):
        shard = set(part.shard_indices[i].tolist())
        train = set(part.train_indices[i].tolist())
        val = set(part.val_indices[i].tolist())
        assert train | val == shard and not (train & val)
        assert len(train) == int(np.floor(0.8 * len(shard)))


def test_largest_remainder_totals():
    ds = Dataset(np.zeros((7, 1)), np.zeros(7, dtype=int), 1)
    part = partition_dataset(ds, (1 / 3, 1 / 3, 1 / 3), seed=0)
    assert sorted(part.shard_size(i) for i in range(3)) == [2, 2, 3]
