"""Synchronization protocol between devices and the coordinator.

Each device trains locally, sends the delta of its shared slice since the
last sync, and adopts the coordinator's shared parameters: local-step
model averaging restricted to the shared block. The coordinator adds the
weighted deltas with no extra step size, either synchronously (one merge
of every device's delta per round, as in federated averaging) or
asynchronously (each delta applied on its own, and its sender adopts the
result at once).

Everything here runs inline in one process, with the devices in id order,
so a round is deterministic. The frame codec below fixes the wire format;
:func:`sync_round` meters the payload bytes a frame would carry without
encoding it.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

COORDINATOR_MODES = ("sync", "async")
WEIGHTINGS = ("data-proportional", "uniform-average", "uniform-sum")

TAG_GRADIENT_UPDATE = 1
TAG_PARAM_BROADCAST = 2

_HEADER = struct.Struct("<IIQ")  # tag, device_id (or round), vector length


class ProtocolError(RuntimeError):
    pass


@dataclass
class GradientUpdate:
    device_id: int
    delta: np.ndarray


@dataclass
class ParamBroadcast:
    params: np.ndarray
    round_index: int = 0


def encode_message(msg, dtype=np.float64) -> bytes:
    """Length-prefixed little-endian frame: u32 tag, u32 id, u64 length, reals.

    The id slot carries the device id for updates and the round counter for
    broadcasts.
    """
    dtype = np.dtype(dtype)
    if isinstance(msg, GradientUpdate):
        vec = np.ascontiguousarray(msg.delta, dtype=dtype)
        head = _HEADER.pack(TAG_GRADIENT_UPDATE, msg.device_id, vec.size)
    elif isinstance(msg, ParamBroadcast):
        vec = np.ascontiguousarray(msg.params, dtype=dtype)
        head = _HEADER.pack(TAG_PARAM_BROADCAST, msg.round_index, vec.size)
    else:
        raise TypeError(f"cannot encode {msg!r}")
    return head + vec.astype(dtype.newbyteorder("<"), copy=False).tobytes()


def decode_message(buf: bytes, dtype=np.float64):
    dtype = np.dtype(dtype)
    if len(buf) < _HEADER.size:
        raise ProtocolError("frame shorter than header")
    tag, ident, length = _HEADER.unpack_from(buf)
    expected = _HEADER.size + length * dtype.itemsize
    if len(buf) != expected:
        raise ProtocolError(f"frame length {len(buf)} != expected {expected}")
    vec = np.frombuffer(buf, dtype=dtype.newbyteorder("<"), offset=_HEADER.size,
                        count=length).astype(dtype)
    if tag == TAG_GRADIENT_UPDATE:
        return GradientUpdate(ident, vec)
    if tag == TAG_PARAM_BROADCAST:
        return ParamBroadcast(vec, ident)
    raise ProtocolError(f"unknown frame tag {tag}")


def payload_nbytes(vector_len: int, dtype=np.float64) -> int:
    """Bytes of real-valued payload in one frame (header excluded)."""
    return int(vector_len) * np.dtype(dtype).itemsize


# ---------------------------------------------------------------------------
# Merge weighting
# ---------------------------------------------------------------------------

def compute_merge_weights(data_sizes, source: str) -> np.ndarray:
    """Per-device aggregation weights.

    data-proportional: |D_k| / |D| (requires positive sizes);
    uniform-average: 1/n; uniform-sum: all ones.
    """
    if source not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {source!r}")
    sizes = np.asarray(list(data_sizes), dtype=np.float64)
    n = sizes.size
    if n == 0:
        raise ValueError("no devices")
    if source == "uniform-sum":
        return np.ones(n)
    if source == "uniform-average":
        return np.full(n, 1.0 / n)
    if np.any(sizes <= 0):
        raise ValueError("data-proportional weighting needs positive data sizes")
    total = sizes.sum()
    return sizes / total


def merge_deltas(weights, deltas, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Elementwise weighted sum of equal-length flat vectors, in float64.

    Each term ``w * d`` is formed in float64 (a narrower delta is widened
    first) and added in order to a zeroed sum. ``out`` receives the sum and
    ``scratch`` holds one term at a time; either may be passed as a float64
    buffer of the deltas' shape, so that repeated merges allocate nothing.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(deltas) != weights.size:
        raise ValueError(f"{weights.size} weights but {len(deltas)} deltas")
    if not deltas:
        raise ValueError("no deltas to merge")
    length = np.asarray(deltas[0]).shape
    if out is None:
        out = np.zeros(length, dtype=np.float64)
    else:
        out.fill(0.0)
    if scratch is None:
        scratch = np.empty(length, dtype=np.float64)
    for w, d in zip(weights, deltas):
        d = np.asarray(d)
        if d.shape != length:
            raise ValueError(f"delta length {d.shape} != {length}")
        np.multiply(w, d, out=scratch, dtype=np.float64)
        out += scratch
    return out


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class Coordinator:
    """Holds the authoritative shared parameters and each device's reference
    point, and merges device deltas.

    ``shared`` holds each device's shared slice, a view of the block its
    parameter vector starts with (``store.flat[:shared_len]``), in the order
    of ``data_sizes``, from which the merge weights come. The slices must be
    equal. ``mode`` tells :func:`sync_round` which step a round runs: "sync"
    calls :meth:`merge` once with every device's delta, "async" calls
    :meth:`apply` once per device.

    ``theta`` starts as a float64 copy of the slices, and ``refs[k]`` as a
    copy of slice ``k`` in that device's dtype: the point its next delta is
    measured from. In sync mode every device adopts ``theta`` at once, so
    the devices share one reference, and ``refs`` holds that one array for
    every device; in async mode each device has its own. A round computes
    each delta in the device's shared slice, so ``theta``, the references
    and the two float64 buffers a merge works in (the sum and one term) are
    allocated here, once.
    """

    def __init__(self, mode: str, weighting: str, data_sizes, shared):
        if mode not in COORDINATOR_MODES:
            raise ValueError(f"coordinator mode must be sync or async, got {mode!r}")
        self.mode = mode
        self.weights = compute_merge_weights(data_sizes, weighting)
        if weighting != "uniform-sum":
            assert abs(self.weights.sum() - 1.0) < 1e-12
        self.shared = list(shared)
        if len(self.shared) != self.weights.size:
            raise ValueError(
                f"{len(self.shared)} shared slices for {self.weights.size} devices")
        if not all(np.array_equal(s, self.shared[0]) for s in self.shared[1:]):
            raise ValueError("initial shared parameters disagree across devices")
        self.theta = np.array(self.shared[0], dtype=np.float64)
        if mode == "sync":
            self.refs = [self.shared[0].copy()] * len(self.shared)
        else:
            self.refs = [s.copy() for s in self.shared]
        self._merged = np.empty_like(self.theta)
        self._scratch = np.empty_like(self.theta)

    def weight_of(self, device_id: int) -> float:
        if not 0 <= device_id < self.weights.size:
            raise ProtocolError(f"unknown device id {device_id}")
        return float(self.weights[device_id])

    def _check_length(self, delta) -> None:
        if np.shape(delta) != self.theta.shape:
            raise ProtocolError(
                f"delta length {np.shape(delta)} != shared length {self.theta.shape}")

    def merge(self, deltas) -> None:
        """The sync step: add the weighted deltas of every device, given in
        device-id order, to ``theta``."""
        if len(deltas) != self.weights.size:
            raise ProtocolError(
                f"{len(deltas)} deltas for {self.weights.size} devices")
        for delta in deltas:
            self._check_length(delta)
        self.theta += merge_deltas(self.weights, deltas,
                                   out=self._merged, scratch=self._scratch)

    def apply(self, device_id: int, delta) -> None:
        """The async step: add one device's weighted delta to ``theta``."""
        weight = self.weight_of(device_id)
        self._check_length(delta)
        np.multiply(weight, delta, out=self._scratch, dtype=np.float64)
        self.theta += self._scratch


def sync_round(coordinator: Coordinator) -> list[int]:
    """One round over every device; returns the payload bytes each sent.

    Device ``k``'s delta is its shared slice minus ``coordinator.refs[k]``,
    computed in the shared slice itself. In sync mode every device's delta
    is formed, the coordinator merges them, and every device adopts
    ``theta``. In async mode each delta is applied on its own and its
    sender adopts ``theta`` at once, so a later device in the round adopts
    the earlier devices' deltas too. Adopting writes ``theta`` into the
    shared slice (the rest of the device's parameters stay as they are),
    and the slice becomes the new reference. A device sends one frame of
    its shared slice in its own dtype; the bytes returned are that frame's
    payload, header excluded.
    """
    theta = coordinator.theta
    if coordinator.mode == "sync":
        ref = coordinator.refs[0]  # every device's
        for shared in coordinator.shared:
            np.subtract(shared, ref, out=shared)
        coordinator.merge(coordinator.shared)
        for shared in coordinator.shared:
            shared[...] = theta
        ref[...] = theta
    else:
        for k, (shared, ref) in enumerate(zip(coordinator.shared, coordinator.refs)):
            np.subtract(shared, ref, out=shared)
            coordinator.apply(k, shared)
            shared[...] = theta
            ref[...] = shared
    return [ref.nbytes for ref in coordinator.refs]
