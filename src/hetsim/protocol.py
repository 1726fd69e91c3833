"""Synchronization protocol between devices and the coordinator.

Each device trains locally, sends the delta of its shared slice since the
last sync, and adopts the merged shared parameters it gets back: local-step
model averaging restricted to the shared block. The coordinator adds the
weighted deltas with no extra step size, either synchronously (barrier over
all registered devices, then one broadcast) or asynchronously (apply each
update on arrival, reply to the sender only).

Everything here is single-threaded and deterministic: a :class:`LocalHub`
hands updates to the coordinator inline and queues replies per device. The
frame codec below fixes the wire format; the hub meters the payload bytes a
frame would carry without encoding it.
"""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from .nn.params import ParamStore
from .topology import ParameterPartition

COORDINATOR_MODES = ("sync", "async")
WEIGHTINGS = ("data-proportional", "uniform-average", "uniform-sum")

TAG_GRADIENT_UPDATE = 1
TAG_PARAM_BROADCAST = 2

_HEADER = struct.Struct("<IIQ")  # tag, device_id (or round), vector length


class ProtocolError(RuntimeError):
    pass


class SyncStallError(ProtocolError):
    """A synchronous round cannot complete because updates are missing."""


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


def merge_deltas(weights, deltas) -> np.ndarray:
    """Elementwise weighted sum of equal-length flat vectors."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(deltas) != weights.size:
        raise ValueError(f"{weights.size} weights but {len(deltas)} deltas")
    if not deltas:
        raise ValueError("no deltas to merge")
    length = np.asarray(deltas[0]).shape
    out = np.zeros_like(np.asarray(deltas[0]), dtype=np.float64)
    for w, d in zip(weights, deltas):
        d = np.asarray(d)
        if d.shape != length:
            raise ValueError(f"delta length {d.shape} != {length}")
        out += w * d
    return out


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

@dataclass
class _Registration:
    device_id: int
    shared_len: int
    data_size: int


class Coordinator:
    """Holds the authoritative shared parameters and merges device updates.

    ``mode`` "sync" implements a barrier: one update per registered device,
    then a single broadcast. ``mode`` "async" applies each update as it
    arrives and replies to the sender only.
    """

    def __init__(self, mode: str = "sync", weighting: str = "data-proportional"):
        if mode not in COORDINATOR_MODES:
            raise ValueError(f"coordinator mode must be sync or async, got {mode!r}")
        if weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {weighting!r}")
        self.mode = mode
        self.weighting = weighting
        self.theta: np.ndarray | None = None
        self.round_index = 0
        self._registrations: list[_Registration] = []
        self._weights: dict[int, float] | None = None
        self._pending: dict[int, np.ndarray] = {}

    # -- registration handshake (precedes round 0) --------------------------

    def register(self, device_id: int, shared_len: int, data_size: int) -> None:
        if self._weights is not None:
            raise ProtocolError("registration is closed")
        if any(r.device_id == device_id for r in self._registrations):
            raise ProtocolError(f"device {device_id} already registered")
        if self._registrations and self._registrations[0].shared_len != shared_len:
            raise ProtocolError(
                f"device {device_id} announces shared_len {shared_len}, "
                f"coordinator expects {self._registrations[0].shared_len}")
        self._registrations.append(_Registration(device_id, shared_len, data_size))

    def initialize(self, theta0: np.ndarray) -> ParamBroadcast:
        """Close registration, adopt the initial shared vector, broadcast it."""
        if not self._registrations:
            raise ProtocolError("no devices registered")
        theta0 = np.asarray(theta0, dtype=np.float64)
        if theta0.shape != (self._registrations[0].shared_len,):
            raise ProtocolError("initial shared vector has the wrong length")
        weights = compute_merge_weights(
            [r.data_size for r in self._registrations], self.weighting)
        if self.weighting != "uniform-sum":
            assert abs(weights.sum() - 1.0) < 1e-12
        self._weights = {r.device_id: float(w)
                         for r, w in zip(self._registrations, weights)}
        self.theta = theta0.copy()
        return ParamBroadcast(self.theta.copy(), self.round_index)

    def weight_of(self, device_id: int) -> float:
        if self._weights is None:
            raise ProtocolError("coordinator not initialized")
        return self._weights[device_id]

    def missing_device_ids(self) -> list[int]:
        """Devices whose update for the current synchronous round is missing."""
        return [r.device_id for r in self._registrations
                if r.device_id not in self._pending]

    # -- update handling -----------------------------------------------------

    def _check(self, update: GradientUpdate) -> None:
        if self.theta is None or self._weights is None:
            raise ProtocolError("coordinator not initialized")
        if update.device_id not in self._weights:
            raise ProtocolError(f"unknown device id {update.device_id}")
        if np.asarray(update.delta).shape != self.theta.shape:
            raise ProtocolError(
                f"update length {np.asarray(update.delta).shape} != shared "
                f"length {self.theta.shape}")

    def handle_update(self, update: GradientUpdate) -> list[tuple[int | None, ParamBroadcast]]:
        """Process one update; returns (destination, broadcast) pairs.

        Destination None means every registered device. In sync mode the
        list is empty until the round's last update arrives.
        """
        self._check(update)
        if self.mode == "async":
            self.theta += self._weights[update.device_id] * np.asarray(
                update.delta, dtype=self.theta.dtype)
            self.round_index += 1
            return [(update.device_id, ParamBroadcast(self.theta.copy(), self.round_index))]
        if update.device_id in self._pending:
            raise ProtocolError(
                f"device {update.device_id} sent two updates in one round")
        self._pending[update.device_id] = np.asarray(update.delta, dtype=self.theta.dtype)
        if self.missing_device_ids():
            return []
        merged = merge_deltas(
            [self._weights[r.device_id] for r in self._registrations],
            [self._pending[r.device_id] for r in self._registrations])
        self.theta += merged
        self._pending.clear()
        self.round_index += 1
        return [(None, ParamBroadcast(self.theta.copy(), self.round_index))]


# ---------------------------------------------------------------------------
# Device-side endpoint
# ---------------------------------------------------------------------------

class DeviceEndpoint:
    """One device's side of a sync: send the shared delta, adopt the merge.

    The device's canonical flat vector holds the shared block first. The
    update is the shared-slice delta since the last adopted broadcast;
    adopting a broadcast overwrites the shared slice and leaves the local
    slice alone.
    """

    def __init__(self, device_id: int, partition: ParameterPartition, store: ParamStore,
                 data_size: int):
        if store.size != partition.total_len:
            raise ValueError("store size does not match partition")
        self.device_id = device_id
        self.partition = partition
        self.store = store
        self.data_size = int(data_size)
        self._shared_ref = store.flat[:partition.shared_len].copy()

    @property
    def shared_len(self) -> int:
        return self.partition.shared_len

    def shared_slice(self) -> np.ndarray:
        return self.store.flat[:self.partition.shared_len]

    def make_update(self) -> GradientUpdate:
        """Shared-slice delta since the last adopted broadcast."""
        return GradientUpdate(self.device_id, self.shared_slice() - self._shared_ref)

    def apply_broadcast(self, broadcast: ParamBroadcast) -> None:
        """Adopt fresh shared parameters as the new reference point."""
        vec = np.asarray(broadcast.params)
        s = self.partition.shared_len
        if vec.shape != (s,):
            raise ProtocolError(
                f"broadcast length {vec.shape} != shared length {s}")
        self.store.flat[:s] = vec
        self._shared_ref = self.store.flat[:s].copy()

    # checkpoint support
    def state_dict(self) -> dict:
        return {"shared_ref": self._shared_ref.copy()}

    def load_state_dict(self, state: dict) -> None:
        self._shared_ref = state["shared_ref"].copy()


# ---------------------------------------------------------------------------
# Deterministic in-process wiring
# ---------------------------------------------------------------------------

class LocalHub:
    """Routes device updates straight into the coordinator, inline.

    Replies wait in a FIFO inbox per device until the device takes them.
    ``update_log`` meters each update as (device id, payload bytes), header
    excluded, so the harness can report exact bytes sent.
    """

    def __init__(self, coordinator: Coordinator, dtype=np.float64):
        self.coordinator = coordinator
        self.dtype = np.dtype(dtype)
        self.inboxes: dict[int, deque[ParamBroadcast]] = {}
        self.update_log: list[tuple[int, int]] = []

    def connect(self, device_id: int) -> None:
        self.inboxes[device_id] = deque()

    def _deliver(self, dest: int | None, broadcast: ParamBroadcast) -> None:
        for device_id in (self.inboxes if dest is None else (dest,)):
            self.inboxes[device_id].append(broadcast)

    def broadcast_initial(self, theta0: np.ndarray) -> None:
        self._deliver(None, self.coordinator.initialize(theta0))

    def send_update(self, update: GradientUpdate) -> None:
        if update.device_id not in self.inboxes:
            raise ProtocolError(f"device {update.device_id} is not connected")
        self.update_log.append(
            (update.device_id, payload_nbytes(np.asarray(update.delta).size, self.dtype)))
        for dest, broadcast in self.coordinator.handle_update(update):
            self._deliver(dest, broadcast)

    def take_reply(self, device_id: int) -> ParamBroadcast:
        inbox = self.inboxes[device_id]
        if not inbox:
            missing = self.coordinator.missing_device_ids()
            raise SyncStallError(
                f"device {device_id} is waiting for a broadcast; round stalled, "
                f"missing updates from devices {missing}")
        return inbox.popleft()


def sync_round(endpoints, hub: LocalHub) -> None:
    """Run one round over all endpoints, deterministically.

    All devices send first (in the order given), then all adopt their
    reply. Under a synchronous coordinator this is one barrier round and
    matches the blocking semantics of real device loops without threads.
    """
    for endpoint in endpoints:
        hub.send_update(endpoint.make_update())
    for endpoint in endpoints:
        endpoint.apply_broadcast(hub.take_reply(endpoint.device_id))
