"""Versioned, checksummed run checkpoints.

Layout: 4-byte magic, u32 version, 32-byte topology hash, 32-byte SHA-256
of the payload, then the pickled payload. Loading verifies all four and
refuses checkpoints written for a different topology. Saving writes a
temporary file and then replaces the target, so a crash mid-write leaves
the previous checkpoint whole.
"""
from __future__ import annotations

import hashlib
import json
import pickle
import struct
from pathlib import Path

from .fileio import atomic_open

MAGIC = b"HSIM"
VERSION = 1
_HEAD = struct.Struct("<4sI")


class CheckpointError(RuntimeError):
    pass


def topology_hash(raw_config: dict) -> bytes:
    """Hash of the parts of the config a checkpoint must agree on."""
    relevant = {key: raw_config.get(key) for key in
                ("task", "mode", "scheme", "topology", "devices", "real_width")}
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def save_checkpoint(path, payload: dict, topo_hash: bytes) -> None:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    with atomic_open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION))
        fh.write(topo_hash)
        fh.write(digest)
        fh.write(body)


def load_checkpoint(path, topo_hash: bytes) -> dict:
    raw = Path(path).read_bytes()
    if len(raw) < _HEAD.size + 64:
        raise CheckpointError("checkpoint file too short")
    magic, version = _HEAD.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version}, expected {VERSION}")
    stored_topo = raw[_HEAD.size:_HEAD.size + 32]
    digest = raw[_HEAD.size + 32:_HEAD.size + 64]
    body = raw[_HEAD.size + 64:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checkpoint payload is corrupt (checksum mismatch)")
    if stored_topo != topo_hash:
        raise CheckpointError("checkpoint was written for a different topology/config")
    return pickle.loads(body)
