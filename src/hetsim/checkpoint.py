"""Versioned, checksummed run checkpoints.

Layout: 4-byte magic, u32 version, 32-byte config hash, 32-byte SHA-256
of the payload, then the pickled payload. Loading verifies all four and
refuses checkpoints written for a different config (see :func:`config_hash`).
Saving writes a temporary file and then replaces the target, so a crash
mid-write leaves the previous checkpoint whole.
"""
from __future__ import annotations

import hashlib
import json
import pickle
import struct
from pathlib import Path

from .fileio import atomic_open

MAGIC = b"HSIM"
VERSION = 2  # 2: the run's rows so far; no episode returns
_HEAD = struct.Struct("<4sI")


class CheckpointError(RuntimeError):
    pass


def config_hash(raw_config: dict) -> bytes:
    """Hash of the config document a checkpoint must agree on: every key
    but ``seeds`` and the run length (``supervised.rounds``,
    ``rl.total_steps``), so a resumed run may be made longer and in no
    other way different."""
    relevant = {key: value for key, value in raw_config.items() if key != "seeds"}
    for section, length in (("supervised", "rounds"), ("rl", "total_steps")):
        if section in relevant:
            relevant[section] = {k: v for k, v in relevant[section].items() if k != length}
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def save_checkpoint(path, payload: dict, conf_hash: bytes) -> None:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    with atomic_open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION))
        fh.write(conf_hash)
        fh.write(digest)
        fh.write(body)


def load_checkpoint(path, conf_hash: bytes) -> dict:
    raw = Path(path).read_bytes()
    if len(raw) < _HEAD.size + 64:
        raise CheckpointError("checkpoint file too short")
    magic, version = _HEAD.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version}, expected {VERSION}")
    stored_conf = raw[_HEAD.size:_HEAD.size + 32]
    digest = raw[_HEAD.size + 32:_HEAD.size + 64]
    body = raw[_HEAD.size + 64:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checkpoint payload is corrupt (checksum mismatch)")
    if stored_conf != conf_hash:
        raise CheckpointError("checkpoint was written for a different topology or config "
                              "(only the seeds and the run length may change on resume)")
    try:
        return pickle.loads(body)
    except Exception as exc:  # a body that matches its checksum can still be damaged
        raise CheckpointError(f"checkpoint payload cannot be unpickled: "
                              f"{type(exc).__name__}: {exc}") from exc
