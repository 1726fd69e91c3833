"""The two readers of bytes from outside the run, fuzzed: ``load_checkpoint``
and ``decode_message`` raise only their own errors, on random bytes and on
truncated and bit-flipped copies of real input; so does resuming a run from
a checkpoint whose payload was mangled and given its own checksum."""
import hashlib
import pickle
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.checkpoint import CheckpointError, config_hash, load_checkpoint
from hetsim.config import parse_config
from hetsim.harness import load_run_checkpoint, make_run
from hetsim.protocol import (
    GradientUpdate,
    ParamBroadcast,
    ProtocolError,
    decode_message,
    encode_message,
)

from test_harness import tiny_supervised_doc


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _mangled(real: bytes) -> st.SearchStrategy[bytes]:
    """Random bytes (alone, and after ``real``'s first 8 bytes), truncations
    of ``real`` and single-bit flips of it."""
    return st.one_of(
        st.binary(max_size=96),
        st.binary(max_size=96).map(lambda tail: real[:8] + tail),
        st.integers(0, len(real) - 1).map(lambda n: real[:n]),
        st.integers(0, 8 * len(real) - 1).map(lambda bit: _flip(real, bit)),
    )


@cache
def _real_checkpoint() -> tuple[bytes, bytes]:
    """The bytes of a checkpoint that a run wrote, and its config hash."""
    config = parse_config(tiny_supervised_doc())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ckpt"
        make_run(config, 7).run(checkpoint_at=1, path=path)
        conf_hash = config_hash(config.raw)
        assert load_checkpoint(path, conf_hash)["round"] == 1  # it loads as written
        return path.read_bytes(), conf_hash


@st.composite
def _checkpoint_bytes(draw):
    real, _ = _real_checkpoint()
    return draw(_mangled(real))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=_checkpoint_bytes())
def test_a_mangled_checkpoint_raises_checkpoint_error(data):
    _, conf_hash = _real_checkpoint()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, conf_hash)


_BODY = 8 + 32 + 32  # magic and version, config hash, SHA-256 of the payload


@st.composite
def _payloads(draw):
    """A mangled copy of the real checkpoint's pickled payload."""
    real, _ = _real_checkpoint()
    return draw(_mangled(real[_BODY:]))


def _resume(body: bytes) -> None:
    """Resume seed 7 of the tiny supervised doc from the real checkpoint's
    header over ``body``, with the SHA-256 of ``body``."""
    real, _ = _real_checkpoint()
    config = parse_config(tiny_supervised_doc())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ckpt"
        path.write_bytes(real[:_BODY - 32] + hashlib.sha256(body).digest() + body)
        load_run_checkpoint(config, 7, path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(body=_payloads())
def test_a_mangled_payload_under_its_own_checksum_resumes_or_raises_checkpoint_error(body):
    """The stored SHA-256 is of the payload itself, so a damaged payload can
    carry a matching one: it must not unpickle into any other error."""
    try:
        _resume(body)
    except CheckpointError:
        pass


@pytest.mark.parametrize("payload", [
    None, [], {}, {"seed": 7}, {"seed": 7, "round": 1, "rows": [], "devices": [{}, {}]},
    {"seed": 7, "round": "one", "rows": [], "devices": [{}, {}]},
], ids=["none", "list", "empty", "seed-only", "device-without-state", "bad-clock"])
def test_a_payload_that_is_not_a_runs_state_raises_checkpoint_error(payload):
    with pytest.raises(CheckpointError):
        _resume(pickle.dumps(payload))


def test_a_payload_missing_a_device_raises_checkpoint_error():
    real, _ = _real_checkpoint()
    state = pickle.loads(real[_BODY:])
    state["devices"] = state["devices"][:1]  # the run has two
    with pytest.raises(CheckpointError, match="holds 1 devices, the run 2"):
        _resume(pickle.dumps(state))


@st.composite
def _frames(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    vec = np.asarray(draw(st.lists(st.floats(width=32), max_size=6)), dtype=dtype)
    ident = draw(st.integers(0, 2**32 - 1))
    msg = draw(st.sampled_from([GradientUpdate(ident, vec), ParamBroadcast(vec, ident)]))
    return dtype, draw(_mangled(encode_message(msg, dtype)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frame=_frames())
def test_a_mangled_frame_raises_protocol_error_or_decodes_to_itself(frame):
    """A flipped bit in the id or the reals still gives a valid frame: it
    must decode to the message that encodes back to the same bytes."""
    dtype, data = frame
    try:
        msg = decode_message(data, dtype)
    except ProtocolError:
        return
    assert encode_message(msg, dtype) == data
