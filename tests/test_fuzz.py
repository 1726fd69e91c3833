"""The two readers of bytes from outside the run, fuzzed: ``load_checkpoint``
and ``decode_message`` raise only their own errors, on random bytes and on
truncated and bit-flipped copies of real input."""
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsim.checkpoint import CheckpointError, config_hash, load_checkpoint
from hetsim.config import parse_config
from hetsim.harness import make_run
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
