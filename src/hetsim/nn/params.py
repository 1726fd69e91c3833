"""Flat parameter storage with named views.

All parameters of one device's network live in a single contiguous 1-D
array. Each tensor is a reshaped view into that array, addressed by a
``(layer_key, tensor_name)`` key, where ``layer_key`` is ``(scope, index)``
(e.g. ``("stem", 0)``). The key order is the canonical flattening order:
it is fixed at construction and identical across runs for the same
topology, which is what the synchronization wire format relies on.
"""
from __future__ import annotations

import math

import numpy as np

LayerKey = tuple[str, int]
ParamKey = tuple[LayerKey, str]


class ParamStore:
    """Named parameter tensors backed by one flat contiguous array."""

    def __init__(self, layout: list[tuple[ParamKey, tuple[int, ...]]], dtype=np.float64,
                 flat: np.ndarray | None = None):
        self._layout = list(layout)
        self._dtype = np.dtype(dtype)
        self._offsets: dict[ParamKey, tuple[int, int, tuple[int, ...]]] = {}
        offset = 0
        for key, shape in self._layout:
            if key in self._offsets:
                raise ValueError(f"duplicate parameter key {key}")
            n = math.prod(shape)
            self._offsets[key] = (offset, n, tuple(shape))
            offset += n
        self._size = offset
        if flat is None:
            self.flat = np.zeros(self._size, dtype=self._dtype)
        else:
            flat = np.asarray(flat, dtype=self._dtype)
            if flat.shape != (self._size,):
                raise ValueError(
                    f"flat vector has length {flat.shape}, store needs ({self._size},)"
                )
            self.flat = flat.copy()

    @property
    def layout(self) -> list[tuple[ParamKey, tuple[int, ...]]]:
        return list(self._layout)

    @property
    def size(self) -> int:
        return self._size

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def keys(self) -> list[ParamKey]:
        return [key for key, _ in self._layout]

    def view(self, key: ParamKey) -> np.ndarray:
        """Writable view of one parameter tensor (shares memory with .flat)."""
        offset, n, shape = self._offsets[key]
        return self.flat[offset:offset + n].reshape(shape)

    def flatten(self) -> np.ndarray:
        """Copy of the canonical flat vector."""
        return self.flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec)
        if vec.shape != (self._size,):
            raise ValueError(f"expected flat length {self._size}, got {vec.shape}")
        self.flat[:] = vec

    def copy(self) -> "ParamStore":
        return ParamStore(self._layout, self._dtype, flat=self.flat)

    def zeros_like(self) -> "ParamStore":
        return ParamStore(self._layout, self._dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamStore):
            return NotImplemented
        return self._layout == other._layout and np.array_equal(self.flat, other.flat)

    def __repr__(self) -> str:
        return f"ParamStore({len(self._layout)} tensors, {self._size} scalars, {self._dtype})"


def from_flat(layout: list[tuple[ParamKey, tuple[int, ...]]], vec: np.ndarray,
              dtype=np.float64) -> ParamStore:
    """Rebuild a store from its canonical flat vector (inverse of flatten)."""
    return ParamStore(layout, dtype, flat=vec)
