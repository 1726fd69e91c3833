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
    """Named parameter tensors backed by one flat contiguous array.

    ``flat`` is written in place, never rebound: each tensor's view into it
    is bound once, at construction, and would stop aliasing a new array.
    Every writer (``set_flat``, optimizer steps, sync broadcasts, parameter
    initialization) assigns into the existing array. Each layer's tensors
    occupy one ``[lo, hi)`` span of ``flat`` (:meth:`span_of`).
    """

    def __init__(self, layout: list[tuple[ParamKey, tuple[int, ...]]], dtype=np.float64,
                 flat: np.ndarray | None = None):
        self._layout = list(layout)
        self._dtype = np.dtype(dtype)
        offsets: dict[ParamKey, tuple[int, int, tuple[int, ...]]] = {}
        self._layer_spans: dict[LayerKey, tuple[int, int]] = {}
        offset = 0
        for key, shape in self._layout:
            if key in offsets:
                raise ValueError(f"duplicate parameter key {key}")
            n = math.prod(shape)
            offsets[key] = (offset, n, tuple(shape))
            lo, _ = self._layer_spans.get(key[0], (offset, offset))
            self._layer_spans[key[0]] = (lo, offset + n)
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
        self._views = {key: self.flat[o:o + n].reshape(shape)
                       for key, (o, n, shape) in offsets.items()}

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
        return self._views[key]

    def span_of(self, layer_keys) -> tuple[int, int]:
        """The ``[lo, hi)`` slice of ``flat`` covering these layers' tensors.

        Layers without parameters contribute nothing; if none of the layers
        has parameters the span is empty, ``(0, 0)``.
        """
        spans = [self._layer_spans[k] for k in layer_keys if k in self._layer_spans]
        if not spans:
            return 0, 0
        return min(lo for lo, _ in spans), max(hi for _, hi in spans)

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
