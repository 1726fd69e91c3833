"""Flat parameter storage with named views.

All parameters of one device's network live in a single contiguous 1-D
array. Each tensor is a reshaped view into that array, addressed by a
``(layer_key, tensor_name)`` key, where ``layer_key`` is ``(scope, index)``
(e.g. ``("stem", 0)``). The key order is the canonical flattening order:
it is fixed at construction and identical across runs for the same
topology, which is what the synchronization wire format relies on.

A store may also stand for several devices at once: over a 2-D ``flat``
of shape (D, P), row d being device d's vector, each view gets a leading
device axis, (D, *shape) (see :func:`store_over`). Layers run only on
such stores; :meth:`ParamStore.row` lifts one device's 1-D store to one.
"""
from __future__ import annotations

import math

import numpy as np

LayerKey = tuple[str, int]
ParamKey = tuple[LayerKey, str]


def layer_spans(layout: list[tuple[ParamKey, tuple[int, ...]]]
                ) -> dict[LayerKey, tuple[int, int]]:
    """Each layer's ``[lo, hi)`` slice of the flat vector ``layout`` describes.

    Only layers with parameters appear; a layer's tensors are adjacent.
    """
    spans: dict[LayerKey, tuple[int, int]] = {}
    offset = 0
    for (layer_key, _), shape in layout:
        n = math.prod(shape)
        lo, _ = spans.get(layer_key, (offset, offset))
        spans[layer_key] = (lo, offset + n)
        offset += n
    return spans


def cover(spans: dict[LayerKey, tuple[int, int]], layer_keys) -> tuple[int, int]:
    """The ``[lo, hi)`` slice covering the ``spans`` of these layers.

    Layers without parameters contribute nothing; if none of the layers
    has parameters the span is empty, ``(0, 0)``.
    """
    hit = [spans[k] for k in layer_keys if k in spans]
    if not hit:
        return 0, 0
    return min(lo for lo, _ in hit), max(hi for _, hi in hit)


class ParamStore:
    """Named parameter tensors backed by one flat contiguous array.

    ``flat`` is written in place, never rebound: each tensor's view into it
    is bound once, at construction, and would stop aliasing a new array.
    Every writer (``set_flat``, optimizer steps, sync broadcasts, parameter
    initialization) assigns into the existing array. Each layer's tensors
    occupy one ``[lo, hi)`` span of ``flat``'s last axis (:meth:`span_of`).

    Over the rows of a (D, P) matrix every view has a leading device axis;
    only :meth:`view`, :meth:`span_of` and ``flat`` serve such a store.
    """

    def __init__(self, layout: list[tuple[ParamKey, tuple[int, ...]]], dtype=np.float64,
                 flat: np.ndarray | None = None):
        self._set_layout(layout, dtype)
        if flat is None:
            flat = np.zeros(self._size, dtype=self._dtype)
        else:
            flat = np.asarray(flat, dtype=self._dtype)
            if flat.shape != (self._size,):
                raise ValueError(
                    f"flat vector has length {flat.shape}, store needs ({self._size},)"
                )
            flat = flat.copy()
        self._bind(flat)

    def _set_layout(self, layout, dtype) -> None:
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
        self._layer_spans = layer_spans(self._layout)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        rows = flat.shape[:-1]
        self._views = {key: flat[..., o:o + n].reshape(rows + shape)
                       for key, (o, n, shape) in self._offsets.items()}
        self._row: ParamStore | None = None  # built by the first row() call

    def _twin(self, flat: np.ndarray) -> "ParamStore":
        """A store of this layout over ``flat`` itself, reusing the validated
        offset table instead of rebuilding it."""
        twin = ParamStore.__new__(ParamStore)
        twin._layout, twin._dtype, twin._size = self._layout, self._dtype, self._size
        twin._offsets, twin._layer_spans = self._offsets, self._layer_spans
        twin._bind(flat)
        return twin

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
        """The ``[lo, hi)`` slice of ``flat`` covering these layers' tensors
        (see :func:`cover`)."""
        return cover(self._layer_spans, layer_keys)

    def flatten(self) -> np.ndarray:
        """Copy of the canonical flat vector."""
        return self.flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec)
        if vec.shape != (self._size,):
            raise ValueError(f"expected flat length {self._size}, got {vec.shape}")
        self.flat[:] = vec

    def over(self, vec: np.ndarray) -> "ParamStore":
        """A store of this layout whose ``flat`` is ``vec`` itself, not a copy
        (cast to this store's dtype only if it differs); ``vec`` must have
        this store's length. Built without re-validating the layout."""
        vec = np.asarray(vec, dtype=self._dtype)
        if vec.shape != (self._size,):
            raise ValueError(f"expected flat length {self._size}, got {vec.shape}")
        return self._twin(vec)

    def row(self) -> "ParamStore":
        """This device's store as a stack of one row: a store of this layout
        over ``flat`` as a (1, P) view, each view (1, *shape). Built on the first
        call and returned by every later one, as ``flat`` is never rebound."""
        if self._row is None:
            self._row = self._twin(self.flat.reshape(1, self._size))
        return self._row

    def copy(self) -> "ParamStore":
        return self._twin(self.flat.copy())

    def zeros_like(self) -> "ParamStore":
        """A zero-filled store of the same layout and dtype, with its own
        ``flat``; built without re-validating the layout."""
        return self._twin(np.zeros(self._size, dtype=self._dtype))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamStore):
            return NotImplemented
        return self._layout == other._layout and np.array_equal(self.flat, other.flat)

    def __repr__(self) -> str:
        return f"ParamStore({len(self._layout)} tensors, {self._size} scalars, {self._dtype})"


def store_over(layout, flat: np.ndarray) -> ParamStore:
    """A store of ``layout`` over the first entries of ``flat``'s last axis
    (not a copy), in ``flat``'s dtype.

    Over a row, the store is one device's, and the entries past its size
    are never read or written through it, so a shorter row's tail is never
    touched. Over a (D, P) matrix each view is (D, *shape), device d's
    tensors in row d.
    """
    store = ParamStore.__new__(ParamStore)
    store._set_layout(layout, flat.dtype)
    store._bind(flat[..., :store.size])
    return store
