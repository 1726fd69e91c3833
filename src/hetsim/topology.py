"""Branched network topologies and shared/local parameter partitioning.

A topology is a shared stem plus named branches. Two schemes exist:

* share-first: branches are independent heads on the stem; only stem
  parameters are shared between devices.
* cascaded: the lightweight network is fully contained in the complex
  one. The complex device's output is softmax(add(branch-dropout(complex
  logits), lightweight logits)); the lightweight network remains usable
  standalone. Everything except the complex-branch extension is shared.

The canonical flat parameter order on every device is: shared tensors
first (stem in layer order, then, in cascade mode, the lightweight
branch), then the device's local tensors. Within a layer, weights come
before biases. This order is what crosses the wire, so it must be stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn.layers import (
    BranchDropout,
    Layer,
    ShapeError,
    Softmax,
    chain_shapes,
    count_operations,
    count_parameters as chain_count_parameters,
)
from .nn.network import (
    ChainPlan,
    backward_chain,
    build_layout,
    ensure_finite,
    init_chain_params,
    make_keyed,
)
from .nn.params import ParamStore, cover, layer_spans


@dataclass(frozen=True)
class CascadeSpec:
    complex_branch: str
    lightweight_branch: str
    branch_dropout_p: float


@dataclass(frozen=True)
class ParameterPartition:
    """Lengths of the shared and local slices of a device's flat vector."""

    branch_id: str
    shared_len: int
    local_len: int

    @property
    def total_len(self) -> int:
        return self.shared_len + self.local_len


@dataclass(frozen=True)
class BranchedTopology:
    input_shape: tuple[int, ...]
    stem: tuple[Layer, ...]
    branches: dict[str, tuple[Layer, ...]]
    cascade: CascadeSpec | None = None

    @property
    def stem_output_shape(self) -> tuple[int, ...]:
        shape = tuple(self.input_shape)
        if self.stem:
            shape = chain_shapes(self.stem, shape)[-1]
        return shape

    def branch_output_shape(self, branch_id: str) -> tuple[int, ...]:
        layers = self.branches[branch_id]
        shape = self.stem_output_shape
        if layers:
            shape = chain_shapes(layers, shape)[-1]
        return shape


def _validate_chain(layers, input_shape, what: str):
    try:
        chain_shapes(layers, input_shape)
    except ShapeError as exc:
        raise ShapeError(f"{what}: {exc}") from exc


def build_share_first(stem, branches: dict, input_shape) -> BranchedTopology:
    """Topology where branches are independent heads on a shared stem."""
    stem = tuple(stem)
    input_shape = tuple(input_shape)
    if not branches:
        raise ValueError("at least one branch is required")
    _validate_chain(stem, input_shape, "stem")
    topo = BranchedTopology(input_shape, stem, {k: tuple(v) for k, v in branches.items()})
    for branch_id, layers in topo.branches.items():
        _validate_chain(layers, topo.stem_output_shape, f"branch {branch_id!r}")
    return topo


def build_cascaded(stem, complex_spec, lightweight_spec, branch_dropout_p: float,
                   input_shape, complex_id: str = "complex",
                   lightweight_id: str = "lightweight") -> BranchedTopology:
    """Topology where the lightweight network is contained in the complex one.

    ``lightweight_spec`` must end with Softmax (it is a standalone network);
    ``complex_spec`` must end at its logits (no Softmax) because its output
    goes through add-then-softmax with the lightweight logits.
    """
    if not 0.0 <= branch_dropout_p <= 1.0:
        raise ValueError("branch_dropout_p must be in [0, 1]")
    lightweight_spec = tuple(lightweight_spec)
    complex_spec = tuple(complex_spec)
    if not lightweight_spec or not isinstance(lightweight_spec[-1], Softmax):
        raise ShapeError("cascaded lightweight branch must end with Softmax")
    if complex_spec and isinstance(complex_spec[-1], Softmax):
        raise ShapeError("cascaded complex branch must end at its logits, not Softmax")
    topo = build_share_first(
        stem, {complex_id: complex_spec, lightweight_id: lightweight_spec}, input_shape)
    light_logits = chain_shapes(lightweight_spec[:-1], topo.stem_output_shape)[-1] \
        if len(lightweight_spec) > 1 else topo.stem_output_shape
    complex_logits = topo.branch_output_shape(complex_id)
    if light_logits != complex_logits:
        raise ShapeError(
            f"cascade logits disagree: complex {complex_logits} vs lightweight {light_logits}")
    return BranchedTopology(topo.input_shape, topo.stem, topo.branches,
                            CascadeSpec(complex_id, lightweight_id, branch_dropout_p))


def _branch_scope(branch_id: str) -> str:
    return f"branch:{branch_id}"


class DeviceNetwork:
    """One device's view of a topology: its layers, parameters and partition.

    Handles both plain chains (share-first branches, cascade lightweight
    device) and the cascaded complex device whose forward pass merges two
    branch outputs. Each chain's :class:`~hetsim.nn.network.ChainPlan` is
    built once, here; :meth:`forward` keeps a cache for :meth:`backward`,
    and :meth:`predict` is the eval pass that keeps none. The chain that
    reads the network input (the plain chain, or the cascade stem) is
    planned with ``reads_input``, so :meth:`backward` computes no gradient
    for the input. The network holds no parameters, so devices that train
    the same network can share one; its only buffer is the gradient store
    :meth:`backward` reuses.
    """

    def __init__(self, topology: BranchedTopology, branch_id: str):
        if branch_id not in topology.branches:
            raise KeyError(f"unknown branch {branch_id!r}")
        self.topology = topology
        self.branch_id = branch_id
        self.input_shape = topology.input_shape
        cascade = topology.cascade
        self.is_cascade_complex = bool(cascade) and branch_id == cascade.complex_branch

        stem = make_keyed("stem", topology.stem)
        own = make_keyed(_branch_scope(branch_id), topology.branches[branch_id])
        stem_out = topology.stem_output_shape
        # (keyed chain, input shape) segments in canonical flat order
        self._shared = [(stem, self.input_shape)]
        self._local = [(own, stem_out)]
        if cascade is not None:
            light_id = cascade.lightweight_branch
            if branch_id == light_id:
                self._local = []
            elif not self.is_cascade_complex:
                raise KeyError(f"branch {branch_id!r} is not part of the cascade")
            light = make_keyed(_branch_scope(light_id), topology.branches[light_id])
            self._shared.append((light, stem_out))
            light_head = light[:-1]  # lightweight logits, below its final softmax
            self._branch_drop = BranchDropout(cascade.branch_dropout_p)
            self._softmax = Softmax()

        shared_layout = [entry for keyed, shape in self._shared
                         for entry in build_layout(keyed, shape)]
        local_layout = [entry for keyed, shape in self._local
                        for entry in build_layout(keyed, shape)]
        self._layout = shared_layout + local_layout
        self.partition = ParameterPartition(
            branch_id, sum(math.prod(s) for _, s in shared_layout),
            sum(math.prod(s) for _, s in local_layout))

        spans = layer_spans(self._layout)

        def plan(keyed, reads_input=False):
            return ChainPlan(keyed, cover(spans, (key for key, _ in keyed)), reads_input)

        # the chain that reads the network input computes no input gradient
        if self.is_cascade_complex:
            self._stem_plan = plan(stem, reads_input=True)
            self._light_plan, self._own_plan = plan(light_head), plan(own)
        else:
            self._plan = plan(stem + own, reads_input=True)
        self._grads: ParamStore | None = None  # backward's store, see there

    # -- construction ------------------------------------------------------

    def init_store(self, shared_rng: np.random.Generator,
                   local_rng: np.random.Generator | None = None,
                   dtype=np.float64) -> ParamStore:
        """Initialize parameters; shared tensors draw from ``shared_rng``.

        Devices that agree on the topology and ``shared_rng`` stream get
        bit-identical shared blocks, which is how the coordinator and all
        devices start from one broadcast state.
        """
        store = ParamStore(self._layout, dtype)
        for keyed, shape in self._shared:
            init_chain_params(keyed, shape, store, shared_rng)
        rng = local_rng if local_rng is not None else shared_rng
        for keyed, shape in self._local:
            init_chain_params(keyed, shape, store, rng)
        return store

    def count_params(self) -> int:
        return self.partition.total_len

    def output_shape(self) -> tuple[int, ...]:
        return self.topology.branch_output_shape(self.branch_id)

    # -- forward / backward -------------------------------------------------

    def forward(self, store: ParamStore, x: np.ndarray, mode: str = "eval",
                rng: np.random.Generator | None = None,
                force_branch_drop: bool = False):
        """Returns (output, cache). Output is the device's network output.

        ``force_branch_drop`` zeroes the complex-branch contribution
        regardless of mode, for verifying that the cascaded network with
        the branch dropped equals the standalone lightweight network.
        """
        if not self.is_cascade_complex:
            if force_branch_drop:
                raise ValueError("force_branch_drop only applies to the cascaded "
                                 "complex network")
            return self._plan.forward(store, x, mode, rng)

        stem_out, stem_cache = self._stem_plan.forward(store, x, mode, rng)
        light_logits, light_cache = self._light_plan.forward(store, stem_out, mode, rng)
        complex_logits, complex_cache = self._own_plan.forward(store, stem_out, mode, rng)
        if force_branch_drop:
            scale = store.dtype.type(0.0)
            merged = light_logits.copy()
        else:
            dropped, scale = self._branch_drop.forward(store, None, complex_logits,
                                                       mode == "train", rng)
            merged = dropped + light_logits
        out = self._combine_output(store, merged)
        return out, (stem_cache, light_cache, complex_cache, scale, out)

    def predict(self, store: ParamStore, x: np.ndarray) -> np.ndarray:
        """The eval-mode output of :meth:`forward`, bit for bit, without
        building a cache or copying parameters."""
        if not self.is_cascade_complex:
            return self._plan.predict(store, x)
        stem_out = self._stem_plan.predict(store, x)
        light_logits = self._light_plan.predict(store, stem_out)
        # eval-mode branch dropout passes the complex logits through
        return self._combine_output(store, self._own_plan.predict(store, stem_out)
                                    + light_logits)

    def _combine_output(self, store: ParamStore, merged: np.ndarray) -> np.ndarray:
        out, _ = self._softmax.forward(store, None, merged, False, None)
        ensure_finite("cascade output", out)
        return out

    def backward(self, cache, dy: np.ndarray, store: ParamStore,
                 from_logits: bool = False) -> ParamStore:
        """Gradient ParamStore for an upstream gradient ``dy``.

        With ``from_logits`` the upstream gradient is taken w.r.t. the
        pre-softmax logits (the fused cross-entropy form) and the final
        softmax is skipped.

        The gradients go into one store the network keeps: zero-filled in
        place at the start of each call, and allocated again only when a
        store of another dtype or size arrives. So the result is valid until
        the next :meth:`backward` on this network, which overwrites it.
        """
        grads = self._grads
        if grads is None or grads.dtype != store.dtype or grads.size != store.size:
            grads = self._grads = store.zeros_like()
        else:
            grads.flat.fill(0.0)
        if not self.is_cascade_complex:
            backward_chain(cache, dy, store, grads, from_logits=from_logits)
            return grads

        stem_cache, light_cache, complex_cache, scale, out = cache
        dmerged = np.asarray(dy)
        if not from_logits:
            dmerged = self._softmax.backward(store, None, out, dmerged, grads)
        dcomplex = self._branch_drop.backward(store, None, scale, dmerged, grads)
        d_stem_light = backward_chain(light_cache, dmerged, store, grads)
        d_stem_complex = backward_chain(complex_cache, dcomplex, store, grads)
        backward_chain(stem_cache, d_stem_light + d_stem_complex, store, grads)
        return grads


def count_parameters(topology: BranchedTopology, branch_id: str) -> int:
    """Total parameter count of the stem plus the given branch's network."""
    if topology.cascade is not None and branch_id == topology.cascade.complex_branch:
        return DeviceNetwork(topology, branch_id).count_params()
    return chain_count_parameters(
        list(topology.stem) + list(topology.branches[branch_id]), topology.input_shape)


def count_branch_operations(topology: BranchedTopology, branch_id: str) -> int:
    """Forward-pass operation estimate for the stem plus one branch."""
    ops = count_operations(list(topology.stem) + list(topology.branches[branch_id]),
                           topology.input_shape)
    if topology.cascade is not None and branch_id == topology.cascade.complex_branch:
        light = topology.branches[topology.cascade.lightweight_branch]
        ops += count_operations(list(light[:-1]), topology.stem_output_shape)
        out = topology.branch_output_shape(branch_id)
        ops += int(np.prod(out))  # the add at the combine point
    return ops
