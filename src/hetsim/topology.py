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

Because the shared tensors come first, they sit at the same offsets in
every device's vector. A :class:`DeviceStack` keeps the devices' vectors
as rows of one matrix, so the shared layers of all its devices run once,
on a leading device axis (see :meth:`DeviceNetwork.forward`).
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
    NonFiniteError,
    build_layout,
    ensure_finite,
    init_chain_params,
    make_keyed,
    non_finite_row,
)
from .nn.params import ParamStore, cover, layer_spans, store_over


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
    branch outputs. The network splits itself for a :class:`DeviceStack`:
    its shared chain (the stem, and a cascade's lightweight head) runs on
    the whole stack, and its tail (its own layers up to its logits, and the
    cascade merge) on its device's one row; one device alone is a stack of
    one. Each chain's :class:`~hetsim.nn.network.ChainPlan` is built once,
    here; :meth:`forward` keeps a cache for :meth:`backward`, and
    :meth:`predict` is the eval pass of one row that keeps none. The
    shared chain reads the network input, so it is planned with
    ``reads_input`` and :meth:`backward` computes no gradient for the
    input. The network holds no parameters or buffers, so devices that
    train the same network can share one.
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

        shared_layout = [entry for keyed, shape in self._shared
                         for entry in build_layout(keyed, shape)]
        local_layout = [entry for keyed, shape in self._local
                        for entry in build_layout(keyed, shape)]
        self._layout = shared_layout + local_layout
        self.partition = ParameterPartition(
            branch_id, sum(math.prod(s) for _, s in shared_layout),
            sum(math.prod(s) for _, s in local_layout))

        self._n_shared = len(shared_layout)
        spans = layer_spans(self._layout)

        def plan(keyed, reads_input=False, tap=None):
            return ChainPlan(keyed, cover(spans, (key for key, _ in keyed)), reads_input, tap)

        # A stack runs the shared chain (the stem, and a cascade's
        # lightweight head, tapped at the stem's output) for all of its
        # devices, then each device's tail from the stem's output (None if
        # its logits are the shared chain's output), then the final softmax
        # once; so no chain holds that softmax. A network without a merge
        # also has its whole chain to its logits, run on every row of a
        # stack whose devices all train it, and by the eval pass. The chains
        # that read the network input compute no input gradient.
        self._softmax = Softmax()
        if cascade is not None:
            self.ends_in_softmax = True  # the merge's, or the lightweight branch's
            self._stack_plan = plan(stem + light_head, reads_input=True, tap=len(stem))
            self._tail_plan = plan(own) if self.is_cascade_complex else None
            self._whole_plan = None if self.is_cascade_complex else self._stack_plan
        else:
            chain = stem + own
            self.ends_in_softmax = bool(chain) and isinstance(chain[-1][1], Softmax)
            if self.ends_in_softmax:
                stem, own = (stem, own[:-1]) if own else (stem[:-1], own)
            self._stack_plan = plan(stem, reads_input=True)
            self._tail_plan = plan(own) if own else None
            self._whole_plan = plan(stem + own, reads_input=True) if own else self._stack_plan

    # -- construction ------------------------------------------------------

    def init_store(self, shared_rng: np.random.Generator | None,
                   local_rng: np.random.Generator | None = None,
                   dtype=np.float64, store: ParamStore | None = None) -> ParamStore:
        """Initialize parameters; shared tensors draw from ``shared_rng``.

        Devices that agree on the topology and ``shared_rng`` stream get
        bit-identical shared blocks, which is how the coordinator and all
        devices start from one broadcast state. The values go into
        ``store`` (of this network's layout, such as a :class:`DeviceStack`
        row) if one is given, else into a new store of ``dtype``. Without
        ``shared_rng`` the shared block is left as it is, for a caller that
        copies in one drawn already.
        """
        if store is None:
            store = ParamStore(self._layout, dtype)
        if shared_rng is not None:
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

    def forward(self, stack: "DeviceStack", x: np.ndarray, mode: str = "eval", rng=None):
        """Returns (output, cache) of a pass over a :class:`DeviceStack`.

        ``stack`` holds this network; ``x`` is one batch per device,
        (D, B, ...), ``rng`` one generator per device (or None in eval
        mode), and the output is (D, B, C), row d with the bits of device
        d's network alone. The stack's chain (``DeviceStack.plan``) runs
        once for all devices, then each device's tail, if it has one, on
        its one row, and the final softmax once. One device alone is the
        stack of one over its store (:meth:`DeviceStack.alone`), D = 1.
        """
        _check_stack("forward", stack)
        if stack._groups:
            raise ValueError("this stack steps a group at a time, see DeviceStack.groups")
        out, stacked_cache = stack.plan.forward(stack.shared, x, mode, rng)
        tails = None  # the stacked chain's output is every device's logits
        if stack.plan is not stack.networks[0]._whole_plan:
            out, tails = self._forward_tails(stack, out, stacked_cache, mode, rng)
        if self.ends_in_softmax:
            out, _ = self._softmax.forward(stack.shared, None, out, False, None)
            d = non_finite_row(out)
            if d is not None:
                exc = NonFiniteError("non-finite values in " + (
                    "cascade output" if stack.networks[d].is_cascade_complex
                    else "Softmax output"))
                exc.device = d
                raise exc
        return out, (stacked_cache, tails, out)

    def predict(self, row: ParamStore, x: np.ndarray) -> np.ndarray:
        """The eval-mode output of :meth:`forward`, bit for bit, without
        building a cache or copying parameters: on ``row``, one device's
        store lifted to one row (:meth:`ParamStore.row`), for ``x``
        (1, B, ...); the output is (1, B, C)."""
        if row.flat.ndim != 2 or x.ndim != len(self.input_shape) + 2:
            raise TypeError("predict takes a store over rows, such as store.row(), and "
                            "a batch with its device axis, (1, B, ...)")
        if self._whole_plan is not None:
            out = self._whole_plan.predict(row, x)
        else:  # eval-mode branch dropout passes the complex logits through
            stem_out: list = []
            light_logits = self._stack_plan.predict(row, x, stem_out)
            out = self._tail_plan.predict(row, stem_out[0]) + light_logits
        if self.ends_in_softmax:
            out, _ = self._softmax.forward(row, None, out, False, None)
            ensure_finite("cascade output" if self.is_cascade_complex else "Softmax output",
                          out, stacked=True)
        return out

    @staticmethod
    def _forward_tails(stack: "DeviceStack", base, shared_cache, mode, rngs):
        """Each device's logits, stacked, and its tail's cache and branch
        dropout scale (None without a tail): the shared chain's output, or
        its tail's, run on the device's one row; a cascade's complex
        devices add their (dropped) branch output to the lightweight
        logits."""
        cascade = shared_cache.tap is not None
        stem_out = shared_cache.tapped if cascade else base
        logits, tails = [], []
        for d, net in enumerate(stack.networks):
            row = slice(d, d + 1)
            if net._tail_plan is None:
                logits.append(base[row])
                tails.append(None)
                continue
            store, rng = stack.stores[d].row(), None if rngs is None else rngs[row]
            try:
                own, own_cache = net._tail_plan.forward(store, stem_out[row], mode, rng)
                scale = None
                if cascade:
                    own, scale = net._branch_drop.forward(store, None, own, mode == "train",
                                                          rng)
            except NonFiniteError as exc:
                exc.device = d
                raise
            logits.append(own)
            tails.append((own_cache, scale))
        if not cascade:
            return np.concatenate(logits), tails
        out = base.copy()  # a new array: the chain's caches may hold ``base``
        for d, tail in enumerate(tails):
            if tail is not None:
                out[d:d + 1] += logits[d]  # the bits of ``dropped + light logits``
        return out, tails

    def backward(self, cache, dy: np.ndarray, stack: "DeviceStack",
                 from_logits: bool = False) -> list[ParamStore]:
        """The gradient stores, one per device of ``stack``, for an upstream
        gradient ``dy`` (D, B, C) and the ``cache`` of a :meth:`forward` on it.

        With ``from_logits`` the upstream gradient is taken w.r.t. the
        pre-softmax logits (the fused cross-entropy form) and the final
        softmax is skipped.

        The gradients go into the stack's ``grad_stores``, zero-filled in
        place at the start of each call, so the result is valid until the
        next backward pass over the stack, which overwrites it.
        """
        _check_stack("backward", stack)
        shared_cache, tails, out = cache
        for grads in stack.grad_stores:
            grads.flat.fill(0.0)
        dlogits = np.asarray(dy)
        if self.ends_in_softmax and not from_logits:
            dlogits = self._softmax.backward(None, None, out, dlogits, None)
        if tails is None:
            shared_cache.backward(dlogits, stack.shared, stack.shared_grads)
            return stack.grad_stores
        # each tail's gradient at the stem output, (1, B, ...)
        d_tails = []
        for d, (net, tail) in enumerate(zip(stack.networks, tails)):
            if tail is None:
                d_tails.append(None)
                continue
            own_cache, scale = tail
            store, grads = stack.stores[d].row(), stack.grad_stores[d].row()
            d_own = dlogits[d:d + 1]
            if net.is_cascade_complex:
                d_own = net._branch_drop.backward(store, None, scale, d_own, grads)
            d_tails.append(own_cache.backward(d_own, store, grads))
        if shared_cache.tap is None:
            # share-first: a tail's input gradient is all of its stem output's
            shared_cache.backward(np.concatenate([dlogits[d:d + 1] if g is None else g
                                                  for d, g in enumerate(d_tails)]),
                                  stack.shared, stack.shared_grads)
        else:
            def add_tails(d_stem):  # the stem output feeds the head and the tails
                if np.may_share_memory(d_stem, dlogits):  # an empty head: not the caller's
                    d_stem = d_stem.copy()
                for d, g in enumerate(d_tails):
                    if g is not None:
                        d_stem[d:d + 1] += g  # the bits of ``d_stem_light + d_stem_complex``
                return d_stem
            shared_cache.backward(dlogits, stack.shared, stack.shared_grads,
                                  at_tap=add_tails)
        return stack.grad_stores


def _check_stack(what: str, stack) -> None:
    if not isinstance(stack, DeviceStack):
        raise TypeError(f"{what} takes a DeviceStack, not {type(stack).__name__}; for "
                        f"one device's store, pass DeviceStack.alone(network, store)")


def _stacked_chain(networks) -> tuple[ChainPlan, list]:
    """The chain that a stack of ``networks`` runs on every row, and the
    layout of the tensors it reads: all of a network that every device
    trains and that has no merge, else the shared layers."""
    first = networks[0]
    if first._whole_plan is not None and all(net is first for net in networks):
        return first._whole_plan, first._layout
    return first._stack_plan, first._layout[:first._n_shared]


class DeviceStack:
    """The networks and parameters of devices that take each minibatch together.

    Device d's parameters are the first P_d entries of row d of one
    (D, P_max) matrix, ``params``, made with ``np.zeros``; a shorter row's
    tail is never written, so its pages are never mapped. ``stores[d]`` is
    a 1-D store over that row, so optimizers, the coordinator's shared
    slices and checkpoints see one vector per device, and ``grad_stores[d]``
    one over a row of ``grads``, its gradients. :meth:`DeviceNetwork.forward`
    on the stack runs one chain, ``plan``, once for all of its devices: the
    layers they share, or the whole network if they all train one without
    a merge (one device alone, or homogeneous devices). ``shared`` and
    ``shared_grads`` view the tensors that chain reads, stacked (D, *shape).
    Device d's tail runs on ``stores[d].row()`` and ``grad_stores[d].row()``.
    A stack of one row (:meth:`alone`, or a group below, both built by
    :meth:`_rows`) has D = 1.

    A stack whose stacked chain reads more than ``GROUP_BYTES`` per device
    steps one device at a time instead: ``groups`` is then one
    stack of one row per device, over the same ``params`` and all over the
    one row of ``grads``. Stacking saves per-call overhead on small layers
    (two devices of 363 shared float64 reals), but wide ones cost more
    stacked than one at a time (eight devices of 72,714 took about a third
    longer), and stacked devices hold their activations at once (two CIFAR
    stems of 25,834 shared reals: 27 MB more at peak). Otherwise
    ``groups`` is ``[self]``.

    The networks must agree on their shared layers and on whether their
    output is a softmax, or the constructor raises ``ValueError``.
    """

    GROUP_BYTES = 1 << 17

    def __init__(self, networks, dtype=np.float64):
        networks = tuple(networks)
        first = networks[0]
        for net in networks:
            if (net._layout[:net._n_shared] != first._layout[:first._n_shared]
                    or net._stack_plan.keyed_layers != first._stack_plan.keyed_layers
                    or net.ends_in_softmax != first.ends_in_softmax):
                raise ValueError("the devices of a stack must share their first layers, "
                                 "at the same offsets")
        params = np.zeros((len(networks), max(net.count_params() for net in networks)),
                          dtype)
        stores = [store_over(net._layout, row) for net, row in zip(networks, params)]
        _, layout = _stacked_chain(networks)
        stacked = (len(networks) == 1 or sum(math.prod(shape) for _, shape in layout)
                   * params.itemsize <= self.GROUP_BYTES)
        grads = np.zeros((len(networks) if stacked else 1, params.shape[1]), params.dtype)
        self._set(networks, params, stores, grads,
                  [store_over(net._layout, grads[d if stacked else 0])
                   for d, net in enumerate(networks)])
        # no list holds the stack itself: that cycle would keep its arrays
        # alive until the garbage collector ran
        self._groups = [] if stacked else [
            DeviceStack._rows(networks[d:d + 1], params[d:d + 1], stores[d:d + 1], grads,
                              self.grad_stores[d:d + 1]) for d in range(len(networks))]

    def _set(self, networks, params, stores, grads, grad_stores) -> None:
        self.networks, self.params, self.stores = networks, params, stores
        self.grads, self.grad_stores = grads, grad_stores
        self.plan, layout = _stacked_chain(networks)
        self.shared = store_over(layout, params)
        self.shared_grads = store_over(layout, grads)

    @classmethod
    def _rows(cls, *arrays) -> "DeviceStack":
        """A stack of one row over ``_set``'s arrays, made by the caller."""
        rows = cls.__new__(cls)
        rows._set(*arrays)
        rows._groups = []
        return rows

    @property
    def groups(self) -> list["DeviceStack"]:
        return self._groups or [self]

    @classmethod
    def alone(cls, network: DeviceNetwork, store: ParamStore) -> "DeviceStack":
        """A stack of one device over its own ``store`` (not a copy)."""
        grads = store.zeros_like()
        return cls._rows((network,), store.flat[None], [store], grads.flat[None], [grads])


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
