"""Spans recorded around the public calls into each hetsim module.

The program is not edited: :class:`Tracer` replaces module functions and
class methods with wrappers from this file for the duration of a traced
pass and puts the originals back afterwards, so untraced passes run the
plain code. A span is ``(name, start_ns, end_ns, parent)``, where
``parent`` is the index of the enclosing span in the same pass, or -1.
"""
from __future__ import annotations

import functools
import json
import time

_clock = time.perf_counter_ns


def _targets():
    """(owner, attribute, span name) for every wrapped call, by module."""
    from hetsim import harness, protocol
    from hetsim.gridworld import GridWorld
    from hetsim.learners import DdqlLearner, ReplayBuffer, SupervisedTrainer
    from hetsim.nn.optim import Optimizer
    from hetsim.topology import DeviceNetwork

    return [
        # harness -> data: the loaders the harness module calls by name
        (harness, "generate_synthetic_dataset", "data.generate"),
        (harness, "partition_dataset", "data.partition"),
        (harness, "load_cifar10_binary", "data.cifar_load"),
        # harness -> protocol, and the coordinator's merge inside it
        (harness, "sync_round", "protocol.sync_round"),
        (protocol, "merge_deltas", "protocol.merge"),
        # harness -> learners
        (SupervisedTrainer, "train_round", "learners.train_round"),
        (SupervisedTrainer, "validate_and_snapshot", "learners.validate"),
        (SupervisedTrainer, "evaluate", "learners.evaluate"),
        (DdqlLearner, "interact", "learners.interact"),
        (DdqlLearner, "train_batch", "learners.train_batch"),
        (DdqlLearner, "test_epoch", "learners.test_epoch"),
        (DdqlLearner, "copy_target", "learners.copy_target"),
        (ReplayBuffer, "sample", "learners.replay_sample"),
        # learners -> topology, gridworld, nn
        (DeviceNetwork, "forward", "topology.forward"),
        (DeviceNetwork, "backward", "topology.backward"),
        (GridWorld, "step", "gridworld.step"),
        (Optimizer, "step", "nn.optim.step"),
    ]


class Tracer:
    """In-memory span recorder; one list of spans per traced pass."""

    def __init__(self):
        self._targets = _targets()
        self._saved: list = []
        self.passes: list[list] = []
        self.spans: list = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.spans = []
        self._stack = []
        self.passes.append(self.spans)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, _clock(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = _clock()
        self._stack.pop()
        name, start, _, parent = self.spans[sid]
        self.spans[sid] = (name, start, end, parent)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Every pass's spans as JSON lines: pass, id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, spans in enumerate(self.passes):
                for sid, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps({"pass": index, "id": sid, "name": name,
                                         "start_ns": start, "end_ns": end,
                                         "parent": parent}) + "\n")


class _Span:
    __slots__ = ("_tracer", "_name", "_sid")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._sid = self._tracer._open(self._name)

    def __exit__(self, *exc):
        self._tracer._close(self._sid)
        return False
