"""The traced benchmark in ``perfbench/`` reaches into hetsim by name.

``perfbench/tracing.py`` wraps module functions and class methods by
attribute (``vars(owner)[attr]``), and ``perfbench/micro.py`` and
``perfbench/layers.py`` import hetsim names. A refactor of ``src/`` that
renames, moves or inlines one of them would blind the benchmark or stop it
at import; these tests fail first.
"""
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from hetsim.config import parse_config
from hetsim.harness import make_run
from test_harness import tiny_supervised_doc

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The perfbench modules, imported as ``perfbench/run.py`` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("tracing", "micro", "layers")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves_as_the_tracer_installs_it(perfbench):
    targets = perfbench["tracing"]._targets()
    missing = [name for owner, attr, name in targets if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr, _ in targets)


def test_a_traced_round_records_the_sync_and_the_merge(perfbench):
    tracer = perfbench["tracing"].Tracer()
    run = make_run(parse_config(tiny_supervised_doc()), 7)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer._targets]
    tracer.install()
    try:
        tracer.begin_pass()
        run.play_round()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"protocol.sync_round", "protocol.merge", "learners.train_round",
            "learners.validate", "topology.forward", "topology.backward",
            "nn.optim.step"} <= names
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_the_kernel_microbenchmarks_give_every_declared_nn_metric(perfbench):
    """``micro.run_micro`` is the only caller of ``nn.forward_chain``,
    ``nn.backward_chain`` (one device's chain, lifted to its one row) and
    ``nn.cross_entropy`` in its (N, C) form: on a small chain it gives every
    ``nn.*`` metric that ``BENCHMARK.json`` declares, each finite."""
    doc = tiny_supervised_doc()
    topology = doc["topology"]
    chain = (topology["input_shape"], topology["stem"] + topology["branches"]["complex"])
    values = perfbench["micro"].run_micro(parse_config(doc), chain)
    declared = [metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if metric["name"].startswith("nn.")]
    assert declared and [name for name in declared if name not in values] == []
    assert all(math.isfinite(values[name]) for name in declared)
