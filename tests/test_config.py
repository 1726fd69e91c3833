"""Config rejections generated from the schema tables in :mod:`hetsim.config`.

Every key of every table is tried with values its kind must reject (for a
string kind these include ``["x"]`` and ``{}``, on which a lookup in a set
or dict of branch names raises ``TypeError``), left out when it is
required, and put in the other task's config when one task owns it; every
section is tried with an unknown key. A key added to a table is covered with
no edit here.
"""
import json
import math
import re
import tracemalloc

import pytest

from hetsim import config as schema
from hetsim.cli import main as cli_main
from hetsim.config import ConfigError, Key, parse_config
from test_harness import _set, tiny_rl_doc, tiny_supervised_doc


def _cifar_doc():
    doc = tiny_supervised_doc()
    doc["data"] = {"source": "cifar10", "train_path": "train.bin", "test_path": "test.bin"}
    return doc


# each table, the docs that hold its section, and the section's path in them
SECTIONS = [
    (schema.CONFIG, (tiny_supervised_doc, tiny_rl_doc), ()),
    (schema.TOPOLOGY, (tiny_supervised_doc, tiny_rl_doc), ("topology",)),
    (schema.CASCADE, (tiny_supervised_doc,), ("topology", "cascade")),
    (schema.DEVICE, (tiny_supervised_doc, tiny_rl_doc), ("devices", 1)),
    (schema.OPTIMIZER, (tiny_supervised_doc, tiny_rl_doc), ("devices", 1, "optimizer")),
    (schema.COORDINATOR, (tiny_supervised_doc, tiny_rl_doc), ("coordinator",)),
    (schema.SUPERVISED, (tiny_supervised_doc,), ("supervised",)),
    (schema.RL, (tiny_rl_doc,), ("rl",)),
    (schema.DATA["synthetic"], (tiny_supervised_doc,), ("data",)),
    (schema.DATA["cifar10"], (_cifar_doc,), ("data",)),
    (schema.ENVIRONMENT, (tiny_rl_doc,), ("environment",)),
]

# per kind, values that it must reject
WRONG = {
    "count": ["1", 0, 2.5, True, None],
    "natural": ["1", -1, 2.5, True],
    "integer": ["1", 2.5, True],
    "real": ["x", math.nan, math.inf, 10**400, True, None],
    "interval": ["x", math.nan, 10**400, True, -0.5, 1.5],
    "choice": ["bogus", {}, ["x"], None],
    "string": ["", ["x"], {}, 1, None],
    "cell": ["x", [1], [0, -1], [0, "1"], {}],
    "list": ["x", {}, None],
    "layers": ["x", {}, None],
    "section": [5, ["x"], None],
}


def _where(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:] or "config"


def _what(path, name):
    """How messages name the key ``name`` of the section at ``path``."""
    return f"{_where(path)}.{name}" if path else name


def _cases(owned_by_doc):
    """(make_doc, path, name, key) for each key of each table, with each doc
    whose task reads the key (``owned_by_doc``) or does not."""
    for table, makers, path in SECTIONS:
        for name, key in table.items():
            for make_doc in makers:
                reads = key.task in (None, make_doc()["task"])
                if reads == owned_by_doc:
                    yield pytest.param(make_doc, path, name, key,
                                       id=f"{make_doc()['task']}-{_what(path, name)}")


def _rejects(doc, name_pattern):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert re.search(name_pattern, str(info.value)), str(info.value)


def test_every_table_is_covered():
    tables = [t for v in vars(schema).values() if isinstance(v, dict)
              for t in (v, *v.values())  # DATA holds a table per source
              if isinstance(t, dict) and t and all(isinstance(k, Key) for k in t.values())]
    assert {id(t) for t in tables} <= {id(t) for t, _, _ in SECTIONS}


@pytest.mark.parametrize("make_doc,path,name,key", _cases(owned_by_doc=True))
def test_a_value_of_the_wrong_kind_names_the_key(make_doc, path, name, key):
    what = re.escape(_what(path, name))
    wrong = list(WRONG[key.kind])
    if key.kind == "list":  # and lists of one wrong entry
        wrong += [[entry] for entry in WRONG[key.arg]]
    for value in wrong:
        _rejects(_set(make_doc(), path + (name,), value), f"^{what}")
    if key.required:
        doc = make_doc()
        section = doc
        for k in path:
            section = section[k]
        del section[name]
        _rejects(doc, f"^({what} |{re.escape(_where(path))}: missing required key '{name}')")


@pytest.mark.parametrize("make_doc,path,name,key", _cases(owned_by_doc=False))
def test_a_key_of_the_other_task_is_rejected(make_doc, path, name, key):
    doc = _set(make_doc(), path + (name,), 1)
    _rejects(doc, f"^{re.escape(_where(path))}: \\[.*'{name}'.*\\] do not apply to a "
                  f"{doc['task']} task$")


@pytest.mark.parametrize("table,makers,path", SECTIONS, ids=[_where(p) for _, _, p in SECTIONS])
def test_an_unknown_key_is_rejected_in_every_section(table, makers, path):
    for make_doc in makers:
        doc = _set(make_doc(), path + ("surprise",), 1)
        _rejects(doc, f"^{re.escape(_where(path))}: unknown keys \\['surprise'\\]$")


def test_a_layer_kind_that_is_not_a_string_is_a_config_error():
    doc = _set(tiny_supervised_doc(), ("topology", "stem", 0, "kind"), ["dense"])
    _rejects(doc, r"^topology\.stem: unknown layer kind \['dense'\]")


def test_cli_reports_an_unhashable_branch_name_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(_set(tiny_supervised_doc(), ("devices", 1, "branch"), ["x"])))
    for argv in (["describe", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("hetsim: error: devices[1].branch must be a non-empty string"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("path,value,where,width", [
    (("topology", "stem", 0, "units"), 10**400, "topology.stem[0]", 64),
    (("topology", "stem", 0, "units"), 2**63, "topology.stem[0]", 64),
    # 8 inputs: 2**65 weights
    (("topology", "branches", "complex", 0, "units"), 2**62, "topology.branches.complex[0]",
     64),
    # a count that fits np.intp, in more bytes than it counts
    (("topology", "stem", 0, "units"), 2**58, "topology.stem[0]", 64),
    (("topology", "stem", 0, "units"), 2**59, "topology.stem[0]", 32),
])
def test_a_layer_too_large_for_an_array_is_a_config_error(path, value, where, width):
    doc = _set(tiny_supervised_doc(), path, value)
    doc["real_width"] = width
    limit = (2**63 - 1) // (width // 8)
    _rejects(doc, f"^{re.escape(where)}: a Dense layer of more than {limit} {width}-bit "
                  f"parameters")
    if value < 2**63:  # and the same layer 128 times smaller passes (at 64 times
        # the smaller, the two devices of the 2**62 case overflow one stack)
        parse_config(_set(doc, path, value // 128))


def _parse_peak(doc):
    """parse_config's result (or the ConfigError it raised) and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            result = parse_config(doc)
        except ConfigError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The stem's units u: every layer fits an array, but the powerful device's
# network (stem, complex branch and lightweight head: about 24u reals)
# does not at u = 2**56, nor the two devices' stack of those vectors at
# 2**55. In homogeneous mode both devices train the weakest network (about
# 12u). An RL run stacks its devices' vectors too: its powerful device's
# (about 22u) fits an array at u = 2**55, the stack of two does not.
@pytest.mark.parametrize("make_doc,units,message", [
    (tiny_supervised_doc, 2**56,
     r"^devices\[0\] \('powerful'\): a network of \d+ 64-bit parameters, more than the "
     r"1152921504606846975 an array can hold$"),
    (tiny_supervised_doc, 2**55,
     r"^devices: 2 devices of up to \d+ 64-bit parameters, more than the "
     r"1152921504606846975 that one array of their vectors can hold$"),
    (lambda: tiny_supervised_doc("homogeneous"), 2**55, None),
    (tiny_rl_doc, 2**55,
     r"^devices: 2 devices of up to \d+ 64-bit parameters, more than the "
     r"1152921504606846975 that one array of their vectors can hold$"),
    (tiny_rl_doc, 2**56, r"^devices\[0\] \('powerful'\): a network of"),
], ids=["device-vector", "stack", "homogeneous-parses", "rl-stack", "rl-device-vector"])
def test_a_network_or_stack_too_large_for_an_array_is_a_config_error(make_doc, units,
                                                                      message):
    result, peak = _parse_peak(_set(make_doc(), ("topology", "stem", 0, "units"), units))
    if message is None:
        assert not isinstance(result, ConfigError), result
    else:
        assert isinstance(result, ConfigError) and re.search(message, str(result)), result
    assert peak < 1 << 20, f"parsing allocated {peak} bytes"


@pytest.mark.parametrize("make_doc", [tiny_supervised_doc, tiny_rl_doc],
                         ids=["supervised", "rl"])
def test_cli_reports_a_stack_too_large_for_an_array(tmp_path, capsys, make_doc):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(_set(make_doc(), ("topology", "stem", 0, "units"), 2**55)))
    for argv in (["describe", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("hetsim: error: devices: 2 devices of up to"), err
        assert "Traceback" not in err


def test_cli_reports_a_layer_too_large_for_an_array(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(_set(tiny_supervised_doc(), ("topology", "stem", 0, "units"),
                                    2**63)))
    for argv in (["describe", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("hetsim: error: topology.stem[0]: a Dense layer of more than"), err
        assert "Traceback" not in err


def _share_first_doc(mode):
    """The tiny supervised doc with share-first branches, each ending in Softmax."""
    doc = tiny_supervised_doc(mode)
    doc["scheme"] = "share-first"
    del doc["topology"]["cascade"]
    doc["topology"]["branches"]["complex"].append({"kind": "softmax"})
    return doc


@pytest.mark.parametrize("mode,branch,trained", [
    ("heterogeneous", "lightweight", True),
    ("heterogeneous", "complex", True),
    ("isolated", "lightweight", True),
    ("homogeneous", "lightweight", True),  # the weakest branch, which every device trains
    ("homogeneous", "complex", False),
])
def test_a_supervised_network_that_does_not_end_in_softmax_is_a_config_error(
        tmp_path, capsys, mode, branch, trained):
    """The loss reads a supervised network's output as probabilities, so a
    network a run trains without a final softmax fails at parse time, not
    at its first minibatch."""
    doc = _share_first_doc(mode)
    parse_config(doc)
    doc["topology"]["branches"][branch].pop()
    if not trained:
        parse_config(doc)
        return
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(doc))
    for argv in (["describe", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"hetsim: error: topology.branches.{branch} must end with a "
                              f"softmax layer"), err


@pytest.mark.parametrize("path,value,message", [
    (("topology", "input_shape"), [17], r"topology\.input_shape \(17,\) does not match "
                                        r"the data's \(8,\)"),
    (("data", "num_classes"), 5, r"topology\.branches\.complex outputs \(4,\), the data "
                                 r"needs \(5,\)"),
])
def test_describe_rejects_a_topology_that_does_not_fit_the_data(tmp_path, capsys, path,
                                                                 value, message):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(_set(tiny_supervised_doc(), path, value)))
    assert cli_main(["describe", str(conf)]) == 2
    out = capsys.readouterr()
    assert re.match(f"hetsim: error: {message}", out.err), out.err
    assert out.out == ""
