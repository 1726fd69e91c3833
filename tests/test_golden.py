"""Golden SHA-256 digests of metrics.csv for short runs of every sync path.

The digests were computed once and committed; a refactor that changes one
byte of a run's metrics fails here. Cases cover the three run modes of
both tasks, the asynchronous coordinator and 32-bit reals.
"""
import hashlib

import pytest

from hetsim.config import parse_config
from hetsim.harness import run_experiment
from test_harness import tiny_rl_doc, tiny_supervised_doc


def _async(doc):
    doc["coordinator"]["mode"] = "async"
    return doc


def _long_rl(doc):
    # 120 steps leave every test reward at the timeout value in all modes;
    # by 240 steps the sync paths give different rewards
    doc["rl"]["total_steps"] = 240
    return doc


def _real_width_32(doc):
    doc["real_width"] = 32
    return doc


CASES = {
    "supervised-isolated": (
        lambda: tiny_supervised_doc("isolated"),
        "8398f7973c6b55ab9b675992cad9d74050202de3eeccce6f17a40bff1e55a4b6"),
    "supervised-homogeneous": (
        lambda: tiny_supervised_doc("homogeneous"),
        "e5ac10d18b545d9d279c6ea9856d8a895d866e078c0bffdd8b8452007cbaccd9"),
    "supervised-heterogeneous": (
        lambda: tiny_supervised_doc("heterogeneous"),
        "08a4ca3423a3bad4abf6131a749b301148221cf8acb26cd468db06c5eaf4aac0"),
    "supervised-heterogeneous-async": (
        lambda: _async(tiny_supervised_doc()),
        "a3dcc528369e6e5373973b5836f91a6e726e12a183ee9bb043f9f23bc267a500"),
    "supervised-real-width-32": (
        lambda: _real_width_32(tiny_supervised_doc()),
        "d87b223acf2b76786513aa9363a6f470ea42b1d5b8cb5c32822b9c512e0dc37e"),
    "rl-isolated": (
        lambda: _long_rl(tiny_rl_doc("isolated")),
        "d7dc43d9aca2f6cfca134ee899f3198e2043306a4ddfe1a318a03fab7eadac0f"),
    "rl-homogeneous": (
        lambda: _long_rl(tiny_rl_doc("homogeneous")),
        "f04ccd4b5dadc4c7a782188d77a06df6921ff7cbe32ada71096baa870aecc860"),
    "rl-heterogeneous": (
        lambda: _long_rl(tiny_rl_doc("heterogeneous")),
        "b8784613ad0b6db6926cfb55160d1d684d0e6a4d8475504e1bb3ea842e29da91"),
    "rl-heterogeneous-async": (
        lambda: _async(_long_rl(tiny_rl_doc())),
        "677fae0aa4e87ba15c1779798302b934b06db0006d166b1e13cf45507e0da2e7"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_csv_matches_golden_digest(name, tmp_path):
    make_doc, digest = CASES[name]
    run_experiment(parse_config(make_doc()), out_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == digest
