"""Golden SHA-256 digests of metrics.csv for short runs of every sync path.

The digests were computed once and committed; a refactor that changes one
byte of a run's metrics fails here. Cases cover the three run modes of
both tasks, the asynchronous coordinator, 32-bit reals (with four
homogeneous devices, too), three devices of which two train one branch
(RL, and supervised share-first), dropout in the stem, rounds that end
on a partial minibatch (of one example, too), and a small conv cascade on
CIFAR-format files (conv2d at stride 1 and 2, max pooling and dropout),
also wide enough that its forward takes several blocks of images and its
weight gradient blocks of input channels. The digests must also hold
under one and two BLAS threads.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetsim.config import parse_config
from hetsim.data import Dataset, write_cifar10_binary
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


def _third_device_on_a_shared_branch(doc):
    # "weak" and "weak2" train one branch, so the run gives them one network
    doc["devices"].append({"id": "weak2", "branch": "lightweight", "replay_capacity": 80,
                           "rate": 0.5,
                           "optimizer": {"algorithm": "adam", "learning_rate": 0.001}})
    return doc


def _real_width_32(doc):
    doc["real_width"] = 32
    return doc


def _four_devices(doc):
    # one network on every device in homogeneous mode; the sizes give unequal
    # merge weights, and two optimizers alternate
    opts = [{"algorithm": "rmsprop", "learning_rate": 0.001},
            {"algorithm": "sgd", "learning_rate": 0.05}]
    doc["devices"] = [{"id": f"d{i}", "branch": "complex", "data_fraction": fraction,
                       "optimizer": dict(opts[i % 2])}
                      for i, fraction in enumerate((0.4, 0.3, 0.2, 0.1))]
    return doc


def _stem_dropout(doc):
    doc["topology"]["stem"].append({"kind": "dropout", "p": 0.25})
    return doc


def _partial_minibatch(doc, round_samples=70):
    # 70 = 4 x 16 + 6, so every round ends on a minibatch of 6
    doc["supervised"]["round_samples"] = round_samples
    return doc


def tiny_share_first_doc(mode="heterogeneous"):
    """Three supervised devices on a share-first topology, two of them on
    the "narrow" branch; the "wide" branch draws dropout masks."""
    doc = tiny_supervised_doc(mode)
    doc["scheme"] = "share-first"
    doc["topology"] = {
        "input_shape": [8],
        "stem": [{"kind": "dense", "units": 8}, {"kind": "relu"}],
        "branches": {
            "wide": [{"kind": "dense", "units": 12}, {"kind": "relu"},
                     {"kind": "dropout", "p": 0.2}, {"kind": "dense", "units": 4},
                     {"kind": "softmax"}],
            "narrow": [{"kind": "dense", "units": 4}, {"kind": "softmax"}],
        },
    }
    opt = {"algorithm": "rmsprop", "learning_rate": 0.001}
    doc["devices"] = [
        {"id": "a", "branch": "wide", "data_fraction": 0.5, "optimizer": dict(opt)},
        {"id": "b", "branch": "narrow", "data_fraction": 0.3, "optimizer": dict(opt)},
        {"id": "c", "branch": "narrow", "data_fraction": 0.2,
         "optimizer": {"algorithm": "adam", "learning_rate": 0.002}},
    ]
    return doc


def tiny_cifar_doc(inputs, mode="heterogeneous", real_width=64, channels=(4, 4),
                   records=(40, 10)):
    """A conv cascade on seeded CIFAR-format files written into ``inputs``.

    The stem is conv (stride 1), max pool, conv (stride 2), with
    ``channels`` output channels; the weakest branch (the network every
    homogeneous device trains) starts with dropout. ``records`` training
    and test records (40 and 10 keep a run well under 1 s).
    """
    rng = np.random.default_rng(1234)
    for name, n in zip(("train.bin", "test.bin"), records):
        pixels = rng.integers(0, 256, size=(n, 32, 32, 3)) / 255.0
        write_cifar10_binary(Dataset(pixels, rng.integers(0, 10, size=n), 10),
                             inputs / name)
    opt = {"algorithm": "rmsprop", "learning_rate": 0.001}
    return {
        "task": "supervised", "mode": mode, "scheme": "cascaded", "seeds": [5],
        "real_width": real_width,
        "topology": {
            "input_shape": [32, 32, 3],
            "stem": [{"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": channels[0]},
                     {"kind": "relu"}, {"kind": "maxpool2d", "ph": 2, "pw": 2},
                     {"kind": "conv2d", "kh": 3, "kw": 3, "out_channels": channels[1],
                      "stride": 2},
                     {"kind": "relu"}, {"kind": "flatten"}],
            "branches": {
                "complex": [{"kind": "dense", "units": 16}, {"kind": "relu"},
                            {"kind": "dense", "units": 10}],
                "lightweight": [{"kind": "dropout", "p": 0.25},
                                {"kind": "dense", "units": 10}, {"kind": "softmax"}],
            },
            "cascade": {"complex_branch": "complex", "lightweight_branch": "lightweight",
                        "branch_dropout_p": 0.5},
        },
        "devices": [
            {"id": "powerful", "branch": "complex", "data_fraction": 0.75,
             "optimizer": dict(opt)},
            {"id": "weak", "branch": "lightweight", "data_fraction": 0.25,
             "optimizer": dict(opt)},
        ],
        "coordinator": {"mode": "sync", "weighting": "data-proportional"},
        "supervised": {"rounds": 2, "round_samples": 16, "minibatch_size": 8},
        "data": {"source": "cifar10", "train_path": str(inputs / "train.bin"),
                 "test_path": str(inputs / "test.bin")},
    }


def _wide_conv(inputs, real_width):
    # The first conv's columns take 194 KB per float64 image, so its
    # forward splits a minibatch of 6 and a test pass of 40 into blocks;
    # on a full minibatch the second conv's weight gradient takes two
    # 8-channel blocks (294 rows x 64 x 72 multiply-adds each). (With 32
    # channels at minibatches of 8, the float64 bits of such a run depend
    # on the BLAS thread count: that weight-gradient product sums 392 rows.)
    doc = tiny_cifar_doc(inputs, real_width=real_width, channels=(16, 64), records=(80, 40))
    doc["supervised"]["minibatch_size"] = 6  # 16 = 6 + 6 + 4
    return doc


CASES = {
    "supervised-isolated": (
        lambda _: tiny_supervised_doc("isolated"),
        "8398f7973c6b55ab9b675992cad9d74050202de3eeccce6f17a40bff1e55a4b6"),
    "supervised-homogeneous": (
        lambda _: tiny_supervised_doc("homogeneous"),
        "e5ac10d18b545d9d279c6ea9856d8a895d866e078c0bffdd8b8452007cbaccd9"),
    "supervised-heterogeneous": (
        lambda _: tiny_supervised_doc("heterogeneous"),
        "08a4ca3423a3bad4abf6131a749b301148221cf8acb26cd468db06c5eaf4aac0"),
    "supervised-heterogeneous-async": (
        lambda _: _async(tiny_supervised_doc()),
        "a3dcc528369e6e5373973b5836f91a6e726e12a183ee9bb043f9f23bc267a500"),
    "supervised-real-width-32": (
        lambda _: _real_width_32(tiny_supervised_doc()),
        "d87b223acf2b76786513aa9363a6f470ea42b1d5b8cb5c32822b9c512e0dc37e"),
    "supervised-homogeneous-four-devices-real-width-32": (
        # the sync reference every device shares is the float32 cast of theta
        lambda _: _real_width_32(_four_devices(tiny_supervised_doc("homogeneous"))),
        "54912d66206bf8ed3788788524ceaaea0babee6f9b8ecc49cc62b90723c8eaff"),
    "supervised-share-first-three-devices": (
        lambda _: tiny_share_first_doc(),
        "151542257202ee3573e9366538f5c23041abd82396c30d4e85f8e9b9852b628d"),
    "supervised-share-first-three-devices-async": (
        lambda _: _async(tiny_share_first_doc()),
        "084e628d2654ee6d3774020d36b88ed8b0ce21192ce7dcdbe577d1480c22dc94"),
    "supervised-homogeneous-three-devices-async-batch-of-one": (
        # 65 = 4 x 16 + 1: the last minibatch of every round holds one example
        lambda _: _partial_minibatch(_async(tiny_share_first_doc("homogeneous")), 65),
        "8458460ef3bdf0b738f0fc7ae78551101437c1c6b119df8f01c48f694ae32297"),
    "supervised-stem-dropout": (
        lambda _: _stem_dropout(tiny_supervised_doc()),
        "7d57be78ea3078368bcfd0110ae159bc8754f1fe0d9bf2448b56fb9315a0d57c"),
    "supervised-partial-minibatch": (
        lambda _: _partial_minibatch(tiny_supervised_doc()),
        "2ef2eed793fed75becaacf3b598e803b356bfc2835c8a70ab5e8df8cc27a5430"),
    "rl-isolated": (
        lambda _: _long_rl(tiny_rl_doc("isolated")),
        "d7dc43d9aca2f6cfca134ee899f3198e2043306a4ddfe1a318a03fab7eadac0f"),
    "rl-homogeneous": (
        lambda _: _long_rl(tiny_rl_doc("homogeneous")),
        "f04ccd4b5dadc4c7a782188d77a06df6921ff7cbe32ada71096baa870aecc860"),
    "rl-heterogeneous": (
        lambda _: _long_rl(tiny_rl_doc("heterogeneous")),
        "b8784613ad0b6db6926cfb55160d1d684d0e6a4d8475504e1bb3ea842e29da91"),
    "rl-heterogeneous-three-devices": (
        lambda _: _third_device_on_a_shared_branch(_long_rl(tiny_rl_doc())),
        "113660264967fd915ba6e152b444c3faec1ce84ea5c625c0f10aeea4ebf20860"),
    "rl-heterogeneous-async": (
        lambda _: _async(_long_rl(tiny_rl_doc())),
        "677fae0aa4e87ba15c1779798302b934b06db0006d166b1e13cf45507e0da2e7"),
    "conv-heterogeneous": (
        lambda inputs: tiny_cifar_doc(inputs),
        "8e0fb1e43d753a9be99b93e29978a2baebc4255f189d78222a6e75f22aaf0e1b"),
    "conv-heterogeneous-real-width-32": (
        lambda inputs: tiny_cifar_doc(inputs, real_width=32),
        "237f3bad746fe8fff496fd57d6866dc051659dbefedc3ca5d1225fd983b860a8"),
    "conv-homogeneous": (
        lambda inputs: tiny_cifar_doc(inputs, "homogeneous"),
        "2bf64c59e83055e4de60d13fc223a88fb93c8a56dc12dda64c89cc382e0ad414"),
    "conv-heterogeneous-wide-blocked": (
        lambda inputs: _wide_conv(inputs, 64),
        "e5a647ddc8a6ae28934b7effe627161e02eb6990f4a1b068f538961d1e5577c4"),
    "conv-heterogeneous-wide-blocked-real-width-32": (
        lambda inputs: _wide_conv(inputs, 32),
        "4a69041e55046d8fbcf96918c4dea624538fd658cb0ec0b982d88cf15ae0fa8e"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_csv_matches_golden_digest(name, tmp_path):
    make_doc, digest = CASES[name]
    run_experiment(parse_config(make_doc(tmp_path)), out_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == digest


_DIGESTS_SCRIPT = """
import hashlib, json, pathlib, tempfile
from hetsim.config import parse_config
from hetsim.harness import run_experiment
from test_golden import CASES
digests = {}
for name, (make_doc, _) in CASES.items():
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        run_experiment(parse_config(make_doc(out)), out_dir=out)
        digests[name] = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_digests_hold_under_one_and_two_blas_threads(threads):
    """Every case in a fresh process whose OpenBLAS runs ``threads`` threads.

    The bits of a BLAS product may depend on the thread count, and the
    test suite otherwise runs with the default. OpenBLAS caps the count at
    the usable CPUs, so on one CPU both runs use one thread.
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _DIGESTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: digest for name, (_, digest) in CASES.items()}
