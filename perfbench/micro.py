"""Microbenchmarks of single nn kernels and protocol frames at config shapes.

Only hetsim's public API is called. ``nn.chain_overhead_us`` is a whole
``forward_chain`` minus the same layers' arithmetic done here in plain
NumPy, which leaves the engine's per-call and per-layer bookkeeping.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from hetsim import nn
from hetsim.harness import build_device_network
from hetsim.protocol import GradientUpdate, decode_message, encode_message

from workloads import CONV_MICRO, CONV_S4_MICRO, MAXPOOL_MICRO, MICRO_BATCH

_MIN_SAMPLE_S = 5e-5
_BUDGET_S = 0.05
_MIN_SAMPLES = 5


def per_call_s(fn) -> float:
    """Median seconds per call over about ``_BUDGET_S`` of repeated samples."""
    inner = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        if time.perf_counter() - t0 >= _MIN_SAMPLE_S or inner >= 1 << 16:
            break
        inner *= 4
    samples = []
    deadline = time.perf_counter() + _BUDGET_S
    while len(samples) < _MIN_SAMPLES or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def _chain(layer_specs, input_shape, rng):
    keyed = nn.make_keyed("bench", [nn.layer_from_dict(s) for s in layer_specs])
    store = nn.ParamStore(nn.build_layout(keyed, input_shape))
    nn.init_chain_params(keyed, input_shape, store, rng)
    x = rng.standard_normal((MICRO_BATCH, *input_shape))
    return keyed, store, x


def _fwd_bwd_us(layer_spec, input_shape, rng) -> tuple[float, float]:
    keyed, store, x = _chain([layer_spec], input_shape, rng)
    out, cache = nn.forward_chain(keyed, store, x, mode="train", rng=rng)
    dy = rng.standard_normal(out.shape)
    grads = store.zeros_like()
    fwd = per_call_s(lambda: nn.forward_chain(keyed, store, x, mode="train", rng=rng))
    bwd = per_call_s(lambda: nn.backward_chain(cache, dy, store, grads))
    return fwd * 1e6, bwd * 1e6


def _reference_layers(keyed, store, x):
    """One plain-NumPy callable per layer, each bound to its real input."""
    calls = []
    out = x
    for key, layer in keyed:
        if isinstance(layer, nn.Dense):
            w, b = store.view((key, "w")), store.view((key, "b"))
            fn = (lambda a, w=w, b=b: a @ w + b)
        elif isinstance(layer, nn.ReLU):
            fn = (lambda a: a * (a > 0))
        elif isinstance(layer, nn.Softmax):
            def fn(a):
                e = np.exp(a - a.max(axis=-1, keepdims=True))
                return e / e.sum(axis=-1, keepdims=True)
        elif isinstance(layer, nn.Flatten):
            fn = (lambda a: a.reshape(a.shape[0], -1))
        elif isinstance(layer, nn.Dropout):
            fn = (lambda a: a)  # eval mode
        else:
            raise TypeError(f"no reference kernel for {layer!r}")
        calls.append((fn, out))
        out = fn(out)
    return calls


def _largest_dense(layer_specs, input_shape):
    best, shape = None, tuple(input_shape)
    for spec in layer_specs:
        layer = nn.layer_from_dict(spec)
        if isinstance(layer, nn.Dense) and (
                best is None or shape[0] * layer.units > best[1][0] * best[0]["units"]):
            best = (spec, shape)
        shape = nn.output_shape(layer, shape)
    return best


def run_micro(config, chain: tuple) -> dict[str, float]:
    """Every nn.* and protocol.encode/decode metric for one workload."""
    rng = np.random.default_rng(0)
    input_shape, layer_specs = tuple(chain[0]), chain[1]
    m = {}
    dense_spec, dense_in = _largest_dense(layer_specs, input_shape)
    m["nn.dense.fwd_us"], m["nn.dense.bwd_us"] = _fwd_bwd_us(dense_spec, dense_in, rng)
    m["nn.conv2d.fwd_us"], m["nn.conv2d.bwd_us"] = _fwd_bwd_us(
        CONV_MICRO["layer"], CONV_MICRO["input_shape"], rng)
    m["nn.maxpool2d.fwd_us"], m["nn.maxpool2d.bwd_us"] = _fwd_bwd_us(
        MAXPOOL_MICRO["layer"], MAXPOOL_MICRO["input_shape"], rng)
    m["nn.conv2d_s4.fwd_us"], m["nn.conv2d_s4.bwd_us"] = _fwd_bwd_us(
        CONV_S4_MICRO["layer"], CONV_S4_MICRO["input_shape"], rng)

    keyed, store, x = _chain(layer_specs, input_shape, rng)
    whole = per_call_s(lambda: nn.forward_chain(keyed, store, x, mode="eval"))
    parts = sum(per_call_s(lambda fn=fn, a=a: fn(a))
                for fn, a in _reference_layers(keyed, store, x))
    m["nn.chain_overhead_us"] = (whole - parts) * 1e6
    key = store.keys()[0]
    m["nn.params.view_us"] = per_call_s(lambda: store.view(key)) * 1e6

    logits = rng.standard_normal((MICRO_BATCH, 10))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = rng.integers(0, 10, MICRO_BATCH)
    m["nn.cross_entropy_us"] = per_call_s(lambda: nn.cross_entropy(probs, labels)) * 1e6
    y, pred = rng.standard_normal(MICRO_BATCH), rng.standard_normal(MICRO_BATCH)
    m["nn.huber_us"] = per_call_s(lambda: nn.huber(y, pred)) * 1e6

    nets = [build_device_network(config, dev) for dev in config.devices]
    n_params = max(net.count_params() for net in nets)
    grads = rng.standard_normal(n_params) * 1e-3
    for algorithm in ("rmsprop", "sgd", "adam"):
        params = rng.standard_normal(n_params)
        opt = nn.make_optimizer({"algorithm": algorithm, "learning_rate": 1e-6})
        m[f"nn.optim.{algorithm}_us"] = per_call_s(lambda: opt.step(params, grads)) * 1e6

    delta = rng.standard_normal(nets[0].partition.shared_len)
    frame = encode_message(GradientUpdate(0, delta), config.dtype)
    m["protocol.encode_us"] = per_call_s(
        lambda: encode_message(GradientUpdate(0, delta), config.dtype)) * 1e6
    m["protocol.decode_us"] = per_call_s(lambda: decode_message(frame, config.dtype)) * 1e6
    return m
