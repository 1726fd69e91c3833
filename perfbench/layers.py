"""The traced pass through hetsim's public entry points, and the per-layer
metrics computed from its spans.

Every metric here, with the end-to-end metric it should move and on
which workload, is listed in ``perfbench/README.md``.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import defaultdict

from hetsim import harness, metrics

_NO_SPAN = contextlib.nullcontext()


def _no_span(name):
    return _NO_SPAN


def drive(config, out, tally, span=_no_span):
    """What ``run_experiment`` does for the rows, through the public steps.

    Returns the wall time in seconds, or None if a seed run raised. An RL
    run is cut into rounds of ``sync_period`` global steps, each ending at
    a sync event, so that ``harness.round`` means the same on both tasks.
    """
    t0 = time.perf_counter()
    try:
        rows = []
        for seed in config.seeds:
            with span("harness.make_run"):
                run = harness.make_run(config, seed)
            if config.task == "supervised":
                while run.round < config.supervised.rounds:
                    with span("harness.round"):
                        run.play_round()
                with span("harness.finalize"):
                    run.finalize()
            else:
                total, period = config.rl.total_steps, config.rl.sync_period
                while run.step < total:
                    with span("harness.round"):
                        for _ in range(min(period, total - run.step)):
                            with span("harness.step"):
                                run.play_step()
            rows.extend(run.rows)
        with span("metrics.write_csv"):
            metrics.write_csv(rows, out / "metrics.csv")
    except Exception:
        tally.raised(config.seeds)
        return None
    wall = time.perf_counter() - t0
    tally.passed(config.seeds, out / "metrics.csv")
    return wall


def _quantile(xs, q):
    """Nearest-rank quantile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def layer_metrics(config, passes, walls, expected_steps, csv_path):
    """Per-layer values from traced passes; None where the layer did not run.

    Also returns the failed consistency checks: every pass must take the
    expected optimizer steps and repeat the first pass's counts exactly.
    """
    durations = defaultdict(list)  # span name -> [ns]
    callers = defaultdict(list)  # (span name, caller's span name) -> [ns]
    counts = []
    for spans in passes:
        count = defaultdict(int)
        for name, start, end, parent in spans:
            durations[name].append(end - start)
            count[name] += 1
            if parent >= 0:
                callers[name, spans[parent][0]].append(end - start)
        counts.append(count)

    checks = []
    for i, count in enumerate(counts):
        if count["nn.optim.step"] != expected_steps:
            checks.append(f"pass {i}: {count['nn.optim.step']} optimizer steps, "
                          f"expected {expected_steps}")
        if count != counts[0]:
            checks.append(f"pass {i}: span counts differ from pass 0")

    def med(name, scale, caller=None):
        xs = durations.get(name) if caller is None else callers.get((name, caller))
        return statistics.median(xs) / scale if xs else None

    def pct(name, q, scale):
        xs = durations.get(name)
        return _quantile(xs, q) / scale if xs else None

    us, ms = 1e3, 1e6
    total_ns = sum(walls) * 1e9
    first = counts[0]
    m = {}
    for name, key, scale in (("topology.forward_us", "topology.forward", us),
                             ("topology.backward_us", "topology.backward", us),
                             ("learners.train_round_ms", "learners.train_round", ms),
                             ("learners.interact_us", "learners.interact", us),
                             ("protocol.sync_round_us", "protocol.sync_round", us),
                             ("harness.round_ms", "harness.round", ms)):
        m[f"{name}.p50"] = pct(key, 0.5, scale)
        m[f"{name}.p99"] = pct(key, 0.99, scale)
    m["topology.forward_calls"] = first["topology.forward"]
    m["topology.busy_share"] = (sum(durations["topology.forward"])
                                + sum(durations["topology.backward"])) / total_ns
    m["learners.validate_ms"] = med("learners.validate", ms)
    m["learners.evaluate_ms"] = med("learners.evaluate", ms, caller="harness.finalize")
    m["learners.train_batch_us"] = med("learners.train_batch", us)
    m["learners.replay_sample_us"] = med("learners.replay_sample", us)
    m["learners.test_epoch_ms"] = med("learners.test_epoch", ms)
    m["learners.copy_target_us"] = med("learners.copy_target", us)
    m["learners.train_ratio"] = (first["nn.optim.step"] / first["learners.interact"]
                                 if first["learners.interact"] else None)
    m["protocol.busy_share"] = sum(durations["protocol.sync_round"]) / total_ns
    m["protocol.merge_us"] = med("protocol.merge", us)
    m["protocol.sync_calls"] = first["protocol.sync_round"]
    rows = metrics.read_csv(csv_path)
    m["protocol.bytes_sent"] = sum(r.value for r in rows if r.metric == "bytes_sent")
    m["metrics.rows"] = len(rows)
    m["metrics.write_csv_ms"] = med("metrics.write_csv", ms)
    m["data.generate_ms"] = med("data.generate", ms)
    m["data.partition_ms"] = med("data.partition", ms)
    m["data.cifar_load_ms"] = med("data.cifar_load", ms)
    m["gridworld.step_us"] = med("gridworld.step", us)
    m["gridworld.steps"] = first["gridworld.step"]
    m["harness.make_run_ms"] = med("harness.make_run", ms)

    if config.task == "rl":
        steps = durations["harness.step"]
    else:
        # a supervised round is its optimizer steps; charge it per step
        per_round = len(config.devices) * math.ceil(
            config.supervised.round_samples / config.supervised.minibatch_size)
        steps = [d / per_round for d in durations["harness.round"]]
    m["harness.step_us.p50"] = _quantile(steps, 0.5) / us
    m["harness.step_us.p99"] = _quantile(steps, 0.99) / us
    round_ns = sum(durations["harness.round"])
    covered = sum(sum(xs) for (name, caller), xs in callers.items()
                  if name.startswith(("learners.", "protocol."))
                  and caller in ("harness.round", "harness.step"))
    m["harness.self_share"] = (round_ns - covered) / round_ns
    return m, checks
