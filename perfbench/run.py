"""hetsim benchmark: one workload, end to end or traced, from the repo root.

    python3 perfbench/run.py --workload sup-synth-cascade --seed 3 --seconds 15 --trace 0

``--trace 0`` runs ``hetsim.harness.run_experiment`` with tracing off and
reports the end-to-end metrics. Times are scaled by the speed of a fixed
reference loop timed between passes (``calibrate.py``), because a shared
host changes speed by up to 1.5x from minute to minute; the raw medians
are printed too. ``--trace 1`` runs the traced pass and reports the
per-layer metrics, unscaled, and the tracing overhead. Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give each metric with its unit and sample count, ``error_rate``, and the
environment. Every measurement runs in a child process with BLAS pinned
to ``BLAS_THREADS`` threads. Inputs and outputs go to ``.perfbench/``.

``python3 perfbench/run.py --write-golden`` recomputes ``golden.json``,
the per-seed SHA-256 digests of the metrics rows for every pool entry.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import POOL, WORKLOADS, expected_steps

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# One BLAS thread: results are steady on a busy machine, bit-identical
# for the digests, and comparable across commits. Never above nproc.
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # measured set-up processes, after one that warms the file cache
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({"PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads})
    return env


def run_child(root: Path, work: Path, request: dict) -> dict:
    path = work / f"request-{request['mode']}.json"
    path.write_text(json.dumps(request))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                          cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{request['mode']} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(xs) -> str:
    if len(xs) < 4:
        return f"raw n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"raw n={len(xs)}, q1={q1:.6g}, q3={q3:.6g}"


def end_to_end(root, work, workload, config_path, seconds, golden) -> tuple[dict, dict]:
    doc = json.loads(config_path.read_text())
    setup_runs = [run_child(root, work, {"mode": "setup", "config": str(config_path)})
                  for _ in range(SETUP_SAMPLES + 1)][1:]
    setups = [r["setup_s"] for r in setup_runs]
    setup_speed = machine_speed([x for r in setup_runs for x in r["loops"]])
    out = work / "out"
    out.mkdir()
    res = run_child(root, work, {"mode": "run", "config": str(config_path), "out": str(out),
                                 "seconds": seconds, "golden": golden})
    walls = res["walls"]
    if not walls:
        raise BenchError("no pass completed:\n" + "\n".join(res["errors"]))
    speed = machine_speed(res["loops"])
    steps = expected_steps(doc)
    rates = [steps / w for w in walls]
    values = {
        "steps_per_s": (statistics.median(rates) / speed, spread(rates)),
        "wall_s": (statistics.median(walls) * speed, spread(walls)),
        "setup_s": (statistics.median(setups) * setup_speed, spread(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "n=1"),
    }
    print(f"steps per pass: {steps} optimizer minibatch steps over "
          f"{len(doc['devices'])} devices and seeds {doc['seeds']}")
    print(f"speed factor (reference loop / its time here): passes {speed:.4f}, "
          f"set-up {setup_speed:.4f}; raw medians: wall {statistics.median(walls):.6g} s, "
          f"set-up {statistics.median(setups):.6g} s")
    return values, res


def machine_speed(loops) -> float:
    """How much faster than the reference machine this one ran the loop."""
    return REFERENCE_S / statistics.median(loops)


def traced(root, work, workload, seed, config_path, seconds, golden) -> tuple[dict, dict]:
    doc = json.loads(config_path.read_text())
    probes = []
    for other in WORKLOADS.values():
        if other.name != workload.name:
            probe_work = work / f"probe-{other.name}"
            probe_config = other.prepare(seed, probe_work, probe=True)
            (probe_work / "out").mkdir()
            probes.append({"workload": other.name, "config": str(probe_config),
                           "out": str(probe_work / "out"),
                           "steps": expected_steps(json.loads(probe_config.read_text()))})
    out = work / "out"
    out.mkdir()
    res = run_child(root, work, {"mode": "trace", "config": str(config_path), "out": str(out),
                                 "seconds": seconds, "golden": golden,
                                 "steps": expected_steps(doc), "chain": workload.chain,
                                 "probes": probes})
    if not res["layers"]:
        raise BenchError("no traced pass completed:\n" + "\n".join(res["errors"]))
    for check in res["checks"]:
        print(f"check failed: {check}")
    print(f"traced passes: {len(res.get('traced_walls', []))}, untraced passes: "
          f"{len(res.get('plain_walls', []))}; spans in {out / 'spans.jsonl'}")
    if res["from_probe"]:
        print("not run by this workload, taken from a short traced pass of another: "
              + ", ".join(res["from_probe"]))
    return {name: (v, "") for name, v in res["layers"].items()}, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hetsim" / "__init__.py").is_file():
        print(f"error: no hetsim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden(root)
    if args.workload is None:
        parser.error("--workload is required")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / workload.name / f"seed-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    config_path = workload.prepare(args.seed, work / "inputs")
    golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    seeds = json.loads(config_path.read_text())["seeds"]
    golden = {str(s): golden.get(str(s)) for s in seeds}
    print(f"workload {workload.name}: {workload.why}")
    print(f"benchmark seed {args.seed} -> pool entry {args.seed % POOL}, run seeds {seeds}")
    try:
        if args.trace:
            values, res = traced(root, work, workload, args.seed, config_path,
                                 args.seconds, golden)
        else:
            values, res = end_to_end(root, work, workload, config_path, args.seconds, golden)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if values.get(m["name"], (None,))[0] is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        value, note = values[m["name"]]
        print(f"{m['name']:28s} {value:14.6g} {m['unit']:6s} {note}")
    error_rate = res["failed"] / res["attempted"]
    print(f"{'error_rate':28s} {error_rate:14.6g} share  "
          f"({res['failed']} of {res['attempted']} seed runs raised or missed the golden digest)")
    for error in res["errors"]:
        print(f"failure: {error}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    correct = res["failed"] == 0 and not res.get("checks")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def write_golden(root: Path) -> int:
    golden = {}
    for workload in WORKLOADS.values():
        golden[workload.name] = {}
        for pool in range(POOL):
            work = root / ".perfbench" / "golden" / workload.name / str(pool)
            shutil.rmtree(work, ignore_errors=True)
            config_path = workload.prepare(pool, work / "inputs")
            (work / "out").mkdir()
            res = run_child(root, work, {"mode": "digest", "config": str(config_path),
                                         "out": str(work / "out")})
            golden[workload.name].update(res["digests"])
            print(workload.name, pool, res["digests"], flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
