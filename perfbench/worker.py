"""One measurement in a fresh interpreter, started by ``run.py``.

Usage: ``python3 perfbench/worker.py <request.json>``. The request names
the mode and its inputs; the result is printed as one JSON line.

Modes:

* ``setup``: time the hetsim import, config parse and ``make_run`` for
  every seed. Nothing is imported before the clock starts; the reference
  loop is timed afterwards.
* ``run``: ``run_experiment`` over the seed list, once to warm up and then
  repeatedly for the requested seconds, timing the reference loop after
  each pass; each pass's rows are checked against the golden per-seed
  digests.
* ``trace``: untraced and traced passes through the public entry points
  (``make_run``, ``play_round``/``play_step``, ``finalize``,
  ``write_csv``), alternating, followed by the microbenchmarks; reports
  the per-layer metrics and writes the spans.
* ``digest``: one ``run_experiment`` pass; prints the per-seed digests.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3
LOOPS_PER_PASS = 4  # reference loops (calibrate.py) timed after each pass


def seed_digests(csv_path) -> dict[str, str]:
    """SHA-256 of each seed's metrics rows, as the CSV lines hetsim wrote."""
    digests: dict[str, hashlib._Hash] = {}
    for line in Path(csv_path).read_bytes().splitlines(keepends=True)[1:]:
        seed = line.split(b",", 1)[0].decode()
        digests.setdefault(seed, hashlib.sha256()).update(line)
    return {seed: h.hexdigest() for seed, h in digests.items()}


class Tally:
    """Seed runs attempted and failed; a failure is a raise or a digest mismatch."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def passed(self, seeds, csv_path) -> None:
        got = seed_digests(csv_path)
        for seed in map(str, seeds):
            self.attempted += 1
            if self.golden is not None and got.get(seed) != self.golden.get(seed):
                self.failed += 1
                self.errors.append(f"seed {seed}: rows digest {got.get(seed)} "
                                   f"!= golden {self.golden.get(seed)}")

    def raised(self, seeds) -> None:
        self.attempted += len(seeds)
        self.failed += len(seeds)
        self.errors.append(traceback.format_exc(limit=4))

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:5]}


def environment() -> dict:
    """Interpreter, NumPy and BLAS facts that a result depends on."""
    import platform
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": _cpu_model(),
    }
    lib = _loaded_openblas(ctypes)
    if lib is not None:
        env["blas_threads"] = _call(lib, ctypes.c_int, "get_num_threads")
        core = _call(lib, ctypes.c_char_p, "get_corename")
        env["blas_core"] = core.decode() if core else None
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _loaded_openblas(ctypes):
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    return ctypes.CDLL(sorted(paths)[0]) if paths else None


def _call(lib, restype, suffix):
    """Call openblas_<suffix> under whichever symbol prefix the build used."""
    for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                 f"openblas_{suffix}", f"scipy_openblas_{suffix}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn()
    return None


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def mode_setup(req: dict) -> dict:
    t0 = time.perf_counter()
    from hetsim.config import load_config
    from hetsim.harness import make_run

    config = load_config(req["config"])
    runs = [make_run(config, seed) for seed in config.seeds]
    setup_s = time.perf_counter() - t0
    from calibrate import loop_s

    return {"setup_s": setup_s, "runs": len(runs),
            "loops": [loop_s() for _ in range(2 * LOOPS_PER_PASS)]}


def mode_run(req: dict) -> dict:
    from calibrate import loop_s
    from hetsim.config import load_config
    from hetsim.harness import run_experiment

    config = load_config(req["config"])
    out = Path(req["out"])
    tally = Tally(req["golden"])
    walls = []

    def one_pass():
        t0 = time.perf_counter()
        try:
            run_experiment(config, out)
        except Exception:
            tally.raised(config.seeds)
            return None
        wall = time.perf_counter() - t0
        tally.passed(config.seeds, out / "metrics.csv")
        return wall

    one_pass()  # warm-up: lazy imports, allocator and caches
    loops = [loop_s() for _ in range(LOOPS_PER_PASS)]
    deadline = time.perf_counter() + req["seconds"]
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall = one_pass()
        if wall is None:
            break
        walls.append(wall)
        loops += [loop_s() for _ in range(LOOPS_PER_PASS)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"walls": walls, "loops": loops, "peak_rss_mb": rss_mb, "env": environment(),
            **tally.as_dict()}


def mode_digest(req: dict) -> dict:
    from hetsim.config import load_config
    from hetsim.harness import run_experiment

    config = load_config(req["config"])
    run_experiment(config, req["out"])
    return {"digests": seed_digests(Path(req["out"]) / "metrics.csv")}


def _traced_pass(tracer, config, out, tally):
    import layers

    tracer.begin_pass()
    tracer.install()
    try:
        return layers.drive(config, out, tally, tracer.span)
    finally:
        tracer.uninstall()


def mode_trace(req: dict) -> dict:
    import statistics

    import layers
    from micro import run_micro
    from tracing import Tracer
    from hetsim.config import load_config

    config = load_config(req["config"])
    out = Path(req["out"])
    tally = Tally(req["golden"])
    tracer = Tracer()
    plain_walls, traced_walls = [], []

    layers.drive(config, out, tally)  # warm-up
    deadline = time.perf_counter() + req["seconds"]
    while len(traced_walls) < MIN_PASSES or time.perf_counter() < deadline:
        plain_walls.append(layers.drive(config, out, tally))
        traced_walls.append(_traced_pass(tracer, config, out, tally))
        if None in plain_walls or None in traced_walls:
            return {"layers": {}, "checks": [], "from_probe": [], "env": environment(),
                    **tally.as_dict()}
    tracer.write(out / "spans.jsonl")

    values, checks = layers.layer_metrics(config, tracer.passes, traced_walls,
                                          req["steps"], out / "metrics.csv")
    values.update(run_micro(config, req["chain"]))
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    # a layer this workload never calls is timed on a short pass of one that does
    from_probe = []
    for probe in req["probes"]:
        missing = [name for name, v in values.items() if v is None]
        if not missing:
            break
        probe_config = load_config(probe["config"])
        probe_out = Path(probe["out"])
        probe_tally = Tally(None)  # no golden digests for probes; raising still fails
        probe_tracer = Tracer()
        wall = _traced_pass(probe_tracer, probe_config, probe_out, probe_tally)
        tally.attempted += probe_tally.attempted
        tally.failed += probe_tally.failed
        tally.errors += probe_tally.errors
        if wall is None:
            break
        probe_tracer.write(probe_out / "spans.jsonl")
        probe_values, probe_checks = layers.layer_metrics(
            probe_config, probe_tracer.passes, [wall], probe["steps"], probe_out / "metrics.csv")
        checks += [f"probe {probe['workload']}: {c}" for c in probe_checks]
        for name in missing:
            if probe_values[name] is not None:
                values[name] = probe_values[name]
                from_probe.append(f"{name}<-{probe['workload']}")
    return {"layers": values, "checks": checks, "from_probe": from_probe,
            "plain_walls": plain_walls, "traced_walls": traced_walls,
            "env": environment(), **tally.as_dict()}


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace, "digest": mode_digest}

if __name__ == "__main__":
    request = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(MODES[request["mode"]](request)))
