"""Metrics rows, CSV persistence and aggregation across seeds."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_open

CSV_HEADER = "seed,round,device,phase,metric,value"
AGG_HEADER = "round,device,phase,metric,median,min,max"


@dataclass(frozen=True)
class MetricsRow:
    seed: int
    round: int
    device: str
    phase: str  # train | validation | test
    metric: str
    value: float


def _fmt(value: float) -> str:
    # repr gives the shortest round-trip form, so files are byte-stable
    return repr(float(value))


def write_csv(rows: list[MetricsRow], path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.seed},{r.round},{r.device},{r.phase},{r.metric},{_fmt(r.value)}\n")


def read_csv(path) -> list[MetricsRow]:
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for rec in reader:
            rows.append(MetricsRow(int(rec[0]), int(rec[1]), rec[2], rec[3], rec[4],
                                   float(rec[5])))
    return rows


def aggregate_rows(rows: list[MetricsRow]) -> list[dict]:
    """Median/min/max across seeds per (round, device, phase, metric)."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.round, r.device, r.phase, r.metric), []).append(r.value)
    out = []
    for key in sorted(groups):
        values = groups[key]
        out.append({
            "round": key[0], "device": key[1], "phase": key[2], "metric": key[3],
            "median": float(np.median(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        })
    return out


def write_aggregated_csv(rows: list[MetricsRow], path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(AGG_HEADER + "\n")
        for g in aggregate_rows(rows):
            fh.write(f"{g['round']},{g['device']},{g['phase']},{g['metric']},"
                     f"{_fmt(g['median'])},{_fmt(g['min'])},{_fmt(g['max'])}\n")
