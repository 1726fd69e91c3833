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


class MetricsFileError(ValueError):
    """A file that is not a raw metrics CSV."""


def read_csv(path) -> list[MetricsRow]:
    """The rows of a raw metrics CSV. A file that is not one raises
    :class:`MetricsFileError`, naming the file and the line at fault."""
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"empty file, expected the header {CSV_HEADER!r}")
            if ",".join(header) != CSV_HEADER:
                raise ValueError(f"header {','.join(header)!r}, expected {CSV_HEADER!r}")
            for rec in reader:
                if len(rec) != 6:
                    raise ValueError(f"{len(rec)} fields, expected 6")
                rows.append(MetricsRow(int(rec[0]), int(rec[1]), rec[2], rec[3], rec[4],
                                       float(rec[5])))
        except (ValueError, csv.Error) as exc:
            where = f"{path}:{reader.line_num}" if reader.line_num else str(path)
            raise MetricsFileError(f"{where}: {exc}") from None
    return rows


def aggregate_rows(rows: list[MetricsRow]) -> list[dict]:
    """Median/min/max across seeds per (round, device, phase, metric).

    Groups with the same number of values form the rows of one table, and
    each statistic is one NumPy call along its axis 1, which gives each row
    the bits of the call on that group alone.
    """
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.round, r.device, r.phase, r.metric), []).append(r.value)
    keys = sorted(groups)
    by_size: dict[int, list[tuple]] = {}
    for key in keys:
        by_size.setdefault(len(groups[key]), []).append(key)
    stats: dict[tuple, tuple[float, float, float]] = {}
    for same_size in by_size.values():
        table = np.array([groups[key] for key in same_size], dtype=np.float64)
        stats.update(zip(same_size, zip(np.median(table, axis=1).tolist(),
                                        np.min(table, axis=1).tolist(),
                                        np.max(table, axis=1).tolist())))
    return [{"round": key[0], "device": key[1], "phase": key[2], "metric": key[3],
             "median": stats[key][0], "min": stats[key][1], "max": stats[key][2]}
            for key in keys]


def write_aggregated_csv(rows: list[MetricsRow], path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(AGG_HEADER + "\n")
        for g in aggregate_rows(rows):
            fh.write(f"{g['round']},{g['device']},{g['phase']},{g['metric']},"
                     f"{_fmt(g['median'])},{_fmt(g['min'])},{_fmt(g['max'])}\n")
