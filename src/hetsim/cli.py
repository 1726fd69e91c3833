"""Command-line interface: run experiments, describe topologies, aggregate CSVs."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import CheckpointError
from .config import ConfigError, load_config
from .harness import describe, run_experiment
from .metrics import MetricsFileError, read_csv, write_aggregated_csv
from .nn.network import NonFiniteError


def _cmd_run(args) -> int:
    config = load_config(args.config)
    summary = run_experiment(config, args.out, args.seed_offset,
                             checkpoint_at=args.checkpoint_at, resume=args.resume)
    for device, stats in summary["devices"].items():
        print(f"{device}: final {stats['metric']} median {stats['median']:.4f} "
              f"min {stats['min']:.4f} max {stats['max']:.4f}")
    print(f"metrics written to {Path(args.out) / 'metrics.csv'}")
    if args.checkpoint_at is not None:
        print(f"checkpoints written to {Path(args.out) / 'checkpoints'}")
    return 0


def _cmd_describe(args) -> int:
    config = load_config(args.config)
    print(describe(config))
    return 0


def _cmd_aggregate(args) -> int:
    raw = Path(args.raw_csv)
    rows = read_csv(raw)
    out = args.out or raw.parent / f"{raw.stem}_agg.csv"
    write_aggregated_csv(rows, out)
    print(f"aggregated {len(rows)} rows into {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsim",
        description="Cooperative training of branched networks across "
                    "heterogeneous simulated devices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all seeds of an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed-offset", type=int, default=0,
                       help="added to every seed in the config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--checkpoint-at", type=int, metavar="N",
                       help="save each seed to OUT/checkpoints/seed-<s>.ckpt when its "
                            "round (supervised) or step (RL) reaches N, then run on")
    p_run.add_argument("--resume", metavar="DIR",
                       help="start each seed from DIR/checkpoints/seed-<s>.ckpt")
    p_run.set_defaults(func=_cmd_run)

    p_desc = sub.add_parser("describe",
                            help="print per-branch parameter counts and sharing split")
    p_desc.add_argument("config", help="path to a JSON experiment config")
    p_desc.set_defaults(func=_cmd_describe)

    p_agg = sub.add_parser("aggregate", help="aggregate a raw metrics CSV across seeds")
    p_agg.add_argument("raw_csv", help="path to a raw metrics.csv")
    p_agg.add_argument("--out", help="output path (default: <stem>_agg.csv beside the input)")
    p_agg.set_defaults(func=_cmd_aggregate)
    return parser


def main(argv=None) -> int:
    """Run the command; a bad config, run setting, checkpoint or metrics
    file, a file that cannot be read or written, or a run that diverges
    (its error names the seed, the device and the round or step), prints
    ``hetsim: error: <message>`` to stderr and returns 2, as a bad flag does."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, MetricsFileError, NonFiniteError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
