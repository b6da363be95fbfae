"""Command-line harness: experiments from a JSON config, and traces of their trials."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    format_summary,
    run_experiment,
    trace_trial,
    write_conditional_csv,
    write_summary_csv,
    write_trials_jsonl,
)


def _build_config(args) -> ExperimentConfig:
    """The ``--config`` JSON as a checked config, its seed replaced by ``--seed`` if given."""
    data: dict = {}
    if args.config:
        # malformed JSON is a ValueError already; JSON nested too deep to parse is made one
        try:
            data = json.loads(Path(args.config).read_text())
        except RecursionError:
            raise ValueError(f"{args.config}: JSON nested too deeply to parse") from None
    cfg = ExperimentConfig.from_dict(data)
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def cmd_run(args) -> int:
    table, records = run_experiment(_build_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(table, out / "summary.csv")
    write_conditional_csv(table, out / "conditional.csv")
    write_trials_jsonl(records, out / "trials.jsonl")
    print(format_summary(table))
    print(f"wrote {out / 'summary.csv'}, {out / 'conditional.csv'}, {out / 'trials.jsonl'}")
    return 0


def cmd_trace(args) -> int:
    record, rows = trace_trial(_build_config(args), args.trial)
    lines = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    if args.out == "-":
        sys.stdout.write(lines)
    else:
        Path(args.out).write_text(lines)
    print(f"ground truth: {json.dumps(record.scene.to_dict(), separators=(',', ':'))}"
          f"  realized similarity: {record.realized_similarity:.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdscene",
        description="Encode multi-object symbolic scenes as hypervectors and "
                    "factor them back with a resonator network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    trace_p = sub.add_parser("trace", help="per-iteration resonator trace of one trial of a run")
    for command in (run_p, trace_p):
        command.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        command.add_argument("--seed", type=int, help="master seed, overrides the config's")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.set_defaults(func=cmd_run)
    trace_p.add_argument("--trial", type=int, default=0,
                         help="index of the trials.jsonl record to trace")
    trace_p.add_argument("--out", default="-", help="output file, - for stdout")
    trace_p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as error:
        # a failed allocation, as from a huge dim, may carry no message of its own
        print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
