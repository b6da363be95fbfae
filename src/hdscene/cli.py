"""Command-line harness: experiments from a JSON config, and per-iteration traces."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .codebook import derive_seed
from .decoder import decode_scene
from .harness import (
    _CODEBOOK_STREAM,
    _TRIAL_STREAM,
    ExperimentConfig,
    format_summary,
    run_experiment,
    write_conditional_csv,
    write_summary_csv,
    write_trials_jsonl,
)
from .ops import cosine_similarity
from .scene import CodebookSet, draw_nonzero_scene, encode_scene, noisy_scene_vector, random_scene


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
    cbs = CodebookSet.generate(args.dim, seed=derive_seed(args.seed, _CODEBOOK_STREAM))
    rng = np.random.default_rng(derive_seed(args.seed, _TRIAL_STREAM))
    scene, clean = draw_nonzero_scene(lambda: random_scene(args.objects, rng),
                                      lambda scene: encode_scene(cbs, scene))
    vector = noisy_scene_vector(clean, args.target, rng)
    rows: list[dict] = []
    decode_scene(vector, cbs, max_runs=args.max_runs, trace=rows)
    lines = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    if args.out == "-":
        sys.stdout.write(lines)
    else:
        Path(args.out).write_text(lines)
    print(f"ground truth: {json.dumps(scene.to_dict(), separators=(',', ':'))}"
          f"  realized similarity: {cosine_similarity(vector, clean):.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdscene",
        description="Encode multi-object symbolic scenes as hypervectors and "
                    "factor them back with a resonator network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    run_p.add_argument("--seed", type=int, help="master seed, overrides the config's")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.set_defaults(func=cmd_run)

    trace_p = sub.add_parser("trace", help="per-iteration resonator trace on one scene")
    trace_p.add_argument("--objects", type=int, default=1, help="objects in the scene")
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--dim", type=int, default=1000)
    trace_p.add_argument("--target", type=float, default=1.0, help="noise target (1 = clean)")
    trace_p.add_argument("--max-runs", type=int, default=3)
    trace_p.add_argument("--out", default="-", help="output file, - for stdout")
    trace_p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
