"""Command-line harness: experiments, noise sweeps, traces, codebook tools."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .codebook import _read_json, derive_seed, generate_codebook, load_codebook, save_codebook
from .decoder import decode_scene
from .harness import (
    ExperimentConfig,
    format_summary,
    run_experiment,
    write_conditional_csv,
    write_summary_csv,
    write_trials_jsonl,
)
from .ops import cosine_similarity
from .scene import CodebookSet, draw_nonzero_scene, encode_scene, noisy_scene_vector, random_scene

SEED_ENV_VAR = "RESONATOR_SEED"
# about 40 MB of targets, all built before the first trial runs
MAX_GRID_POINTS = 10**6


def parse_targets(spec: str) -> tuple[float, ...]:
    """Parse "start:stop:step" (inclusive grid) or a comma-separated list.

    A grid of more than ``MAX_GRID_POINTS`` points is rejected before it is
    built, and one whose targets repeat once rounded to 10 places after.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        # checked before the grid is sized: NaN or inf cannot size it, 0 is no target
        if not (0.0 < start <= stop <= 1.0 and 0.0 < step < np.inf):
            raise ValueError(f"bad grid {spec!r}: need 0 < start <= stop <= 1 and finite step > 0")
        # capped before rounding: a tiny step makes the span inf
        n = round(min((stop - start) / step, MAX_GRID_POINTS)) + 1
        if n > MAX_GRID_POINTS:
            raise ValueError(f"bad grid {spec!r}: more than {MAX_GRID_POINTS} points")
        targets = tuple(round(start + i * step, 10) for i in range(n))
        if len(set(targets)) < n:
            raise ValueError(f"bad grid {spec!r}: targets repeat once rounded to 10 places")
    else:
        targets = tuple(float(p) for p in spec.split(",") if p.strip())
    if not targets or any(not 0.0 < t <= 1.0 for t in targets):
        raise ValueError(f"noise targets must be in (0, 1], got {targets}")
    return targets


def _resolve_seed(args) -> int | None:
    """Flag beats the RESONATOR_SEED env var, which beats the config file."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return None  # leave whatever the config says


def _build_config(args) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config} must hold a JSON object, got {type(data).__name__}")
    seed = _resolve_seed(args)
    if seed is not None:
        data["seed"] = seed
    if getattr(args, "trials", None) is not None:
        data["trials"] = args.trials
    if getattr(args, "targets", None) is not None:
        data["noise_targets"] = list(parse_targets(args.targets))
    return ExperimentConfig.from_dict(data)


def _write_outputs(args, table, records) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(table, out / "summary.csv")
    write_conditional_csv(table, out / "conditional.csv")
    write_trials_jsonl(records, out / "trials.jsonl")
    print(format_summary(table))
    print(f"wrote {out / 'summary.csv'}, {out / 'conditional.csv'}, {out / 'trials.jsonl'}")


def cmd_run(args) -> int:
    cfg = _build_config(args)
    table, records = run_experiment(cfg)
    _write_outputs(args, table, records)
    return 0


def cmd_trace(args) -> int:
    if not 0.0 < args.target <= 1.0:
        raise ValueError(f"--target must be in (0, 1], got {args.target}")
    cbs = CodebookSet.generate(args.dim, seed=derive_seed(args.seed, 0))
    rng = np.random.default_rng(derive_seed(args.seed, 1))
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


def cmd_codebook_gen(args) -> int:
    cb = generate_codebook(args.label, args.k, args.dim, args.seed)
    save_codebook(cb, args.out)
    print(f"wrote {args.out}: label={cb.label} k={cb.k} dim={cb.dim} seed={cb.seed}")
    return 0


def cmd_codebook_inspect(args) -> int:
    cb = load_codebook(args.file)
    gram = (cb.codewords @ cb.codewords.T) / cb.dim
    off_diagonal = gram[~np.eye(cb.k, dtype=bool)]
    print(f"label={cb.label} k={cb.k} dim={cb.dim} seed={cb.seed}")
    print(f"max |off-diagonal cosine| = {np.abs(off_diagonal).max():.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdscene",
        description="Encode multi-object symbolic scenes as hypervectors and "
                    "factor them back with a resonator network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", aliases=["sweep"],
                           help="run an experiment from a JSON config (alias: sweep)")
    run_p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    run_p.add_argument("--seed", type=int, help="master seed override")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--trials", type=int, help="trials per noise target override")
    run_p.add_argument("--targets", help="noise targets: start:stop:step or comma list")
    run_p.set_defaults(func=cmd_run)

    trace_p = sub.add_parser("trace", help="per-iteration resonator trace on one scene")
    trace_p.add_argument("--objects", type=int, default=1, help="objects in the scene")
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--dim", type=int, default=1000)
    trace_p.add_argument("--target", type=float, default=1.0, help="noise target (1 = clean)")
    trace_p.add_argument("--max-runs", type=int, default=3)
    trace_p.add_argument("--out", default="-", help="output file, - for stdout")
    trace_p.set_defaults(func=cmd_trace)

    cb_p = sub.add_parser("codebook", help="generate or inspect codebook files")
    cb_sub = cb_p.add_subparsers(dest="codebook_command", required=True)
    gen_p = cb_sub.add_parser("gen", help="generate a codebook JSON file")
    gen_p.add_argument("--label", required=True)
    gen_p.add_argument("--k", type=int, required=True)
    gen_p.add_argument("--dim", type=int, default=1000)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(func=cmd_codebook_gen)
    inspect_p = cb_sub.add_parser("inspect", help="print a codebook file's stats")
    inspect_p.add_argument("file")
    inspect_p.set_defaults(func=cmd_codebook_inspect)

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
