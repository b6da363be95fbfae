"""hdscene benchmark: end-to-end metrics, or a traced per-layer breakdown.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep-noisy --seed 1 --seconds 52 --trace 0

Workloads are described in ``workloads.py``. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` records spans at every layer
boundary and reports the per-layer metrics, and checks that tracing changes no
output and that its counts repeat exactly. Every run checks its outputs: the
pinned golden digests at the default seed, and consistency checks on every
unit. Metric names and units are those declared in BENCHMARK.json. In an
untraced sweep the only wrapper is a timer around the harness's
``decode_scene`` call, which gives the per-decode latencies.

``passed_fraction`` is 1 - failed/attempted over every trial the run made; a
trial fails when its unit raised or failed a check. A golden mismatch prints
the digest found: update ``golden.json`` only for an intended output change.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run's report (provenance, sample counts, errors), which is also written
to ``.bench_out/``. The run uses one thread, BLAS included.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so BLAS starts one thread
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, patched, samples_needed, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_UNITS = 10         # exact metrics (accuracy, counts) cover at least this many units
SETUP_PROBES = 3       # fresh-interpreter set-ups before and after measuring
PASSES = 3             # timed passes over the same units in an untraced run
TRACE_REPEATS = 2      # untraced/traced re-runs of unit 0 in a traced run
WALL_LIMIT_S = 75.0    # a first pass still short of samples here fails the run
TAIL_PERCENTILE = 99


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(dim: int, seed: int, count: int) -> list[dict]:
    """Import hdscene and generate codebooks in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(dim), str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        sample = json.loads(done.stdout)
        if Path(sample["file"]).resolve().parent != SRC / "hdscene":
            raise RuntimeError(f"set-up probe imported hdscene from {sample['file']}")
        samples.append(sample)
    return samples


def provenance() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "harness_threads": 1,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def measure(workload, seed: int, seconds: float, tracer=None):
    """Run units for about ``seconds``; returns (units, repeats, snapshots).

    An untraced run makes PASSES passes over the same units. The first pass
    runs new units until they hold the exact prefix (MIN_UNITS units and
    enough decodes for the tail percentile) and a ``1 / PASSES`` share of
    ``seconds`` has passed; the other passes repeat those units, which must
    reproduce the first pass's outputs. Each decode then counts with the
    median of its latencies, and the rest of each unit's time (the CLI around
    a sweep's decodes; nothing for online-decode) with the median of its
    rests. The host's speed moves by up to 1.8x from one second to the next
    and is slow most of the time: 96 decodes run six times in a row read a
    median 1.4-1.6x their fastest times in four of the six runs, and run
    eight times they were within 10% of their fastest in only a fifth to a
    half of the runs. So the fastest of a few repeats depends on whether a
    fast moment happened to come, while the median of three repeats, about
    20 s apart, reads the host's usual speed over the run. Phases of a few
    minutes in which the host is faster or slower throughout remain. A traced run makes one pass of new units for
    ``seconds`` and returns the tracer's snapshots after unit 0 and after the
    exact prefix.
    """
    units, snapshots = [], {}
    first_pass_s = seconds if tracer is not None else seconds / PASSES
    start = perf_counter()
    while len(units) < exact_prefix(units) or perf_counter() - start < first_pass_s:
        if perf_counter() - start > WALL_LIMIT_S and len(units) < exact_prefix(units):
            raise RuntimeError(f"{len(units)} units in {WALL_LIMIT_S} s are too few for "
                               "the exact prefix and the tail percentile")
        units.append(workload.run_unit(seed, len(units), tracer))
        if tracer is not None and len(units) == 1:
            snapshots["unit0"] = tracer.snapshot()
        if tracer is not None and "prefix" not in snapshots and len(units) == exact_prefix(units):
            snapshots["prefix"] = tracer.snapshot()
    if tracer is not None:
        return units, [], snapshots
    samples = [[unit] for unit in units]
    for _ in range(PASSES - 1):
        for index, unit in enumerate(units):
            again = workload.run_unit(seed, index)
            if again.digests != unit.digests:
                unit.errors.append("outputs differ between passes")
            samples[index].append(again)
    for unit, runs in zip(units, samples):
        if len({len(run.latencies) for run in runs}) > 1:  # a pass raised part way
            continue
        latencies = np.array([run.latencies for run in runs])
        rest = statistics.median(run.elapsed - sum(run.latencies) for run in runs)
        unit.latencies = np.median(latencies, axis=0).tolist()
        unit.elapsed = rest + sum(unit.latencies)
    return units, [run for runs in samples for run in runs[1:]], snapshots


def exact_prefix(units) -> int:
    """Units whose outputs the exact metrics cover: at least MIN_UNITS, and
    enough trials for the tail percentile. Depends only on the workload."""
    trials = 0
    for count, unit in enumerate(units, 1):
        trials += unit.trials
        if count >= MIN_UNITS and trials >= samples_needed(TAIL_PERCENTILE):
            return count
    return len(units) + 1


def repeat_unit0(workload, seed: int, unit0, unit0_snapshot):
    """Re-run unit 0 untraced and traced; check outputs and counts; measure overhead."""
    from workloads import GROUPED, trace_points
    errors, extra, plain_rates, traced_rates = [], [], [], []
    for _ in range(TRACE_REPEATS):
        plain = workload.run_unit(seed, 0)
        tracer = Tracer(GROUPED)
        with patched(trace_points(tracer)):
            again = workload.run_unit(seed, 0, tracer)
        extra += [plain, again]
        if not plain.digests or plain.digests != unit0.digests or again.digests != unit0.digests:
            errors.append("unit 0 outputs differ between traced and untraced runs")
        if tracer.snapshot() != unit0_snapshot:
            errors.append("unit 0 counts differ between two traced runs")
        plain_rates.append(plain.trials / plain.elapsed)
        traced_rates.append(again.trials / again.elapsed)
    overhead = 1.0 - statistics.median(traced_rates) / statistics.median(plain_rates)
    return overhead, extra, errors


def end_to_end_metrics(units, setup) -> dict:
    latencies = np.array([x for unit in units for x in unit.latencies])
    return {
        "trials_per_s": sum(unit.trials for unit in units) / sum(unit.elapsed for unit in units),
        "decode_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
        "decode_ms_p99": 1e3 * tail_percentile(latencies, TAIL_PERCENTILE),
        "setup_s": statistics.median(s["import_s"] + s["codebooks_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "all_correct_fraction": (sum(unit.all_correct for unit in units)
                                 / sum(unit.trials for unit in units)),
    }


def per_layer_metrics(tracer, snapshots, setup, overhead) -> dict:
    """The per-layer table; counts and iteration statistics cover the exact prefix."""
    table = tracer.layer_table()
    counts, lengths = snapshots["prefix"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def per_call(name, key="self_s", scale=1e6):
        row = table.get(name, empty)
        return scale * row[key] / row["calls"] if row["calls"] else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    cleanup_s = table.get("codebook.cleanup", empty)["self_s"]
    iterations = np.array(tracer.samples["iterations"][:lengths.get("iterations", 0)])
    runs = counts.get("resonator.run", 0)
    decodes = counts.get("decoder.decode_scene", 0)
    decode_ms = 1e3 * tracer.durations("decoder.decode_scene")
    cli_calls = table.get("cli.main", empty)["calls"]
    return {
        "codebook.cleanup.calls": counts.get("codebook.cleanup", 0),
        "codebook.cleanup.us": per_call("codebook.cleanup"),
        "codebook.cleanup.gflops_computed": ratio(tracer.counts["cleanup.ops"], cleanup_s) / 1e9,
        "codebook.cleanup.gbytes_s_computed": ratio(tracer.counts["cleanup.bytes"], cleanup_s) / 1e9,
        "codebook.cleanup.float_fraction": ratio(counts.get("cleanup.float_calls", 0),
                                                 counts.get("codebook.cleanup", 0)),
        "codebook.argmax_readout.us": per_call("codebook.argmax_readout"),
        "setup.codebooks_s": statistics.median(s["codebooks_s"] for s in setup),
        "resonator.step.calls": counts.get("resonator.step", 0),
        "resonator.iterations.logical_total": int(iterations.sum()),
        "resonator.iterations.mean": float(iterations.mean()) if iterations.size else 0.0,
        "resonator.iterations.p95": float(np.percentile(iterations, 95)) if iterations.size else 0.0,
        "resonator.step.us": per_call("resonator.step"),
        "resonator.init_state.us": per_call("resonator.init_state"),
        # the convergence test plus the readout, which is traced as a child span
        "resonator.run.us": ratio(1e6 * (table.get("resonator.run", empty)["self_s"]
                                         + table.get("codebook.argmax_readout", empty)["total_s"]),
                                  table.get("resonator.run", empty)["calls"]),
        "resonator.us_per_iteration": per_call("resonator.step", "total_s"),
        "resonator.converged_fraction": ratio(counts.get("run.converged", 0), runs),
        "resonator.budget_fraction": ratio(counts.get("run.budget", 0), runs),
        "decoder.decode_scene.ms_p50": float(np.percentile(decode_ms, 50)),
        "decoder.decode_scene.ms_p99": tail_percentile(decode_ms, TAIL_PERCENTILE),
        "decoder.decode_scene.self_us": per_call("decoder.decode_scene"),
        "decoder.runs_per_decode": ratio(counts.get("decode.runs", 0), decodes),
        "decoder.useful_run_fraction": ratio(counts.get("match.useful", 0),
                                             counts.get("match.decoded", 0)),
        "decoder.energy_halt_fraction": ratio(counts.get("decode.energy_halts", 0), decodes),
        "decoder.explain_away.us": per_call("decoder.explain_away"),
        "decoder.match_objects.us": per_call("decoder.match_objects"),
        "scene.random_scene.us": per_call("scene.random_scene"),
        "scene.encode_scene.us": per_call("scene.encode_scene"),
        "scene.noisy_scene_vector.us": per_call("scene.noisy_scene_vector"),
        "ops.cosine_similarity.us": per_call("ops.cosine_similarity"),
        "harness.run_experiment.self_s": per_call("harness.run_experiment", scale=1.0),
        "harness.summarize.s": per_call("harness.summarize", "total_s", 1.0),
        "harness.write.s": ratio(table.get("harness.write", empty)["total_s"], cli_calls),
        "harness.write.bytes": ratio(counts.get("write.bytes", 0), counts.get("cli.main", 0)),
        "cli.main.self_s": per_call("cli.main", scale=1.0),
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "trace_overhead_fraction": overhead,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdscene" / "__init__.py").is_file():
        print(f"error: no hdscene sources at {SRC / 'hdscene'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import hdscene
    if Path(hdscene.__file__).resolve().parent != SRC / "hdscene":
        print(f"error: hdscene imported from {hdscene.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # workloads imports hdscene, so it can only be imported once src/ is on the path
    from workloads import (DIM, GOLDEN_SEED, GROUPED, WORKLOADS, digest_mismatches,
                           make_workload, trace_points)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]

    setup = probe_setup(DIM, args.seed, SETUP_PROBES)
    workload = make_workload(args.workload, workdir)
    workload.prepare(GOLDEN_SEED)
    golden_unit = workload.run_unit(GOLDEN_SEED, 0)
    golden_unit.errors += digest_mismatches(golden_unit.digests, golden)
    workload.prepare(args.seed)

    errors = []
    if args.trace:
        tracer = Tracer(GROUPED)
        with patched(trace_points(tracer)):
            units, _, snapshots = measure(workload, args.seed, args.seconds, tracer)
        overhead, repeats, repeat_errors = repeat_unit0(workload, args.seed, units[0],
                                                        snapshots["unit0"])
        errors += repeat_errors
        setup += probe_setup(DIM, args.seed, SETUP_PROBES)
        metrics = per_layer_metrics(tracer, snapshots, setup, overhead)
        spec = declared["per_layer"]
    else:
        units, repeats, _ = measure(workload, args.seed, args.seconds)
        setup += probe_setup(DIM, args.seed, SETUP_PROBES)
        metrics = end_to_end_metrics(units, setup)
        spec = declared["end_to_end"]

    labelled = ([("golden unit", golden_unit)] + [("repeated unit", unit) for unit in repeats]
                + [(f"unit {index}", unit) for index, unit in enumerate(units)])
    attempted = sum(unit.trials for _, unit in labelled)
    failed = sum(unit.trials for _, unit in labelled if unit.errors)
    errors += [f"{label}: {error}" for label, unit in labelled for error in unit.errors]
    if not args.trace:
        metrics["passed_fraction"] = 1.0 - failed / attempted
    if set(metrics) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in spec})} "
                           "do not match BENCHMARK.json")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(units),
        "passes": 1 if args.trace else PASSES,
        "decode_samples": sum(unit.trials for unit in units),
        "exact_prefix_trials": sum(unit.trials for unit in units[:exact_prefix(units)]),
        "setup_samples": setup, "provenance": provenance(), "errors": errors[:50],
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if args.trace:
        tracer.write(OUT / f"{args.workload}-spans.npz")
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
