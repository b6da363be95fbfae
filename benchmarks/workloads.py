"""The benchmark's workloads and the checks on their outputs.

A workload runs in *units*: unit ``i`` of seed ``s`` is a fixed piece of work
whose inputs derive from ``(s, i)`` alone, so a unit can be repeated exactly
(traced against untraced, or a second traced run against the first).

- ``sweep-noisy``: one in-process ``hdscene run`` CLI call per unit, at noise
  targets 0.3/0.6/0.9 with 1-3 objects and max_runs 3. Iteration-bound: a
  fifth of the resonator runs exhaust the 200-iteration budget, so the
  resonator step and cleanup dominate.
- ``online-decode``: a closed loop with one caller that decodes one noisy
  scene at a time (1-4 objects, targets 0.8/0.9/1.0, max_runs 5) through
  ``hdscene.decode_scene``, bypassing the harness and the CLI. Each unit holds
  every (object count, target) cell equally often, because the per-scene cost
  differs by cell and a random mix would move the mean with the seed. Scenes
  are generated before the unit's decode calls are timed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hdscene
import hdscene.cli
from spans import OUTSIDE_TRIAL, TRIAL_START, patched, traced

DIM = 1000
SIZES = (7, 10, 3, 3)
MAX_ITERATIONS = hdscene.ResonatorConfig().max_iterations
ENERGY_HALT = "energy-threshold"
GOLDEN_SEED = 0


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class UnitResult:
    trials: int
    elapsed: float                 # seconds inside the timed calls
    latencies: list[float]         # seconds per decode_scene call (untraced units)
    all_correct: int
    digests: dict[str, str]
    errors: list[str] = field(default_factory=list)


def reference_match(decoded: list[tuple], truth: list[tuple]) -> int:
    """Objects recovered: decoded tuples matched one-to-one against the truth set."""
    unclaimed = list(truth)
    correct = 0
    for candidate in decoded:
        if candidate in unclaimed:
            unclaimed.remove(candidate)
            correct += 1
    return correct


def _attributes(obj: dict) -> tuple:
    return (obj["color"], obj["digit"], obj["ypos"], obj["xpos"])


def check_decoded(decoded: dict, max_runs: int, threshold: float) -> list[str]:
    """Structural checks on one decoded scene, as ``DecodedScene.to_dict`` gives it."""
    errors = []
    objects = decoded["objects"]
    energies = decoded["residual_energy_trace"]
    if not 1 <= decoded["runs_executed"] == len(objects) == len(energies) <= max_runs:
        errors.append(f"run count {decoded['runs_executed']} inconsistent "
                      f"({len(objects)} objects, {len(energies)} energies, max {max_runs})")
    for obj in objects:
        for key, limit in zip(("color", "digit", "ypos", "xpos"), SIZES):
            if not 0 <= obj[key] < limit:
                errors.append(f"{key} index {obj[key]} out of range")
        if not 1 <= obj["iterations_used"] <= MAX_ITERATIONS:
            errors.append(f"iterations_used {obj['iterations_used']} out of range")
    halted = bool(energies) and energies[-1] < threshold
    if halted != (decoded["halted_by"] == ENERGY_HALT):
        errors.append(f"halted_by {decoded['halted_by']} disagrees with the energy trace")
    return errors


def reference_summary_csv(records: list[dict]) -> bytes:
    """summary.csv recomputed from trials.jsonl, independently of the harness."""
    buckets: dict[tuple, list[int]] = {}
    for record in records:
        key = (len(record["scene"]["objects"]), record["noise_target"], record["runs_allowed"])
        buckets.setdefault(key, []).append(record["objects_correct"])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("object_count", "noise_target", "runs_allowed", "k_correct",
                     "fraction", "trial_count"))
    for key in sorted(buckets):
        outcomes = buckets[key]
        for k in range(1, key[0] + 1):
            writer.writerow([*key, k, sum(1 for c in outcomes if c >= k) / len(outcomes),
                             len(outcomes)])
    return text.getvalue().encode()


def check_sweep_outputs(summary: bytes, trials: bytes, targets: tuple,
                        trials_per_target: int, max_runs: int) -> tuple[int, list[str]]:
    """Check a sweep's outputs against each other; returns (all-correct trials, errors)."""
    errors = []
    records = [json.loads(line) for line in trials.splitlines()]
    if len(records) != len(targets) * trials_per_target:
        errors.append(f"{len(records)} trial records, expected "
                      f"{len(targets) * trials_per_target}")
    all_correct = 0
    for position, record in enumerate(records):
        if record["index"] != position:
            errors.append(f"record {position} has index {record['index']}")
        if record["noise_target"] != targets[min(position // trials_per_target,
                                                 len(targets) - 1)]:
            errors.append(f"record {position} has noise target {record['noise_target']}")
        if record["runs_allowed"] != max_runs:
            errors.append(f"record {position} allowed {record['runs_allowed']} runs")
        errors += [f"record {position}: {e}"
                   for e in check_decoded(record["decoded"], max_runs, 0.5 * DIM)]
        truth = [_attributes(o) for o in record["scene"]["objects"]]
        decoded = [_attributes(o) for o in record["decoded"]["objects"]]
        correct = reference_match(decoded, truth)
        if record["objects_correct"] != correct or record["all_correct"] != (correct == len(truth)):
            errors.append(f"record {position} scores {record['objects_correct']} correct, "
                          f"the reference match {correct}")
        all_correct += correct == len(truth)
    if reference_summary_csv(records) != summary:
        errors.append("summary.csv differs from the summary recomputed from trials.jsonl")
    return all_correct, errors


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of the sweep outputs the golden check pins."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.csv", "trials.jsonl")}


def digest_mismatches(digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [f"{name}: sha256 {digests.get(name)} differs from the pinned {want}"
            for name, want in expected.items() if digests.get(name) != want]


class SweepWorkload:
    """One ``hdscene run`` CLI call per unit; each unit's trials share one master seed."""

    max_runs = 3

    def __init__(self, name: str, targets: tuple, trials_per_target: int, workdir: Path):
        self.name = name
        self.targets = targets
        self.trials_per_target = trials_per_target
        self.trials_per_unit = len(targets) * trials_per_target
        self.out = workdir / name
        self.config = workdir / f"{name}.json"
        self.config.write_text(json.dumps({
            "dim": DIM, "codebook_sizes": list(SIZES), "object_counts": [1, 2, 3],
            "trials": trials_per_target, "noise_targets": list(targets),
            "max_runs": self.max_runs,
        }))

    def prepare(self, seed: int) -> None:
        """Nothing to do: each CLI call generates its own codebooks, inside the timing."""

    def run_unit(self, seed: int, index: int, tracer=None) -> UnitResult:
        argv = ["run", "--config", str(self.config), "--seed", str(unit_seed(seed, index)),
                "--out", str(self.out)]
        latencies: list[float] = []

        def timed(fn):
            def decode(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                latencies.append(perf_counter() - start)
                return result
            return decode

        timer = [] if tracer else [("hdscene.harness", "decode_scene", timed)]
        span = tracer.span("cli.main", OUTSIDE_TRIAL) if tracer else contextlib.nullcontext()
        with patched(timer), contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                with span:
                    code = hdscene.cli.main(argv)
            except Exception as error:  # a library fault fails the unit, not the run
                code = f"{type(error).__name__}: {error}"
            elapsed = perf_counter() - start
        if code != 0:
            return UnitResult(self.trials_per_unit, elapsed, latencies, 0, {},
                              [f"hdscene run returned {code}"])
        summary = (self.out / "summary.csv").read_bytes()
        trials = (self.out / "trials.jsonl").read_bytes()
        try:
            all_correct, errors = check_sweep_outputs(summary, trials, self.targets,
                                                      self.trials_per_target, self.max_runs)
        except (ValueError, KeyError, TypeError) as error:  # malformed outputs
            all_correct, errors = 0, [f"unreadable outputs: {error!r}"]
        return UnitResult(self.trials_per_unit, elapsed, latencies, all_correct,
                          output_digests(self.out), errors)


class OnlineWorkload:
    """One caller decoding one scene at a time; a unit is a block of scenes."""

    max_runs = 5
    targets = (0.8, 0.9, 1.0)
    object_counts = (1, 2, 3, 4)
    # every (object count, target) cell this many times per unit, in seeded order
    cell_repeats = 8

    def __init__(self):
        self._codebooks: dict[int, hdscene.CodebookSet] = {}
        self.cells = [(count, target) for count in self.object_counts
                      for target in self.targets] * self.cell_repeats

    @property
    def trials_per_unit(self) -> int:
        return len(self.cells)

    def prepare(self, seed: int) -> None:
        """Generate the seed's codebooks, before any unit of that seed is timed."""
        if seed not in self._codebooks:
            self._codebooks[seed] = hdscene.CodebookSet.generate(DIM, SIZES, seed=seed)

    def run_unit(self, seed: int, index: int, tracer=None) -> UnitResult:
        cbs = self._codebooks[seed]
        rng = np.random.default_rng(unit_seed(seed, index))
        scenes, vectors, trial_ids = [], [], []
        for cell in rng.permutation(len(self.cells)):
            if tracer:
                tracer.begin_trial()
                trial_ids.append(tracer.trial_id)
            count, target = self.cells[cell]
            scene = hdscene.random_scene(count, rng)
            vectors.append(hdscene.noisy_scene_vector(hdscene.encode_scene(cbs, scene), target, rng))
            scenes.append(scene)
        latencies, results = [], []
        try:
            for position, vector in enumerate(vectors):
                if tracer:
                    tracer.trial_id = trial_ids[position]
                start = perf_counter()
                decoded = hdscene.decode_scene(vector, cbs, max_runs=self.max_runs)
                latencies.append(perf_counter() - start)
                results.append(decoded)
        except Exception as error:  # a library fault fails the unit, not the run
            return UnitResult(self.trials_per_unit, sum(latencies), latencies, 0, {},
                              [f"decode_scene raised {type(error).__name__}: {error}"])
        errors, lines, all_correct = [], [], 0
        for position, (scene, vector, decoded) in enumerate(zip(scenes, vectors, results)):
            if tracer:
                tracer.trial_id = trial_ids[position]
            scored = hdscene.match_objects(decoded, scene).all_correct
            record = decoded.to_dict()
            truth = [_attributes(o) for o in scene.to_dict()["objects"]]
            found = [_attributes(o) for o in record["objects"]]
            problems = check_decoded(record, self.max_runs, 0.5 * DIM)
            problems += check_residuals(vector, record, cbs)
            if scored != (reference_match(found, truth) == len(truth)):
                problems.append(f"match_objects scores all_correct={scored}, "
                                "the reference match disagrees")
            errors += [f"scene {position}: {problem}" for problem in problems]
            all_correct += scored
            lines.append(json.dumps([found, [o["iterations_used"] for o in record["objects"]],
                                     record["runs_executed"]]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return UnitResult(self.trials_per_unit, sum(latencies), latencies, all_correct,
                          {"decoded": digest}, errors)


def check_residuals(vector: np.ndarray, record: dict, cbs) -> list[str]:
    """Recompute a decoded scene's explain-away energy trace from its objects."""
    residual = vector
    for position, (obj, energy) in enumerate(zip(record["objects"],
                                                 record["residual_energy_trace"])):
        spec = hdscene.ObjectSpec(*_attributes(obj))
        residual = residual - hdscene.encode_object(cbs, spec)
        if float(np.dot(residual, residual)) != energy:
            return [f"residual energy after run {position} is {energy}, "
                    f"recomputed {float(np.dot(residual, residual))}"]
    return []


def make_workload(name: str, workdir: Path):
    if name == "sweep-noisy":
        return SweepWorkload(name, (0.3, 0.6, 0.9), 20, workdir)
    if name == "online-decode":
        return OnlineWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-noisy", "online-decode")

# Calls traced, by the name their caller looks them up by. Steps, cleanups and
# readouts happen many times per resonator run; they are grouped per parent.
GROUPED = frozenset({"resonator.step", "codebook.cleanup", "codebook.argmax_readout"})


@functools.lru_cache(maxsize=None)
def cleanup_cost(k: int, dim: int, vector_dtype, codebook_dtype) -> tuple[int, int]:
    """Operations and bytes one ``cleanup`` call computes, from its shapes and dtypes.

    Cleanup is two k x dim matrix-vector products (2*k*dim multiply-adds). A
    floating vector makes numpy cast the integer codebook to the vector's dtype
    before each product: the cast reads the codebook and writes a copy, and the
    product then reads the copy. Vector traffic (input, coefficients, projection,
    activation output) is counted once each. Computed, not measured.
    """
    vector_item = np.dtype(vector_dtype).itemsize
    matrix = k * dim * np.dtype(codebook_dtype).itemsize
    if np.dtype(vector_dtype).kind == "f":
        matrix += 2 * k * dim * vector_item
    vectors = 3 * dim * vector_item + 2 * k * vector_item + dim * 8
    return 4 * k * dim, 2 * matrix + vectors


def _count_cleanup(tracer, args, result):
    cb, vector = args[0], args[1]
    ops, nbytes = cleanup_cost(cb.k, cb.dim, vector.dtype, cb.codewords.dtype)
    tracer.counts["cleanup.ops"] += ops
    tracer.counts["cleanup.bytes"] += nbytes
    tracer.counts["cleanup.float_calls"] += vector.dtype.kind == "f"


def _count_run(tracer, args, result):
    estimate = result[0]
    tracer.samples["iterations"].append(estimate.iterations_used)
    tracer.counts["run.iterations"] += estimate.iterations_used
    tracer.counts["run.converged"] += estimate.converged
    tracer.counts["run.budget"] += (not estimate.converged
                                    and estimate.iterations_used == MAX_ITERATIONS)


def _count_decode(tracer, args, result):
    tracer.counts["decode.runs"] += result.runs_executed
    tracer.counts["decode.energy_halts"] += result.halted_by == ENERGY_HALT


def _count_match(tracer, args, result):
    tracer.counts["match.useful"] += result.num_correct
    tracer.counts["match.decoded"] += len(result.per_object)


def _count_bytes(tracer, args, result):
    tracer.counts["write.bytes"] += os.path.getsize(args[1])


TRACE_POINTS = (
    # (owner, attribute, span name, trial role, counter hook)
    ("hdscene.cli", "run_experiment", "harness.run_experiment", OUTSIDE_TRIAL, None),
    ("hdscene.cli", "write_summary_csv", "harness.write", OUTSIDE_TRIAL, _count_bytes),
    ("hdscene.cli", "write_conditional_csv", "harness.write", OUTSIDE_TRIAL, _count_bytes),
    ("hdscene.cli", "write_trials_jsonl", "harness.write", OUTSIDE_TRIAL, _count_bytes),
    ("hdscene.harness", "summarize", "harness.summarize", OUTSIDE_TRIAL, None),
    ("hdscene.scene.CodebookSet", "generate", "codebook.generate", OUTSIDE_TRIAL, None),
    ("hdscene.harness", "random_scene", "scene.random_scene", TRIAL_START, None),
    ("hdscene.harness", "encode_scene", "scene.encode_scene", None, None),
    ("hdscene.harness", "noisy_scene_vector", "scene.noisy_scene_vector", None, None),
    ("hdscene.harness", "cosine_similarity", "ops.cosine_similarity", None, None),
    ("hdscene.harness", "decode_scene", "decoder.decode_scene", None, _count_decode),
    ("hdscene.harness", "match_objects", "decoder.match_objects", None, _count_match),
    ("hdscene", "random_scene", "scene.random_scene", None, None),
    ("hdscene", "encode_scene", "scene.encode_scene", None, None),
    ("hdscene", "noisy_scene_vector", "scene.noisy_scene_vector", None, None),
    ("hdscene", "decode_scene", "decoder.decode_scene", None, _count_decode),
    ("hdscene", "match_objects", "decoder.match_objects", None, _count_match),
    ("hdscene.decoder", "run", "resonator.run", None, _count_run),
    ("hdscene.decoder", "explain_away", "decoder.explain_away", None, None),
    ("hdscene.resonator", "init_state", "resonator.init_state", None, None),
    ("hdscene.resonator", "step", "resonator.step", None, None),
    ("hdscene.resonator", "argmax_readout", "codebook.argmax_readout", None, None),
    ("hdscene.resonator", "cleanup", "codebook.cleanup", None, _count_cleanup),
)


def trace_points(tracer):
    """Replacements for ``spans.patched`` that record every call in TRACE_POINTS."""
    return [(owner, attribute,
             lambda fn, name=name, role=role, hook=hook: traced(tracer, name, fn, role, hook))
            for owner, attribute, name, role, hook in TRACE_POINTS]
