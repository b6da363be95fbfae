"""Evaluation harness: seeded trials, noise sweeps, accuracy tables.

Every trial draws a random scene, encodes it, pushes the vector through the
noise channel at the trial's target similarity, decodes with explain-away,
and scores the decoded set against the ground truth. A scene that encodes to
the zero vector (its compounds cancel exactly, possible only at small dim) is
redrawn from the trial's rng until one does not. Per-trial seeds derive from
the master seed by counter, so trials are order-independent and the whole
experiment is reproducible bit-for-bit from its config. ``trace_trial``
replays one record of an experiment through the same trial code, collecting
its decode's per-iteration trace rows.
"""

from __future__ import annotations

import csv
import functools
import json
import reprlib
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .codebook import derive_seed
from .decoder import DecodedScene, decode_scene, estimate_object_count, match_objects
from .ops import _checked, _checked_fraction, _checked_items, cosine_similarity
from .resonator import ResonatorConfig
from .scene import (
    CodebookSet,
    PAPER_SIZES,
    SceneDescription,
    _checked_sizes,
    cell_count,
    encode_scene,
    noisy_scene_vector,
    random_scene,
)

__all__ = [
    "ExperimentConfig",
    "GroupAccuracy",
    "IterationStats",
    "ResultTable",
    "SimilarityBin",
    "TrialRecord",
    "conditional_accuracy",
    "format_summary",
    "run_experiment",
    "summarize",
    "trace_trial",
    "write_conditional_csv",
    "write_summary_csv",
    "write_trials_jsonl",
]

# independent seed streams under one master seed
_CODEBOOK_STREAM = 0
_TRIAL_STREAM = 1

# the conditional table's fixed bins over realized similarity [0, 1]
_BIN_WIDTH = 0.05
_N_BINS = 20


def _check_keys(section: str, data, config_cls: type) -> None:
    """Reject ``data`` unless it is a dict whose keys are all fields of ``config_cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {reprlib.repr(data)}")
    unknown = set(data) - {f.name for f in fields(config_cls)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {reprlib.repr(sorted(unknown))}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to/from a flat JSON config file.

    Every field is checked on construction, from Python and JSON alike: a
    wrong type or an out-of-range value is a ``ValueError``, and list fields
    are stored as tuples.

    ``max_runs=None`` switches on the count-aware mode: the per-trial run
    budget is inferred from the noisy vector's energy, debiased by the known
    noise target.
    """

    dim: int = 1000
    codebook_sizes: tuple[int, int, int, int] = PAPER_SIZES
    object_counts: tuple[int, ...] = (1, 2, 3)
    trials: int = 1000
    noise_targets: tuple[float, ...] = (1.0,)
    max_runs: int | None = 3
    resonator: ResonatorConfig = field(default_factory=ResonatorConfig)
    seed: int = 0

    def __post_init__(self):
        # each field is checked by the rule of the code it feeds
        sizes = _checked_sizes(self.codebook_sizes, "codebook_sizes")
        checked = {
            "dim": _checked("dim", self.dim, int, low=1),
            "codebook_sizes": sizes,
            "object_counts": _checked_items("object_counts", self.object_counts, functools.partial(
                _checked, kind=int, low=1, high=cell_count(sizes))),
            "trials": _checked("trials", self.trials, int, low=1),
            "noise_targets": _checked_items("noise_targets", self.noise_targets, _checked_fraction),
            "max_runs": (None if self.max_runs is None
                         else _checked("max_runs", self.max_runs, int, low=1)),
            "seed": _checked("seed", self.seed, int, low=0),
            "resonator": _checked("resonator", self.resonator, ResonatorConfig),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; unknown keys and bad values are ValueErrors."""
        _check_keys("config", data, cls)
        if "resonator" in data:
            _check_keys("resonator config", data["resonator"], ResonatorConfig)
            data = {**data, "resonator": ResonatorConfig(**data["resonator"])}
        return cls(**data)


@dataclass(frozen=True)
class TrialRecord:
    """One evaluation trial, sufficient to recompute every aggregate."""

    index: int
    seed: int
    noise_target: float
    scene: SceneDescription
    realized_similarity: float
    runs_allowed: int
    decoded: DecodedScene
    objects_correct: int
    all_correct: bool

    def to_dict(self) -> dict:
        # keys in field order; the scene and the decode write their own dicts
        return {name: value.to_dict() if hasattr(value, "to_dict") else value
                for name, value in vars(self).items()}


@dataclass(frozen=True)
class GroupAccuracy:
    """Fraction of trials with at least ``k_correct`` objects recovered."""

    object_count: int
    noise_target: float
    runs_allowed: int
    k_correct: int
    fraction: float
    trial_count: int


@dataclass(frozen=True)
class SimilarityBin:
    """All-correct fraction over trials whose realized similarity fell in [bin_lo, bin_hi)."""

    bin_lo: float
    bin_hi: float
    trial_count: int
    accuracy: float | None


@dataclass(frozen=True)
class IterationStats:
    """Distribution of resonator iterations across all runs of an experiment."""

    runs: int
    mean: float
    median: float
    p95: float
    max: int


@dataclass(frozen=True)
class ResultTable:
    groups: tuple[GroupAccuracy, ...]
    conditional: tuple[SimilarityBin, ...]
    iterations: IterationStats


def conditional_accuracy(records: list[TrialRecord]) -> tuple[SimilarityBin, ...]:
    """Per-bin accuracy over realized similarity, in 20 bins of width 0.05 over [0, 1].

    Empty bins carry trial_count 0 and accuracy None; bin populations always sum to
    the record count (out-of-range values clamp into the edge bins).
    """
    counts = [0] * _N_BINS
    hits = [0] * _N_BINS
    for record in records:
        index = int(record.realized_similarity // _BIN_WIDTH)
        index = min(max(index, 0), _N_BINS - 1)
        counts[index] += 1
        hits[index] += int(record.all_correct)
    return tuple(
        SimilarityBin(
            bin_lo=round(i * _BIN_WIDTH, 10),
            bin_hi=min(round((i + 1) * _BIN_WIDTH, 10), 1.0),
            trial_count=counts[i],
            accuracy=(hits[i] / counts[i]) if counts[i] else None,
        )
        for i in range(_N_BINS)
    )


def summarize(records: list[TrialRecord]) -> ResultTable:
    """Pure fold of the trial stream into the grouped accuracy table."""
    buckets: dict[tuple[int, float, int], list[int]] = {}
    for record in records:
        key = (len(record.scene), record.noise_target, record.runs_allowed)
        buckets.setdefault(key, []).append(record.objects_correct)
    groups: list[GroupAccuracy] = []
    for object_count, noise_target, runs_allowed in sorted(buckets):
        outcomes = buckets[(object_count, noise_target, runs_allowed)]
        n = len(outcomes)
        for k in range(1, object_count + 1):
            fraction = sum(1 for c in outcomes if c >= k) / n
            groups.append(GroupAccuracy(object_count, noise_target, runs_allowed,
                                        k, fraction, n))
    iterations = [est.iterations_used for record in records for est in record.decoded.objects]
    if iterations:
        stats = IterationStats(
            runs=len(iterations),
            mean=float(np.mean(iterations)),
            median=float(np.median(iterations)),
            p95=float(np.percentile(iterations, 95)),
            max=int(np.max(iterations)),
        )
    else:
        stats = IterationStats(runs=0, mean=0.0, median=0.0, p95=0.0, max=0)
    return ResultTable(
        groups=tuple(groups),
        conditional=conditional_accuracy(records),
        iterations=stats,
    )


def _allowed_runs(cfg: ExperimentConfig, noisy: np.ndarray, target: float) -> int:
    if cfg.max_runs is not None:
        return cfg.max_runs
    return min(max(estimate_object_count(noisy, target), 1), cell_count(cfg.codebook_sizes))


def _codebooks(cfg: ExperimentConfig) -> CodebookSet:
    return CodebookSet.generate(cfg.dim, cfg.codebook_sizes,
                                seed=derive_seed(cfg.seed, _CODEBOOK_STREAM))


def _run_trial(cbs: CodebookSet, cfg: ExperimentConfig, index: int,
               trace: list | None = None) -> TrialRecord:
    """Record ``index`` of the experiment; ``trace`` is passed on to ``decode_scene``."""
    target_index, trial_index = divmod(index, cfg.trials)
    target = cfg.noise_targets[target_index]
    trial_seed = derive_seed(cfg.seed, _TRIAL_STREAM, target_index, trial_index)
    rng = np.random.default_rng(trial_seed)
    count = cfg.object_counts[int(rng.integers(len(cfg.object_counts)))]
    while True:  # redraw a scene that cancels: a zero vector has no direction for noise
        scene = random_scene(count, rng, sizes=cfg.codebook_sizes)
        clean = encode_scene(cbs, scene)
        if clean.any():
            break
    noisy = noisy_scene_vector(clean, target, rng)
    realized = cosine_similarity(noisy, clean)
    runs_allowed = _allowed_runs(cfg, noisy, target)
    decoded = decode_scene(noisy, cbs, cfg.resonator, max_runs=runs_allowed, trace=trace)
    result = match_objects(decoded, scene)
    return TrialRecord(
        index=index,
        seed=trial_seed,
        noise_target=target,
        scene=scene,
        realized_similarity=realized,
        runs_allowed=runs_allowed,
        decoded=decoded,
        objects_correct=result.num_correct,
        all_correct=result.all_correct,
    )


def run_experiment(cfg: ExperimentConfig) -> tuple[ResultTable, list[TrialRecord]]:
    """Run every (noise target, trial) cell and fold the records into a table.

    Deterministic for a given config: per-trial seeds are counter-derived
    from the master seed. Record ``i`` is trial ``i % trials`` at noise
    target ``i // trials``.
    """
    cbs = _codebooks(cfg)
    records = [_run_trial(cbs, cfg, index)
               for index in range(len(cfg.noise_targets) * cfg.trials)]
    return summarize(records), records


def trace_trial(cfg: ExperimentConfig, index: int) -> tuple[TrialRecord, list[dict]]:
    """Record ``index`` of ``run_experiment(cfg)``, decoded again with its trace rows."""
    index = _checked("trial index", index, int, low=0,
                     high=len(cfg.noise_targets) * cfg.trials - 1)
    rows: list[dict] = []
    return _run_trial(_codebooks(cfg), cfg, index, trace=rows), rows


def _write_csv(path: str | Path, row_type: type, rows: tuple) -> None:
    """A header of ``row_type``'s field names, then one row of field values per item."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(f.name for f in fields(row_type))
        writer.writerows(astuple(row) for row in rows)


def write_summary_csv(table: ResultTable, path: str | Path) -> None:
    """Grouped accuracy in the fixed plottable schema, one row per k."""
    _write_csv(path, GroupAccuracy, table.groups)


def write_conditional_csv(table: ResultTable, path: str | Path) -> None:
    """All-correct fraction per realized-similarity bin, one row per bin."""
    _write_csv(path, SimilarityBin, table.conditional)


def write_trials_jsonl(records: list[TrialRecord], path: str | Path) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), separators=(",", ":")) + "\n")


def format_summary(table: ResultTable) -> str:
    """Human-readable digest of a result table."""
    lines = [" objects  target  runs  k  fraction  trials"]
    for g in table.groups:
        lines.append(f"{g.object_count:8d}  {g.noise_target:6.3f}  {g.runs_allowed:4d}  "
                     f"{g.k_correct}  {g.fraction:8.4f}  {g.trial_count:6d}")
    occupied = [b for b in table.conditional if b.trial_count]
    if len(occupied) > 1:
        lines.append("conditional accuracy by realized similarity:")
        for b in occupied:
            lines.append(f"  [{b.bin_lo:.2f}, {b.bin_hi:.2f})  n={b.trial_count:<6d}  "
                         f"acc={b.accuracy:.4f}")
    it = table.iterations
    lines.append(f"resonator runs: {it.runs}  iterations mean={it.mean:.2f} "
                 f"median={it.median:.1f} p95={it.p95:.1f} max={it.max}")
    return "\n".join(lines)
