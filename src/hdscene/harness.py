"""Evaluation harness: seeded trials, noise sweeps, accuracy tables.

Every trial draws a random scene, encodes it, pushes the vector through the
noise channel at the trial's target similarity, decodes with explain-away,
and scores the decoded set against the ground truth. A scene that encodes to
the zero vector (its compounds cancel exactly, possible only at small dim) is
redrawn from the trial's rng until one does not (``draw_nonzero_scene``; the
``trace`` command draws the same way). Per-trial seeds derive from
the master seed by counter, so trials are order-independent and the whole
experiment is reproducible bit-for-bit from its config.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .codebook import derive_seed
from .decoder import DecodedScene, decode_scene, estimate_object_count, match_objects
from .ops import _checked, cosine_similarity
from .resonator import ResonatorConfig
from .scene import (
    ATTRIBUTES,
    CodebookSet,
    PAPER_SIZES,
    SceneDescription,
    cell_count,
    draw_nonzero_scene,
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
    "write_conditional_csv",
    "write_summary_csv",
    "write_trials_jsonl",
]

# independent seed streams under one master seed
_CODEBOOK_STREAM = 0
_TRIAL_STREAM = 1

# type of every config field but ``resonator``; list fields map to [item type]
_FIELD_TYPES = {"dim": int, "codebook_sizes": [int], "object_counts": [int], "trials": int,
                "noise_targets": [float], "max_runs": int, "energy_threshold": float,
                "seed": int}
_NULLABLE_FIELDS = ("max_runs", "energy_threshold")


def _check_keys(section: str, data, config_cls: type) -> None:
    """Reject ``data`` unless it is a dict whose keys are all fields of ``config_cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(config_cls)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


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
    energy_threshold: float | None = None
    resonator: ResonatorConfig = field(default_factory=ResonatorConfig)
    seed: int = 0

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(kind, list):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list, got {value!r}")
                value = tuple(_checked(name, item, kind[0]) for item in value)
            elif value is not None or name not in _NULLABLE_FIELDS:
                value = _checked(name, value, kind)
            object.__setattr__(self, name, value)
        if not isinstance(self.resonator, ResonatorConfig):
            raise ValueError(f"resonator must be a ResonatorConfig, got {self.resonator!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.codebook_sizes) != len(ATTRIBUTES) or any(k < 2 for k in self.codebook_sizes):
            raise ValueError(f"codebook_sizes must be {len(ATTRIBUTES)} counts >= 2, "
                             f"got {self.codebook_sizes}")
        n_cells = cell_count(self.codebook_sizes)
        if len(self.object_counts) == 0:
            raise ValueError("object_counts must not be empty")
        if any(not 1 <= c <= n_cells for c in self.object_counts):
            raise ValueError(f"object counts must be in [1, {n_cells}], got {self.object_counts}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if len(self.noise_targets) == 0:
            raise ValueError("noise_targets must not be empty")
        if any(not 0.0 < t <= 1.0 for t in self.noise_targets):
            raise ValueError(f"noise targets must be in (0, 1], got {self.noise_targets}")
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError(f"max_runs must be >= 1 or None, got {self.max_runs}")
        if self.energy_threshold is not None and not 0 <= self.energy_threshold < math.inf:
            raise ValueError(f"energy_threshold must be finite and >= 0, got {self.energy_threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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


SUMMARY_COLUMNS = tuple(f.name for f in fields(GroupAccuracy))


@dataclass(frozen=True)
class SimilarityBin:
    """All-correct fraction over trials whose realized similarity fell in [lo, hi)."""

    lo: float
    hi: float
    count: int
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


def conditional_accuracy(records: list[TrialRecord],
                         bin_width: float = 0.05) -> tuple[SimilarityBin, ...]:
    """Bin trials by realized similarity over [0, 1] and report per-bin accuracy.

    Empty bins carry count 0 and accuracy None; bin populations always sum to
    the record count (out-of-range values clamp into the edge bins).
    """
    bin_width = _checked("bin_width", bin_width, float)
    if not 0.0 < bin_width <= 1.0:
        raise ValueError(f"bin_width must be in (0, 1], got {bin_width}")
    n_bins = math.ceil(round(1.0 / bin_width, 9))
    counts = [0] * n_bins
    hits = [0] * n_bins
    for record in records:
        index = int(record.realized_similarity // bin_width)
        index = min(max(index, 0), n_bins - 1)
        counts[index] += 1
        hits[index] += int(record.all_correct)
    return tuple(
        SimilarityBin(
            lo=round(i * bin_width, 10),
            hi=min(round((i + 1) * bin_width, 10), 1.0),
            count=counts[i],
            accuracy=(hits[i] / counts[i]) if counts[i] else None,
        )
        for i in range(n_bins)
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


def _run_trial(cbs: CodebookSet, cfg: ExperimentConfig,
               target_index: int, trial_index: int) -> TrialRecord:
    target = cfg.noise_targets[target_index]
    trial_seed = derive_seed(cfg.seed, _TRIAL_STREAM, target_index, trial_index)
    rng = np.random.default_rng(trial_seed)
    count = cfg.object_counts[int(rng.integers(len(cfg.object_counts)))]
    scene, clean = draw_nonzero_scene(lambda: random_scene(count, rng, sizes=cfg.codebook_sizes),
                                      lambda scene: encode_scene(cbs, scene))
    noisy = noisy_scene_vector(clean, target, rng)
    realized = cosine_similarity(noisy, clean)
    runs_allowed = _allowed_runs(cfg, noisy, target)
    decoded = decode_scene(noisy, cbs, cfg.resonator, max_runs=runs_allowed,
                           energy_threshold=cfg.energy_threshold)
    result = match_objects(decoded, scene)
    return TrialRecord(
        index=target_index * cfg.trials + trial_index,
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
    from the master seed.
    """
    cbs = CodebookSet.generate(cfg.dim, cfg.codebook_sizes,
                               seed=derive_seed(cfg.seed, _CODEBOOK_STREAM))
    records = [_run_trial(cbs, cfg, ti, i)
               for ti in range(len(cfg.noise_targets)) for i in range(cfg.trials)]
    return summarize(records), records


def write_summary_csv(table: ResultTable, path: str | Path) -> None:
    """Grouped accuracy in the fixed plottable schema, one row per k."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(astuple(g) for g in table.groups)


def write_conditional_csv(table: ResultTable, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_lo", "bin_hi", "trial_count", "accuracy"])
        for b in table.conditional:
            writer.writerow([b.lo, b.hi, b.count, "" if b.accuracy is None else b.accuracy])


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
    occupied = [b for b in table.conditional if b.count]
    if len(occupied) > 1:
        lines.append("conditional accuracy by realized similarity:")
        for b in occupied:
            lines.append(f"  [{b.lo:.2f}, {b.hi:.2f})  n={b.count:<6d}  acc={b.accuracy:.4f}")
    it = table.iterations
    lines.append(f"resonator runs: {it.runs}  iterations mean={it.mean:.2f} "
                 f"median={it.median:.1f} p95={it.p95:.1f} max={it.max}")
    return "\n".join(lines)
