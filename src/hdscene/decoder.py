"""Multi-object decoding: repeated resonator runs with explain-away.

Each round, a fresh resonator run extracts one object from the current
residual, the object's reconstructed compound vector is subtracted out, and
the loop continues until a run budget is exhausted or the residual energy
falls below half the vector dimension (meaning nothing recognizable is left:
each object at the encoder's scale adds dim to the energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import _checked, _checked_fraction, _checked_vector
from .resonator import FactorEstimate, ResonatorConfig, run
from .scene import CodebookSet, SceneDescription, encode_object

__all__ = [
    "DecodedScene",
    "MatchResult",
    "decode_scene",
    "estimate_object_count",
    "explain_away",
    "match_objects",
]

HALT_MAX_RUNS = "max-runs"
HALT_ENERGY = "energy-threshold"


@dataclass(frozen=True)
class DecodedScene:
    """Extraction results in order, with the residual energy after each run."""

    objects: tuple[FactorEstimate, ...]
    residual_energy_trace: tuple[float, ...]
    halted_by: str

    @property
    def runs_executed(self) -> int:
        return len(self.objects)

    def to_dict(self) -> dict:
        return {
            "objects": [est.to_dict() for est in self.objects],
            "residual_energy_trace": list(self.residual_energy_trace),
            "runs_executed": self.runs_executed,
            "halted_by": self.halted_by,
        }


@dataclass(frozen=True)
class MatchResult:
    """Greedy set matching of decoded objects against the ground truth."""

    per_object: tuple[bool, ...]
    matched_truth: tuple[int | None, ...]
    num_correct: int
    truth_count: int

    @property
    def all_correct(self) -> bool:
        return self.num_correct == self.truth_count


def explain_away(s: np.ndarray, est: FactorEstimate, cbs: CodebookSet) -> np.ndarray:
    """Subtract the estimate's reconstructed compound vector from ``s``.

    The compound is unit-amplitude (+-1 per component), as the encoder makes
    it, so ``s`` must be at the encoder's scale: a scaled scene keeps almost
    all of each object it has already decoded.
    """
    return np.asarray(s) - encode_object(cbs, est.as_object())


def estimate_object_count(s: np.ndarray, target_similarity: float = 1.0) -> int:
    """Object count from vector energy: round(target**2 * ||s||^2 / dim).

    Exact on clean scene vectors (target 1). The noise channel raises the
    expected energy to ||s||^2 / target**2, so passing the channel's target
    similarity debiases the estimate for a noisy vector. Anything but a
    non-empty 1-D integer or float vector is rejected, as is one whose energy
    is not finite. The energy is summed in float64, so int64 input cannot wrap.
    """
    target_similarity = _checked_fraction("target_similarity", target_similarity)
    s = np.asarray(_checked_vector("s", s), dtype=np.float64)
    if s.size == 0:
        raise ValueError("cannot estimate an object count from an empty vector")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.dot(s, s))
    if not math.isfinite(energy):
        raise ValueError(f"cannot estimate an object count from a vector of energy {energy}")
    return int(math.floor(target_similarity * target_similarity * energy / s.shape[0] + 0.5))


def decode_scene(s: np.ndarray, cbs: CodebookSet, cfg: ResonatorConfig | None = None,
                 max_runs: int = 3, trace: list | None = None) -> DecodedScene:
    """Extract up to ``max_runs`` objects from a scene vector.

    Every run starts the resonator afresh from the bundled codewords, so a
    decode draws no randomness; every output is subtracted from the residual,
    right or wrong. The loop stops early once the residual's squared norm
    falls below 0.5 * dim, half the energy one object adds. Both
    explain-away, which subtracts unit-amplitude compounds, and that fixed
    stop assume the encoder's scale, where each object adds +-1 to every
    component: a scaled scene decodes its first object again in every later
    run. If ``trace`` is a list, every run's trace rows are appended to it,
    each tagged with ``"run": <run index>``. A vector holding NaN or inf, or
    so large that a run or a residual energy overflows, is rejected, as is a
    ``max_runs`` that is no int >= 1.
    """
    max_runs = _checked("max_runs", max_runs, int, low=1)
    threshold = 0.5 * cbs.dim
    residual = np.asarray(s)
    objects: list[FactorEstimate] = []
    energy_trace: list[float] = []
    halted_by = HALT_MAX_RUNS
    for run_index in range(max_runs):
        rows = None if trace is None else []
        estimate, _ = run(residual, cbs, cfg, trace=rows)
        if trace is not None:
            trace.extend({"run": run_index, **row} for row in rows)
        objects.append(estimate)
        residual = explain_away(residual, estimate, cbs)
        with np.errstate(over="ignore"):
            energy = float(np.dot(residual, residual))
        if not math.isfinite(energy):
            raise ValueError(f"scene vector too large to decode: residual energy {energy}")
        energy_trace.append(energy)
        if energy < threshold:
            halted_by = HALT_ENERGY
            break
    return DecodedScene(
        objects=tuple(objects),
        residual_energy_trace=tuple(energy_trace),
        halted_by=halted_by,
    )


def match_objects(decoded: DecodedScene, truth: SceneDescription) -> MatchResult:
    """Score decoded objects against the ground truth as a set.

    A decoded object is correct iff its full index tuple equals some ground-truth
    object not already claimed by an earlier decode, so duplicate identical
    decodes match at most once.
    """
    truth_tuples = [obj.as_tuple() for obj in truth]
    claimed = [False] * len(truth_tuples)
    per_object: list[bool] = []
    matched_truth: list[int | None] = []
    for est in decoded.objects:
        candidate = est.indices
        hit = None
        for index, truth_tuple in enumerate(truth_tuples):
            if not claimed[index] and truth_tuple == candidate:
                hit = index
                claimed[index] = True
                break
        per_object.append(hit is not None)
        matched_truth.append(hit)
    return MatchResult(
        per_object=tuple(per_object),
        matched_truth=tuple(matched_truth),
        num_correct=sum(per_object),
        truth_count=len(truth_tuples),
    )
