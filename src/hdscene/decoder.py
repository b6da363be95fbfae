"""Multi-object decoding: repeated resonator runs with explain-away.

Each round, a fresh resonator run extracts one object from the current
residual, the object's reconstructed compound vector is subtracted out, and
the loop continues until a run budget is exhausted or the residual energy
falls below half the vector dimension (meaning nothing recognizable is left:
each object at the encoder's scale adds dim to the energy).
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .ops import _checked, _checked_fraction, _checked_items, _checked_vector, _energy
from .resonator import FactorEstimate, ResonatorConfig, run
from .scene import CodebookSet, SceneDescription, _compound

__all__ = [
    "DecodedScene",
    "MatchResult",
    "decode_scene",
    "estimate_object_count",
    "explain_away",
    "match_objects",
]

HALTS = ("max-runs", "energy-threshold")  # the run budget is spent, or the residual is noise
HALT_MAX_RUNS, HALT_ENERGY = HALTS

# a DecodedScene's item rules, bound once: every decode builds one
_checked_estimate = functools.partial(_checked, kind=FactorEstimate)
_checked_energy = functools.partial(_checked, kind=float, low=0)


@dataclass(frozen=True)
class DecodedScene:
    """Extraction results in order, with the residual energy after each run.

    ``objects`` is a non-empty list or tuple of ``FactorEstimate`` and
    ``residual_energy_trace`` one float >= 0 per object, both stored as tuples;
    ``halted_by`` is one of ``HALTS``.
    """

    objects: tuple[FactorEstimate, ...]
    residual_energy_trace: tuple[float, ...]
    halted_by: str

    def __post_init__(self):
        objects = _checked_items("objects", self.objects, _checked_estimate)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "residual_energy_trace", _checked_items(
            "residual_energy_trace", self.residual_energy_trace, _checked_energy, len(objects)))
        if self.halted_by not in HALTS:
            raise ValueError(f"halted_by must be one of {HALTS}, "
                             f"got {reprlib.repr(self.halted_by)}")

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
    """Multiset matching of decoded objects against the ground truth; the counts are derived."""

    per_object: tuple[bool, ...]
    truth_count: int

    @property
    def num_correct(self) -> int:
        return sum(self.per_object)

    @property
    def all_correct(self) -> bool:
        return self.num_correct == self.truth_count


def explain_away(s: np.ndarray, est: FactorEstimate, cbs: CodebookSet) -> np.ndarray:
    """Subtract the estimate's reconstructed compound vector from ``s``.

    The compound is unit-amplitude (+-1 per component), as the encoder makes
    it, so ``s`` must be at the encoder's scale (a scaled scene keeps almost
    all of each object it has already decoded) and pass the vector rule.
    ``est`` must be a ``FactorEstimate`` and ``cbs`` a ``CodebookSet``.
    """
    est = _checked("est", est, FactorEstimate)
    cbs = _checked("cbs", cbs, CodebookSet)
    return _checked_vector("s", s, cbs.dim) - _compound(cbs, est.indices)


def estimate_object_count(s: np.ndarray, target_similarity: float = 1.0) -> int:
    """Object count from vector energy: round(target**2 * ||s||^2 / dim).

    Exact on clean scene vectors (target 1). The noise channel raises the
    expected energy to ||s||^2 / target**2, so passing the channel's target
    similarity debiases the estimate for a noisy vector. ``s`` must pass the
    vector rule and be non-empty, and its energy must not overflow; it is
    summed in float64, so int64 input cannot wrap.
    """
    target_similarity = _checked_fraction("target_similarity", target_similarity)
    s = _checked_vector("s", s)
    if s.size == 0:
        raise ValueError("cannot estimate an object count from an empty vector")
    energy = _energy("s", s)
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
    each tagged with ``"run": <run index>``. An ``s`` that fails ``run``'s
    vector rule, or so large that a run or a residual energy overflows, is
    rejected, as is a ``cbs`` that is no ``CodebookSet``, a ``max_runs`` that is
    no int >= 1 and a ``trace`` that is neither None nor a list.
    """
    cbs = _checked("cbs", cbs, CodebookSet)
    max_runs = _checked("max_runs", max_runs, int, low=1)
    trace = None if trace is None else _checked("trace", trace, list)
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
        energy = _energy("the residual of s", residual)
        energy_trace.append(energy)
        if energy < 0.5 * cbs.dim:
            halted_by = HALT_ENERGY
            break
    return DecodedScene(objects, energy_trace, halted_by)


def match_objects(decoded: DecodedScene, truth: SceneDescription) -> MatchResult:
    """Score decoded objects against the ground truth as a multiset.

    A decoded object is correct iff its index tuple is one of the ground-truth
    objects that no earlier decode matched. No two objects share a cell, so a
    repeated decode counts once. ``decoded`` must be a ``DecodedScene`` and
    ``truth`` a ``SceneDescription``.
    """
    decoded = _checked("decoded", decoded, DecodedScene)
    truth = _checked("truth", truth, SceneDescription)
    unmatched = [obj.as_tuple() for obj in truth]
    per_object: list[bool] = []
    for est in decoded.objects:
        hit = est.indices in unmatched
        if hit:
            unmatched.remove(est.indices)
        per_object.append(hit)
    return MatchResult(tuple(per_object), len(truth))
