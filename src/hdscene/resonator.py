"""Resonator network: one module per factor.

One module per attribute class holds a high-dimensional estimate of its
factor. Each iteration, every module unbinds the scene vector with the other
modules' current estimates, cleans the result up against its own codebook,
and the loop repeats until no estimate changes any more. Because
superposition lets an estimate carry many candidate codewords at once, the
network searches the combinatorial space of factorizations in parallel and
settles on a consistent one.

Two dynamics details carry most of the accuracy and are therefore the
defaults. First, estimates start as the raw (unquantized) sum of all codewords
in their codebook: every candidate enters with equal weight and the first
sweep sees the full superposition signal. Second, modules update sequentially,
largest codebook first, each using the freshest peer estimates. Fully parallel
updates of bipolar states admit two-step oscillations in which pairs of
estimates flip sign together (the compound is invariant under an even number
of factor negations), and random bipolar initialization starts in the basin of
a sign-flipped or spurious solution most of the time. Both variants remain
available through the config.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .codebook import argmax_readout, cleanup
from .ops import random_bipolar
from .scene import ATTRIBUTES, CodebookSet, ObjectSpec

__all__ = [
    "FactorEstimate",
    "ResonatorConfig",
    "ResonatorState",
    "init_state",
    "run",
    "step",
]

ACTIVATIONS = ("sign", "normalization")
INIT_MODES = ("bundled-codewords", "random-bipolar")

# Exact float equality between consecutive normalization iterates is
# measure-zero, so that mode converges on a small absolute tolerance instead.
_NORMALIZATION_ATOL = 1e-10


@dataclass(frozen=True)
class ResonatorConfig:
    """Knobs for the iteration loop.

    ``synchronous=False`` (the default) updates modules one at a time in
    descending codebook-size order; ``True`` updates every module in parallel
    from the previous iteration's estimates.
    """

    max_iterations: int = 200
    activation: str = "sign"
    init_mode: str = "bundled-codewords"
    synchronous: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")


@dataclass(frozen=True)
class ResonatorState:
    """One estimate vector per factor, in codebook order, plus iteration bookkeeping."""

    estimates: tuple[np.ndarray, ...]
    iteration: int = 0
    converged: bool = False


@dataclass(frozen=True)
class FactorEstimate:
    """Read-out attribute indices for one extracted object, in ``ATTRIBUTES`` order."""

    indices: tuple[int, ...]
    iterations_used: int
    converged: bool

    def as_object(self) -> ObjectSpec:
        return ObjectSpec(*self.indices)

    def to_dict(self) -> dict:
        return {
            **dict(zip(ATTRIBUTES, self.indices)),
            "iterations_used": self.iterations_used,
            "converged": self.converged,
        }


def init_state(cbs: CodebookSet, cfg: ResonatorConfig,
               rng: np.random.Generator | None = None) -> ResonatorState:
    """Initial estimates: all codewords bundled, or i.i.d. random bipolar.

    Bundled mode sums each codebook's codewords without a nonlinearity (all
    guesses in superposition, deterministic); random mode draws bipolar
    estimates from ``rng``, one factor after another.
    """
    if cfg.init_mode == "random-bipolar":
        if rng is None:
            raise ValueError("random-bipolar initialization requires an rng")
        estimates = tuple(random_bipolar(cbs.dim, rng) for _ in cbs.books)
    else:
        estimates = tuple(cb.codewords.sum(axis=0) for cb in cbs.books)
    return ResonatorState(estimates)


@functools.lru_cache(maxsize=32)
def _update_order(sizes: tuple[int, ...]) -> tuple[int, ...]:
    # largest codebook first; ties keep the canonical (color, digit, y, x) order
    return tuple(sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)))


def step(s: np.ndarray, state: ResonatorState, cbs: CodebookSet,
         cfg: ResonatorConfig) -> ResonatorState:
    """One update of every module.

    Each module's input is the scene vector bound with the other factors'
    estimates, left to right, cleaned up against the module's codebook.
    Sequential updates read the freshest estimates; synchronous ones read
    only the previous state's.
    """
    s = np.asarray(s)
    if s.shape != (cbs.dim,):
        raise ValueError(f"dimension mismatch: scene vector {s.shape} vs codebooks dim {cbs.dim}")
    estimates = list(state.estimates)
    source = state.estimates if cfg.synchronous else estimates
    order = range(len(estimates)) if cfg.synchronous else _update_order(cbs.sizes)
    for i in order:
        # bind left to right, s * others[0] * others[1] * ...: float estimates
        # (normalization activation) would round differently in another order
        others = (v for j, v in enumerate(source) if j != i)
        estimates[i] = cleanup(cbs.books[i], functools.reduce(np.multiply, others, s),
                               cfg.activation)
    return ResonatorState(tuple(estimates), iteration=state.iteration + 1)


def _same_estimates(a: ResonatorState, b: ResonatorState, activation: str) -> bool:
    if activation == "sign":
        same = np.array_equal
    else:
        same = functools.partial(np.allclose, rtol=0.0, atol=_NORMALIZATION_ATOL)
    return all(same(x, y) for x, y in zip(a.estimates, b.estimates))


def _codeword_similarities(cb, v: np.ndarray) -> list[float]:
    # codeword norms are exactly sqrt(dim) since codewords are bipolar
    denom = float(np.linalg.norm(np.asarray(v, dtype=np.float64))) * np.sqrt(cb.dim)
    if denom == 0.0:
        return [0.0] * cb.k
    return [float(x) for x in (cb.codewords @ v) / denom]


def _trace_row(state: ResonatorState, cbs: CodebookSet) -> dict:
    row = {"iteration": state.iteration}
    for cb, v in zip(cbs.books, state.estimates):
        row[cb.label] = _codeword_similarities(cb, v)
    return row


def run(s: np.ndarray, cbs: CodebookSet, cfg: ResonatorConfig | None = None,
        rng: np.random.Generator | None = None,
        trace: list | None = None) -> tuple[FactorEstimate, ResonatorState]:
    """Iterate to a fixed point, then read out one object's attributes.

    Stops when every estimate is unchanged between consecutive iterations,
    or at cfg.max_iterations; the ``converged`` flag reports which exit
    occurred and readout happens either way. If ``trace`` is a list, one row
    of per-codeword similarities, keyed by codebook label, is appended for the
    initial state and after every iteration. A scene vector holding NaN or
    inf is rejected.
    """
    if cfg is None:
        cfg = ResonatorConfig()
    if not np.all(np.isfinite(s)):
        raise ValueError("scene vector must be finite, got NaN or inf")
    state = init_state(cbs, cfg, rng)
    if trace is not None:
        trace.append(_trace_row(state, cbs))
    for _ in range(cfg.max_iterations):
        new = step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_trace_row(new, cbs))
        if _same_estimates(state, new, cfg.activation):
            state = replace(new, converged=True)
            break
        state = new
    estimate = FactorEstimate(
        indices=tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates)),
        iterations_used=state.iteration,
        converged=state.converged,
    )
    return estimate, state
