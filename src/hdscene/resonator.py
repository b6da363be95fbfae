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
HALTS = ("converged", "cycle", "budget")

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
        if (not isinstance(self.max_iterations, (int, np.integer))
                or isinstance(self.max_iterations, bool)):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        # a numpy integer is stored as a plain int, so to_dict() output is JSON-ready
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if not isinstance(self.synchronous, bool):
            raise ValueError(f"synchronous must be a bool, got {self.synchronous!r}")
        for name in ("activation", "init_mode"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
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
    """Read-out attribute indices for one extracted object, in ``ATTRIBUTES`` order.

    ``halt`` says why the run stopped, one of ``HALTS`` (see ``run``); left
    out, it is "converged" or "budget" as ``converged`` says. It is not part
    of ``to_dict()``.
    """

    indices: tuple[int, ...]
    iterations_used: int
    converged: bool
    halt: str | None = None

    def __post_init__(self):
        if self.halt is None:
            object.__setattr__(self, "halt", "converged" if self.converged else "budget")
        elif self.halt not in HALTS or (self.halt == "converged") != self.converged:
            raise ValueError(f"halt {self.halt!r} does not fit converged={self.converged}")

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

    Bundled mode takes each codebook's sum of codewords without a
    nonlinearity (all guesses in superposition, deterministic; the read-only
    ``Codebook.codeword_sum``, computed once per codebook); random mode draws
    bipolar estimates from ``rng``, one factor after another.
    """
    if cfg.init_mode == "random-bipolar":
        if rng is None:
            raise ValueError("random-bipolar initialization requires an rng")
        estimates = tuple(random_bipolar(cbs.dim, rng) for _ in cbs.books)
    else:
        estimates = tuple(cb.codeword_sum for cb in cbs.books)
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


def _identical(a: ResonatorState, b: ResonatorState) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.estimates, b.estimates))


def _same_estimates(a: ResonatorState, b: ResonatorState, activation: str) -> bool:
    if activation == "sign":
        return _identical(a, b)
    return all(np.allclose(x, y, rtol=0.0, atol=_NORMALIZATION_ATOL)
               for x, y in zip(a.estimates, b.estimates))


def _codeword_similarities(cb, v: np.ndarray) -> list[float]:
    # codeword norms are exactly sqrt(dim) since codewords are bipolar
    denom = float(np.linalg.norm(v)) * np.sqrt(cb.dim)
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

    After every step one of three stop rules may end the loop; the readout
    happens either way and ``FactorEstimate.halt`` names the rule:

    - ``"converged"``: every estimate is unchanged from the previous step
      (within 1e-10 under the normalization activation).
    - ``"cycle"``: the new state exactly equals an earlier one. ``step`` is a
      pure function of the estimates, so the states repeat with that period
      from there on; the loop runs only the steps that place it in the cycle
      where ``cfg.max_iterations`` would have left it. The estimate and state
      are those of the plain loop at the budget, bit for bit.
    - ``"budget"``: ``cfg.max_iterations`` steps passed without either.

    ``iterations_used`` is the logical step count, ``cfg.max_iterations`` for
    both a cycle and the budget, and ``converged`` is true only for the first
    rule. Revisits are found by comparing each state with one anchor state,
    re-taken at iterations 1, 2, 4, 8, ... (Brent's method), so memory stays
    constant. If ``trace`` is a list, one row of per-codeword similarities,
    keyed by codebook label, is appended for the initial state and for every
    logical iteration; rows skipped over in a cycle are copies of the rows a
    period earlier. A scene vector holding NaN or inf is rejected.
    """
    if cfg is None:
        cfg = ResonatorConfig()
    if not np.all(np.isfinite(s)):
        raise ValueError("scene vector must be finite, got NaN or inf")
    state = init_state(cbs, cfg, rng)
    if trace is not None:
        trace.append(_trace_row(state, cbs))
    anchor = None
    halt = "budget"
    for _ in range(cfg.max_iterations):
        new = step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_trace_row(new, cbs))
        if _same_estimates(state, new, cfg.activation):
            state = replace(new, converged=True)
            halt = "converged"
            break
        state = new
        if anchor is not None and _identical(anchor, state):
            state = _skip_to_budget(s, state, state.iteration - anchor.iteration, cbs, cfg, trace)
            halt = "cycle"
            break
        if state.iteration & (state.iteration - 1) == 0:
            anchor = state
    estimate = FactorEstimate(
        indices=tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates)),
        iterations_used=state.iteration,
        converged=state.converged,
        halt=halt,
    )
    return estimate, state


def _skip_to_budget(s: np.ndarray, state: ResonatorState, period: int, cbs: CodebookSet,
                    cfg: ResonatorConfig, trace: list | None) -> ResonatorState:
    """The state the loop reaches at cfg.max_iterations, given that ``state``
    recurs every ``period`` steps."""
    if trace is not None:
        for iteration in range(state.iteration + 1, cfg.max_iterations + 1):
            earlier = trace[-period]
            trace.append({"iteration": iteration,
                          **{cb.label: list(earlier[cb.label]) for cb in cbs.books}})
    for _ in range((cfg.max_iterations - state.iteration) % period):
        state = step(s, state, cbs, cfg)
    return replace(state, iteration=cfg.max_iterations)
