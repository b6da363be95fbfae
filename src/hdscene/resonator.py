"""Resonator network: one module per factor.

One module per attribute class holds a high-dimensional estimate of its
factor. Each iteration, every module unbinds the scene vector with the other
modules' current estimates, cleans the result up against its own codebook,
and the loop repeats until no estimate changes any more. Because
superposition lets an estimate carry many candidate codewords at once, the
network searches the combinatorial space of factorizations in parallel and
settles on a consistent one.

Two dynamics details carry most of the accuracy. First, estimates start as
the raw (unquantized) sum of all codewords in their codebook: every candidate
enters with equal weight and the first sweep sees the full superposition
signal. Second, modules update sequentially, largest codebook first, each
using the freshest peer estimates. Fully parallel updates of bipolar states
admit two-step oscillations in which pairs of estimates flip sign together
(the compound is invariant under an even number of factor negations), and a
random bipolar start lies in the basin of a sign-flipped or spurious solution
most of the time; both lost to these dynamics at every noise level measured,
so neither is offered.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .codebook import argmax_readout, cleanup
from .ops import _bipolar, _checked, _checked_items, _checked_vector, _resolve_activation
from .scene import ATTRIBUTES, CodebookSet, ObjectSpec

__all__ = [
    "FactorEstimate",
    "ResonatorConfig",
    "ResonatorState",
    "init_state",
    "run",
    "step",
]

HALTS = ("converged", "cycle", "budget")  # a run reaches "cycle" under sign only

# Exact float equality between consecutive normalization iterates is
# measure-zero, so that mode converges on a small absolute tolerance instead.
_NORMALIZATION_ATOL = 1e-10


@dataclass(frozen=True)
class ResonatorConfig:
    """Knobs for the iteration loop: the step budget and the cleanup activation.

    Every run starts from the bundled codewords and updates its modules one
    at a time, largest codebook first (see the module docstring).
    """

    max_iterations: int = 200
    activation: str = "sign"

    def __post_init__(self):
        # numpy values are stored as plain ones, so to_dict() output is JSON-ready
        object.__setattr__(self, "max_iterations",
                           _checked("max_iterations", self.max_iterations, int, low=1))
        object.__setattr__(self, "activation", _checked("activation", self.activation, str))
        _resolve_activation(self.activation)


# frozen, so one instance serves every run that passes no config
_DEFAULT_CONFIG = ResonatorConfig()


@dataclass(frozen=True, eq=False)
class ResonatorState:
    """One estimate vector per factor, in codebook order: the only field a caller sets.

    Two caches no caller sets: ``scene``, the vector object ``s`` that ``step``
    stepped on or ``run`` checked, and ``bound``, ``s * e_0 * e_1 * ...``, set
    by ``step`` under sign. A step on that same object skips the vector rule
    and, given a bound, unbinds each module with one multiply (see ``step``),
    so ``s`` must not be mutated between steps.
    """

    estimates: tuple[np.ndarray, ...]
    bound: np.ndarray | None = field(default=None, init=False, repr=False)
    scene: np.ndarray | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class FactorEstimate:
    """Read-out attribute indices for one extracted object, in ``ObjectSpec`` field order.

    ``indices`` is a list or tuple of one int >= 0 per attribute, stored as a tuple
    of plain ints, and ``iterations_used`` an int >= 1, as for a scene object.
    ``halt`` says why the run stopped, one of ``HALTS`` (see ``run``).
    ``to_dict()`` writes ``converged`` in its place.
    """

    indices: tuple[int, ...]
    iterations_used: int
    halt: str

    def __post_init__(self):
        object.__setattr__(self, "indices", _checked_items(
            "indices", self.indices, functools.partial(_checked, kind=int, low=0), len(ATTRIBUTES)))
        object.__setattr__(self, "iterations_used",
                           _checked("iterations_used", self.iterations_used, int, low=1))
        if self.halt not in HALTS:
            raise ValueError(f"halt must be one of {HALTS}, got {reprlib.repr(self.halt)}")

    @property
    def converged(self) -> bool:
        return self.halt == "converged"

    def as_object(self) -> ObjectSpec:
        return ObjectSpec(*self.indices)

    def to_dict(self) -> dict:
        return {**self.as_object().to_dict(), "iterations_used": self.iterations_used,
                "converged": self.converged}


def init_state(cbs: CodebookSet) -> ResonatorState:
    """Initial estimates: each codebook's codewords bundled.

    Each estimate is its codebook's sum of codewords without a nonlinearity
    (all guesses in superposition, deterministic): the read-only
    ``Codebook.codeword_sum``, computed once per codebook. ``cbs`` must be a
    ``CodebookSet``.
    """
    cbs = _checked("cbs", cbs, CodebookSet)
    return ResonatorState(tuple(cb.codeword_sum for cb in cbs.books))


@functools.lru_cache(maxsize=32)
def _update_order(sizes: tuple[int, ...]) -> tuple[int, ...]:
    # largest codebook first; ties keep the canonical (color, digit, y, x) order
    return tuple(sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)))


def step(s: np.ndarray, state: ResonatorState, cbs: CodebookSet,
         cfg: ResonatorConfig) -> ResonatorState:
    """One update of every module, largest codebook first.

    Each module's input is the scene vector bound with the other factors'
    freshest estimates, cleaned up against the module's codebook, so a module
    reads the estimates that modules before it made in this same step.

    The reference unbind binds left to right, ``s * others[0] * others[1] *
    ...``: float estimates (normalization activation) would round differently
    in another order. Under the sign activation every estimate a step makes
    is exactly +-1, and a product with +-1 only flips signs, so a state that
    carries ``bound`` for this very ``s`` object unbinds module i as ``bound *
    e_i`` and rebinds with ``u * e_i_new``: the reference's bits, signed
    zeros included, from two multiplies per module. Any other vector is first
    checked by the vector rule at length ``cbs.dim``; it, like a state without
    a bound, takes the reference unbind. ``s`` must not be mutated between steps.
    A state that carries no ``scene`` (``init_state``'s, or one built by hand)
    has its estimates checked too, by the sequence rule and the vector rule:
    one vector per codebook, each of length ``cbs.dim``.
    ``state``, ``cbs`` and ``cfg`` must be a ``ResonatorState``, a ``CodebookSet``
    and a ``ResonatorConfig``; the type rule runs only to raise, since this is per step.
    """
    if not (isinstance(state, ResonatorState) and isinstance(cbs, CodebookSet)
            and isinstance(cfg, ResonatorConfig)):
        _checked("state", state, ResonatorState)
        _checked("cbs", cbs, CodebookSet)
        _checked("cfg", cfg, ResonatorConfig)
    if state.scene is None or state.scene is not s:  # an unset cache matches no vector
        s = _checked_vector("s", s, cbs.dim)
    bound = state.bound if cfg.activation == "sign" and state.scene is s else None
    estimates = state.estimates
    if state.scene is None:  # init_state's or a hand-built state: its estimates are unchecked
        estimates = _checked_items("state.estimates", estimates,
                                   lambda name, v: _checked_vector(name, v, cbs.dim),
                                   len(cbs.books))
    estimates = list(estimates)
    for i in _update_order(cbs.sizes):
        if bound is None:
            u = functools.reduce(np.multiply, (v for j, v in enumerate(estimates) if j != i), s)
        else:
            u = bound * estimates[i]
        estimates[i] = cleanup(cbs.books[i], u, cfg.activation)
        if bound is not None:
            bound = u * estimates[i]
    if bound is None and cfg.activation == "sign":
        # the last module's input holds every other new estimate
        bound = u * estimates[i]
    new = ResonatorState(tuple(estimates))
    object.__setattr__(new, "bound", bound)
    object.__setattr__(new, "scene", s)
    return new


def _trace_row(iteration: int, state: ResonatorState, cbs: CodebookSet) -> dict:
    """The cosine of each estimate with each of its codewords, keyed by codebook label."""
    row = {"iteration": iteration}
    for cb, v in zip(cbs.books, state.estimates):
        # codeword norms are exactly sqrt(dim) since codewords are bipolar
        denom = float(np.linalg.norm(v)) * np.sqrt(cb.dim)
        similarities = (cb.codewords @ v) / denom if denom else np.zeros(cb.k)
        row[cb.label] = [float(x) for x in similarities]
    return row


def run(s: np.ndarray, cbs: CodebookSet, cfg: ResonatorConfig | None = None,
        trace: list | None = None) -> tuple[FactorEstimate, ResonatorState]:
    """Iterate from ``init_state(cbs)`` to a fixed point, then read out one object.

    The run draws no randomness: its result depends on ``s``, ``cbs`` and
    ``cfg`` alone.

    After every step one of three stop rules may end the loop; the readout
    happens either way and ``FactorEstimate.halt`` names the rule:

    - ``"converged"``: every estimate is unchanged from the previous step
      (within 1e-10 under the normalization activation).
    - ``"cycle"`` (sign only): the new state exactly equals an earlier one.
      ``step`` is a pure function of the estimates, so the states repeat
      with that period from there on; the run returns the cycle's state at
      ``cfg.max_iterations``, where the plain loop would stop, bit for bit.
    - ``"budget"``: ``cfg.max_iterations`` steps passed without either.

    ``iterations_used`` is the logical step count, ``cfg.max_iterations`` for
    both a cycle and the budget, and ``converged`` is true only for the first
    rule. Under sign every state is keyed exactly and the run stops at the
    first exact revisit, where the budget state of a cycle is rebuilt from
    the keys with no further steps. A stepped sign state is exactly +-1, so
    its key is its sign bits, F * dim / 8 bytes, kept until the revisit: at
    most about 100 KB at dim 1000 and a budget of 200. The initial state is
    keyed only when every component is +-1, as the bundled start of
    odd-sized codebooks can be at a tiny dim. No normalization run has been
    seen to cycle, so normalization states are not keyed.

    If ``trace`` is a list, one row of per-codeword similarities, keyed by
    codebook label, is appended for the initial state and for every logical
    iteration. In a cycle the rows for the skipped iterations, up to
    ``cfg.max_iterations``, are copies of the rows a period earlier, each
    its own dict with its own lists and its own ``iteration``. An ``s``
    that fails the vector rule at length ``cbs.dim`` is rejected before any
    trace row, as is a ``cbs`` that is no ``CodebookSet``, a ``cfg`` that is no
    ``ResonatorConfig``, a ``trace`` that is neither None nor a list, and a
    vector so large that a step overflows, so no state ever holds inf or NaN.
    """
    cbs = _checked("cbs", cbs, CodebookSet)
    cfg = _DEFAULT_CONFIG if cfg is None else _checked("cfg", cfg, ResonatorConfig)
    trace = None if trace is None else _checked("trace", trace, list)
    s = _checked_vector("s", s, cbs.dim)
    state = init_state(cbs)
    object.__setattr__(state, "scene", s)  # so the first step skips the vector rule
    if trace is not None:
        trace.append(_trace_row(0, state, cbs))
    try:
        with np.errstate(over="raise", invalid="raise"):
            state, iterations, halt = _until_first_revisit(s, state, cbs, cfg, trace)
    except FloatingPointError as error:
        raise ValueError(f"scene vector too large to decode: {error}") from None
    indices = tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates))
    return FactorEstimate(indices, iterations, halt), state


def _until_first_revisit(s: np.ndarray, state: ResonatorState, cbs: CodebookSet,
                         cfg: ResonatorConfig,
                         trace: list | None) -> tuple[ResonatorState, int, str]:
    """Step to convergence, a first sign revisit or the budget: (state, iterations, halt)."""
    sign = cfg.activation == "sign"
    # every key is distinct until the first revisit, so this holds each visited step once
    first_seen: dict[bytes, int] = {}
    # a normalization run keys nothing; it tests each state against the one before
    stacked = None if sign else np.concatenate(state.estimates)
    # a bundled sign initial state need not be +-1, and then its sign bits are no exact key
    if sign and all((np.abs(v) == 1.0).all() for v in state.estimates):
        first_seen[np.packbits(np.concatenate(state.estimates) < 0).tobytes()] = 0
    for iteration in range(1, cfg.max_iterations + 1):
        state = step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_trace_row(iteration, state, cbs))
        previous, stacked = stacked, np.concatenate(state.estimates)
        if not sign:
            if np.max(np.abs(stacked - previous)) <= _NORMALIZATION_ATOL:
                return state, iteration, "converged"
            continue
        # a stepped sign state is exactly +-1, so its sign bits are all of it
        before = first_seen.setdefault(np.packbits(stacked < 0).tobytes(), iteration)
        if before == iteration:
            continue
        period = iteration - before
        if period == 1:
            return state, iteration, "converged"
        if trace is not None:
            # the rows a cycle skips repeat the rows a period earlier
            for later in range(iteration + 1, cfg.max_iterations + 1):
                trace.append({key: later if key == "iteration" else list(value)
                              for key, value in trace[-period].items()})
        at = before + (cfg.max_iterations - iteration) % period
        # the budget state is the one first seen at step ``at``, inside the cycle
        key = next(key for key, seen in first_seen.items() if seen == at)
        negative = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=stacked.size)
        estimates = _bipolar(negative.reshape(len(cbs.books), cbs.dim))
        return ResonatorState(tuple(estimates)), cfg.max_iterations, "cycle"
    return state, cfg.max_iterations, "budget"
