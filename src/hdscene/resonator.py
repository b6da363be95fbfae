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
from dataclasses import dataclass, field

import numpy as np

from .codebook import argmax_readout, cleanup
from .ops import _bipolar, _checked, random_bipolar, resolve_activation
from .scene import ATTRIBUTES, CodebookSet, ObjectSpec

__all__ = [
    "FactorEstimate",
    "ResonatorConfig",
    "ResonatorState",
    "init_state",
    "run",
    "step",
]

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
        # numpy values are stored as plain ones, so to_dict() output is JSON-ready
        for name, kind in (("max_iterations", int), ("activation", str), ("init_mode", str),
                           ("synchronous", bool)):
            object.__setattr__(self, name, _checked(name, getattr(self, name), kind))
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        resolve_activation(self.activation)
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")


# frozen, so one instance serves every run that passes no config
_DEFAULT_CONFIG = ResonatorConfig()


@dataclass(frozen=True)
class ResonatorState:
    """One estimate vector per factor, in codebook order, plus iteration bookkeeping.

    Under the sign activation ``step`` also stores ``bound``, the scene vector
    bound with every estimate (``s * e_0 * e_1 * ...``), and ``scene``, the
    very vector object ``s`` it was computed from. The next ``step`` on that
    same object unbinds each module with one multiply; any other vector, or a
    state without a bound, takes the reference unbind. So ``s`` must not be
    mutated between steps.
    """

    estimates: tuple[np.ndarray, ...]
    iteration: int = 0
    bound: np.ndarray | None = field(default=None, repr=False, compare=False)
    scene: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FactorEstimate:
    """Read-out attribute indices for one extracted object, in ``ATTRIBUTES`` order.

    ``halt`` says why the run stopped, one of ``HALTS`` (see ``run``).
    ``to_dict()`` writes ``converged`` in its place.
    """

    indices: tuple[int, ...]
    iterations_used: int
    halt: str

    def __post_init__(self):
        if self.halt not in HALTS:
            raise ValueError(f"halt must be one of {HALTS}, got {self.halt!r}")

    @property
    def converged(self) -> bool:
        return self.halt == "converged"

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
    estimates, cleaned up against the module's codebook. Sequential updates
    read the freshest estimates; synchronous ones read only the previous
    state's.

    The reference unbind binds left to right, ``s * others[0] * others[1] *
    ...``: float estimates (normalization activation) would round differently
    in another order. Under the sign activation every estimate a step makes
    is exactly +-1, and a product with +-1 only flips signs, so a state that
    carries ``bound`` for this very ``s`` object unbinds module i as ``bound *
    e_i`` and, when sequential, rebinds with ``u * e_i_new``: the reference's
    bits, signed zeros included, from two multiplies per module. Any other
    state or vector takes the reference unbind; ``s`` must not be mutated
    between steps.
    """
    s = np.asarray(s)
    if s.shape != (cbs.dim,):
        raise ValueError(f"dimension mismatch: scene vector {s.shape} vs codebooks dim {cbs.dim}")
    bound = state.bound if cfg.activation == "sign" and state.scene is s else None
    estimates = list(state.estimates)
    source = state.estimates if cfg.synchronous else estimates
    order = range(len(estimates)) if cfg.synchronous else _update_order(cbs.sizes)
    for i in order:
        if bound is None:
            u = functools.reduce(np.multiply, (v for j, v in enumerate(source) if j != i), s)
        else:
            u = bound * source[i]
        estimates[i] = cleanup(cbs.books[i], u, cfg.activation)
        if bound is not None and not cfg.synchronous:
            bound = u * estimates[i]
    if cfg.activation != "sign":
        bound = None
    elif cfg.synchronous:
        # every module read the old estimates, so no u holds the new ones
        bound = functools.reduce(np.multiply, estimates, s)
    elif bound is None:
        # the last module's input holds every other new estimate
        bound = u * estimates[i]
    return ResonatorState(tuple(estimates), state.iteration + 1, bound=bound, scene=s)


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
      from there on; the run returns the state of the cycle where
      ``cfg.max_iterations`` would have left the plain loop, bit for bit.
    - ``"budget"``: ``cfg.max_iterations`` steps passed without either.

    ``iterations_used`` is the logical step count, ``cfg.max_iterations`` for
    both a cycle and the budget, and ``converged`` is true only for the first
    rule. Every state is keyed exactly and the run stops at the first exact
    revisit, where the budget state of a cycle is rebuilt from the keys with
    no further steps. A stepped sign state is exactly +-1, so its key is its
    sign bits, F * dim / 8 bytes; a normalization state's key is its bytes,
    F * dim * 8. The keys are kept until the revisit: at dim 1000 and a
    budget of 200, at most about 100 KB under sign and 6.4 MB under
    normalization. An initial state is keyed only where that key is exact:
    always under normalization, and under sign when every component is +-1.

    If ``trace`` is a list, one row of per-codeword similarities, keyed by
    codebook label, is appended for the initial state and for every logical
    iteration; rows skipped over in a cycle are copies of the rows a period
    earlier. A scene vector that is not a finite integer or float vector is
    rejected, as is a ``cfg`` that is no ``ResonatorConfig`` and a vector so
    large that a step overflows, so no state ever holds inf or NaN.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    if not isinstance(cfg, ResonatorConfig):
        raise ValueError(f"cfg must be a ResonatorConfig, got {cfg!r}")
    s = np.asarray(s)
    if s.dtype.kind not in "iuf":
        raise ValueError(f"scene vector must hold integers or floats, got dtype {s.dtype}")
    if not np.isfinite(s).all():
        raise ValueError("scene vector must be finite, got NaN or inf")
    state = init_state(cbs, cfg, rng)
    if trace is not None:
        trace.append(_trace_row(state, cbs))
    try:
        with np.errstate(over="raise", invalid="raise"):
            state, halt = _until_first_revisit(s, state, cbs, cfg, trace)
    except FloatingPointError as error:
        raise ValueError(f"scene vector too large to decode: {error}") from None
    estimate = FactorEstimate(
        indices=tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates)),
        iterations_used=state.iteration,
        halt=halt,
    )
    return estimate, state


def _key(stacked: np.ndarray, sign: bool) -> bytes:
    # a stepped sign state is exactly +-1, so its sign bits are all of it
    return np.packbits(stacked < 0).tobytes() if sign else stacked.tobytes()


def _until_first_revisit(s: np.ndarray, state: ResonatorState, cbs: CodebookSet,
                         cfg: ResonatorConfig, trace: list | None) -> tuple[ResonatorState, str]:
    """Step until the state converges or first equals an earlier one, or the budget runs out."""
    sign = cfg.activation == "sign"
    # every key is distinct until the first revisit, so this holds each visited step once
    first_seen: dict[bytes, int] = {}
    stacked = None
    # a bundled sign initial state need not be +-1, and then its sign bits are no exact key
    if not sign or all((np.abs(v) == 1.0).all() for v in state.estimates):
        stacked = np.concatenate(state.estimates)
        first_seen[_key(stacked, sign)] = 0
    for _ in range(cfg.max_iterations):
        state = step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_trace_row(state, cbs))
        previous, stacked = stacked, np.concatenate(state.estimates)
        if not sign and np.max(np.abs(stacked - previous)) <= _NORMALIZATION_ATOL:
            return state, "converged"
        before = first_seen.setdefault(_key(stacked, sign), state.iteration)
        if before == state.iteration:
            continue
        period = state.iteration - before
        if period == 1:
            return state, "converged"
        _copy_cycle_rows(trace, state.iteration, period, cbs, cfg)
        at = before + (cfg.max_iterations - state.iteration) % period
        # the budget state is the one first seen at step ``at``, inside the cycle
        key = next(key for key, seen in first_seen.items() if seen == at)
        shape = (len(cbs.books), cbs.dim)
        if sign:
            negative = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=stacked.size)
            estimates = _bipolar(negative.reshape(shape))
        else:
            estimates = np.frombuffer(key).reshape(shape).copy()
        return ResonatorState(tuple(estimates), iteration=cfg.max_iterations), "cycle"
    return state, "budget"


def _copy_cycle_rows(trace: list | None, iteration: int, period: int, cbs: CodebookSet,
                     cfg: ResonatorConfig) -> None:
    """Trace rows for the iterations a cycle skips: copies of the rows a period earlier."""
    if trace is None:
        return
    for later in range(iteration + 1, cfg.max_iterations + 1):
        earlier = trace[-period]
        trace.append({"iteration": later,
                      **{cb.label: list(earlier[cb.label]) for cb in cbs.books}})
