"""The limit-cycle short-circuit in ``run`` against the plain iteration loop.

``reference_run`` is the loop ``run`` used before it learned to skip exact
limit cycles: step until two consecutive states agree or the budget runs out.
Every test here requires ``run`` to reproduce it bit for bit.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hdscene.resonator as resonator
from hdscene import CodebookSet
from hdscene.codebook import argmax_readout
from hdscene.resonator import ResonatorConfig, ResonatorState, init_state, run, step
from hdscene.scene import encode_scene, noisy_scene_vector, random_scene


def _reference_same(a, b, activation):
    if activation == "sign":
        same = np.array_equal
    else:
        same = functools.partial(np.allclose, rtol=0.0, atol=1e-10)
    return all(same(x, y) for x, y in zip(a.estimates, b.estimates))


def _reference_row(state, cbs):
    row = {"iteration": state.iteration}
    for cb, v in zip(cbs.books, state.estimates):
        denom = float(np.linalg.norm(np.asarray(v, dtype=np.float64))) * np.sqrt(cb.dim)
        row[cb.label] = ([0.0] * cb.k if denom == 0.0
                         else [float(x) for x in (cb.codewords @ v) / denom])
    return row


def reference_run(s, cbs, cfg, rng=None, trace=None):
    """The plain loop: no cycle detection."""
    state = init_state(cbs, cfg, rng)
    if trace is not None:
        trace.append(_reference_row(state, cbs))
    for _ in range(cfg.max_iterations):
        new = step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_reference_row(new, cbs))
        if _reference_same(state, new, cfg.activation):
            state = ResonatorState(new.estimates, new.iteration, converged=True)
            break
        state = new
    indices = tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates))
    return indices, state


def assert_same_as_reference(s, cbs, cfg, seed):
    trace, expected_trace = [], []
    est, state = run(s, cbs, cfg, np.random.default_rng(seed), trace=trace)
    indices, expected = reference_run(s, cbs, cfg, np.random.default_rng(seed),
                                      trace=expected_trace)
    assert est.indices == indices
    assert est.iterations_used == expected.iteration == state.iteration
    assert est.converged == expected.converged == state.converged
    for x, y in zip(state.estimates, expected.estimates):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert trace == expected_trace
    return est


@functools.lru_cache(maxsize=None)
def _codebooks(dim, sizes, seed):
    return CodebookSet.generate(dim, sizes=sizes, seed=seed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(8, 48),
    sizes=st.tuples(*[st.integers(2, 5)] * 4),
    book_seed=st.integers(0, 3),
    objects=st.integers(1, 3),
    target=st.sampled_from((0.2, 0.35, 0.5, 0.7, 1.0)),
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(("sign", "normalization")),
    synchronous=st.booleans(),
    init_mode=st.sampled_from(("bundled-codewords", "random-bipolar")),
    max_iterations=st.integers(1, 80),
)
def test_run_matches_plain_loop(dim, sizes, book_seed, objects, target, seed, activation,
                                synchronous, init_mode, max_iterations):
    cbs = _codebooks(dim, sizes, book_seed)
    rng = np.random.default_rng(seed)
    scene = random_scene(min(objects, cbs.n_cells), rng, sizes=sizes)
    clean = encode_scene(cbs, scene)
    # at tiny dims two compounds can cancel; the noise channel rejects a zero vector
    assume(target == 1.0 or np.any(clean))
    s = noisy_scene_vector(clean, target, rng)
    cfg = ResonatorConfig(max_iterations=max_iterations, activation=activation,
                          init_mode=init_mode, synchronous=synchronous)
    assert_same_as_reference(s, cbs, cfg, seed)


def _cycling_scene(cbs):
    # a 3-object scene at target 0.3 whose first run falls into a limit cycle
    rng = np.random.default_rng(0)
    return noisy_scene_vector(encode_scene(cbs, random_scene(3, rng)), 0.3, rng)


def test_cycle_skips_most_steps_of_a_budget_bound_run(cbs, monkeypatch):
    s = _cycling_scene(cbs)
    cfg = ResonatorConfig()
    calls = []

    def counting_step(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(resonator, "step", counting_step)
    est = assert_same_as_reference(s, cbs, cfg, 0)
    assert est.halt == "cycle"
    assert est.iterations_used == cfg.max_iterations
    assert len(calls) < cfg.max_iterations


def test_halt_reports_each_stop_rule(cbs):
    clean = encode_scene(cbs, random_scene(1, np.random.default_rng(3)))
    est, _ = run(clean, cbs)
    assert (est.halt, est.converged) == ("converged", True)

    est, _ = run(_cycling_scene(cbs), cbs)
    assert (est.halt, est.converged, est.iterations_used) == ("cycle", False, 200)

    # an exact revisit needs at least 4 iterations to be seen (anchor 2, period 2)
    est, _ = run(_cycling_scene(cbs), cbs, ResonatorConfig(max_iterations=3))
    assert (est.halt, est.converged, est.iterations_used) == ("budget", False, 3)
    assert "halt" not in est.to_dict()


def test_factor_estimate_halt_defaults_and_validation():
    assert resonator.FactorEstimate((0, 0, 0, 0), 3, True).halt == "converged"
    assert resonator.FactorEstimate((0, 0, 0, 0), 3, False).halt == "budget"
    for halt, converged in (("cycle", True), ("budget", True), ("converged", False),
                            ("stuck", False)):
        with pytest.raises(ValueError):
            resonator.FactorEstimate((0, 0, 0, 0), 3, converged, halt)
