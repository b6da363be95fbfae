"""The revisit short-circuits in ``run`` and ``step`` against plain references.

``reference_run`` is the loop ``run`` used before it learned to skip exact
limit cycles: step until two consecutive states agree or the budget runs out.
``reference_step`` unbinds every module left to right, with no bound. Every
test here requires ``run`` and ``step`` to reproduce them bit for bit.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hdscene.resonator as resonator
from hdscene import CodebookSet
from hdscene.codebook import argmax_readout, cleanup
from hdscene.resonator import ResonatorConfig, ResonatorState, init_state, run, step
from hdscene.scene import _cell_count, encode_scene, noisy_scene_vector, random_scene


def _reference_same(a, b, activation):
    if activation == "sign":
        same = np.array_equal
    else:
        same = functools.partial(np.allclose, rtol=0.0, atol=1e-10)
    return all(same(x, y) for x, y in zip(a.estimates, b.estimates))


def _reference_row(iteration, state, cbs):
    row = {"iteration": iteration}
    for cb, v in zip(cbs.books, state.estimates):
        denom = float(np.linalg.norm(np.asarray(v, dtype=np.float64))) * np.sqrt(cb.dim)
        row[cb.label] = ([0.0] * cb.k if denom == 0.0
                         else [float(x) for x in (cb.codewords @ v) / denom])
    return row


def reference_run(s, cbs, cfg, trace=None, states=None):
    """The plain loop: no cycle detection. ``states`` collects every state it
    visits, the state after step n at index n.

    It steps through ``hdscene.resonator.step``, as ``run`` does, so a test
    that patches that name drives both loops with the same step.
    Returns the readout indices, the final state, the steps taken and whether
    the loop converged.
    """
    state = init_state(cbs)
    if trace is not None:
        trace.append(_reference_row(0, state, cbs))
    if states is not None:
        states.append(state)
    for iteration in range(1, cfg.max_iterations + 1):
        new = resonator.step(s, state, cbs, cfg)
        if trace is not None:
            trace.append(_reference_row(iteration, new, cbs))
        if states is not None:
            states.append(new)
        converged = _reference_same(state, new, cfg.activation)
        state = new
        if converged:
            break
    indices = tuple(argmax_readout(cb, v) for cb, v in zip(cbs.books, state.estimates))
    return indices, state, iteration, converged


def first_revisit(states):
    """(iteration, period) of the first state that exactly equals an earlier one, or None.

    ``states[n]`` is the state after step n.
    """
    first_seen = {}
    for iteration, state in enumerate(states):
        key = tuple(v.tobytes() for v in state.estimates)
        before = first_seen.setdefault(key, iteration)
        if before != iteration:
            return iteration, iteration - before
    return None


@contextlib.contextmanager
def counted_steps():
    """Count the calls ``run`` makes to ``step`` by its module-level name."""
    calls = []
    original = resonator.step

    def counting_step(*args):
        calls.append(1)
        return original(*args)

    resonator.step = counting_step
    try:
        yield calls
    finally:
        resonator.step = original


def assert_same_as_reference(s, cbs, cfg):
    """Check ``run`` against ``reference_run``; return its estimate and the steps it took."""
    trace, expected_trace, states = [], [], []
    with counted_steps() as calls:
        est, state = run(s, cbs, cfg, trace=trace)
    indices, expected, iterations, converged = reference_run(s, cbs, cfg, trace=expected_trace,
                                                             states=states)
    assert est.indices == indices
    assert est.iterations_used == iterations
    assert est.converged == converged
    for x, y in zip(state.estimates, expected.estimates):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert trace == expected_trace
    # the reference loop stops on convergence only; past a revisit its
    # states repeat, so under sign the first exact revisit classifies an
    # unconverged run, while a normalization run keys no state and steps on
    revisit = first_revisit(states) if cfg.activation == "sign" else None
    if converged:
        assert (est.halt, len(calls)) == ("converged", iterations)
    elif revisit is None:
        assert (est.halt, len(calls)) == ("budget", cfg.max_iterations)
    else:
        assert (est.halt, len(calls)) == ("cycle", revisit[0])
    return est, len(calls)


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
    max_iterations=st.integers(1, 80),
)
def test_run_matches_plain_loop(dim, sizes, book_seed, objects, target, seed, activation,
                                max_iterations):
    cbs = _codebooks(dim, sizes, book_seed)
    rng = np.random.default_rng(seed)
    scene = random_scene(min(objects, _cell_count(cbs.sizes)), rng, sizes=sizes)
    clean = encode_scene(cbs, scene)
    # at tiny dims two compounds can cancel; the noise channel rejects a zero vector
    assume(target == 1.0 or np.any(clean))
    s = noisy_scene_vector(clean, target, rng)
    cfg = ResonatorConfig(max_iterations=max_iterations, activation=activation)
    assert_same_as_reference(s, cbs, cfg)


def reference_step(s, estimates, cbs, cfg):
    """The estimates of one step that unbinds every module left to right."""
    estimates = list(estimates)
    for i in sorted(range(len(estimates)), key=lambda i: (-cbs.sizes[i], i)):
        others = [v for j, v in enumerate(estimates) if j != i]
        estimates[i] = cleanup(cbs.books[i], functools.reduce(np.multiply, others, s),
                               cfg.activation)
    return estimates


def assert_step_is_reference(s, state, cbs, cfg):
    """Step once; the estimates and the bound must be the reference's bytes."""
    new = step(s, state, cbs, cfg)
    expected = reference_step(s, state.estimates, cbs, cfg)
    for x, y in zip(new.estimates, expected):
        assert x.tobytes() == y.tobytes()
    assert new.scene is s
    assert new.bound.tobytes() == functools.reduce(np.multiply, expected, s).tobytes()
    return new


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(8, 48),
    sizes=st.tuples(*[st.integers(2, 5)] * 4),
    book_seed=st.integers(0, 3),
    objects=st.integers(1, 3),
    target=st.sampled_from((0.3, 0.6, 1.0, 1.0)),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 6),
)
def test_step_with_a_bound_matches_the_reference_unbind(dim, sizes, book_seed, objects, target,
                                                        seed, steps):
    cbs = _codebooks(dim, sizes, book_seed)
    rng = np.random.default_rng(seed)
    clean = encode_scene(cbs, random_scene(min(objects, _cell_count(cbs.sizes)), rng, sizes=sizes))
    assume(target == 1.0 or np.any(clean))
    s = noisy_scene_vector(clean, target, rng)
    cfg = ResonatorConfig()
    state = init_state(cbs)
    for _ in range(steps):
        state = assert_step_is_reference(s, state, cbs, cfg)


def test_bound_keeps_the_signed_zeros_of_a_clean_scene(cbs):
    # two compounds cancel in about half the components of a clean scene
    s = encode_scene(cbs, random_scene(2, np.random.default_rng(4)))
    assert np.any(s == 0)
    cfg = ResonatorConfig()
    state = init_state(cbs)
    for _ in range(5):
        state = assert_step_is_reference(s, state, cbs, cfg)
    assert np.any(np.signbit(state.bound) & (state.bound == 0))


def test_step_takes_the_reference_unbind_for_another_vector(cbs):
    rng = np.random.default_rng(2)
    s, other = (noisy_scene_vector(encode_scene(cbs, random_scene(2, rng)), 0.5, rng)
                for _ in range(2))
    cfg = ResonatorConfig()
    state = step(s, init_state(cbs), cbs, cfg)
    assert state.scene is s and state.bound is not None
    # the bound belongs to s; the same values in another array are another vector too
    assert_step_is_reference(other, state, cbs, cfg)
    assert_step_is_reference(s.copy(), state, cbs, cfg)


def test_normalization_states_carry_no_bound(cbs):
    s = _cycling_scene(cbs)
    cfg = ResonatorConfig(activation="normalization")
    state = step(s, step(s, init_state(cbs), cbs, cfg), cbs, cfg)
    assert state.bound is None


def _cycling_scene(cbs):
    # a 3-object scene at target 0.3 whose first run falls into a limit cycle
    rng = np.random.default_rng(0)
    return noisy_scene_vector(encode_scene(cbs, random_scene(3, rng)), 0.3, rng)


def test_cycle_skips_most_steps_of_a_budget_bound_run(cbs):
    s = _cycling_scene(cbs)
    cfg = ResonatorConfig()
    est, steps = assert_same_as_reference(s, cbs, cfg)
    assert est.halt == "cycle"
    assert est.iterations_used == cfg.max_iterations
    assert steps < cfg.max_iterations


def test_normalization_run_steps_through_a_cycle_to_the_budget(monkeypatch):
    # no normalization run has been seen to cycle, so none is keyed; a fake
    # step that does cycle shows the run still ends where the plain loop
    # does: from the bundled start it visits five float states and then
    # repeats the last four, a first revisit at iteration 6 with period 4
    cbs = _codebooks(8, (3, 3, 3, 3), 1)
    rng = np.random.default_rng(32)
    path = [init_state(cbs).estimates]
    path += [tuple(rng.standard_normal(cbs.dim) for _ in cbs.books) for _ in range(5)]
    successor = {np.concatenate(a).tobytes(): b for a, b in zip(path, path[1:] + path[2:3])}

    def periodic_step(s, state, cbs, cfg):
        return ResonatorState(successor[np.concatenate(state.estimates).tobytes()])

    monkeypatch.setattr(resonator, "step", periodic_step)
    s = np.ones(cbs.dim)
    for budget in (5, 6, 40, 41):
        cfg = ResonatorConfig(activation="normalization", max_iterations=budget)
        est, steps = assert_same_as_reference(s, cbs, cfg)
        assert (est.halt, est.iterations_used, steps) == ("budget", budget, budget)


def test_a_bipolar_bundled_start_is_keyed():
    # with all-odd sizes at dim 2 every codeword sum is exactly +-1, and this
    # scene's first step returns to it: the run stops there, after one step,
    # where a run that did not key its start would take a second
    cbs = CodebookSet.generate(2, sizes=(3, 3, 3, 3), seed=0)
    assert all((np.abs(v) == 1.0).all() for v in init_state(cbs).estimates)
    est, steps = assert_same_as_reference(np.array([1.0, -1.0]), cbs, ResonatorConfig())
    assert (est.halt, est.iterations_used, steps) == ("converged", 1, 1)


def test_halt_reports_each_stop_rule(cbs):
    clean = encode_scene(cbs, random_scene(1, np.random.default_rng(3)))
    est, _ = run(clean, cbs)
    assert (est.halt, est.converged) == ("converged", True)

    est, _ = run(_cycling_scene(cbs), cbs)
    assert (est.halt, est.converged, est.iterations_used) == ("cycle", False, 200)

    # this run first revisits a state at iteration 15 (period 4), so a budget of 3
    # runs out first; a budget of exactly 15 sees the revisit on its last step
    est, _ = run(_cycling_scene(cbs), cbs, ResonatorConfig(max_iterations=3))
    assert (est.halt, est.converged, est.iterations_used) == ("budget", False, 3)
    assert "halt" not in est.to_dict()
    for budget, halt in ((14, "budget"), (15, "cycle")):
        est, _ = run(_cycling_scene(cbs), cbs, ResonatorConfig(max_iterations=budget))
        assert (est.halt, est.iterations_used) == (halt, budget)


def _states(s, cbs, cfg, initial=None):
    states = [init_state(cbs) if initial is None else initial]
    for _ in range(cfg.max_iterations):
        states.append(step(s, states[-1], cbs, cfg))
    return states


def _signs(state):
    return (np.concatenate(state.estimates) < 0).tobytes()


def test_initial_state_that_shares_only_its_signs_is_no_revisit():
    # at dim 4 with odd codebook sizes a later state here has the bundled
    # initial state's sign pattern without being equal to it, so a key of
    # signs alone would read a false revisit of the initial state
    cbs = _codebooks(4, (3, 5, 3, 3), 1)
    for seed in (6, 23):
        clean = encode_scene(cbs, random_scene(1, np.random.default_rng(seed), sizes=cbs.sizes))
        s = noisy_scene_vector(clean, 0.5, np.random.default_rng(seed + 1))
        cfg = ResonatorConfig(max_iterations=30)
        assert _signs(init_state(cbs)) in {
            _signs(state) for state in _states(s, cbs, cfg)[1:]}
        assert assert_same_as_reference(s, cbs, cfg)[0].halt == "converged"


@pytest.mark.parametrize("halt, calls", [("cycle", 4), ("converged", 1)])
def test_revisit_of_the_initial_state(cbs, monkeypatch, halt, calls):
    # start the run on a state it returns to: the pinned scene's cycle, entered
    # at iteration 11 with period 4, or the fixed point of a clean scene
    if halt == "cycle":
        s = _cycling_scene(cbs)
        start = _states(s, cbs, ResonatorConfig(max_iterations=11))[-1]
    else:
        s = encode_scene(cbs, random_scene(1, np.random.default_rng(3)))
        start = _states(s, cbs, ResonatorConfig(max_iterations=8))[-1]
    # a +-1 initial state is keyed like every stepped one
    initial = ResonatorState(start.estimates)
    cfg = ResonatorConfig()
    monkeypatch.setattr(resonator, "init_state", lambda *args: initial)
    plain = _states(s, cbs, cfg, initial)
    with counted_steps() as steps:
        est, state = run(s, cbs, cfg)
    assert (est.halt, len(steps)) == (halt, calls)
    expected = plain[cfg.max_iterations] if halt == "cycle" else plain[1]
    for x, y in zip(state.estimates, expected.estimates):
        assert x.tobytes() == y.tobytes()


def test_factor_estimate_converged_reads_halt_and_validation():
    for halt in resonator.HALTS:
        est = resonator.FactorEstimate((0, 0, 0, 0), 3, halt)
        assert est.converged == (halt == "converged")
        assert est.to_dict()["converged"] == est.converged
    for halt in ("stuck", None, True):
        with pytest.raises(ValueError):
            resonator.FactorEstimate((0, 0, 0, 0), 3, halt)
