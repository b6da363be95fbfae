import functools

import numpy as np
import pytest

import hdscene.decoder as decoder
import hdscene.resonator as resonator
from hdscene.codebook import argmax_readout, cleanup
from hdscene.decoder import decode_scene
from hdscene.ops import random_bipolar
from hdscene.resonator import (
    FactorEstimate,
    ResonatorConfig,
    ResonatorState,
    init_state,
    run,
    step,
)
from hdscene.scene import (
    CodebookSet,
    ObjectSpec,
    encode_object,
    encode_scene,
    noisy_scene_vector,
    random_scene,
)

N = 1000


def ground_truth_state(cbs, obj):
    return ResonatorState((
        cbs.books[0].codewords[obj.color].copy(),
        cbs.books[1].codewords[obj.digit].copy(),
        cbs.books[2].codewords[obj.ypos].copy(),
        cbs.books[3].codewords[obj.xpos].copy(),
    ))


def test_config_validation():
    with pytest.raises(ValueError):
        ResonatorConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ResonatorConfig(activation="tanh")


def test_init_bundled_positively_overlaps_every_codeword(cbs):
    # raw codeword sum: dot with each member is N plus up to K-1 cross terms,
    # each a +-1 random walk with std sqrt(N)
    state = init_state(cbs)
    for cb, est in zip(cbs.books, state.estimates):
        dots = cb.codewords @ est
        assert np.all(dots > 0)
        assert np.all(np.abs(dots - N) < 450)


def test_init_bundled_is_deterministic(cbs):
    a = init_state(cbs)
    b = init_state(cbs)
    for x, y in zip(a.estimates, b.estimates):
        assert np.array_equal(x, y)


def synchronous_update(s, estimates, cbs):
    """Every module cleaned up from the other given estimates, all read before any is replaced."""
    return [cleanup(cb, functools.reduce(np.multiply,
                                         (v for j, v in enumerate(estimates) if j != i), s))
            for i, cb in enumerate(cbs.books)]


def test_ground_truth_is_one_step_fixed_point_synchronous(cbs):
    # clean input: unbinding the other three factors leaves a pure codeword, so
    # a synchronous update keeps the ground truth, and then so does `step`,
    # whose order cannot matter when every module reproduces itself
    rng = np.random.default_rng(21)
    for _ in range(100):
        scene = random_scene(1, rng)
        obj = scene.objects[0]
        s = encode_object(cbs, obj)
        state = ground_truth_state(cbs, obj)
        new = step(s, state, cbs, ResonatorConfig())
        for x, y, z in zip(state.estimates, synchronous_update(s, state.estimates, cbs),
                           new.estimates):
            assert np.array_equal(x, y) and np.array_equal(x, z)


def test_three_correct_estimates_pull_in_the_fourth(cbs):
    # digit, the largest codebook, is updated first, from the three correct estimates
    rng = np.random.default_rng(22)
    for _ in range(100):
        obj = random_scene(1, rng).objects[0]
        s = encode_object(cbs, obj)
        state = ground_truth_state(cbs, obj)
        state = ResonatorState((state.estimates[0], random_bipolar(N, rng), *state.estimates[2:]))
        new = step(s, state, cbs, ResonatorConfig())
        assert np.array_equal(new.estimates[1], cbs.books[1].codewords[obj.digit])


def test_step_is_deterministic(cbs, rng):
    s = encode_scene(cbs, random_scene(2, rng))
    state = init_state(cbs)
    a = step(s, state, cbs, ResonatorConfig())
    b = step(s, state, cbs, ResonatorConfig())
    for x, y in zip(a.estimates, b.estimates):
        assert np.array_equal(x, y)


def test_a_state_takes_only_its_estimates(cbs):
    # the bound and scene caches belong to step; a caller-made pair could
    # send a step on that scene down the one-multiply unbind with a stale bound
    estimates = init_state(cbs).estimates
    for cache in ("bound", "scene", "iteration"):
        with pytest.raises(TypeError):
            ResonatorState(estimates, **{cache: np.ones(N)})
    assert (ResonatorState(estimates).bound, ResonatorState(estimates).scene) == (None, None)


@pytest.mark.parametrize("activation", ["sign", "normalization"])
def test_step_checks_one_scene_vector_once(cbs, rng, monkeypatch, activation):
    # a step on its state's own scene object skips the vector rule; another array is checked
    checked, original = [], resonator._checked_vector
    monkeypatch.setattr(resonator, "_checked_vector",
                        lambda *args: checked.append(args[0]) or original(*args))
    s = encode_scene(cbs, random_scene(2, rng))
    cfg = ResonatorConfig(activation=activation)
    state = init_state(cbs)
    for _ in range(10):
        state = step(s, state, cbs, cfg)
    assert checked == ["s"]
    step(s.copy(), state, cbs, cfg)
    assert checked == ["s", "s"]


@pytest.mark.parametrize("activation", ["sign", "normalization"])
def test_a_run_checks_its_scene_vector_once(cbs, rng, monkeypatch, activation):
    # run ties its start state to the vector it checked, so its first step skips the rule;
    # a decode of R runs then checks 2R vectors, one per run and one per explain-away
    checked = []
    for module in (resonator, decoder):
        monkeypatch.setattr(module, "_checked_vector",
                            lambda *args, original=module._checked_vector:
                            checked.append(args[0]) or original(*args))
    s = encode_scene(cbs, random_scene(2, rng))
    cfg = ResonatorConfig(activation=activation)
    run(s, cbs, cfg)
    assert checked == ["s"]
    checked.clear()
    assert len(decode_scene(s, cbs, cfg, max_runs=2).objects) == 2
    assert checked == ["s"] * 4


def test_step_dimension_mismatch(cbs):
    state = init_state(cbs)
    with pytest.raises(ValueError):
        step(np.ones(N + 1), state, cbs, ResonatorConfig())


def test_estimates_stay_bipolar_under_sign(cbs, rng):
    s = encode_scene(cbs, random_scene(2, rng))
    state = init_state(cbs)
    for _ in range(5):
        state = step(s, state, cbs, ResonatorConfig())
        for est in state.estimates:
            assert set(np.unique(est)) <= {-1, 1}


def test_run_clean_single_object_readout(cbs):
    hits = 0
    trials = 200
    for i in range(trials):
        rng = np.random.default_rng(3000 + i)
        scene = random_scene(1, rng)
        s = encode_scene(cbs, scene)
        est, state = run(s, cbs)
        hits += est.indices == scene.objects[0].as_tuple()
        assert est.converged
    assert hits / trials >= 0.99


def test_run_iteration_budget_is_modest(cbs):
    # clean single-object runs settle in a few sweeps
    iterations = []
    for i in range(500):
        rng = np.random.default_rng(4000 + i)
        s = encode_scene(cbs, random_scene(1, rng))
        est, _ = run(s, cbs)
        iterations.append(est.iterations_used)
    assert np.percentile(iterations, 95) <= 20


def test_run_trajectory_determinism(cbs):
    rng = np.random.default_rng(9)
    s = encode_scene(cbs, random_scene(2, rng))
    trace_a, trace_b = [], []
    est_a, state_a = run(s, cbs, trace=trace_a)
    est_b, state_b = run(s, cbs, trace=trace_b)
    assert est_a == est_b
    assert trace_a == trace_b
    for x, y in zip(state_a.estimates, state_b.estimates):
        assert np.array_equal(x, y)


def test_run_zero_vector_converges_to_tie_break_fixed_point(cbs):
    est, state = run(np.zeros(N, dtype=np.int64), cbs)
    assert est.converged
    assert est.iterations_used <= 3
    for v in state.estimates:
        assert np.array_equal(v, np.ones(N, dtype=np.int64))
    assert 0 <= est.indices[0] < 7 and 0 <= est.indices[1] < 10


def test_run_permutation_equivariance(cbs):
    rng = np.random.default_rng(41)
    scene = random_scene(1, rng)
    s = encode_scene(cbs, scene)
    est, _ = run(s, cbs)

    perm = np.array([3, 1, 4, 0, 9, 2, 7, 5, 8, 6])
    permuted_digit = type(cbs.books[1])(label="digit", codewords=cbs.books[1].codewords[perm])
    cbs_perm = CodebookSet((cbs.books[0], permuted_digit, cbs.books[2], cbs.books[3]))
    est_perm, _ = run(s, cbs_perm)
    assert perm[est_perm.indices[1]] == est.indices[1]
    assert ((est_perm.indices[0], est_perm.indices[2], est_perm.indices[3])
            == (est.indices[0], est.indices[2], est.indices[3]))


def test_run_trace_rows_shape(cbs, rng):
    s = encode_scene(cbs, random_scene(1, rng))
    rows = []
    est, _ = run(s, cbs, trace=rows)
    assert len(rows) == est.iterations_used + 1
    assert rows[0]["iteration"] == 0
    for row in rows:
        assert len(row["color"]) == 7
        assert len(row["digit"]) == 10
        assert len(row["ypos"]) == 3
        assert len(row["xpos"]) == 3


def test_run_normalization_activation(cbs):
    cfg = ResonatorConfig(activation="normalization")
    hits = 0
    for i in range(50):
        rng = np.random.default_rng(6000 + i)
        scene = random_scene(1, rng)
        s = encode_scene(cbs, scene)
        est, _ = run(s, cbs, cfg)
        hits += est.indices == scene.objects[0].as_tuple()
    assert hits >= 48


def test_run_non_convergence_is_reported_not_raised(cbs, rng):
    cfg = ResonatorConfig(max_iterations=1)
    s = encode_scene(cbs, random_scene(3, rng))
    est, _ = run(s, cbs, cfg)
    assert est.iterations_used == 1
    assert isinstance(est, FactorEstimate)
    assert not est.converged  # one sweep from the bundled start is no fixed point
    assert est.halt == "budget"


def test_factor_estimate_as_object():
    est = FactorEstimate(indices=(1, 2, 0, 2), iterations_used=4, halt="converged")
    assert est.as_object() == ObjectSpec(1, 2, 0, 2)
    assert est.indices == (1, 2, 0, 2)


def test_run_rejects_non_finite_vectors(cbs):
    for bad in (np.nan, np.inf):
        s = np.ones(N)
        s[3] = bad
        with pytest.raises(ValueError, match="finite"):
            run(s, cbs)


def test_run_rejects_a_wrong_length_vector_before_writing_a_trace_row():
    books = CodebookSet.generate(16, sizes=(3, 3, 3, 3), seed=0)
    rows = []
    with pytest.raises(ValueError, match="^s must have length 16, got 15$"):
        run(np.ones(15), books, trace=rows)
    assert rows == []


@pytest.mark.parametrize("s", [np.full(N, "1"), np.full(N, 1.0, dtype=object),
                               np.ones(N, dtype=complex), np.ones(N, dtype=bool)])
def test_run_rejects_vectors_of_other_dtypes(cbs, s):
    with pytest.raises(ValueError, match="s must be a 1-D integer or float vector, got dtype"):
        run(s, cbs)


def test_run_rejects_a_scene_whose_decode_overflows(cbs):
    # finite vectors all: the cleanup's products overflow at dim 16, and at dim
    # 1000 normalize's squared norm does although the energy (3e303) does not
    small = CodebookSet.generate(16, sizes=(3, 3, 3, 3), seed=0)
    one = encode_scene(small, random_scene(1, np.random.default_rng(0), sizes=small.sizes))
    three = encode_scene(cbs, random_scene(3, np.random.default_rng(1)))
    for books, s, activation in ((small, one * 1e307, "sign"),
                                 (small, one * 1e307, "normalization"),
                                 (cbs, three * 1e150, "normalization")):
        cfg = ResonatorConfig(activation=activation)
        with pytest.raises(ValueError, match="too large"):
            run(s, books, cfg)
        with pytest.raises(ValueError, match="too large"):
            decode_scene(s, books, cfg)


@pytest.mark.parametrize("activation", ["sign", "normalization"])
def test_run_ignores_a_power_of_two_scale(cbs, activation):
    rng = np.random.default_rng(4)
    s = noisy_scene_vector(encode_scene(cbs, random_scene(3, rng)), 0.6, rng)
    cfg = ResonatorConfig(activation=activation)
    est, state = run(s, cbs, cfg)
    scaled_est, scaled_state = run(s * 2.0**400, cbs, cfg)
    assert scaled_est == est
    for x, y in zip(scaled_state.estimates, state.estimates):
        assert x.tobytes() == y.tobytes()


def test_run_rejects_a_cfg_that_is_no_resonator_config(cbs):
    with pytest.raises(ValueError, match="ResonatorConfig"):
        run(np.ones(N), cbs, {"max_iterations": 5})


def test_factor_estimate_to_dict_keeps_attribute_keys():
    est = FactorEstimate(indices=(1, 2, 0, 2), iterations_used=4, halt="converged")
    assert est.to_dict() == {"color": 1, "digit": 2, "ypos": 0, "xpos": 2,
                             "iterations_used": 4, "converged": True}
    assert list(est.to_dict()) == ["color", "digit", "ypos", "xpos",
                                   "iterations_used", "converged"]


def test_trace_rows_are_keyed_by_codebook_label(tiny_cbs):
    books = tuple(type(cb)(label=name, codewords=cb.codewords)
                  for cb, name in zip(tiny_cbs.books, ("a", "b", "c", "d")))
    rows = []
    est, _ = run(np.asarray(tiny_cbs.books[0].codewords[0]), CodebookSet(books), trace=rows)
    assert list(rows[0]) == ["iteration", "a", "b", "c", "d"]
    assert [len(rows[0][name]) for name in "abcd"] == list(tiny_cbs.sizes)


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": "5"},
    {"max_iterations": 5.0},
    {"max_iterations": True},
    {"activation": 1},
    {"max_iterations": None},
    {"activation": None},
    {"activation": ["sign"]},
])
def test_config_rejects_mistyped_values(kwargs):
    with pytest.raises(ValueError):
        ResonatorConfig(**kwargs)
