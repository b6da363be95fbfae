import warnings

import numpy as np
import pytest

from hdscene.decoder import (
    DecodedScene,
    decode_scene,
    estimate_object_count,
    explain_away,
    match_objects,
)
from hdscene.resonator import FactorEstimate
from hdscene.scene import (
    CodebookSet,
    ObjectSpec,
    SceneDescription,
    encode_object,
    encode_scene,
    noisy_scene_vector,
    random_scene,
)

N = 1000


def estimate_for(obj, iterations=1):
    return FactorEstimate(indices=obj.as_tuple(), iterations_used=iterations, halt="converged")


def decoded_from(objs):
    return DecodedScene(objects=tuple(estimate_for(o) for o in objs),
                        residual_energy_trace=tuple(0.0 for _ in objs), halted_by="max-runs")


def test_explain_away_exact_on_single_object(cbs, rng):
    scene = random_scene(1, rng)
    s = encode_scene(cbs, scene)
    residual = explain_away(s, estimate_for(scene.objects[0]), cbs)
    assert np.array_equal(residual, np.zeros(N, dtype=np.int64))


def test_explain_away_leaves_other_compound(cbs, rng):
    scene = random_scene(2, rng)
    s = encode_scene(cbs, scene)
    residual = explain_away(s, estimate_for(scene.objects[0]), cbs)
    assert np.array_equal(residual, encode_object(cbs, scene.objects[1]))


def test_explain_away_any_order_cancels(cbs, rng):
    scene = random_scene(3, rng)
    s = encode_scene(cbs, scene)
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        residual = s
        for i in order:
            residual = explain_away(residual, estimate_for(scene.objects[i]), cbs)
        assert np.array_equal(residual, np.zeros(N, dtype=np.int64))


def test_wrong_estimate_leaves_residual_energy_near_two_n(cbs):
    # difference of two near-orthogonal bipolar vectors has squared norm ~ 2N
    rng = np.random.default_rng(55)
    for _ in range(100):
        scene = random_scene(1, rng)
        s = encode_scene(cbs, scene)
        obj = scene.objects[0]
        wrong = ObjectSpec((obj.color + 1) % 7, (obj.digit + 3) % 10, obj.ypos, obj.xpos)
        residual = explain_away(s, estimate_for(wrong), cbs)
        energy = float(residual @ residual)
        assert abs(energy - 2 * N) < 350


def test_decode_clean_single_object_halts_after_one_run(cbs, rng):
    scene = random_scene(1, rng)
    s = encode_scene(cbs, scene)
    decoded = decode_scene(s, cbs, max_runs=3)
    assert decoded.runs_executed == 1
    assert decoded.halted_by == "energy-threshold"
    assert decoded.residual_energy_trace[0] == 0.0
    assert decoded.objects[0].indices == scene.objects[0].as_tuple()


def test_decode_halting_matches_object_count_when_correct(cbs):
    for L in (1, 2, 3):
        hits = 0
        trials = 50
        for i in range(trials):
            rng = np.random.default_rng(100 * L + i)
            scene = random_scene(L, rng)
            s = encode_scene(cbs, scene)
            decoded = decode_scene(s, cbs, max_runs=9)
            result = match_objects(decoded, scene)
            if result.all_correct and all(result.per_object):
                hits += 1
                assert decoded.runs_executed == L
                assert decoded.halted_by == "energy-threshold"
        assert hits >= 0.9 * trials


def test_decode_clean_three_objects(cbs):
    hits = 0
    trials = 200
    for i in range(trials):
        rng = np.random.default_rng(9000 + i)
        scene = random_scene(3, rng)
        s = encode_scene(cbs, scene)
        decoded = decode_scene(s, cbs, max_runs=3)
        hits += match_objects(decoded, scene).all_correct
    assert hits / trials >= 0.95


def test_decode_residual_energy_non_increasing_when_correct(cbs):
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        scene = random_scene(3, rng)
        s = encode_scene(cbs, scene)
        decoded = decode_scene(s, cbs, max_runs=3)
        if match_objects(decoded, scene).all_correct:
            trace = decoded.residual_energy_trace
            assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))


def test_decode_argument_validation(cbs, rng):
    s = encode_scene(cbs, random_scene(1, rng))
    with pytest.raises(ValueError):
        decode_scene(s, cbs, max_runs=0)


@pytest.mark.parametrize("bad", [2.5, "2", True])
def test_decode_rejects_a_max_runs_that_is_no_int(cbs, rng, bad):
    s = encode_scene(cbs, random_scene(1, rng))
    with pytest.raises(ValueError, match="max_runs"):
        decode_scene(s, cbs, max_runs=bad)
    assert decode_scene(s, cbs, max_runs=np.int64(2)).runs_executed >= 1


@pytest.mark.parametrize("s", [np.full(N, "1"), np.ones(N, dtype=complex)])
def test_decode_rejects_vectors_of_other_dtypes(cbs, rng, s):
    with pytest.raises(ValueError, match="integers or floats"):
        decode_scene(s, cbs)


def test_decode_rejects_a_cfg_that_is_no_resonator_config(cbs, rng):
    s = encode_scene(cbs, random_scene(1, rng))
    with pytest.raises(ValueError, match="ResonatorConfig"):
        decode_scene(s, cbs, "sign")


@pytest.mark.parametrize("s", [np.array([]), np.array([1.0, np.nan]), np.array([np.inf, 1.0]),
                               np.full(1000, 1e200)])
def test_estimate_object_count_rejects_empty_and_non_finite_vectors(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="object count"):
            estimate_object_count(s)


def test_decode_scene_serialization(cbs, rng):
    scene = random_scene(2, rng)
    decoded = decode_scene(encode_scene(cbs, scene), cbs, max_runs=2)
    data = decoded.to_dict()
    assert set(data) == {"objects", "residual_energy_trace", "runs_executed", "halted_by"}
    assert set(data["objects"][0]) == {"color", "digit", "ypos", "xpos",
                                       "iterations_used", "converged"}


def test_match_objects_is_order_insensitive():
    truth = SceneDescription(objects=(ObjectSpec(1, 2, 0, 0), ObjectSpec(3, 4, 1, 1)))
    decoded = decoded_from(truth.objects[::-1])
    result = match_objects(decoded, truth)
    assert result.num_correct == 2
    assert result.all_correct
    assert result.per_object == (True, True)
    assert set(result.matched_truth) == {0, 1}


def test_match_objects_one_wrong_component():
    truth = SceneDescription(objects=(ObjectSpec(1, 2, 0, 0), ObjectSpec(3, 4, 1, 1)))
    off = ObjectSpec(1, 9, 0, 0)
    decoded = decoded_from((off, truth.objects[1]))
    result = match_objects(decoded, truth)
    assert result.per_object == (False, True)
    assert result.num_correct == 1
    assert not result.all_correct


def test_match_objects_duplicate_decode_counts_once():
    truth = SceneDescription(objects=(ObjectSpec(1, 2, 0, 0), ObjectSpec(3, 4, 1, 1)))
    decoded = decoded_from((truth.objects[0], truth.objects[0]))
    result = match_objects(decoded, truth)
    assert result.num_correct == 1
    assert result.per_object == (True, False)


def test_estimate_object_count_on_clean_scenes(cbs):
    for L in (1, 2, 3, 4):
        for i in range(50):
            rng = np.random.default_rng(40 * L + i)
            s = encode_scene(cbs, random_scene(L, rng))
            assert estimate_object_count(s) == L


def test_estimate_object_count_debiases_noise(cbs):
    hits = 0
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        s = noisy_scene_vector(encode_scene(cbs, random_scene(2, rng)), 0.7, rng)
        assert estimate_object_count(s) > 2
        hits += estimate_object_count(s, 0.7) == 2
    assert hits >= 40
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            estimate_object_count(s, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_vectors(cbs, rng, bad):
    s = encode_scene(cbs, random_scene(2, rng)).astype(np.float64)
    s[17] = bad
    with pytest.raises(ValueError, match="finite"):
        decode_scene(s, cbs)
    with pytest.raises(ValueError, match="finite"):
        decode_scene(np.full(N, bad), cbs)


def test_decode_rejects_a_scene_whose_residual_energy_overflows():
    # every run decodes this finite vector, but its squared norm overflows
    books = CodebookSet.generate(N, seed=1)
    s = encode_scene(books, random_scene(2, np.random.default_rng(1))) * 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scene vector too large to decode"):
            decode_scene(s, books)


def test_decode_trace_tags_rows_with_their_run(cbs, rng):
    scene = random_scene(3, rng)
    trace = []
    decoded = decode_scene(encode_scene(cbs, scene), cbs, max_runs=3, trace=trace)
    runs = [row["run"] for row in trace]
    assert runs == sorted(runs)
    assert set(runs) == set(range(decoded.runs_executed))
    for index, est in enumerate(decoded.objects):
        rows = [row for row in trace if row["run"] == index]
        assert len(rows) == est.iterations_used + 1
        assert list(rows[0]) == ["run", "iteration", "color", "digit", "ypos", "xpos"]
    assert decode_scene(encode_scene(cbs, scene), cbs, max_runs=3) == decoded


@pytest.mark.parametrize("s", [
    np.array(["2"] * 4),
    ["2"] * 4,
    np.array([True, False, True]),
    np.ones((4, 3)),
    np.array(2.0),
])
def test_estimate_object_count_accepts_only_one_dimensional_integer_or_float_vectors(s):
    with pytest.raises(ValueError, match="1-D integer or float vector"):
        estimate_object_count(s)


def test_estimate_object_count_sums_int64_energy_without_wrapping():
    # 4 * (2**32)**2 = 2**66 wraps to 0 in int64
    assert estimate_object_count(np.full(4, 2**32, dtype=np.int64)) == 2**64
