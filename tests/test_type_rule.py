"""One type rule at every input boundary: a bool is no int, an int is a float,
and numpy scalars pass as plain Python values. One message per range rule, one
sequence rule, one vector rule and one energy rule, and every value a message
echoes is shortened."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from hdscene import CodebookSet
from hdscene.codebook import Codebook, generate_codebook
from hdscene.decoder import decode_scene, estimate_object_count, explain_away
from hdscene.harness import ExperimentConfig, trace_trial
from hdscene.ops import bind, bundle, cosine_similarity, random_bipolar
from hdscene.resonator import FactorEstimate, ResonatorConfig, init_state, run, step
from hdscene.scene import (
    ObjectSpec,
    SceneDescription,
    encode_object,
    encode_scene,
    noisy_scene_vector,
    random_scene,
)

CBS = CodebookSet.generate(64, sizes=(3, 4, 2, 2), seed=5)
SCENE = encode_scene(CBS, random_scene(1, np.random.default_rng(0), sizes=CBS.sizes))


def _resonator(name, value):
    return getattr(ResonatorConfig(**{name: value}), name)


def _experiment(name, value):
    return getattr(ExperimentConfig(**{name: value}), name)


def _experiment_item(name, value):
    items = {"codebook_sizes": [value, 10, 3, 3]}.get(name, [value])
    return getattr(ExperimentConfig(**{name: items}), name)[0]


def _decode(name, value):
    decode_scene(SCENE, CBS, **{name: value})
    return None  # the value is not stored anywhere to read back


def _codebook(name, value):
    return getattr(Codebook(**{"label": "x", "codewords": [[1, -1], [-1, 1]], name: value}), name)


def _object_spec(name, value):
    return getattr(ObjectSpec(**{"color": 0, "digit": 0, "ypos": 0, "xpos": 0, name: value}),
                   name)


def _noisy_scene_vector(name, value, target=0.5):
    noisy_scene_vector(**{"s": SCENE, "target_similarity": target,
                          "rng": np.random.default_rng(0), name: value})


def _clean_scene_vector(name, value):
    _noisy_scene_vector(name, value, target=1.0)  # the channel adds no noise at 1.0


def _estimate_object_count(name, value):
    estimate_object_count(SCENE, **{name: value})


def _random_scene(name, value):
    random_scene(**{"num_objects": 1, "rng": np.random.default_rng(0), name: value})


def _random_scene_item(name, value):
    random_scene(1, np.random.default_rng(0), **{name: (value, 10, 3, 3)})


def _random_bipolar(name, value):
    random_bipolar(**{name: value}, rng=np.random.default_rng(0))


def _generate_codebook(name, value):
    cb = generate_codebook(**{"label": "x", "k": 2, "dim": 8, "seed": 0, name: value})
    return None if name == "seed" else getattr(cb, name)  # the codebook keeps no seed


def _generate_codebook_set(name, value):
    cbs = CodebookSet.generate(**{"dim": 8, "sizes": (2, 2, 2, 2), "seed": 0, name: value})
    return cbs.dim if name == "dim" else None  # the set keeps only its children's seeds


def _codebook_rows(name, value):
    Codebook("x", np.ones((value, 2)))  # the row count is the k that Codebook checks


def _encode_object(name, value):
    encode_object(CBS, ObjectSpec(**{"color": 0, "digit": 0, "ypos": 0, "xpos": 0, name: value}))


def _factor_estimate(name, value):
    given = {"indices": (0, 0, 0, 0), "iterations_used": 1, "halt": "converged", name: value}
    return getattr(FactorEstimate(**given), name)


def _factor_estimate_item(name, value):
    return getattr(FactorEstimate(**{"iterations_used": 1, "halt": "converged",
                                     name: (value, 0, 0, 0)}), name)[0]


def _trace_trial(name, value):
    cfg = ExperimentConfig(dim=64, codebook_sizes=(3, 4, 2, 2), object_counts=(1,), trials=3)
    return trace_trial(cfg, **{name: value})[0].index


BOUNDARIES = [
    (_resonator, "max_iterations", int),
    (_resonator, "activation", str),
    (_experiment, "dim", int),
    (_experiment, "trials", int),
    (_experiment, "max_runs", int),
    (_experiment, "seed", int),
    (_experiment_item, "codebook_sizes", int),
    (_experiment_item, "object_counts", int),
    (_experiment_item, "noise_targets", float),
    (_decode, "max_runs", int),
    (_codebook, "label", str),
    (_object_spec, "color", int),
    (_object_spec, "digit", int),
    (_object_spec, "ypos", int),
    (_object_spec, "xpos", int),
    (_noisy_scene_vector, "target_similarity", float),
    (_noisy_scene_vector, "rng", np.random.Generator),
    (_clean_scene_vector, "rng", np.random.Generator),
    (_estimate_object_count, "target_similarity", float),
    (_random_scene, "num_objects", int),
    (_random_scene, "rng", np.random.Generator),
    (_random_scene_item, "sizes", int),
    (_random_bipolar, "dim", int),
    (_generate_codebook, "label", str),
    (_generate_codebook, "k", int),
    (_generate_codebook, "dim", int),
    (_generate_codebook, "seed", int),
    (_generate_codebook_set, "dim", int),
    (_generate_codebook_set, "seed", int),
    (_factor_estimate, "iterations_used", int),
    (_factor_estimate_item, "indices", int),
    (_trace_trial, "index", int),
]
REJECTED = {int: [True, 2.0, "2"], float: [True, "0.5", Fraction(1, 2)], str: [1],
            np.random.Generator: [None, 0, np.random.RandomState(0)]}
VALID_STRINGS = {"activation": "sign", "label": "x"}


@pytest.mark.parametrize("build, name, kind", BOUNDARIES,
                         ids=[f"{build.__name__[1:]}-{name}" for build, name, _ in BOUNDARIES])
def test_every_boundary_applies_the_one_type_rule(build, name, kind):
    for bad in REJECTED[kind]:
        with pytest.raises(ValueError, match=f"{name} must be {kind.__name__}, got"):
            build(name, bad)
    accepted = {int: np.int64(2), float: np.float32(0.5),
                str: np.str_(VALID_STRINGS.get(name, "")),
                np.random.Generator: np.random.default_rng(0)}[kind]
    value = build(name, accepted)
    if value is not None:
        assert type(value) is kind and value == accepted


RANGES = [
    (_resonator, "max_iterations", 0, "max_iterations must be >= 1, got 0"),
    (_experiment, "dim", 0, "dim must be >= 1, got 0"),
    (_experiment, "trials", 0, "trials must be >= 1, got 0"),
    (_experiment, "max_runs", 0, "max_runs must be >= 1, got 0"),
    (_experiment, "seed", -1, "seed must be >= 0, got -1"),
    (_experiment_item, "codebook_sizes", 1, "codebook_sizes must be >= 2, got 1"),
    (_experiment_item, "object_counts", 0, "object_counts must be in [1, 9], got 0"),
    (_experiment_item, "object_counts", 10, "object_counts must be in [1, 9], got 10"),
    (_experiment_item, "noise_targets", 0.0, "noise_targets must be in (0, 1], got 0.0"),
    (_experiment_item, "noise_targets", 1.5, "noise_targets must be in (0, 1], got 1.5"),
    (_experiment_item, "noise_targets", float("nan"), "noise_targets must be in (0, 1], got nan"),
    (_decode, "max_runs", 0, "max_runs must be >= 1, got 0"),
    (_noisy_scene_vector, "target_similarity", 1.5, "target_similarity must be in (0, 1], got 1.5"),
    (_estimate_object_count, "target_similarity", 0, "target_similarity must be in (0, 1], got 0"),
    (_random_scene, "num_objects", 0, "num_objects must be in [1, 9], got 0"),
    (_random_scene, "num_objects", 10, "num_objects must be in [1, 9], got 10"),
    (_random_scene_item, "sizes", 1, "sizes must be >= 2, got 1"),
    (_random_bipolar, "dim", 0, "dim must be >= 1, got 0"),
    (_generate_codebook, "k", 1, "k must be >= 2, got 1"),
    (_generate_codebook, "dim", 0, "dim must be >= 1, got 0"),
    (_generate_codebook, "seed", -1, "seed must be >= 0, got -1"),
    (_generate_codebook_set, "sizes", (1, 2, 2, 2), "sizes must be >= 2, got 1"),
    (_generate_codebook_set, "dim", 0, "dim must be >= 1, got 0"),
    (_generate_codebook_set, "seed", -1, "seed must be >= 0, got -1"),
    (_codebook_rows, "k", 1, "k must be >= 2, got 1"),
    (_encode_object, "color", -1, "color must be in [0, 2], got -1"),
    (_encode_object, "color", 3, "color must be in [0, 2], got 3"),
    (_encode_object, "xpos", 2, "xpos must be in [0, 1], got 2"),
    (_factor_estimate, "iterations_used", 0, "iterations_used must be >= 1, got 0"),
    (_factor_estimate_item, "indices", -1, "indices must be >= 0, got -1"),
    (_trace_trial, "index", -1, "trial index must be in [0, 2], got -1"),
    (_trace_trial, "index", 3, "trial index must be in [0, 2], got 3"),
]


@pytest.mark.parametrize("build, name, bad, message", RANGES,
                         ids=[f"{build.__name__[1:]}-{name}-{bad}"
                              for build, name, bad, _ in RANGES])
def test_every_boundary_applies_the_one_range_rule(build, name, bad, message):
    with pytest.raises(ValueError) as excinfo:
        build(name, bad)
    assert str(excinfo.value) == message


def _vector(dtype=np.float64, shape=(CBS.dim,), fill=1.0):
    v = np.ones(shape, dtype=dtype)
    v[..., 3] = fill
    return v


IS_NO_VECTOR = "{} must be a 1-D integer or float vector, got dtype "
BAD_VECTORS = [  # (id, vector, message with {} for the argument's name)
    ("bool", _vector(bool), IS_NO_VECTOR + "bool of shape (64,)"),
    ("complex", _vector(complex), IS_NO_VECTOR + "complex128 of shape (64,)"),
    ("strings", np.full(CBS.dim, "1"), IS_NO_VECTOR + "<U1 of shape (64,)"),
    ("2-D", _vector(shape=(2, CBS.dim)), IS_NO_VECTOR + "float64 of shape (2, 64)"),
    ("wrong-length", _vector(shape=(CBS.dim - 1,)), "{} must have length 64, got 63"),
    ("nan", _vector(fill=np.nan), "{} must be finite, got NaN or inf"),
    ("inf", _vector(fill=-np.inf), "{} must be finite, got NaN or inf"),
    ("energy-overflows", np.full(CBS.dim, 1e300), "{} is too large: its energy overflows"),
]
NO_ESTIMATE = FactorEstimate((0, 0, 0, 0), 1, "converged")
VECTOR_BOUNDARIES = [  # (id, call, the name its messages give, ids of inputs it accepts)
    # a sign run is scale-free and explain-away a subtraction: neither takes an energy
    ("run", lambda v: run(v, CBS), "s", {"energy-overflows"}),
    ("step", lambda v: step(v, init_state(CBS), CBS, ResonatorConfig()), "s",
     {"energy-overflows"}),
    ("explain_away", lambda v: explain_away(v, NO_ESTIMATE, CBS), "s", {"energy-overflows"}),
    ("decode_scene", lambda v: decode_scene(v, CBS), "s", set()),
    # the noise channel and the count estimate take a vector of any length
    ("noisy_scene_vector-0.5", lambda v: noisy_scene_vector(v, 0.5, np.random.default_rng(0)),
     "s", {"wrong-length"}),
    ("noisy_scene_vector-1.0", lambda v: noisy_scene_vector(v, 1.0, np.random.default_rng(0)),
     "s", {"wrong-length"}),
    ("estimate_object_count", estimate_object_count, "s", {"wrong-length"}),
    ("cosine_similarity", lambda v: cosine_similarity(np.ones(CBS.dim), v), "b", set()),
    # the algebra computes no energy
    ("bind", lambda v: bind(np.ones(CBS.dim), v), "b", {"energy-overflows"}),
    ("bundle", lambda v: bundle([np.ones(CBS.dim), v]), "vectors[1]", {"energy-overflows"}),
]
# a huge scene decodes, and then the energy of its residual overflows
RENAMED = {("decode_scene", "energy-overflows"): "the residual of s"}
VECTOR_CASES = [
    pytest.param(call, vector, message.format(RENAMED.get((label, vector_id), name)),
                 id=f"{label}-{vector_id}")
    for label, call, name, accepted in VECTOR_BOUNDARIES
    for vector_id, vector, message in BAD_VECTORS if vector_id not in accepted
]


@pytest.mark.parametrize("call, vector, message", VECTOR_CASES)
def test_every_vector_boundary_applies_the_one_vector_and_energy_rule(call, vector, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            call(vector)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: CodebookSet((1, 2, 3, 4)), "books must be Codebook, got 1",
                 id="codebook-set-books"),
    pytest.param(lambda: SceneDescription([(0, 0, 0, 0)]),
                 "objects must be ObjectSpec, got (0, 0, 0, 0)", id="scene-objects"),
    # the sequence rule: a list or tuple, not empty, of the count asked for
    pytest.param(lambda: CodebookSet(5), "books must be a list or tuple, got 5",
                 id="codebook-set-int"),
    pytest.param(lambda: CodebookSet("abcd"), "books must be a list or tuple, got 'abcd'",
                 id="codebook-set-string"),
    pytest.param(lambda: SceneDescription(None), "objects must be a list or tuple, got None",
                 id="scene-none"),
    pytest.param(lambda: SceneDescription(()), "objects must not be empty", id="scene-empty"),
    pytest.param(lambda: FactorEstimate((1, 2, 0), 1, "converged"),
                 "indices must have 4 items, got 3", id="factor-estimate-3-indices"),
    pytest.param(lambda: FactorEstimate(5, 1, "converged"),
                 "indices must be a list or tuple, got 5", id="factor-estimate-int"),
    pytest.param(lambda: bundle(5), "vectors must be a list or tuple, got 5", id="bundle-int"),
    pytest.param(lambda: bundle(None), "vectors must be a list or tuple, got None",
                 id="bundle-none"),
    pytest.param(lambda: bundle(np.ones((3, 4))),
                 "vectors must be a list or tuple, got array([[1., 1... 1., 1., 1.]])",
                 id="bundle-2-D"),
])
def test_a_container_takes_only_its_item_class(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


LONG = [0] * 200000


@pytest.mark.parametrize("build", [
    pytest.param(lambda: run(SCENE, CBS, LONG), id="run-cfg"),
    pytest.param(lambda: ExperimentConfig(resonator=LONG), id="experiment-resonator"),
    pytest.param(lambda: FactorEstimate((0, 0, 0, 0), 1, "x" * 200000), id="factor-estimate-halt"),
    pytest.param(lambda: CodebookSet([Codebook("x" * 200000, [[1, -1], [-1, 1]])] * 4),
                 id="codebook-set-labels"),
])
def test_a_long_caller_value_is_echoed_short(build):
    # whole, each of these values would make a message of 200 to 600 kB
    with pytest.raises(ValueError) as excinfo:
        build()
    assert len(str(excinfo.value)) < 300
