"""One type rule at every input boundary: a bool is no int, an int is a float,
and numpy scalars pass as plain Python values. One message per range rule, and
every value a message echoes is shortened."""

from fractions import Fraction

import numpy as np
import pytest

from hdscene import CodebookSet
from hdscene.codebook import Codebook, generate_codebook
from hdscene.decoder import decode_scene, estimate_object_count
from hdscene.harness import ExperimentConfig, conditional_accuracy, trace_trial
from hdscene.ops import random_bipolar
from hdscene.resonator import FactorEstimate, ResonatorConfig, run
from hdscene.scene import ObjectSpec, encode_scene, noisy_scene_vector, random_scene

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


def _noisy_scene_vector(name, value):
    noisy_scene_vector(SCENE, **{name: value}, rng=np.random.default_rng(0))


def _estimate_object_count(name, value):
    estimate_object_count(SCENE, **{name: value})


def _random_scene(name, value):
    random_scene(**{name: value}, rng=np.random.default_rng(0))


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


def _conditional_accuracy(name, value):
    conditional_accuracy([], **{name: value})


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
    (_estimate_object_count, "target_similarity", float),
    (_random_scene, "num_objects", int),
    (_random_scene_item, "sizes", int),
    (_random_bipolar, "dim", int),
    (_generate_codebook, "label", str),
    (_generate_codebook, "k", int),
    (_generate_codebook, "dim", int),
    (_generate_codebook, "seed", int),
    (_generate_codebook_set, "dim", int),
    (_generate_codebook_set, "seed", int),
    (_conditional_accuracy, "bin_width", float),
    (_trace_trial, "index", int),
]
REJECTED = {int: [True, 2.0, "2"], float: [True, "0.5", Fraction(1, 2)], str: [1]}
VALID_STRINGS = {"activation": "sign", "label": "x"}


@pytest.mark.parametrize("build, name, kind", BOUNDARIES,
                         ids=[f"{build.__name__[1:]}-{name}" for build, name, _ in BOUNDARIES])
def test_every_boundary_applies_the_one_type_rule(build, name, kind):
    for bad in REJECTED[kind]:
        with pytest.raises(ValueError, match=f"{name} must be {kind.__name__}, got"):
            build(name, bad)
    accepted = {int: np.int64(2), float: np.float32(0.5),
                str: np.str_(VALID_STRINGS.get(name, ""))}[kind]
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
    (_conditional_accuracy, "bin_width", 0.0, "bin_width must be in (0, 1], got 0.0"),
    (_conditional_accuracy, "bin_width", 2, "bin_width must be in (0, 1], got 2"),
]


@pytest.mark.parametrize("build, name, bad, message", RANGES,
                         ids=[f"{build.__name__[1:]}-{name}-{bad}"
                              for build, name, bad, _ in RANGES])
def test_every_boundary_applies_the_one_range_rule(build, name, bad, message):
    with pytest.raises(ValueError) as excinfo:
        build(name, bad)
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
