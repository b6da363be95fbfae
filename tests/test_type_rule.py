"""One type rule at every input boundary: a bool is no int, an int is a float,
and numpy scalars pass as plain Python values."""

from fractions import Fraction

import numpy as np
import pytest

from hdscene import CodebookSet
from hdscene.codebook import Codebook
from hdscene.decoder import decode_scene
from hdscene.harness import ExperimentConfig
from hdscene.resonator import ResonatorConfig
from hdscene.scene import encode_scene, random_scene

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
    decode_scene(SCENE, CBS, **{name: value}, rng=np.random.default_rng(0))
    return None  # the value is not stored anywhere to read back


def _codebook(name, value):
    data = {"label": "x", "k": 2, "dim": 2, "seed": None, "codewords": [[1, -1], [-1, 1]]}
    return getattr(Codebook.from_dict({**data, name: value}), name)


BOUNDARIES = [
    (_resonator, "max_iterations", int),
    (_resonator, "activation", str),
    (_resonator, "init_mode", str),
    (_resonator, "synchronous", bool),
    (_experiment, "dim", int),
    (_experiment, "trials", int),
    (_experiment, "max_runs", int),
    (_experiment, "energy_threshold", float),
    (_experiment, "seed", int),
    (_experiment_item, "codebook_sizes", int),
    (_experiment_item, "object_counts", int),
    (_experiment_item, "noise_targets", float),
    (_decode, "max_runs", int),
    (_decode, "energy_threshold", float),
    (_codebook, "label", str),
    (_codebook, "k", int),
    (_codebook, "dim", int),
    (_codebook, "seed", int),
]
REJECTED = {int: [True, 2.0, "2"], float: [True, "0.5", Fraction(1, 2)], bool: [1], str: [1]}
VALID_STRINGS = {"activation": "sign", "init_mode": "random-bipolar", "label": "x"}


@pytest.mark.parametrize("build, name, kind", BOUNDARIES,
                         ids=[f"{build.__name__[1:]}-{name}" for build, name, _ in BOUNDARIES])
def test_every_boundary_applies_the_one_type_rule(build, name, kind):
    for bad in REJECTED[kind]:
        with pytest.raises(ValueError, match=f"{name} must be {kind.__name__}, got"):
            build(name, bad)
    accepted = {int: np.int64(2), float: np.float32(0.5), bool: np.True_,
                str: np.str_(VALID_STRINGS.get(name, ""))}[kind]
    value = build(name, accepted)
    if value is not None:
        assert type(value) is kind and value == accepted
