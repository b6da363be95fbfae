"""Every public dataclass compares with ``==`` to a bool and hashes to an int.

``ResonatorState`` holds numpy arrays, so it compares and hashes by identity;
the others compare by value."""

import dataclasses

import numpy as np
import pytest

import hdscene
from hdscene import (
    CodebookSet,
    ExperimentConfig,
    ResonatorConfig,
    encode_scene,
    init_state,
    match_objects,
    random_scene,
    run_experiment,
    step,
)

CBS = CodebookSet.generate(64, sizes=(3, 4, 2, 2), seed=5)
SCENE = encode_scene(CBS, random_scene(1, np.random.default_rng(0), sizes=CBS.sizes))
TABLE, RECORDS = run_experiment(ExperimentConfig(dim=64, codebook_sizes=(3, 4, 2, 2),
                                                 object_counts=(1,), trials=1, seed=5))
RECORD = RECORDS[0]

# public dataclass -> a builder of one instance; each call builds a fresh one
BUILDERS = {
    "Codebook": lambda: CBS.books[0],
    "CodebookSet": lambda: CBS,
    "ObjectSpec": lambda: RECORD.scene.objects[0],
    "SceneDescription": lambda: RECORD.scene,
    "FactorEstimate": lambda: RECORD.decoded.objects[0],
    "ResonatorConfig": lambda: ResonatorConfig(),
    "ResonatorState": lambda: init_state(CBS),
    "DecodedScene": lambda: RECORD.decoded,
    "MatchResult": lambda: match_objects(RECORD.decoded, RECORD.scene),
    "ExperimentConfig": lambda: ExperimentConfig(),
    "GroupAccuracy": lambda: TABLE.groups[0],
    "IterationStats": lambda: TABLE.iterations,
    "ResultTable": lambda: TABLE,
    "SimilarityBin": lambda: TABLE.conditional[0],
    "TrialRecord": lambda: RECORD,
}
CASES = [pytest.param(BUILDERS[name], id=name) for name in BUILDERS] + [
    pytest.param(lambda: step(SCENE, init_state(CBS), CBS, ResonatorConfig()),
                 id="ResonatorState-stepped"),
]


def test_every_public_dataclass_has_a_case():
    public = {name for name in hdscene.__all__
              if dataclasses.is_dataclass(getattr(hdscene, name))}
    assert public == set(BUILDERS)


@pytest.mark.parametrize("build", CASES)
def test_equality_is_a_bool_and_hash_an_int(build):
    first, second = build(), build()
    assert type(first == second) is bool
    assert first == first
    assert type(hash(first)) is int
