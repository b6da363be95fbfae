"""No public call ends in a traceback: a wrong argument is one ValueError.

The table holds one valid call per function, class and public classmethod of
``hdscene.__all__``, with every parameter of its signature given by name. Each
argument in turn is then replaced by None, True, a str and a list. Every
result must be a ValueError or a return, never another exception.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import hdscene as hd

CBS = hd.CodebookSet.generate(64, sizes=(3, 4, 2, 2), seed=5)
SCENE = hd.random_scene(1, np.random.default_rng(0), sizes=CBS.sizes)
S = hd.encode_scene(CBS, SCENE)
CONFIG = hd.ExperimentConfig(dim=64, codebook_sizes=(3, 4, 2, 2), object_counts=(1,),
                             trials=1)
TABLE, RECORDS = hd.run_experiment(CONFIG)
DECODED = RECORDS[0].decoded
WRONG = (None, True, "x", [1])


def _fields(instance) -> dict:
    """The constructor arguments that rebuild a dataclass instance."""
    return {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance) if f.init}


# callable -> the keyword arguments of one valid call; paths are relative to tmp_path
VALID = {
    "bind": lambda: dict(a=S, b=S),
    "bundle": lambda: dict(vectors=[S, S]),
    "cosine_similarity": lambda: dict(a=S, b=S),
    "random_bipolar": lambda: dict(dim=8, rng=np.random.default_rng(0)),
    "sign": lambda: dict(v=S),
    "Codebook": lambda: dict(label="x", codewords=CBS.books[0].codewords),
    "argmax_readout": lambda: dict(cb=CBS.books[0], v=S),
    "cleanup": lambda: dict(cb=CBS.books[0], v=S, activation="sign"),
    "CodebookSet": lambda: _fields(CBS),
    "CodebookSet.generate": lambda: dict(dim=8, sizes=(2, 2, 2, 2), seed=0),
    "ObjectSpec": lambda: _fields(SCENE.objects[0]),
    "SceneDescription": lambda: _fields(SCENE),
    "encode_object": lambda: dict(cbs=CBS, obj=SCENE.objects[0]),
    "encode_scene": lambda: dict(cbs=CBS, scene=SCENE),
    "noisy_scene_vector": lambda: dict(s=S, target_similarity=0.5, rng=np.random.default_rng(0)),
    "random_scene": lambda: dict(num_objects=1, rng=np.random.default_rng(0), sizes=CBS.sizes),
    "FactorEstimate": lambda: _fields(DECODED.objects[0]),
    "ResonatorConfig": lambda: dict(max_iterations=5, activation="sign"),
    "ResonatorState": lambda: _fields(hd.init_state(CBS)),
    "init_state": lambda: dict(cbs=CBS),
    "run": lambda: dict(s=S, cbs=CBS, cfg=hd.ResonatorConfig(), trace=[]),
    "step": lambda: dict(s=S, state=hd.init_state(CBS), cbs=CBS, cfg=hd.ResonatorConfig()),
    "DecodedScene": lambda: _fields(DECODED),
    "MatchResult": lambda: _fields(hd.match_objects(DECODED, SCENE)),
    "decode_scene": lambda: dict(s=S, cbs=CBS, cfg=hd.ResonatorConfig(), max_runs=2, trace=[]),
    "estimate_object_count": lambda: dict(s=S, target_similarity=1.0),
    "explain_away": lambda: dict(s=S, est=DECODED.objects[0], cbs=CBS),
    "match_objects": lambda: dict(decoded=DECODED, truth=SCENE),
    "ExperimentConfig": lambda: _fields(CONFIG),
    "ExperimentConfig.from_dict": lambda: dict(data=CONFIG.to_dict()),
    "GroupAccuracy": lambda: _fields(TABLE.groups[0]),
    "IterationStats": lambda: _fields(TABLE.iterations),
    "ResultTable": lambda: _fields(TABLE),
    "SimilarityBin": lambda: _fields(TABLE.conditional[0]),
    "TrialRecord": lambda: _fields(RECORDS[0]),
    "format_summary": lambda: dict(table=TABLE),
    "run_experiment": lambda: dict(cfg=CONFIG),
    "summarize": lambda: dict(records=RECORDS),
    "trace_trial": lambda: dict(cfg=CONFIG, index=0),
    "write_conditional_csv": lambda: dict(table=TABLE, path="conditional.csv"),
    "write_summary_csv": lambda: dict(table=TABLE, path="summary.csv"),
    "write_trials_jsonl": lambda: dict(records=RECORDS, path="trials.jsonl"),
}


def _callable(name: str):
    owner, _, attribute = name.partition(".")
    found = getattr(hd, owner)
    return getattr(found, attribute) if attribute else found


def test_every_public_callable_has_one_valid_call():
    public = set()
    for name in hd.__all__:
        found = getattr(hd, name)
        if inspect.isfunction(found) or inspect.isclass(found):
            public.add(name)
        if inspect.isclass(found):
            public |= {f"{name}.{attribute}" for attribute, member in vars(found).items()
                       if not attribute.startswith("_") and isinstance(member, classmethod)}
    assert set(VALID) == public


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_wrong_argument_is_a_value_error_or_a_return(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a path given as "x" is a file there
    function = _callable(name)
    valid = VALID[name]()
    assert list(valid) == list(inspect.signature(function).parameters)
    function(**valid)
    tracebacks = []
    for argument in valid:
        for wrong in WRONG:
            try:
                function(**{**VALID[name](), argument: wrong})
            except ValueError:
                pass
            except Exception as error:  # any other class is the failure
                tracebacks.append(f"{argument}={wrong!r}: {type(error).__name__}: {error}")
    assert tracebacks == []
