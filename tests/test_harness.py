import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdscene.harness import (
    ExperimentConfig,
    GroupAccuracy,
    conditional_accuracy,
    run_experiment,
    summarize,
    write_summary_csv,
    write_trials_jsonl,
)
from hdscene.resonator import ResonatorConfig


def small_config(**overrides):
    base = dict(trials=40, noise_targets=(0.8, 1.0), object_counts=(1, 2), seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_rejects_bad_values():
    for bad in (
        dict(dim=0),
        dict(trials=0),
        dict(noise_targets=()),
        dict(noise_targets=(0.0,)),
        dict(noise_targets=(1.2,)),
        dict(noise_targets=(0.5, float("nan"))),
        dict(noise_targets=(0.5, float("inf"))),
        dict(object_counts=()),
        dict(object_counts=(10,)),
        dict(max_runs=0),
        dict(seed=-1),
        dict(codebook_sizes=(7, 10, 3)),
        dict(trials="5"),
        dict(dim=2.5),
        dict(max_runs=True),
        dict(noise_targets=0.5),
        dict(object_counts=(1, "2")),
        dict(resonator={"max_iterations": 5}),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**dict(trials=5), **bad})


def test_config_round_trip_through_dict():
    cfg = small_config(max_runs=None,
                       resonator=ResonatorConfig(max_iterations=50, activation="normalization"))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trial": 10})


def test_run_experiment_validates_before_running():
    with pytest.raises(ValueError):
        run_experiment(small_config(trials=0))


def test_experiment_is_deterministic():
    cfg = small_config()
    table_a, records_a = run_experiment(cfg)
    table_b, records_b = run_experiment(cfg)
    assert table_a == table_b
    assert records_a == records_b


def test_experiment_seed_changes_records():
    _, a = run_experiment(small_config(seed=3))
    _, b = run_experiment(small_config(seed=4))
    assert a != b


def test_summary_is_pure_fold_of_records():
    cfg = small_config()
    table, records = run_experiment(cfg)
    assert summarize(records) == table


def test_clean_single_object_accuracy_via_harness():
    cfg = ExperimentConfig(trials=200, noise_targets=(1.0,), object_counts=(1,), seed=5)
    table, records = run_experiment(cfg)
    row = [g for g in table.groups if g.k_correct == 1][0]
    assert row.trial_count == 200
    assert row.fraction >= 0.99


def test_fraction_at_least_k_is_non_increasing_in_k():
    cfg = ExperimentConfig(trials=120, noise_targets=(0.6,), object_counts=(3,), seed=9)
    table, _ = run_experiment(cfg)
    fracs = [g.fraction for g in sorted(table.groups, key=lambda g: g.k_correct)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_realized_similarity_recorded_and_clean_trials_exact():
    cfg = small_config(noise_targets=(1.0,))
    _, records = run_experiment(cfg)
    for record in records:
        assert record.realized_similarity == pytest.approx(1.0)
        assert record.noise_target == 1.0


def test_auto_max_runs_uses_vector_energy():
    cfg = ExperimentConfig(trials=60, noise_targets=(1.0,), object_counts=(2,),
                           max_runs=None, seed=6)
    _, records = run_experiment(cfg)
    assert all(record.runs_allowed == 2 for record in records)


def test_auto_max_runs_debiases_noise():
    cfg = ExperimentConfig(trials=60, noise_targets=(0.7,), object_counts=(2,),
                           max_runs=None, seed=6)
    _, records = run_experiment(cfg)
    agree = sum(record.runs_allowed == 2 for record in records)
    assert agree >= 0.8 * len(records)


def test_conditional_accuracy_single_bin_at_one():
    cfg = small_config(noise_targets=(1.0,), trials=25)
    _, records = run_experiment(cfg)
    bins = conditional_accuracy(records)
    occupied = [b for b in bins if b.trial_count]
    assert len(occupied) == 1
    assert occupied[0].bin_hi == 1.0
    assert occupied[0].trial_count == 25


def test_conditional_accuracy_populations_sum_to_records():
    cfg = small_config(noise_targets=(0.4, 0.7, 1.0), trials=30)
    _, records = run_experiment(cfg)
    bins = conditional_accuracy(records)
    assert sum(b.trial_count for b in bins) == len(records)
    for b in bins:
        assert (b.accuracy is None) == (b.trial_count == 0)


def test_summary_csv_schema_and_determinism(tmp_path):
    cfg = small_config(trials=20)
    table, records = run_experiment(cfg)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_summary_csv(table, path_a)
    write_summary_csv(run_experiment(cfg)[0], path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == ",".join(f.name for f in fields(GroupAccuracy))


def test_trials_jsonl_schema(tmp_path):
    cfg = small_config(trials=10)
    _, records = run_experiment(cfg)
    path = tmp_path / "trials.jsonl"
    write_trials_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    row = json.loads(lines[0])
    assert set(row) == {"index", "seed", "noise_target", "scene", "realized_similarity",
                        "runs_allowed", "decoded", "objects_correct", "all_correct"}
    assert set(row["scene"]["objects"][0]) == {"color", "digit", "ypos", "xpos"}


def test_accuracy_higher_at_higher_similarity():
    cfg = ExperimentConfig(trials=150, noise_targets=(0.55, 0.9), object_counts=(3,), seed=12)
    table, _ = run_experiment(cfg)
    by_target = {g.noise_target: g.fraction for g in table.groups if g.k_correct == 3}
    assert by_target[0.9] >= by_target[0.55]


def test_iteration_stats_present():
    cfg = small_config(trials=15)
    table, records = run_experiment(cfg)
    runs = sum(r.decoded.runs_executed for r in records)
    assert table.iterations.runs == runs
    assert table.iterations.max >= table.iterations.p95 >= table.iterations.median


def test_summary_of_no_records_has_zero_iteration_stats():
    table = summarize([])
    assert table.groups == ()
    assert (table.iterations.runs, table.iterations.mean, table.iterations.max) == (0, 0.0, 0)
    assert sum(b.trial_count for b in table.conditional) == 0


@pytest.mark.parametrize("bad", [
    {"trials": "5"},
    {"trials": True},
    {"trials": 5.0},
    {"dim": None},
    {"seed": False},
    {"max_runs": "3"},
    {"object_counts": "12"},
    {"object_counts": [1, True]},
    {"noise_targets": [0.5, "1.0"]},
    {"codebook_sizes": 7},
    {"resonator": {"bogus": 1}},
    {"resonator": "sign"},
    {"resonator": {"max_iterations": "200"}},
    {"resonator": {"max_iterations": True}},
    {"resonator": {"activation": 3}},
], ids=[f"bad{i}" for i in (*range(6), *range(7, 16))])  # ids stay put when a case goes
def test_config_from_dict_rejects_wrong_types(bad):
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trials": 5, **bad})


def test_config_from_dict_accepts_json_numbers_and_nulls():
    cfg = ExperimentConfig.from_dict({"noise_targets": [1, 0.5], "max_runs": None,
                                      "resonator": {"max_iterations": 50}})
    assert cfg.noise_targets == (1, 0.5)
    assert cfg.max_runs is None
    assert cfg.resonator.max_iterations == 50


def test_config_accepts_numpy_numbers_and_stores_lists_as_tuples():
    cfg = ExperimentConfig(dim=np.int64(64), trials=np.int32(2), object_counts=[1, 2],
                           noise_targets=[np.float32(0.5), 1], seed=np.uint8(4))
    assert cfg == ExperimentConfig(dim=64, trials=2, object_counts=(1, 2),
                                   noise_targets=(0.5, 1), seed=4)
    assert type(cfg.dim) is int
    json.dumps(cfg.to_dict())


def test_config_stores_numpy_max_iterations_as_int():
    cfg = ResonatorConfig(max_iterations=np.int64(5))
    assert type(cfg.max_iterations) is int and cfg.max_iterations == 5
    json.dumps(ExperimentConfig(resonator=cfg).to_dict())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 10**6),
    sizes=st.tuples(*[st.integers(2, 12)] * 4),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    trials=st.integers(1, 10**6),
    targets=st.lists(st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
                     min_size=1, max_size=4),
    max_runs=st.none() | st.integers(1, 100),
    max_iterations=st.integers(1, 10**4),
    activation=st.sampled_from(("sign", "normalization")),
    seed=st.integers(0, 2**63),
)
def test_config_json_round_trip(dim, sizes, counts, trials, targets, max_runs,
                                max_iterations, activation, seed):
    cfg = ExperimentConfig(
        dim=dim, codebook_sizes=sizes, object_counts=counts, trials=trials,
        noise_targets=targets, max_runs=max_runs,
        resonator=ResonatorConfig(max_iterations=max_iterations, activation=activation),
        seed=seed)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())
