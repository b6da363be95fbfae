"""Tests of the benchmark's own arithmetic and checks.

Run with: python -m pytest benchmarks
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hdscene  # noqa: E402
from spans import Tracer, patched, samples_needed, self_times, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    GROUPED, OnlineWorkload, SweepWorkload, check_sweep_outputs, cleanup_cost,
    digest_mismatches, output_digests, trace_points,
)


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > leaf [2, 3]; root > b [6, 9]
    parent = np.array([-1, 0, 1, 0])
    total = np.array([10.0, 4.0, 1.0, 3.0])
    assert self_times(parent, total).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_tracer_nested_and_grouped_spans():
    tracer = Tracer(grouped={"step"}, clock=fake_clock([0, 1, 2, 3, 5, 6, 7, 8, 9, 10]))
    with tracer.span("run"):            # 0 .. 10
        with tracer.span("step"):       # 1 .. 5, holding cleanup 2 .. 3
            with tracer.span("cleanup"):
                pass
        with tracer.span("step"):       # 6 .. 9, holding cleanup 7 .. 8
            with tracer.span("cleanup"):
                pass
    table = tracer.layer_table()
    assert len(tracer.name) == 4        # run, one step group, two cleanups
    assert table["run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["step"] == {"calls": 2, "total_s": 7.0, "self_s": 5.0}
    assert table["cleanup"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert tracer.counts == {"run": 1, "step": 2, "cleanup": 2}


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_needed(99) == 1000
    assert samples_needed(50) == 20
    values = np.arange(1000.0)
    p99 = tail_percentile(values, 99)
    assert np.count_nonzero(values > p99) >= 10
    with pytest.raises(ValueError):
        tail_percentile(np.arange(900.0), 99)
    assert tail_percentile([0.0] * 990 + [1.0] * 10, 99) < 1.0
    with pytest.raises(ValueError):
        tail_percentile([0.0] * 995 + [1.0] * 5, 99)


def test_perturbed_output_fails_golden_and_consistency_checks(tmp_path):
    workload = SweepWorkload("tiny", (0.9, 1.0), 3, tmp_path)
    unit = workload.run_unit(5, 0)
    assert unit.errors == [] and unit.trials == 6
    assert digest_mismatches(workload.run_unit(5, 0).digests, unit.digests) == []

    out = tmp_path / "tiny"
    summary = (out / "summary.csv").read_bytes()
    original = (out / "trials.jsonl").read_bytes()
    perturbed = original.replace(b'"objects_correct":', b'"objects_correct":1', 1)
    assert perturbed != original
    (out / "trials.jsonl").write_bytes(perturbed)
    assert digest_mismatches(output_digests(out), unit.digests) == [
        f"trials.jsonl: sha256 {output_digests(out)['trials.jsonl']} differs from the "
        f"pinned {unit.digests['trials.jsonl']}"]
    assert check_sweep_outputs(summary, perturbed, (0.9, 1.0), 3, 3)[1]
    assert check_sweep_outputs(summary, original, (0.9, 1.0), 3, 3)[1] == []


def test_tracing_changes_no_output_and_counts_repeat():
    workload = OnlineWorkload()
    workload.cells = workload.cells[:8]
    workload.prepare(3)
    plain = workload.run_unit(3, 0)
    snapshots = []
    for _ in range(2):
        tracer = Tracer(GROUPED)
        with patched(trace_points(tracer)):
            traced = workload.run_unit(3, 0, tracer)
        assert traced.digests == plain.digests and traced.errors == []
        snapshots.append(tracer.snapshot())
        assert tracer.counts["decoder.decode_scene"] == 8
        assert tracer.counts["codebook.cleanup"] == 4 * tracer.counts["resonator.step"]
    assert snapshots[0] == snapshots[1]
    assert hdscene.decode_scene is hdscene.decoder.decode_scene   # restored on exit


def test_cleanup_cost_float_path_pays_for_the_cast():
    int_ops, int_bytes = cleanup_cost(10, 1000, np.int64, np.int64)
    float_ops, float_bytes = cleanup_cost(10, 1000, np.float64, np.int64)
    assert int_ops == float_ops == 4 * 10 * 1000
    assert float_bytes - int_bytes == 2 * 2 * 10 * 1000 * 8
