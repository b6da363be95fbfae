"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `CRITERION n: PASS/FAIL` line (visible with `pytest -s`)
and asserts the same condition, so the suite both documents and enforces the
bars. The noise sweep and the conditional-accuracy experiment are
session-scoped fixtures because they dominate the runtime.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import hdscene as hd
from hdscene.harness import (
    ExperimentConfig,
    run_experiment,
    summarize,
    write_summary_csv,
)
from hdscene.resonator import ResonatorConfig, ResonatorState, step

N = 1000
PAPER_SIZES = (7, 10, 3, 3)

# end-to-end all-correct figures reported for the full noisy system; the sweep
# must degrade below them as similarity drops
REPORTED_SYSTEM_ACCURACY = {1: 0.90, 2: 0.80, 3: 0.50}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def noise_sweep():
    """All-correct fraction per object count across noise targets, 1000 trials each."""
    results = {}
    for count in (1, 2, 3):
        cfg = ExperimentConfig(trials=1000, noise_targets=(0.3, 0.6, 0.9),
                               object_counts=(count,), max_runs=3, seed=20 + count)
        table, _ = run_experiment(cfg)
        results[count] = {g.noise_target: g.fraction
                          for g in table.groups if g.k_correct == count}
    return results


@pytest.fixture(scope="session")
def conditional_records():
    """Single-object trials spanning the accuracy transition plus a clean anchor."""
    cfg = ExperimentConfig(trials=400, noise_targets=(0.35, 0.45, 0.55, 1.0),
                           object_counts=(1,), max_runs=3, seed=31)
    _, records = run_experiment(cfg)
    return records


def test_criterion_1_clean_single_object_factorization(cbs):
    trials = 1000
    hits = 0
    started = time.perf_counter()
    for i in range(trials):
        rng = np.random.default_rng(10_000 + i)
        scene = hd.random_scene(1, rng)
        s = hd.encode_scene(cbs, scene)
        estimate, _ = hd.run(s, cbs)
        hits += estimate.indices == scene.objects[0].as_tuple()
    elapsed = time.perf_counter() - started
    accuracy = hits / trials
    ok = accuracy >= 0.99 and elapsed < 10.0
    report(1, ok, f"single-object accuracy {accuracy:.4f} (>=0.99) in {elapsed:.2f}s (<10s)")
    assert accuracy >= 0.99
    assert elapsed < 10.0


def test_criterion_2_multi_object_ceiling_and_noise_sweep(noise_sweep):
    ceilings = {}
    for count in (1, 2, 3):
        cfg = ExperimentConfig(trials=1000, noise_targets=(1.0,), object_counts=(count,),
                               max_runs=count, seed=40 + count)
        table, _ = run_experiment(cfg)
        ceilings[count] = [g.fraction for g in table.groups if g.k_correct == count][0]

    clean_ok = all(ceilings[count] >= 0.95 for count in (1, 2, 3))
    monotone_ok = all(
        noise_sweep[count][0.9] >= noise_sweep[count][0.6] >= noise_sweep[count][0.3]
        for count in (1, 2, 3)
    )
    below_ok = all(
        noise_sweep[count][0.3] < REPORTED_SYSTEM_ACCURACY[count] for count in (1, 2, 3)
    )
    detail = (
        f"clean ceilings {ceilings[1]:.3f}/{ceilings[2]:.3f}/{ceilings[3]:.3f} (>=0.95); "
        f"sweep at 0.3/0.6/0.9: "
        + "; ".join(
            f"L={c}: {noise_sweep[c][0.3]:.3f}/{noise_sweep[c][0.6]:.3f}/{noise_sweep[c][0.9]:.3f}"
            for c in (1, 2, 3))
        + "; degrades monotonically and below reported system accuracy at 0.3"
    )
    ok = clean_ok and monotone_ok and below_ok
    report(2, ok, detail)
    assert clean_ok
    assert monotone_ok
    assert below_ok


def test_criterion_3_four_object_capability():
    cfg = ExperimentConfig(trials=500, noise_targets=(1.0,), object_counts=(4,),
                           max_runs=4, seed=44)
    table, _ = run_experiment(cfg)
    fraction = [g.fraction for g in table.groups if g.k_correct == 4][0]
    ok = fraction > 0.5
    report(3, ok, f"clean 4-object all-correct {fraction:.4f} (majority of 500 trials)")
    assert fraction > 0.5


def test_criterion_4_conditional_accuracy_monotone(conditional_records):
    bins = summarize(conditional_records).conditional
    qualified = [b for b in bins if b.trial_count >= 30]
    accuracies = [b.accuracy for b in qualified]
    ok = all(a <= b for a, b in zip(accuracies, accuracies[1:]))
    detail = "binned accuracy " + " -> ".join(
        f"[{b.bin_lo:.2f},{b.bin_hi:.2f})={b.accuracy:.3f}(n={b.trial_count})" for b in qualified)
    report(4, ok, detail + " non-decreasing over bins with >=30 samples")
    assert ok


def test_criterion_5_algebraic_invariants(cbs):
    rng = np.random.default_rng(555)
    exact = True
    for _ in range(50):
        a, b, c = (hd.random_bipolar(N, rng) for _ in range(3))
        exact &= np.array_equal(hd.bind(a, b), hd.bind(b, a))
        exact &= np.array_equal(hd.bind(hd.bind(a, b), c), hd.bind(a, hd.bind(b, c)))
        exact &= np.array_equal(hd.bind(hd.bind(a, b), b), a)
        exact &= np.array_equal(hd.bind(hd.bundle([a, b]), c),
                                hd.bundle([hd.bind(a, c), hd.bind(b, c)]))
        exact &= np.array_equal(hd.sign(hd.sign(a + b)), hd.sign(a + b))
    # exact explain-away cancellation, all subtraction orders
    for count in (1, 2, 3, 4):
        scene = hd.random_scene(count, rng)
        s = hd.encode_scene(cbs, scene)
        for order in itertools.permutations(range(count)):
            residual = s
            for i in order:
                residual = residual - hd.encode_object(cbs, scene.objects[i])
            exact &= np.array_equal(residual, np.zeros(N, dtype=np.int64))
    report(5, exact, "binding/bundling/sign/explain-away identities hold exactly "
                     "in integer arithmetic")
    assert exact


def test_criterion_6_brute_force_oracle_equivalence(cbs):
    combos = list(itertools.product(range(7), range(10), range(3), range(3)))
    assert len(combos) == 630
    compounds = np.stack([
        cbs.books[0].codewords[c] * cbs.books[1].codewords[d]
        * cbs.books[2].codewords[y] * cbs.books[3].codewords[x]
        for c, d, y, x in combos
    ])
    agree = 0
    trials = 200
    for i in range(trials):
        rng = np.random.default_rng(50_000 + i)
        scene = hd.random_scene(1, rng)
        s = hd.encode_scene(cbs, scene)
        oracle = combos[int(np.argmax(compounds @ s))]
        estimate, _ = hd.run(s, cbs)
        agree += estimate.indices == oracle
    rate = agree / trials
    ok = rate >= 0.99
    report(6, ok, f"resonator matches exhaustive nearest-neighbor on {rate:.4f} "
                  f"of {trials} clean scenes (>=0.99)")
    assert rate >= 0.99


def test_criterion_7_ground_truth_fixed_point(cbs):
    # the synchronous step is computed here: each module is cleaned up from the
    # other ground-truth factors. The library's sequential `step` must leave
    # exactly the same trials unchanged, since update order cannot matter when
    # every module reproduces itself.
    cfg = ResonatorConfig()
    unchanged = 0
    trials = 1000
    for i in range(trials):
        rng = np.random.default_rng(60_000 + i)
        obj = hd.random_scene(1, rng).objects[0]
        s = hd.encode_object(cbs, obj)
        truth = (
            cbs.books[0].codewords[obj.color],
            cbs.books[1].codewords[obj.digit],
            cbs.books[2].codewords[obj.ypos],
            cbs.books[3].codewords[obj.xpos],
        )
        synchronous = [
            hd.cleanup(cb, functools.reduce(np.multiply,
                                            (v for j, v in enumerate(truth) if j != m), s), "sign")
            for m, cb in enumerate(cbs.books)]
        fixed = all(np.array_equal(a, b) for a, b in zip(truth, synchronous))
        sequential = step(s, ResonatorState(truth), cbs, cfg)
        assert fixed == all(np.array_equal(a, b) for a, b in zip(truth, sequential.estimates))
        unchanged += fixed
    rate = unchanged / trials
    ok = rate >= 0.999
    report(7, ok, f"one synchronous step leaves ground-truth state unchanged in "
                  f"{rate:.4f} of {trials} trials (>=0.999)")
    assert rate >= 0.999


def test_criterion_8_byte_identical_summaries(tmp_path):
    cfg = ExperimentConfig(trials=60, noise_targets=(0.8, 1.0), object_counts=(1, 2), seed=8)
    table_a, _ = run_experiment(cfg)
    table_b, _ = run_experiment(cfg)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_summary_csv(table_a, path_a)
    write_summary_csv(table_b, path_b)
    ok = path_a.read_bytes() == path_b.read_bytes()
    report(8, ok, "two executions with identical config and master seed wrote "
                  "byte-identical summary.csv")
    assert ok
