import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdscene import harness
from hdscene.cli import build_parser, main
from hdscene.scene import random_scene


def write_config(tmp_path, **overrides):
    data = dict(trials=15, noise_targets=[1.0], object_counts=[1, 2], seed=3)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("target", [pytest.param(1e-300, id="1e-300"),
                                    pytest.param(1e-160, id="1e-160")])
def test_run_at_a_target_too_small_to_calibrate_is_one_error_line(tmp_path, capsys, target):
    # the noise overflows, or the target's square underflows to 0
    config = write_config(tmp_path, trials=1, noise_targets=[target])
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert len(err.strip().splitlines()) == 1


def test_run_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "trials.jsonl").exists()
    assert (out / "conditional.csv").exists()
    stdout = capsys.readouterr().out
    assert "fraction" in stdout
    lines = (out / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 15


def test_run_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    assert (out_a / "trials.jsonl").read_bytes() == (out_b / "trials.jsonl").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, seed=3)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["run", "--config", str(config), "--out", str(out_a)])
    main(["run", "--config", str(config), "--seed", "4", "--out", str(out_b)])
    main(["run", "--config", str(config), "--seed", "3", "--out", str(out_c)])
    assert (out_a / "trials.jsonl").read_bytes() != (out_b / "trials.jsonl").read_bytes()
    assert (out_a / "trials.jsonl").read_bytes() == (out_c / "trials.jsonl").read_bytes()


def test_seed_env_var_changes_no_output(tmp_path, monkeypatch):
    # no environment variable reaches the seed: only --seed replaces the config's
    config = write_config(tmp_path, seed=3)
    out_env, out_plain = tmp_path / "env", tmp_path / "plain"
    monkeypatch.setenv("RESONATOR_SEED", "11")
    assert main(["run", "--config", str(config), "--out", str(out_env)]) == 0
    monkeypatch.delenv("RESONATOR_SEED")
    assert main(["run", "--config", str(config), "--out", str(out_plain)]) == 0
    for name in ("summary.csv", "conditional.csv", "trials.jsonl"):
        assert (out_env / name).read_bytes() == (out_plain / name).read_bytes()


def test_bad_config_exits_nonzero_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trials": 0}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trial_count": 10}))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_sweep_runs_target_grid(tmp_path):
    # a noise sweep is a run whose config lists several targets
    config = write_config(tmp_path, trials=4, object_counts=[1], noise_targets=[0.8, 0.9, 1.0])
    out = tmp_path / "sweep"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = (out / "trials.jsonl").read_text().splitlines()
    targets = {json.loads(line)["noise_target"] for line in lines}
    assert targets == {0.8, 0.9, 1.0}
    assert len(lines) == 12


def test_trace_emits_per_iteration_similarity_rows(tmp_path):
    config = write_config(tmp_path, object_counts=[2])
    out = tmp_path / "trace.jsonl"
    code = main(["trace", "--config", str(config), "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) >= 2
    for row in rows:
        assert set(row) == {"run", "iteration", "color", "digit", "ypos", "xpos"}
        assert len(row["color"]) == 7
        assert len(row["digit"]) == 10
        assert len(row["ypos"]) == 3
        assert len(row["xpos"]) == 3
    assert rows[0]["run"] == 0
    assert rows[0]["iteration"] == 0


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["frobnicate"], id="argv0"),
    pytest.param(["codebook", "gen", "--label", "x", "--k", "2", "--out", "x.json"], id="argv1"),
    pytest.param(["sweep", "--out", "x"], id="sweep"),
    pytest.param(["run", "--trials", "1", "--out", "x"], id="trials"),
    pytest.param(["run", "--targets", "0.5,1", "--out", "x"], id="targets"),
    pytest.param(["trace", "--objects", "2", "--out", "x"], id="trace-objects"),
    pytest.param(["trace", "--dim", "8", "--out", "x"], id="trace-dim"),
])
def test_unknown_subcommand_is_usage_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, extra", [pytest.param("run", (), id="run"),
                                            pytest.param("trace", ("--trial",), id="trace")])
def test_run_takes_only_config_seed_and_out(command, extra):
    # trace takes run's options plus the index of the record it replays
    sub = next(action for action in build_parser()._actions if action.dest == "command")
    assert sorted(sub.choices) == ["run", "trace"]
    options = {option for action in sub.choices[command]._actions
               for option in action.option_strings}
    assert options == {"-h", "--help", "--config", "--seed", "--out", *extra}


def test_module_help_lists_only_run_and_trace():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-m", "hdscene", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "{run,trace}" in result.stdout
    assert "sweep" not in result.stdout and "codebook" not in result.stdout


@pytest.mark.parametrize("bad", [
    {"trials": "5"},
    {"trials": True},
    {"resonator": {"bogus": 1}},
    pytest.param([1, 2], id="bad4"),
])
def test_mistyped_config_is_one_error_line(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    # --seed is applied to the checked config, so it cannot turn a bad one into a traceback
    for seed in ([], ["--seed", "3"]):
        assert main(["run", "--config", str(path), *seed, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [
    pytest.param({"resonator": [0] * 200000}, id="resonator-list"),
    pytest.param({"trials": [0] * 200000}, id="scalar-list"),
    pytest.param({"noise_targets": [2.0] * 200000}, id="targets"),
    pytest.param({"object_counts": [0] * 200000}, id="object-counts"),
    pytest.param({"codebook_sizes": [7] * 200000}, id="codebook-sizes"),
    pytest.param({"noise_targets": {"x": 1}}, id="targets-object"),
    pytest.param({"dim": -10**4000}, id="huge-int"),
    pytest.param({"x" * 200000: 1}, id="unknown-key"),
    pytest.param({"resonator": {"activation": "x" * 200000}}, id="activation"),
    pytest.param("x" * 200000, id="not-an-object"),
])
def test_a_long_config_value_is_one_short_error_line(tmp_path, capsys, bad):
    # a value is echoed shortened, however long (resonator-list whole would be 600 kB)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 300


@pytest.mark.parametrize("key, value", [("synchronous", False),
                                        ("init_mode", "bundled-codewords")])
def test_removed_resonator_keys_are_unknown_keys(tmp_path, capsys, key, value):
    # keys that earlier versions took, at the values they defaulted to
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"resonator": {key: value}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown resonator config keys: [{key!r}]\n"
    assert not (tmp_path / "out").exists()


def test_removed_energy_threshold_is_an_unknown_key(tmp_path, capsys):
    # the explain-away stop is fixed at 0.5 * dim, so a config that sets one is refused
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"energy_threshold": None}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config keys: ['energy_threshold']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--config", "{dir}"], id="argv0"),
    pytest.param(["run", "--config", "{config}", "--out", "{file}/x"], id="argv2"),
])
def test_os_errors_are_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    config = write_config(tmp_path, trials=1, object_counts=[1])
    code = main([arg.format(dir=tmp_path, file=tmp_path / "file", config=config) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, entry", [("run", "run_experiment"), ("trace", "trace_trial")])
@pytest.mark.parametrize("error, line", [
    pytest.param(MemoryError("Unable to allocate 50.9 TiB for an array with shape "
                             "(7, 1000000000000) and data type int64"),
                 "error: Unable to allocate 50.9 TiB for an array with shape "
                 "(7, 1000000000000) and data type int64\n", id="numpy"),
    pytest.param(MemoryError(), "error: MemoryError\n", id="bare"),
])
def test_an_allocation_failure_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                  command, entry, error, line):
    # a huge dim such as 10**12 fails to allocate its codebooks; raised here, nothing is allocated
    def fail(*args):
        raise error

    monkeypatch.setattr(f"hdscene.cli.{entry}", fail)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, dim=10**12)),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    assert not out.exists()


@pytest.mark.parametrize("target", [pytest.param(0, id="argv1-None"),
                                    pytest.param(1.5, id="argv2-None")])
def test_bad_seed_env_or_trace_target_is_one_error_line(tmp_path, capsys, target):
    # trace's target comes from the config, which checks it as it does for run
    config = write_config(tmp_path, dim=8, noise_targets=[target])
    assert main(["trace", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: noise_targets must be in (0, 1], got {target}\n"
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("trial", [-1, 15])
def test_trace_of_a_record_the_run_lacks_is_one_error_line(tmp_path, capsys, trial):
    config = write_config(tmp_path)  # 15 trials at one target: records 0-14
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--config", str(config), "--trial", str(trial),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trial index must be in [0, 15), got {trial}\n"
    assert not out.exists()


@pytest.mark.parametrize("target", [0.5, 1.0])
def test_run_redraws_scenes_that_encode_to_zero(tmp_path, capsys, target):
    # at dim 8 some two-object scenes cancel exactly; both targets used to abort
    config = write_config(tmp_path, dim=8, codebook_sizes=[5, 2, 2, 3], object_counts=[2],
                          trials=200, noise_targets=[target], seed=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    records = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert len(records) == 200
    assert all(len(record["scene"]["objects"]) == 2 for record in records)


@pytest.mark.parametrize("seed", [0, 19])
def test_trace_redraws_a_scene_that_encodes_to_zero(tmp_path, capsys, monkeypatch, seed):
    # at dim 4 record 0 of these seeds draws two objects whose compounds cancel exactly
    draws = []

    def counted_random_scene(*args, **kwargs):
        draws.append(random_scene(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(harness, "random_scene", counted_random_scene)
    config = write_config(tmp_path, dim=4, object_counts=[2], noise_targets=[0.5], seed=seed)
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--config", str(config), "--out", str(out)]) == 0
    assert len(draws) > 1
    err = capsys.readouterr().err
    assert err.startswith("ground truth:") and "error" not in err
    assert json.dumps(draws[-1].to_dict(), separators=(",", ":")) in err
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert (rows[0]["run"], rows[0]["iteration"]) == (0, 0)


def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the JSON parser raises RecursionError at this depth
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nested too deeply" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "results").exists()
