import json

import pytest

from hdscene.cli import main, parse_targets


def write_config(tmp_path, **overrides):
    data = dict(trials=15, noise_targets=[1.0], object_counts=[1, 2], seed=3)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_parse_targets_grid_inclusive():
    targets = parse_targets("0.5:1.0:0.05")
    assert len(targets) == 11
    assert targets[0] == 0.5
    assert targets[-1] == 1.0


def test_parse_targets_comma_list():
    assert parse_targets("0.4,0.8,1.0") == (0.4, 0.8, 1.0)


def test_parse_targets_rejects_bad_specs():
    for bad in ("0.5:1.0", "1.0:0.5:0.1", "0.0,0.5", "0.5,1.5"):
        with pytest.raises(ValueError):
            parse_targets(bad)


@pytest.mark.parametrize("spec, reason", [("0.5:1:4e-7", "more than 1000000 points"),
                                          ("0.5:1:5e-324", "more than 1000000 points"),
                                          ("0.5:0.5000001:1e-11", "repeat")])
def test_parse_targets_bounds_the_grid(spec, reason):
    # the first two are sized before they are built: 1250001 points, and an inf span
    with pytest.raises(ValueError, match=reason):
        parse_targets(spec)


@pytest.mark.parametrize("targets", ["0.5:inf:0.1", "nan:1:0.1", "0.5:1:nan", "0.5:1:inf",
                                     "0:1:1e-6", "0.5:2:0.1"])
def test_sweep_rejects_a_non_finite_or_out_of_range_grid(tmp_path, capsys, targets):
    # each is rejected before the grid is built (a step of 1e-12 from 0 would
    # otherwise build 10**12 targets; 1e-6 keeps a regression cheap)
    out = tmp_path / "out"
    assert main(["sweep", "--targets", targets, "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad grid" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


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


def test_env_var_overrides_config_seed(tmp_path, monkeypatch):
    config = write_config(tmp_path, seed=3)
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("RESONATOR_SEED", "11")
    assert main(["run", "--config", str(config), "--out", str(out_env)]) == 0
    monkeypatch.delenv("RESONATOR_SEED")
    assert main(["run", "--config", str(config), "--seed", "11", "--out", str(out_flag)]) == 0
    assert (out_env / "trials.jsonl").read_bytes() == (out_flag / "trials.jsonl").read_bytes()


def test_flag_beats_env_var(tmp_path, monkeypatch):
    config = write_config(tmp_path, seed=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("RESONATOR_SEED", "99")
    assert main(["run", "--config", str(config), "--seed", "3", "--out", str(out_a)]) == 0
    monkeypatch.delenv("RESONATOR_SEED")
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "trials.jsonl").read_bytes() == (out_b / "trials.jsonl").read_bytes()


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
    config = write_config(tmp_path, trials=4, object_counts=[1])
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config), "--targets", "0.8:1.0:0.1",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "trials.jsonl").read_text().splitlines()
    targets = {json.loads(line)["noise_target"] for line in lines}
    assert targets == {0.8, 0.9, 1.0}
    assert len(lines) == 12


def test_trace_emits_per_iteration_similarity_rows(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["trace", "--objects", "2", "--seed", "3", "--out", str(out)])
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


def test_codebook_gen_and_inspect(tmp_path, capsys):
    path = tmp_path / "color.json"
    assert main(["codebook", "gen", "--label", "color", "--k", "7",
                 "--dim", "500", "--seed", "42", "--out", str(path)]) == 0
    assert path.exists()
    assert main(["codebook", "inspect", str(path)]) == 0
    output = capsys.readouterr().out
    assert "label=color" in output
    assert "k=7" in output
    assert "max |off-diagonal cosine|" in output


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("bad", [
    {"trials": "5"},
    {"trials": True},
    {"resonator": {"bogus": 1}},
    {"energy_threshold": float("nan")},
    [1, 2],
])
def test_mistyped_config_is_one_error_line(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


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


def test_sweep_is_run_without_required_targets(tmp_path):
    config = write_config(tmp_path, trials=3, object_counts=[1])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert len((out / "trials.jsonl").read_text().splitlines()) == 3


def test_codebook_inspect_of_empty_object_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["codebook", "inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "codewords" in err
    assert len(err.strip().splitlines()) == 1


def test_codebook_inspect_of_one_codeword_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"label": "x", "k": 1, "dim": 2, "codewords": [[1, -1]]}))
    assert main(["codebook", "inspect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_codebook_inspect_of_bool_codewords_is_one_error_line(tmp_path, capsys):
    # numpy reads the mixed row [true, -1] as int64
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({"label": "x", "k": 2, "dim": 2, "seed": None,
                                "codewords": [[True, -1], [1, 1]]}))
    assert main(["codebook", "inspect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "codewords entry must be int" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{dir}"],
    ["codebook", "inspect", "{dir}"],
    ["run", "--trials", "1", "--out", "{file}/x"],
    ["codebook", "gen", "--label", "x", "--k", "2", "--dim", "8", "--out", "{file}/x.json"],
])
def test_os_errors_are_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    code = main([arg.format(dir=tmp_path, file=tmp_path / "file") for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, seed_env", [
    (["run", "--trials", "1", "--out", "{dir}/out"], "abc"),
    (["trace", "--target", "0", "--dim", "8"], None),
    (["trace", "--target", "1.5", "--dim", "8"], None),
])
def test_bad_seed_env_or_trace_target_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                         argv, seed_env):
    if seed_env is not None:
        monkeypatch.setenv("RESONATOR_SEED", seed_env)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


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
def test_trace_redraws_a_scene_that_encodes_to_zero(tmp_path, capsys, seed):
    # at dim 4 these seeds draw two objects whose compounds cancel exactly
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--objects", "2", "--dim", "4", "--seed", str(seed),
                 "--target", "0.5", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("ground truth:") and "error" not in err
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert (rows[0]["run"], rows[0]["iteration"]) == (0, 0)


@pytest.mark.parametrize("command", [["run", "--config"], ["codebook", "inspect"]])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # the JSON parser raises RecursionError at this depth
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    monkeypatch.chdir(tmp_path)
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nested too deeply" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "results").exists()
