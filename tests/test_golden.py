"""Golden outputs: pinned sha256 digests of small experiments, traces and codebooks.

Any change to the decode path that alters a single output byte fails here.
Each experiment config exercises one branch of the resonator (activation) or
of the harness (count-aware run budget), so a refactor that keeps these
digests keeps the outputs of every branch.
"""

import hashlib
import json

import pytest

from hdscene.cli import main

BASE_CONFIG = {
    "dim": 1000,
    "codebook_sizes": [7, 10, 3, 3],
    "object_counts": [1, 2, 3],
    "trials": 10,
    "noise_targets": [0.6, 1.0],
    "seed": 11,
}

# name -> (config overrides, summary.csv sha256, trials.jsonl sha256)
EXPERIMENTS = {
    "default": (
        {},
        "136353f0797246f67df1419fde956669037a993b2def3d1b0f282df38699b403",
        "eb177c10ddbb990d41b44b15aee8e57dc15299c7a27c734b1a06bb00271d8795",
    ),
    "normalization": (
        {"resonator": {"activation": "normalization"}},
        "136353f0797246f67df1419fde956669037a993b2def3d1b0f282df38699b403",
        "94642d78b7839aa1686e6a1caf8318a9b771182cb96c4bdcc23215adb29cea30",
    ),
    "count-aware": (
        {"max_runs": None},
        "8cb375f671906917d8d854d5b8556223f8606412d145b0e23483511f6bebe39b",
        "9bba4c6ec9c6a7b143ae7b3008a68a28f99257d4f3b033b9abaab49eeffe254a",
    ),
}

# trace argv -> (stdout sha256, stdout line count: one row per state, all runs)
TRACES = {
    ("--objects", "2", "--seed", "3"):
        ("1f2eabdb6c6c8f9b4202f083810350b3fcf54a6eb4ee9498a3909e07f25eba50", 8),
    ("--objects", "3", "--seed", "5", "--target", "0.6"):
        ("d9a90644a92fbb638e2efabf2ea0b3a89d53d864ed7766258a6d2443edbc086b", 213),
}

# codebook gen argv -> (codebook file sha256, `codebook inspect` stdout sha256);
# the dim-2 codebook has colliding draws, so it pins the redraw loop too
CODEBOOKS = {
    ("--label", "color", "--k", "7", "--dim", "500", "--seed", "42"): (
        "bcf126c2c81c6604bd3a7e11910c42655ca3592bca66409c1ab45e8f4508992a",
        "e38f82a28838ddfcfdd0bad7f9f2f3b3f7a09d4aa077f174fd1ca146277aab36",
    ),
    ("--label", "digit", "--k", "10", "--dim", "1000", "--seed", "0"): (
        "e434206b6f1fd2df96f21fba2115f07b2a73e68372c806290959269a8d49fa6e",
        "a12157b506a6c14fd3e379d53a5198dc48532013938b74037d766cf6fe5444cd",
    ),
    ("--label", "x", "--k", "3", "--dim", "2", "--seed", "5"): (
        "cf0c4c2a39b67e5f5e76f2ae187158e638f43cf4b9599f95562bd32a524d180a",
        "1e86d840d5f0bd82e1635c98b8c4aed9eb921243a40f698492f195be4e376348",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_outputs_match_pinned_digests(name, tmp_path, capsys):
    overrides, summary_digest, trials_digest = EXPERIMENTS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, **overrides}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256((out / "summary.csv").read_bytes()) == summary_digest
    assert sha256((out / "trials.jsonl").read_bytes()) == trials_digest


@pytest.mark.parametrize("argv", sorted(TRACES))
def test_trace_stdout_matches_pinned_digest(argv, capsys):
    digest, line_count = TRACES[argv]
    assert main(["trace", *argv]) == 0
    stdout = capsys.readouterr().out
    assert len(stdout.splitlines()) == line_count
    assert sha256(stdout.encode()) == digest


@pytest.mark.parametrize("argv", sorted(CODEBOOKS))
def test_codebook_file_and_inspect_match_pinned_digests(argv, tmp_path, capsys):
    file_digest, inspect_digest = CODEBOOKS[argv]
    path = tmp_path / "codebook.json"
    assert main(["codebook", "gen", *argv, "--out", str(path)]) == 0
    capsys.readouterr()
    assert sha256(path.read_bytes()) == file_digest
    assert main(["codebook", "inspect", str(path)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == inspect_digest
