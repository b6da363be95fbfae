"""Every demo prints exactly what it printed when its digest was pinned.

Each demo runs in-process with its stdout captured. Demo 04 sweeps 300
trials per noise target, about a minute, so here its ``run_experiment`` runs
4 trials per target of the same config. A digest changes only with an
intended change to a demo's output.
"""

import contextlib
import dataclasses
import hashlib
import io
import runpy
from pathlib import Path

import pytest

import hdscene

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_hypervector_algebra.py":
        "ee4937ae680e8d991f04085a64ccedd1e252f7f5906967fa42cd0f467f4e7ca9",
    "02_factor_one_object.py":
        "369e4e199683756ed437cc1d0532bbcfb564f83c8afef266fe1e5af65a3c9524",
    "03_explain_away_scene.py":
        "c217c546ffbf0d1776554ead7302b6e94e047fd0351dc9c504e94400cdc75ca9",
    "04_accuracy_vs_similarity.py":
        "b9786735dbde99a9c63dffbed244eba2a7d9fecfa010e4ca159a64c29e6d5efc",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name, monkeypatch):
    run_experiment = hdscene.run_experiment
    monkeypatch.setattr(hdscene, "run_experiment",
                        lambda cfg: run_experiment(dataclasses.replace(cfg, trials=4)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
