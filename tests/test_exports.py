"""Each public name is declared once, in its module's ``__all__``, and the package exports it;
every ``hdscene.<name>`` that README.md or a demo writes exists."""

import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hdscene

MODULES = ("ops", "codebook", "scene", "resonator", "decoder", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"hdscene.{name}")
    defined = {key for key, value in vars(module).items()
               if not key.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__ == module.__name__}
    assert defined - set(module.__all__) == set()
    for key in module.__all__:
        assert getattr(hdscene, key) is getattr(module, key)
        assert key in hdscene.__all__


def test_package_exports_hold_no_duplicates():
    assert len(hdscene.__all__) == len(set(hdscene.__all__))


ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_every_dotted_name_in_the_docs_resolves(path):
    importlib.import_module("hdscene.cli")  # the one submodule the package does not import
    for dotted in re.findall(r"\bhdscene((?:\.[A-Za-z_]\w*)+)", path.read_text()):
        functools.reduce(getattr, dotted.split(".")[1:], hdscene)  # AttributeError if stale
