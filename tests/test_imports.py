"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdscene"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == set()


def test_an_unused_import_is_found():
    assert unused_imports("import reprlib\nimport numpy as np\nfrom os import path, sep\n"
                          "np.zeros(sep)\n") == {"reprlib", "path"}
