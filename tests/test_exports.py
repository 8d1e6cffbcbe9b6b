import ast
import importlib

import pytest

from helpers import REPO_ROOT


@pytest.mark.parametrize("module", ["tensor", "algebra", "circuit", "dsl", "cli"])
def test_every_listed_name_exists(module):
    # the benchmark's tracer looks up every __all__ name with getattr
    mod = importlib.import_module(f"hopfcirc.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse((REPO_ROOT / "src" / "hopfcirc" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"hopfcirc.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__ and hasattr(mod, alias.name), (node.module, alias.name)
