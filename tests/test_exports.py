import ast
import importlib
import re

import pytest

from helpers import REPO_ROOT

ENGINE = REPO_ROOT / "src" / "hopfcirc" / "engine.py"

#: the code the engine is checked against: it must not reach the engine
REFERENCES = ["src/hopfcirc/circuit.py", "src/hopfcirc/tensor.py", "tests/helpers.py"]


@pytest.mark.parametrize("module", ["tensor", "algebra", "circuit", "engine", "dsl", "cli"])
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


def engine_names() -> set[str]:
    """The names engine.py defines at its top level, dunders aside."""
    names = set()
    for node in ast.parse(ENGINE.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("__")}


def test_references_import_no_engine_code():
    # every import statement, inside functions and TYPE_CHECKING blocks too
    defined = engine_names()
    assert {"run", "evaluate", "circuit_is_unitary", "_build_plan", "_push"} <= defined
    for path in REFERENCES:
        for node in ast.walk(ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                modules = [module] + [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
                assert not defined & {alias.name for alias in node.names}, (path, node.lineno)
            else:
                continue
            assert not [m for m in modules if m.split(".")[-1] == "engine"], (path, node.lineno)


def test_circuit_binds_no_engine_name():
    circuit = importlib.import_module("hopfcirc.circuit")
    assert sorted(name for name in engine_names() if hasattr(circuit, name)) == []


def test_readme_quick_start_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
