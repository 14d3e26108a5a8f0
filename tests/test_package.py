"""The package namespace: how ``estlab.__all__`` is assembled, and the
documented quickstart that uses it."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import estlab
from estlab import errors, estimators, population, simulation, theory

MODULES = (errors, estimators, population, simulation, theory)


def _top_level_definitions(module) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_only_its_own_definitions(module):
    imported = set(module.__all__) - _top_level_definitions(module)
    assert not imported, f"{module.__name__} exports names it does not define: {sorted(imported)}"


def test_no_name_is_exported_twice():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_package_names_resolve_to_their_defining_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(estlab, name) is getattr(module, name), name
    assert sorted(estlab.__all__) == sorted(n for m in MODULES for n in m.__all__)


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README's Library quickstart has no python block"
    exec(compile(block.group(1), "README.md#library-quickstart", "exec"), {})
