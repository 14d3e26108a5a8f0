"""The package namespace: how ``estlab.__all__`` is assembled, and the
documented quickstart that uses it."""

import ast
import inspect
import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

import estlab
from estlab import cli, errors, estimators, population, simulation, theory

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


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert block, f"README's {heading} has no {language} block"
    return block.group(1)


def test_readme_quickstart_runs():
    code = _readme_block("Library quickstart", "python")
    exec(compile(code, "README.md#library-quickstart", "exec"), {})


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pop.csv").write_text("y,phi\n1.5,0\n2.25,1\n3,0\n4.5,1\n5,1\n6.75,0\n", encoding="utf-8")
    commands = [shlex.split(line, comments=True) for line in _readme_block("Command line", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "estlab" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        envelope = json.loads(capsys.readouterr().out)
        assert list(envelope) == ["command", "inputs", "results", "warnings"], argv
