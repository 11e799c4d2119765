"""The package namespace (what `from sgc import *` exports) and its sources."""

import ast
import sys
import types
from pathlib import Path

import sgc

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_and_are_not_submodules():
    assert len(set(sgc.__all__)) == len(sgc.__all__)
    for name in sgc.__all__:
        assert not isinstance(getattr(sgc, name), types.ModuleType), name


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(sgc.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; this checks syntax only.
    sources = sorted(Path(sgc.__file__).parent.glob("*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert len(sources) > 1
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_sources_hold_no_assert_statement():
    # python -O strips assert statements, so a check the package relies on
    # must raise explicitly.
    sources = sorted(Path(sgc.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)
