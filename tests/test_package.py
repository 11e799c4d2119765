"""The package namespace: what `from sgc import *` exports."""

import ast
import sys
import types
from pathlib import Path

import sgc


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
