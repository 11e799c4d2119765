"""The package namespace (what `from sgc import *` exports) and its sources."""

import ast
import importlib
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import sgc

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("arith", "core", "solver", "certificates", "indicators", "constructions", "io_cli")

# The public names, in order; a change here is a change to the package's API.
PUBLIC = [
    "EvenRational", "antipode", "candidates", "circ_dist", "normalize_even",
    "CapacityError", "Edge", "Sign", "SignedGraph", "StructuralMismatchError",
    "UncolorableError", "degeneracy", "girth_types", "is_balanced", "switch",
    "switching_equivalent",
    "BudgetExhausted", "ChiResult", "ChiUndecided", "Coloring", "Pin", "SolveBudget",
    "chi_c", "chi_plus", "chi_s", "circular_to_zero_free", "feasible_pq", "verify_coloring",
    "zero_free_to_circular",
    "CorruptCertificateError", "NotRefinableError", "RationalColoring",
    "TightCycleCertificate", "TightDigraph", "cert_value", "find_tight_cycle", "refine",
    "tight_digraph", "verify_rational",
    "Indicator", "ShapeError", "ZSet", "predict_scaled_chi", "replace_edges", "z_set",
    "GadgetEmbedding", "big_gamma", "circular_clique_signed", "gadget_interior_colors",
    "gamma", "gamma_prime", "hat_clique", "k4_omega", "k4_omega_coloring", "mini_gadget",
    "omega_d", "outerplanar_F", "positive_clique", "signed_cycle", "spal5", "wenger",
    "wenger_coloring", "wenger_tilde", "wenger_tilde_coloring", "wenger_tilde_detail",
    "ParseError", "parse_coloring", "parse_sg", "render_coloring", "render_sg",
]


def test_public_names_are_pinned():
    assert sgc.__all__ == PUBLIC


def test_each_module_lists_only_what_it_defines():
    for name in MODULES:
        module = importlib.import_module(f"sgc.{name}")
        assert module.__all__, name
        for attr in module.__all__:
            assert getattr(module, attr).__module__ == module.__name__, (name, attr)


def test_package_list_is_the_module_lists_in_order():
    assert sgc.__all__ == [attr for name in MODULES
                           for attr in importlib.import_module(f"sgc.{name}").__all__]


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


def test_readme_python_blocks_run():
    # Each python block of the README runs in a fresh namespace; the
    # Library example's values are the ones its comments state.
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    spaces = []
    for block in blocks:
        spaces.append({})
        exec(compile(block, "README.md", "exec"), spaces[-1])
    ns = spaces[0]
    assert ns["res"].value == Fraction(8, 3)
    assert sgc.verify_coloring(ns["g"], ns["res"].witness) is True
    assert sgc.cert_value(ns["g"], ns["rc"], ns["cycle"]).r == Fraction(8, 3)


def test_readme_file_format_blocks_parse():
    # The graph and coloring examples of the README's File formats section
    # parse as they stand, and the coloring colors the graph.
    text = (ROOT / "README.md").read_text()
    section = text.split("### File formats", 1)[1].split("\n## ", 1)[0]
    graph, coloring = re.findall(r"^```\n(.*?)^```", section, re.M | re.S)
    g = sgc.parse_sg(graph)
    assert (g.n, g.m) == (4, 2)
    assert sgc.verify_coloring(g, sgc.parse_coloring(coloring, g.n)) is True
