"""Source hygiene: no module imports a name it never uses, every private
module-level function is referenced somewhere else in the package, and every
public one (function or class) somewhere in the package, the tests or the
benchmark harness; ``import pspurity``, ``pspurity fuzz`` and the fig1a and
fig1b sweeps load no SciPy."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pspurity

MODULES = sorted(
    p for p in Path(pspurity.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(tree) -> Counter:
    """Occurrences of each name as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced(definitions: dict, users: dict, select) -> list[str]:
    """Module-level definitions of ``definitions`` picked by ``select`` that
    no source in either dict references outside their own body."""
    trees = {name: ast.parse(text) for name, text in definitions.items()}
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    total += sum((referenced_names(ast.parse(text)) for text in users.values()), Counter())
    return [f"{module}:{node.name}"
            for module, tree in trees.items() for node in tree.body
            if select(node) and total[node.name] == referenced_names(node)[node.name]]


def unreferenced_private_functions(sources: dict) -> list[str]:
    """Module-level ``_name`` functions that nothing outside their own body uses."""
    return unreferenced(sources, {}, lambda node: (
        isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")))


def unreferenced_public_names(sources: dict, users: dict) -> list[str]:
    """Public module-level functions and classes of ``sources`` that neither
    the package nor ``users`` reference outside their own body."""
    return unreferenced(sources, users, lambda node: (
        isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")))


def test_private_functions_are_referenced():
    package = Path(pspurity.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_function_detected():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    _recursive()\n",
        "b.py": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    assert unreferenced_private_functions(sources) == ["a.py:_recursive"]


def test_public_names_are_referenced():
    """Every public function and class has a use besides its package export:
    in the package, the tests or the benchmark harness."""
    root = Path(__file__).resolve().parent.parent
    sources = {p.name: p.read_text() for p in MODULES}
    users = {str(p): p.read_text()
             for folder in ("tests", "perfbench") for p in sorted((root / folder).rglob("*.py"))}
    assert unreferenced_public_names(sources, users) == []


def test_unreferenced_public_name_detected():
    sources = {
        "a.py": "class Used:\n    pass\n\ndef exported():\n    return exported\n",
        "b.py": "from .a import Used\n\ndef helper():\n    return Used()\n",
    }
    users = {"test_b.py": "from pkg.b import helper\n\nhelper()\n"}
    assert unreferenced_public_names(sources, users) == ["a.py:exported"]


def package_imports(source: str) -> set[str]:
    """Package modules (or names of the package root) a module imports,
    relatively or as ``pspurity``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "pspurity":
                    continue
                path = path[1:]
            found.update([path[0]] if path and path[0] else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("pspurity."))
    return found


def test_fock_oracle_is_independent():
    """The number-basis oracle may use the Gaussian-state layer and the
    errors, never the closed-form, bound or grid code it checks."""
    source = (Path(pspurity.__file__).parent / "fock.py").read_text()
    assert package_imports(source) <= {"errors", "gaussian"}


def gaussian_names(source: str) -> set[str]:
    """Names a module imports from the Gaussian-state layer."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "gaussian"
            for alias in node.names}


def test_fock_oracle_reads_no_gate_builder():
    """The oracle states every gate's generator itself: of the Gaussian-state
    layer it reads the circuit types, the covariance route that sizes its
    cutoffs, Williamson and the squeezing conversion, never the symplectic
    blocks of the gates it checks."""
    source = (Path(pspurity.__file__).parent / "fock.py").read_text()
    assert gaussian_names(source) == {
        "CircuitDescription", "Gate", "GaussianState", "_resolve_squeezing",
        "circuit_to_gaussian", "require_single", "williamson"}


def test_grid_oracle_is_independent():
    """The quadrature oracle takes its frame from the Gaussian-state layer,
    never from the closed-form or moment code it checks."""
    source = (Path(pspurity.__file__).parent / "quadrature.py").read_text()
    assert package_imports(source) <= {"errors", "gaussian"}


def test_package_import_detected():
    source = ("from .gaussian import williamson\nfrom . import subtraction\n"
              "from .bounds.inner import f\nimport numpy\nimport pspurity.quadrature\n"
              "from pspurity import cli\nfrom numpy import linalg\n")
    assert package_imports(source) == {"gaussian", "subtraction", "bounds", "quadrature",
                                       "cli"}


def modules_after(code: str, cwd=None) -> set[str]:
    """Modules a fresh interpreter holds after running ``code`` in ``cwd``."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(pspurity.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True, cwd=cwd)
    return set(done.stdout.strip().splitlines()[-1].split())


def scipy_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "scipy" or name.startswith("scipy.")}


def test_import_loads_no_scipy():
    loaded = modules_after("import pspurity")
    assert "numpy" in loaded
    assert scipy_modules(loaded) == set()


def test_fock_loads_no_sparse_scipy():
    loaded = modules_after("import pspurity.fock")
    assert "pspurity.fock" in loaded
    assert {name for name in scipy_modules(loaded) if name.startswith("scipy.sparse")} == set()


@pytest.mark.parametrize("argv", [["fuzz", "--count", "5"], ["reproduce", "fig1a"],
                                  ["reproduce", "fig1b"]], ids=["fuzz", "fig1a", "fig1b"])
def test_fuzz_loads_neither_scipy_nor_the_oracles(tmp_path, argv):
    loaded = modules_after(f"from pspurity import cli\ncli.main({argv!r})", cwd=tmp_path)
    assert scipy_modules(loaded) == set()
    assert {"pspurity.fock", "pspurity.crosscheck", "pspurity.quadrature"}.isdisjoint(loaded)


def test_submodules_load_on_attribute_access():
    loaded = modules_after("import pspurity\npspurity.fock.annihilator(2)")
    assert "pspurity.fock" in loaded
