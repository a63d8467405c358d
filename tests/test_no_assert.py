"""The package validates with explicit raises: ``python -O`` strips
``assert`` statements, so none may guard package code.  Package modules
also import nothing they do not use, and at module level nothing but the
standard library, numpy and the package itself: every CLI run is a fresh
process and pays for every import.  scipy and mpmath are test-only
references and no package module imports them; nor does any import
``numpy.polynomial`` or call a numpy.linalg eigensolver.  The package's
``__all__`` is its export table: each name is a public object of the
module the table names, and nothing else resolves.  Only ``quadrature``
makes a coarse level."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nldrop

PACKAGE_DIR = Path(nldrop.__file__).resolve().parent


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _unused_imports(path):
    """Names a module imports but never reads (``from __future__``
    imports excluded)."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_modules_use_every_import():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [entry for path in sources for entry in _unused_imports(path)]
    assert not found, f"unused imports in the package: {found}"


def test_exports_resolve_to_public_objects_of_their_modules():
    # the table is the one list: __all__ derives from it and names nothing twice
    assert len(set(nldrop.__all__)) == len(nldrop.__all__), "__all__ repeats a name"
    assert sorted(nldrop.__all__) == sorted(nldrop._OWNER)
    wrong = []
    for name in nldrop.__all__:
        module = importlib.import_module(f"nldrop.{nldrop._OWNER[name]}")
        obj = getattr(nldrop, name)
        defined_there = obj is getattr(module, name) and obj.__module__ == module.__name__
        if name.startswith("_") or not defined_there:
            wrong.append(f"{name} -> {module.__name__}")
    assert not wrong, f"exports that are not public objects defined by their module: {wrong}"
    assert set(nldrop.__all__) <= set(dir(nldrop))
    for name in ("no_such_name", "_OWNER_", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(nldrop, name)


def test_star_import_resolves_every_export_in_a_fresh_interpreter():
    # each name goes through the lazy __getattr__ once, before anything caches it
    code = "from nldrop import *; import nldrop; print(sum(n in globals() for n in nldrop.__all__))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(nldrop.__all__)


def _absolute_imports(nodes):
    """(line, module name) of each absolute import statement in ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_modules_import_only_stdlib_and_numpy_at_top_level():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _absolute_imports(_parse(path).body)
        if name.split(".")[0] not in allowed
    ]
    assert not found, f"module-level imports outside stdlib and numpy: {found}"


def test_package_never_imports_scipy():
    # at any nesting level, function bodies included
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _absolute_imports(ast.walk(_parse(path)))
        if name.split(".")[0] in ("scipy", "mpmath")
    ]
    assert not found, f"scipy or mpmath imports in the package: {found}"


def _lapack_uses(tree):
    """(line, name) of each import from ``numpy.polynomial`` and each import
    or attribute use of a numpy.linalg eigensolver (``eig``, ``eigh``,
    ``eigvals``, ``eigvalsh``) in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            names = [f"numpy.linalg.{node.attr}"]
        else:
            continue
        for name in names:
            if name.startswith(("numpy.polynomial", "numpy.linalg.eig")):
                yield node.lineno, name


def test_package_builds_gauss_rules_without_lapack():
    # every Gauss rule is quadrature._gauss_rule's Newton iteration: no
    # leggauss and no dense eigensolve, at any nesting level
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _lapack_uses(_parse(path))
    ]
    assert not found, f"numpy.polynomial or numpy.linalg eigensolvers in the package: {found}"
    probe = ast.parse(
        "import numpy.polynomial.legendre\nfrom numpy import polynomial\n"
        "from numpy.linalg import eigvalsh\nx = np.linalg.eigh(a)\n"
    )
    assert [line for line, _ in _lapack_uses(probe)] == [1, 2, 3, 4]


# The helpers that make a coarse level or put shapes on one grid, including
# ones since folded into ``quadrature._grids`` and ``_pair_grids``
_GRID_INTERNALS = ("_coarsen", "_coarse_voxel", "_common_grid", "_embed", "_cells_per_axis")


def _referenced_names(tree):
    """(line, name) of every name and attribute read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_only_quadrature_builds_coarse_levels():
    # other modules take both levels from quadrature._grids or _pair_grids
    sources = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "quadrature.py")
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _referenced_names(_parse(path))
        if name in _GRID_INTERNALS
    ]
    assert not found, f"grid internals of quadrature referenced elsewhere: {found}"
