"""The package validates with explicit raises: ``python -O`` strips
``assert`` statements, so none may guard package code.  Package modules
also import nothing they do not use, and at module level nothing but the
standard library, numpy and the package itself: every CLI run is a fresh
process and pays for every import.  scipy and mpmath are test-only
references and no package module imports them.  The package's
``__all__`` names only what it defines and every public name that
``__init__.py`` imports.  Only ``quadrature`` makes a coarse level."""

import ast
import sys
from pathlib import Path

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
    # __init__.py imports to re-export, so it is exempt
    sources = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert sources
    found = [entry for path in sources for entry in _unused_imports(path)]
    assert not found, f"unused imports in the package: {found}"


def test_exports_resolve_and_list_every_public_import():
    # __init__.py imports to re-export: a deleted name must leave both lists
    missing = [name for name in nldrop.__all__ if not hasattr(nldrop, name)]
    assert not missing, f"__all__ names the package does not define: {missing}"
    assert len(set(nldrop.__all__)) == len(nldrop.__all__), "__all__ repeats a name"
    imported = {
        alias.asname or alias.name
        for node in ast.walk(_parse(PACKAGE_DIR / "__init__.py"))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    unlisted = sorted(n for n in imported if not n.startswith("_") and n not in nldrop.__all__)
    assert not unlisted, f"imported in __init__.py but not in __all__: {unlisted}"


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
