"""The package validates with explicit raises: ``python -O`` strips
``assert`` statements, so none may guard package code.  Package modules
also import nothing they do not use, and at module level nothing but the
standard library, numpy and the package itself: every CLI run is a fresh
process, so scipy and mpmath are imported inside the functions that call
them."""

import ast
import sys
from pathlib import Path

import nldrop

PACKAGE_DIR = Path(nldrop.__file__).resolve().parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _unused_imports(path):
    """Names a module imports but never reads (``from __future__``
    imports excluded)."""
    tree = ast.parse(path.read_text(), filename=str(path))
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


def test_package_modules_import_only_stdlib_and_numpy_at_top_level():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not found, f"module-level imports outside stdlib and numpy: {found}"
