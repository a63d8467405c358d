"""The package validates with explicit raises: ``python -O`` strips
``assert`` statements, so none may guard package code."""

import ast
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
