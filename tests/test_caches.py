"""Every cache in the package is bounded.  Each ``functools.lru_cache``
has a finite ``maxsize``.  Each other cache, a mapping whose name contains
``cache`` at module level or inside a function, is an ``OrderedDict``
that a ``while`` loop trims against a positive integer bound of its module
named ``*_BYTES`` or ``*_TABLES``."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import nldrop

PACKAGE_DIR = Path(nldrop.__file__).resolve().parent
MODULE_NAMES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def _sources():
    for name in MODULE_NAMES:
        path = PACKAGE_DIR / f"{name}.py"
        yield name, ast.parse(path.read_text(), filename=str(path))


def _literal_maxsize(dec):
    """The maxsize a caching decorator sets when it is a literal: 128 for a
    bare ``lru_cache``, None for ``functools.cache`` or ``maxsize=None``."""
    if not isinstance(dec, ast.Call):
        return 128 if ast.unparse(dec).endswith("lru_cache") else None
    args = [k.value for k in dec.keywords if k.arg == "maxsize"] + list(dec.args)
    return args[0].value if args and isinstance(args[0], ast.Constant) else 128


def test_every_lru_cache_has_a_finite_maxsize():
    found, unbounded = 0, []
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if ast.unparse(target).split(".")[-1] in ("lru_cache", "cache"):
                        found += 1
                        maxsize = _literal_maxsize(dec)
                        if not (isinstance(maxsize, int) and maxsize > 0):
                            unbounded.append(f"{name}.{node.name}")
    assert found >= 5  # Gauss rules, ball perimeters, tail directions, kernel pieces and primitives
    assert not unbounded, f"unbounded lru caches: {unbounded}"
    # the module-level wrappers, whatever their decorator's arguments
    for name in MODULE_NAMES:
        module = importlib.import_module(f"nldrop.{name}")
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                maxsize = obj.cache_parameters()["maxsize"]
                assert maxsize is not None and 0 < maxsize < math.inf, f"{name}.{attr}"


def _mapping_caches(tree):
    """(name, constructor) of every mapping assigned to a name containing
    ``cache``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if isinstance(value, ast.Dict) or (
                isinstance(value, ast.Call) and ast.unparse(value.func) in ("dict", "OrderedDict")
            ):
                for t in targets:
                    if isinstance(t, ast.Name) and "cache" in t.id.lower():
                        yield t.id, ast.unparse(value)


def test_every_mapping_cache_is_trimmed_against_a_bound():
    checked, problems = set(), []
    for name, tree in _sources():
        module = importlib.import_module(f"nldrop.{name}")
        loops = [
            {n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)}
            for loop in ast.walk(tree)
            if isinstance(loop, ast.While)
        ]
        for cache, constructor in _mapping_caches(tree):
            checked.add(f"{name}.{cache}")
            if constructor != "OrderedDict()":
                problems.append(f"{name}.{cache} = {constructor} is not an OrderedDict")
            bounds = {b for names in loops if cache in names for b in names if b.endswith(("_BYTES", "_TABLES"))}
            values = [getattr(module, b, None) for b in bounds]
            if not values or not all(isinstance(v, int) and v > 0 for v in values):
                problems.append(f"{name}.{cache} has no positive byte or table bound")
    assert {"quadrature._STENCIL_CACHE", "quadrature._NEAR_CACHE"} <= checked
    assert not problems, problems

