"""Every public name has a caller inside the package, and every default a setter.

A name exported by ``ringecho/__init__.py`` must be used (read as a name or
an attribute) by the code of some other module of the package. Its own
``def`` or ``class``, an import, a docstring and a comment do not count.

A defaulted parameter of an exported function must be passed, by position or
keyword, by some call in the package or in the benchmark (``perfbench/*.py``);
a value that only tests set is a constant, not a parameter. Calls are matched
to functions by name.
"""

import ast
import inspect
from pathlib import Path

import ringecho

PACKAGE = Path(ringecho.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"

# exported for callers outside the package, each for a stated reason
ALLOWED_WITHOUT_CALLER = {
    "quasimode_field_error": "the benchmark job quasimode_error_0.999 calls it",
    "transform_output": "the benchmark job transform_full_0.9 calls it",
}

# defaulted parameters that no call in the package or the benchmark passes,
# each for a stated reason
DEFAULTS_NOT_PASSED = {
    ("commutator_figure", "nt"): "the benchmark's tracer reads it by name (_map_cells)",
    ("commutator_figure", "nz"): "the benchmark's tracer reads it by name (_map_cells)",
    ("transform_output", "eps"): "the benchmark's tracer reads it by name (_kernel_offsets)",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def used_names() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    used = used_names()
    orphans = [n for n in exported_names() if n not in used and n not in ALLOWED_WITHOUT_CALLER]
    assert orphans == []


def test_allowlist_names_only_exports_without_a_caller():
    exported, used = set(exported_names()), used_names()
    for name in ALLOWED_WITHOUT_CALLER:
        assert name in exported and name not in used


def exported_functions() -> dict:
    return {
        name: getattr(ringecho, name)
        for name in exported_names()
        if inspect.isfunction(getattr(ringecho, name))
    }


def passed_parameters(funcs: dict) -> set[tuple[str, str]]:
    """(function, parameter) pairs that some call in the package or the
    benchmark passes; a ``*args`` or ``**kwargs`` call passes every one."""
    passed = set()
    for path in [*PACKAGE.glob("*.py"), *BENCHMARK.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in funcs:
                continue
            params = list(inspect.signature(funcs[name]).parameters)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                passed.update((name, p) for p in params)
            passed.update((name, p) for p in params[: len(node.args)])
            passed.update((name, kw.arg) for kw in node.keywords)
    return passed


def unpassed_defaults() -> list[tuple[str, str]]:
    funcs = exported_functions()
    passed = passed_parameters(funcs)
    return [
        (name, p.name)
        for name, fn in funcs.items()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty and (name, p.name) not in passed
    ]


def test_every_default_is_passed_by_some_call():
    unset = [key for key in unpassed_defaults() if key not in DEFAULTS_NOT_PASSED]
    assert unset == []


def test_default_allowlist_names_only_unpassed_defaults():
    assert sorted(DEFAULTS_NOT_PASSED) == sorted(
        key for key in unpassed_defaults() if key in DEFAULTS_NOT_PASSED
    )
