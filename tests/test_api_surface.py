"""Every public name has a caller inside the package.

A name exported by ``ringecho/__init__.py`` must be used (read as a name or
an attribute) by the code of some other module of the package. Its own
``def`` or ``class``, an import, a docstring and a comment do not count.
"""

import ast
from pathlib import Path

import ringecho

PACKAGE = Path(ringecho.__file__).parent

# exported for callers outside the package, each for a stated reason
ALLOWED_WITHOUT_CALLER = {
    "quasimode_field_error": "the benchmark job quasimode_error_0.999 calls it",
    "transform_output": "the benchmark job transform_full_0.9 calls it",
    "F_m": "the paper's ladder sum, the public view of two_photon._ladder_table",
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
