"""Every name a module of the package imports is used in that module,
and no module but ``poly`` names the variable table.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import hamcheck

SOURCES = sorted(Path(hamcheck.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# the table, its accessor and its attribute on a polynomial or a Run, and
# the process-wide names it replaced
TABLE_NAMES = {"var_table", "_VarTable", "_TABLE", "vt", "_vt",
               "_VARS", "_IDS", "_GUARD", "_RAISE"}


def _imported_and_used(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    imported, used = _imported_and_used(ast.parse(path.read_text(), str(path)))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_only_poly_names_the_variable_table(path):
    # only ``poly`` knows how monomials are packed, so only it names the
    # table they are packed in
    tree = ast.parse(path.read_text(), str(path))
    named = sorted({(node.lineno, name) for node in ast.walk(tree)
                    for name in _names(node) if name in TABLE_NAMES})
    assert not named, f"{path.name} names the variable table: {named}"
