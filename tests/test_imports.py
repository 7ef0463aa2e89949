"""Every name a package module imports is used in that module.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an ``import`` must be read somewhere in the module, as a
name or as the base of an attribute.  ``__init__.py`` exists to re-export,
and an import line marked ``# noqa: F401`` is a binding kept on purpose.
"""

import ast
from pathlib import Path

import pytest

import patchdg

MODULES = sorted(p for p in Path(patchdg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(3, "pi")]
