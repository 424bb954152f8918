"""Every name a trajrisk module imports is used in that module, and every
private module-level function or class is used somewhere in the package.

`__init__.py` is skipped for imports: its imports are the package's
re-exports.  A name counts as used when it appears as an identifier
anywhere in the module (annotations included) or is listed in the
module's `__all__`.  A private definition (one leading underscore) counts
as used when its name appears as an identifier, attribute or imported
name anywhere in `src/trajrisk` outside its own definition.
"""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "trajrisk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "from typing import Dict, List\nimport numpy as np\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "Dict"), (2, "np")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def _references(tree) -> Counter:
    """How often each name occurs in `tree` as an identifier, an
    attribute or an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced_private(sources: dict) -> list:
    """(module, line, name) of every private module-level function or
    class that nothing outside its own definition refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == _references(node)[node.name]
    ]


def test_checker_flags_an_unreferenced_private_definition():
    used = "def _used():\n    pass\n"
    dead = "def _dead(n):\n    return _dead(n - 1)\n\nclass _Gone:\n    pass\n"
    caller = "from a import _used\n"
    assert _unreferenced_private({"a": used + dead, "b": caller}) == [
        ("a", 3, "_dead"),
        ("a", 6, "_Gone"),
    ]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    unreferenced = _unreferenced_private(sources)
    assert not unreferenced, "never referenced: " + ", ".join(
        f"{module}: {name} (line {line})" for module, line, name in unreferenced
    )
