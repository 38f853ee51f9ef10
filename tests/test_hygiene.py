"""Source hygiene without a linter: every import of a module is used, and
every module-level private name is referenced somewhere in the package.

Both checks read the syntax trees of ``src/mixnorms/*.py``.  Imports in
``__init__.py`` are its public interface, and an import line marked
``# noqa`` is kept on purpose (for example for readers outside the
package); neither counts as unused.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mixnorms"
MODULES = sorted(SRC.glob("*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    """Bare names read in a tree, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, skipping `# noqa` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = _read_names(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names starting with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module of `sources` reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        used |= _read_names(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.name.rpartition(".")[2] for node in ast.walk(tree)
                 if isinstance(node, ast.alias)}
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in used)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_privates(sources) == []


def test_checks_catch_what_they_are_for():
    leftover = "from .forms import _sign_rows, _sign_vertices\n\nTABLE = _sign_vertices(3)\n"
    assert unused_imports(leftover) == ["_sign_rows (line 1)"]
    marked = "from .forms import sup_norm  # noqa: F401\n"
    assert unused_imports(marked) == []
    annotated = "from typing import Sequence\n\ndef f(x: 'Sequence[int]'):\n    return x\n"
    assert unused_imports(annotated) == []
    sources = {
        "a.py": "def _helper():\n    return 1\n\n_LIMIT = 3\n_STALE = 4\n",
        "b.py": "from .a import _LIMIT\n\nVALUE = _LIMIT\n",
    }
    assert unreferenced_privates(sources) == ["a.py: _STALE", "a.py: _helper"]
