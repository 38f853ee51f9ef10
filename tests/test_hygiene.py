"""Source hygiene without a linter: every import of a module is used,
every module-level private name is referenced somewhere in the package,
every public module-level function or class is reached from outside its
module, every private name that a docstring, comment or the README
quotes in backticks is still defined, and numpy's random module appears
only in the one sign-draw kernel, `forms._random_signs`.  Only the one
thread pool, `forms._pool`, imports ``concurrent.futures``, only
`forms._map_blocks` calls it, only `cotype.rademacher_average` calls
that, and no module imports ``threading`` or ``multiprocessing``.  Only a
short list of definitions call the builtin ``int``: the count check
`forms._checked_count` and the text parsers, so no count is truncated
silently.  The README's command block shows one
``mixnorms <name>`` line per subcommand in `cli._COMMANDS`, in the
table's order.

The checks read the syntax trees of ``src/mixnorms/*.py``.  Imports in
``__init__.py`` are its public interface, and an import line marked
``# noqa`` is kept on purpose (for example for readers outside the
package); neither counts as unused.  A public function or class is
reached when ``__init__.py`` imports it, another module reads it, or it
is the ``[project.scripts]`` entry point; one that only tests reach is
dead code.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixnorms"
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


def _used_names(tree: ast.AST) -> set[str]:
    """Names a tree reads bare or as attributes, or imports."""
    return (_read_names(tree)
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name.rpartition(".")[2] for node in ast.walk(tree)
               if isinstance(node, ast.alias)})


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module of `sources` reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*map(_used_names, trees.values()))
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in used)


def unreached_publics(sources: dict[str, str], entry_points: set[tuple[str, str]]) -> list[str]:
    """Public module-level functions and classes that no other module of
    `sources` reads or imports and that are no (module, name) entry point."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {module: _used_names(tree) for module, tree in trees.items()}
    return sorted(
        f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) not in entry_points
        and not any(node.name in names for other, names in used.items() if other != module)
    )


def _defined_names(tree: ast.AST) -> set[str]:
    """Names a tree defines anywhere: functions, classes, assigned names
    and assigned attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def undefined_quoted_privates(texts: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Backticked private names (`_name`, or `_Name.attr` by its first
    part) in `texts` that no module of `sources` defines."""
    defined = set().union(*(_defined_names(ast.parse(text)) for text in sources.values()))
    return sorted({f"{name}: {quoted}" for name, text in texts.items()
                   for quoted in re.findall(r"`(_[A-Za-z0-9_]+)[`.]", text)
                   if quoted not in defined})


def random_homes(sources: dict[str, str]) -> list[str]:
    """The module-level definitions of `sources` in whose text numpy's
    random module appears, or the lines where it appears outside any."""
    homes = set()
    for module, text in sources.items():
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for match in re.finditer(r"\b(?:np|numpy)\.random\b", text):
            line = text.count("\n", 0, match.start()) + 1
            home = next((name for lo, hi, name in spans if lo <= line <= hi), f"line {line}")
            homes.add(f"{module}: {home}")
    return sorted(homes)


def import_homes(sources: dict[str, str], names: set[str]) -> list[str]:
    """Where `sources` import a module of `names` or one of its submodules:
    the module-level definition holding the import, or its line outside
    any, with the module it imports."""
    homes = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            home = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                homes.update(f"{module}: {home or f'line {node.lineno}'}: {name}"
                             for full in imported for name in names
                             if full == name or full.startswith(name + "."))
    return sorted(homes)


def callers(sources: dict[str, str], name: str) -> list[str]:
    """The innermost definitions of `sources` (``Class.method`` for a
    method) that call the bare name `name`, or the lines of calls outside any."""
    homes = set()

    def visit(module: str, node: ast.AST, home: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                homes.add(f"{module}: {home or f'line {child.lineno}'}")
            inner = home
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{home}.{child.name}" if home else child.name
            visit(module, child, inner)

    for module, text in sources.items():
        visit(module, ast.parse(text), "")
    return sorted(homes)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_privates(sources) == []


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r'^\S+ = "mixnorms\.(\w+):(\w+)"$', pyproject, re.MULTILINE)
    assert scripts
    assert unreached_publics(sources, {(f"{m}.py", f) for m, f in scripts}) == []


def test_quoted_private_names_are_defined():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    texts = {**sources, "README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    assert undefined_quoted_privates(texts, sources) == []


def test_one_random_draw():
    # Every random sign in the package comes from one kernel.
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert random_homes(sources) == ["forms.py: _random_signs"]


def test_few_int_calls():
    # A count is checked by `_checked_count`, never truncated by int();
    # only text parsers call it.
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert callers(sources, "int") == [
        "cli.py: _parse_ints", "forms.py: _checked_count", "mixed_norms.py: ExponentTuple.parse"]


def test_one_thread_pool():
    # Helper threads come from one lazily built pool; its import waits for
    # the first block run on it, one function hands work to it, and only
    # the Rademacher average calls that function.
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    names = {"concurrent.futures", "threading", "multiprocessing"}
    assert import_homes(sources, names) == ["forms.py: _pool: concurrent.futures"]
    assert callers(sources, "_pool") == ["forms.py: _map_blocks"]
    assert callers(sources, "_map_blocks") == ["cotype.py: rademacher_average"]


def test_readme_command_block_lists_every_subcommand():
    from mixnorms.cli import _COMMANDS

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    assert re.findall(r"^mixnorms (\S+)", block, re.MULTILINE) == list(_COMMANDS)


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
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    return Stale\n\ndef helper():\n    pass\n\n"
                "def main():\n    pass\n\nclass Stale:\n    pass\n",
        "b.py": "from . import a\n\nVALUE = a.helper()\n",
    }
    assert unreached_publics(sources, {("a.py", "main")}) == ["a.py: Stale"]
    sources = {"a.py": "class _Model:\n    def ratio_of(self):\n        self._rows = 1\n"}
    texts = {"b.py": '"""Scores as `_Model.ratio_of` and `_rows`, not `_fast_ratio_fn`."""',
             "README.md": "Polished by ``_gone`` through `_Model`."}
    assert undefined_quoted_privates(texts, sources) == ["README.md: _gone", "b.py: _fast_ratio_fn"]
    sources = {"a.py": "import numpy as np\n\ndef draw():\n    return np.random.PCG64(0)\n\n"
                       "SEED = numpy.random.SeedSequence()\n"}
    assert random_homes(sources) == ["a.py: draw", "a.py: line 6"]
    sources = {"a.py": "import threading\n\ndef pool():\n"
                       "    from concurrent.futures import Future\n    return Future\n",
               "b.py": "from concurrent import futures\nimport multiprocessing.pool as mp\n"
                       "from .threading import x\n"}
    assert import_homes(sources, {"concurrent.futures", "threading", "multiprocessing"}) == [
        "a.py: line 1: threading", "a.py: pool: concurrent.futures",
        "b.py: line 1: concurrent.futures", "b.py: line 2: multiprocessing"]
    sources = {"a.py": "def dims(n):\n    return (int(n),)\n\nclass T:\n    def parse(self, s):\n"
                       "        return [int(t) for t in s]\n\nWIDTH = int('3')\n",
               "b.py": "def f(x):\n    return isinstance(x, int) and x.int(2)\n"}
    assert callers(sources, "int") == ["a.py: T.parse", "a.py: dims", "a.py: line 8"]
    sources = {"a.py": "def _pool():\n    return 1\n\nhook(_pool.cache_clear)\n\n"
                       "def run():\n    def job():\n        return _pool()\n\n"
                       "    return _pool().submit(job)\n"}
    assert callers(sources, "_pool") == ["a.py: run", "a.py: run.job"]
