"""Every name a package or test module imports is used in that module, every
private module-level name is used somewhere in the package, and every public
function or class is used by the package itself. Importing the command line
builds no table that only some commands use.

No linter runs in this project, so these stdlib ``ast`` checks stand in for
pyflakes' F401 and for a dead-code finder: an import is unused unless the
module refers to its bound name somewhere, or its line carries
``# noqa: F401``; a module-level ``_``-prefixed function, class or constant
is orphaned unless some package module refers to it by name, by attribute or
by import. A public module-level function or class is held to the same rule,
with ``__init__.py``'s re-exports left out: code that only tests or a caller
outside the package run belongs in ``tests/oracles.py``, not in the library.
A public module-level UPPER_CASE constant must be read by some package
module, so that removed code leaves no setting behind that nothing reads.
Each function and class there must in turn be used by a test module or by
another oracle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "povmtomo"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in "".join(lines[node.lineno - 1 : node.end_lineno]):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=[path.name for path in MODULES + TEST_MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_catches_a_leftover_import():
    source = "from dataclasses import dataclass, replace\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["replace (line 1)"]
    assert unused_imports("import numpy as np  # noqa: F401\n") == []
    assert unused_imports("import os.path\nos.getcwd()\n") == []


def assigned_names(source: str) -> list[str]:
    """Names that module-level assignments bind."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """Module-level ``_``-prefixed function, class and constant names (dunders excluded)."""
    names = [node.name for node in ast.parse(source).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [name for name in names + assigned_names(source) if name.startswith("_") and not name.endswith("__")]


def referenced_names(source: str) -> set[str]:
    """Names a module reads, attributes it takes, and names it imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def orphaned_private_names(sources: list[str]) -> list[str]:
    used = set().union(*(referenced_names(source) for source in sources))
    return [name for source in sources for name in private_definitions(source) if name not in used]


def test_no_orphaned_private_helpers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert any(private_definitions(source) for source in sources)  # the check has names to look at
    assert orphaned_private_names(sources) == []


def test_check_catches_an_orphaned_helper():
    module = "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _left_over():\n    pass\n\nclass _Gone:\n    pass\n"
    assert orphaned_private_names([module, "from .m import _used\n"]) == ["_left_over", "_Gone"]
    assert orphaned_private_names([module, "import m\nm._left_over()\nm._used(m._Gone)\n"]) == []
    assert private_definitions("__all__ = []\n_x: int = 1\n") == ["_x"]


def public_definitions(source: str) -> list[str]:
    """Module-level function and class names without a leading ``_``."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def unreachable_public_names(modules: dict[str, str]) -> list[str]:
    """``module.name`` of each public definition that no module of ``modules`` refers to."""
    used = set().union(*(referenced_names(source) for source in modules.values()))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in public_definitions(source) if name not in used]


def test_every_public_definition_is_used_by_the_package():
    modules = {path.stem: path.read_text() for path in MODULES}
    assert any(public_definitions(source) for source in modules.values())  # the check has names to look at
    assert unreachable_public_names(modules) == []


def test_check_catches_an_unreachable_public_name():
    module = "LIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef left_over():\n    pass\n\nclass Gone:\n    pass\n"
    assert unreachable_public_names({"m": module, "n": "from .m import used\n"}) == ["m.left_over", "m.Gone"]
    assert unreachable_public_names({"m": module, "n": "from . import m\nm.left_over(m.used, m.Gone)\n"}) == []
    assert public_definitions("def _private():\n    pass\n\nVALUE = 1\n") == []


def public_constants(source: str) -> list[str]:
    """Module-level UPPER_CASE constant names without a leading ``_``."""
    return [name for name in assigned_names(source) if name.isupper() and not name.startswith("_")]


def unread_public_constants(modules: dict[str, str]) -> list[str]:
    """``module.NAME`` of each public constant that no module of ``modules`` reads."""
    used = set().union(*(referenced_names(source) for source in modules.values()))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in public_constants(source) if name not in used]


def test_every_public_constant_is_read_by_the_package():
    # a setting that no path reads is a knob left behind by removed code
    modules = {path.stem: path.read_text() for path in MODULES}
    assert sum(len(public_constants(source)) for source in modules.values()) > 20  # the check has names to look at
    assert unread_public_constants(modules) == []


def test_check_catches_an_unread_constant():
    module = "LIMIT = 3\nSPARE: int = 4\n_PRIVATE = 5\nTable = {}\n\ndef f():\n    return LIMIT\n"
    assert public_constants(module) == ["LIMIT", "SPARE"]
    assert unread_public_constants({"m": module, "n": "from . import m\n"}) == ["m.SPARE"]
    assert unread_public_constants({"m": module, "n": "from . import m\nm.SPARE\n"}) == []
    assert unread_public_constants({"m": module, "n": "from .m import SPARE\n"}) == []


def embedded_scripts(source: str) -> list[str]:
    """The multi-line string constants of a module that parse as Python, such as a script that a
    test runs in a subprocess."""
    scripts = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value:
            try:
                ast.parse(node.value)
            except SyntaxError:
                continue
            scripts.append(node.value)
    return scripts


def unused_oracles(oracles: str, test_modules: list[str]) -> list[str]:
    """Top-level functions and classes of ``oracles`` that no test module, no script embedded in
    one, and no other top-level statement of ``oracles`` refers to."""
    sources = test_modules + [script for source in test_modules for script in embedded_scripts(source)]
    used = set().union(*(referenced_names(source) for source in sources))
    body = ast.parse(oracles).body
    unused = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            others = [ast.unparse(other) for other in body if other is not node]
            if node.name not in used.union(*map(referenced_names, others)):
                unused.append(node.name)
    return unused


def test_every_oracle_is_used_by_a_test():
    oracles = (TESTS / "oracles.py").read_text()
    assert len(unused_oracles(oracles, [])) > 10  # most are used by tests alone: the check has names to look at
    assert unused_oracles(oracles, [path.read_text() for path in sorted(TESTS.glob("test_*.py"))]) == []


def test_check_catches_an_unused_oracle():
    oracles = ("def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
               "def recursive(k):\n    return recursive(k - 1)\n\nclass Gone:\n    pass\n")
    assert unused_oracles(oracles, ["from oracles import used\n"]) == ["recursive", "Gone"]
    assert unused_oracles(oracles, ["import oracles\noracles.recursive(oracles.used(), oracles.Gone)\n"]) == []
    script = 'SCRIPT = """\nfrom oracles import recursive\nrecursive(3)\n"""\n\nfrom oracles import used\n'
    assert unused_oracles(oracles, [script]) == ["Gone"]
    assert unused_oracles(oracles, ['NOTE = """recursive\nGone, a note"""\n']) == ["used", "recursive", "Gone"]
    assert unused_oracles(oracles, []) == ["used", "recursive", "Gone"]


# The size of save_counts' digit-table cache after importing the command line, and after one write.
DIGIT_TABLE_AFTER_IMPORT = """
import sys
import numpy as np
import povmtomo.cli
from povmtomo import tomography
built = [tomography._digit_words.cache_info().currsize]
table = tomography.FrequencyTable(np.array([[3, 1]]), 4)
tomography.save_counts(table, sys.argv[1], {"kind": "mub", "dim": 2})
print(built + [tomography._digit_words.cache_info().currsize])
"""


def test_importing_the_cli_leaves_the_digit_table_unbuilt(tmp_path):
    # scaling, distance and the other commands that write no counts pay nothing for the table
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", DIGIT_TABLE_AFTER_IMPORT, str(tmp_path / "counts.csv")],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1]"
