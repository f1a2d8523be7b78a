"""Static checks over the library's source, read with ``ast``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atqc"
MODULES = sorted(SRC.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_library_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"complexes.py", "homology.py", "distance.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from itertools import compress, count as counter\n"
        "from .binmat import parity, support\n"
        "def f(x: int) -> int:\n"
        "    return sum(support(x)) + len(json.dumps(list(compress([x], [1]))))\n"
    )
    assert unread_imports(source) == ["os", "counter", "parity"]


def imported_modules(source: str) -> set[str]:
    """Every absolute module a source imports, by its full dotted name."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return names | {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert not {name for name in imported_modules(path.read_text())
                if name.partition(".")[0] == "dataclasses"}


def test_the_import_check_sees_both_spellings():
    assert imported_modules("import dataclasses\nfrom dataclasses import field\nfrom . import x\n") == {
        "dataclasses"}


def loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                                      os.environ.get("PYTHONPATH")]))}
    code = f"import sys\n{statement}\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_dataclasses_inspect_ast_or_csv():
    """Run in a fresh interpreter beside a bare one, so what ``site`` preloads does not count."""
    added = loaded("import atqc.cli") - loaded("pass")
    assert "atqc.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "csv", "_csv"}


def test_the_package_loads_no_module_and_each_module_only_what_it_imports():
    """``atqc/__init__`` re-exports nothing, so no import loads atqc modules it does not need."""
    bare = loaded("pass")
    assert {m for m in loaded("import atqc") - bare if m.startswith("atqc")} == {"atqc"}
    assert {m for m in loaded("import atqc.geometry") - bare if m.startswith("atqc")} == {
        "atqc", "atqc.errors", "atqc.geometry"}
