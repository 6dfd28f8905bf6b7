"""Every module a flowsieve module imports is numpy, the standard library
or flowsieve itself, every name a flowsieve module imports is referenced
in that module, every name it defines at top level is referenced
somewhere else in src/ or perfbench/ (code only tests use belongs in
tests/oracles.py), no module reads another module's `_`-prefixed names,
and none reads or sets an environment variable, so no variable is a
setting the config does not show."""

import ast
import re
import sys

import pytest

from conftest import REPO_ROOT

MODULES = sorted(path for path in (REPO_ROOT / "src" / "flowsieve").glob("*.py")
                 if path.name != "__init__.py")


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of a module that is neither numpy nor in the
    standard library: numpy is the only runtime dependency."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [f"line {node.lineno}: {name}" for name in names
                    if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return foreign


def test_checker_flags_a_foreign_import():
    source = ("import csv, numpy.linalg, scipy\nfrom numpy import ndarray\n"
              "from yaml.loader import Loader\nfrom . import mlp\nfrom .svm import Kernel\n")
    assert foreign_imports(source) == ["line 1: scipy", "line 3: yaml.loader"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["line 2: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions, classes and assigned names of each module
    source in `modules` that no word of the corpus spells outside their
    own definition. The corpus is every module and every text in `others`."""
    unused = []
    for module, source in modules.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            corpus = [rest] + [text for name, text in modules.items()
                               if name != module] + others
            unused += [f"{module}: {name}" for name in names
                       if not any(re.search(rf"\b{name}\b", text) for text in corpus)]
    return unused


def test_checker_flags_an_unreferenced_definition():
    modules = {"a.py": "LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
                       "class Stale:\n    '''Stale, recursive.'''\n    Stale = 1\n",
               "b.py": "from a import used\n"}
    assert unreferenced(modules, []) == ["a.py: Stale"]
    assert unreferenced(modules, ["Stale()"]) == []


def test_every_definition_is_referenced():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in (REPO_ROOT / "src" / "flowsieve").glob("*.py")}
    others = [path.read_text(encoding="utf-8")
              for path in (REPO_ROOT / "perfbench").rglob("*.py")]
    assert unreferenced(modules, others) == []


def private_reads(source: str) -> list[str]:
    """`module._name` reads, and `from module import _name` imports, of an
    `_`-prefixed (not dunder) attribute of a module the source imports."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {alias.asname or alias.name for alias in node.names}
            reads += [f"line {node.lineno}: {node.module}.{alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            reads.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(reads)


def test_checker_flags_a_private_read():
    source = ("import os\nfrom . import mlp\nfrom .svm import _BLOCK, Kernel\n"
              "def f(self):\n    return mlp._CHUNK_ROWS, os.__name__, self._x, mlp.train\n")
    assert private_reads(source) == ["line 3: svm._BLOCK", "line 5: mlp._CHUNK_ROWS"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_no_other_modules_private_name(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def environment_uses(source: str) -> list[str]:
    """`os.environ`, `os.getenv` and `os.putenv` uses, and imports of them
    from os, in line order."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ENVIRONMENT_NAMES):
            uses.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += [(node.lineno, f"os.{alias.name}") for alias in node.names
                     if alias.name in ENVIRONMENT_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(uses)]


def test_checker_flags_an_environment_use():
    source = ("import os\nfrom os import getenv, sep\n"
              "def f():\n    return os.environ.get('X'), os.putenv, os.sched_getaffinity\n")
    assert environment_uses(source) == ["line 2: os.getenv", "line 4: os.environ",
                                        "line 4: os.putenv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_no_environment_variable(path):
    """BLAS threads, for one, are set through the library, not the environment."""
    assert environment_uses(path.read_text(encoding="utf-8")) == []
