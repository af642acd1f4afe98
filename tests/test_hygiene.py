"""Source hygiene, checked with a plain ``ast`` walk.

- No top-level import is unused in ``src/dosebench``, ``tests/`` or
  ``perfbench/``.
- Every public top-level function and class, and every public method of a
  top-level class, defined in ``src/dosebench`` is named somewhere in
  ``src/dosebench`` or ``perfbench/`` outside its own definition. Names are
  matched as identifiers: a call, an attribute access, or a dotted string such
  as the benchmark tracer's ``"GlucoseEnv.step"``. A package's ``__all__``,
  its imports and docstrings do not count as a use, and neither do the tests:
  code that only tests reach belongs in the tests.
- ``src/dosebench`` has exactly ``OPTIONS`` options: defaulted function
  parameters, dataclass fields with a default and ``add_argument`` calls. A
  change that adds or removes one edits the number here.
- Every module ``src/dosebench`` imports, at any depth, is in the standard
  library, is ``dosebench`` itself, or is a runtime dependency declared in
  ``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dosebench"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

OPTIONS = 82

# Declared distributions whose import name differs from their project name.
IMPORT_NAMES = {"pyyaml": "yaml"}

# Public definitions that nothing names yet, each with the reason it stays.
UNNAMED_ALLOWED = {}


def _modules(*dirs):
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _exported(tree) -> set[str]:
    """The strings a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _unused_imports(tree) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_no_unused_top_level_imports():
    unused = {str(path): names
              for path, tree in _modules(SRC, TESTS, PERFBENCH)
              if (names := _unused_imports(tree))}
    assert unused == {}


class _References(ast.NodeVisitor):
    """Identifiers named in a module, except inside a definition of the same
    name (a recursive call or a method's own body is not a use)."""

    def __init__(self, exported):
        self.names = set()
        self._enclosing = []
        self._exported = exported

    def _note(self, name):
        if name not in self._enclosing:
            self.names.add(name)

    def _visit_definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = \
        _visit_definition

    def visit_Name(self, node):
        self._note(node.id)

    def visit_Attribute(self, node):
        self._note(node.attr)
        self.generic_visit(node)

    def visit_Expr(self, node):
        if not isinstance(node.value, ast.Constant):   # docstrings name nothing
            self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value not in self._exported:
            for part in node.value.split("."):
                if part.isidentifier():
                    self._note(part)


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_every_public_definition_is_named_outside_the_tests():
    named = set()
    for _, tree in _modules(SRC, PERFBENCH):
        refs = _References(_exported(tree))
        refs.visit(tree)
        named |= refs.names
    unnamed = sorted(
        f"{path}: {qualname}"
        for path, tree in _modules(SRC)
        for qualname in _public_definitions(tree)
        if qualname.split(".")[-1] not in named
        and qualname.split(".")[0] not in UNNAMED_ALLOWED)
    assert unnamed == []


def _options(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(item, ast.AnnAssign)
                         and item.value is not None for item in node.body)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            count += 1
    return count


def test_option_count():
    assert sum(_options(tree) for _, tree in _modules(SRC)) == OPTIONS


def test_runtime_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        declared.add(IMPORT_NAMES.get(name, name))
    allowed = set(sys.stdlib_module_names) | {"dosebench"} | declared
    undeclared = set()
    for path, tree in _modules(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared |= {f"{path}: {name}" for name in names
                           if name.split(".")[0] not in allowed}
    assert sorted(undeclared) == []
