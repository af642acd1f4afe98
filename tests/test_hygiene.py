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
- Every defaulted parameter and dataclass field in ``src/dosebench`` is set
  somewhere in ``src/dosebench`` or ``perfbench/``, and left at its default
  somewhere there too; an option only tests set is a constant, and a default
  no caller takes is dead. A call sets an option by keyword, by position
  past the required arguments, or by building its class from a ``**``
  mapping (also through a parameter, as ``cls(**overrides)`` with the class
  passed in); a dataclass field is also set by attribute assignment or by a
  ``replace`` keyword. Calls are matched by name. The exceptions are in
  ``SET_ONLY_BY_TESTS``, each with its reason.
- Every module ``src/dosebench`` imports, at any depth, is in the standard
  library, is ``dosebench`` itself, or is a runtime dependency declared in
  ``pyproject.toml``.
"""

import ast
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dosebench"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

OPTIONS = 66

# Declared distributions whose import name differs from their project name.
IMPORT_NAMES = {"pyyaml": "yaml"}

# Public definitions that nothing names yet, each with the reason it stays.
UNNAMED_ALLOWED = {}

# Options that nothing outside the tests sets, each with the reason it stays.
SET_ONLY_BY_TESTS = {
    "main.argv": "the console script calls main() with no arguments",
    "LlmConfig.request_timeout": "a deployment setting the README documents",
}


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


def _is_dataclass(node) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _options(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign)
                         and item.value is not None for item in node.body)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            count += 1
    return count


def test_option_count():
    assert sum(_options(tree) for _, tree in _modules(SRC)) == OPTIONS


def _positional(function, in_class: bool) -> list[str]:
    """A function's positional parameters as a call passes them."""
    params = [a.arg for a in function.args.posonlyargs + function.args.args]
    if in_class and params and params[0] in ("self", "cls"):
        params = params[1:]
    return params


def _defined_options(node, found=None) -> list[tuple]:
    """(label, names a call may use, name, position or None, is a field) of
    every defaulted parameter and defaulted dataclass field under node."""
    found = [] if found is None else found
    in_class = isinstance(node, ast.ClassDef)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if in_class and child.name == "__init__":
                label, callees = node.name, {node.name, "__init__"}
            else:
                label = f"{node.name}.{child.name}" if in_class else child.name
                callees = {child.name}
            params = _positional(child, in_class)
            for i in range(len(params) - len(child.args.defaults), len(params)):
                found.append((f"{label}.{params[i]}", callees, params[i], i,
                              False))
            for arg, default in zip(child.args.kwonlyargs,
                                    child.args.kw_defaults):
                if default is not None:
                    found.append((f"{label}.{arg.arg}", callees, arg.arg, None,
                                  False))
        elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
            fields = [item for item in child.body
                      if isinstance(item, ast.AnnAssign)]
            for i, item in enumerate(fields):
                if item.value is not None:
                    found.append((f"{child.name}.{item.target.id}",
                                  {child.name}, item.target.id, i, True))
        _defined_options(child, found)
    return found


class _Calls(ast.NodeVisitor):
    """The calls, ``**`` mappings and attribute assignments of modules."""

    def __init__(self):
        self.calls = []        # (callee, positional count, keywords, args)
        self.mapped = set()    # callees built from a ** mapping
        self.forwarded = set()  # (function, parameter index) called with **
        self.assigned = set()  # attribute names assigned to
        self._scopes = [(None, [])]
        self._in_class = False

    def visit_FunctionDef(self, node):
        self._scopes.append((node.name, _positional(node, self._in_class)))
        in_class, self._in_class = self._in_class, False
        self.generic_visit(node)
        self._in_class = in_class
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        in_class, self._in_class = self._in_class, True
        self.generic_visit(node)
        self._in_class = in_class

    def visit_Call(self, node):
        func = node.func
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        self.calls.append((callee, math.inf if starred else len(node.args),
                           {k.arg for k in node.keywords}, node.args))
        if any(k.arg is None for k in node.keywords):
            self.mapped.add(callee)
            function, params = self._scopes[-1]
            if isinstance(func, ast.Name) and func.id in params:
                self.forwarded.add((function, params.index(func.id)))
        self.generic_visit(node)

    def _note_targets(self, targets):
        for target in targets:
            for sub in getattr(target, "elts", [target]):   # a, b.x = ...
                if isinstance(sub, ast.Attribute):
                    self.assigned.add(sub.attr)

    def visit_Assign(self, node):
        self._note_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._note_targets([node.target])
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign


def test_every_option_is_set_and_defaulted_outside_the_tests():
    seen = _Calls()
    for _, tree in _modules(SRC, PERFBENCH):
        seen.visit(tree)
    for function, index in seen.forwarded:   # cls(**mapping), cls passed in
        seen.mapped |= {getattr(args[index], "id", None)
                        for callee, _, _, args in seen.calls
                        if callee == function and len(args) > index}
    faults = []
    for _, tree in _modules(SRC):
        for label, callees, name, pos, is_field in _defined_options(tree):
            if label in SET_ONLY_BY_TESTS:
                continue
            sets = [callee in callees and (name in keywords or (
                        pos is not None and n_args > pos))
                    or (is_field and callee == "replace" and name in keywords)
                    for callee, n_args, keywords, _ in seen.calls]
            takes = [callee in callees and not setting
                     for (callee, _, _, _), setting in zip(seen.calls, sets)]
            if not (any(sets) or callees & seen.mapped
                    or (is_field and name in seen.assigned)):
                faults.append(f"{label}: only tests set it")
            if not any(takes):
                faults.append(f"{label}: no call takes its default")
    assert sorted(faults) == []


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
