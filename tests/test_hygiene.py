"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relax_mprk"


def _imported_names(tree):
    """(name bound by an import, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are re-exported, which is a use
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _is_record(cls):
    """Whether a class declares its fields by annotation: a dataclass or
    a NamedTuple."""
    decos = [d.func if isinstance(d, ast.Call) else d
             for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass"
                for d in decos)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                   for b in cls.bases))


def _dataclass_fields(tree):
    """(class, field, line) for every field of every dataclass and
    NamedTuple in the module, and every name in a class's ``__slots__``,
    dunder names excepted."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        record = _is_record(node)
        for stmt in node.body:
            if (record and isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield node.name, stmt.target.id, stmt.lineno
            elif (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)):
                yield from ((node.name, name, stmt.lineno)
                            for name in ast.literal_eval(stmt.value)
                            if not name.startswith("__"))


def _loads(dirs=("src", "tests", "bench")):
    """(names, attributes) loaded or imported in the package, its tests
    and its benchmark, or in the top-level directories ``dirs``."""
    names, attrs = set(), set()
    root = SRC.parent.parent
    for path in (p for d in dirs for p in sorted((root / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    return names, attrs


def test_every_dataclass_field_is_read():
    # a field (of a dataclass or a NamedTuple, or a slot) counts as read
    # when any attribute of its name is loaded in the package, its tests
    # or its benchmark; a field nothing reads is state that is set and
    # carried for nothing.  The check is blind to the class: a dead field
    # passes when another class has a live attribute of the same name, as
    # EntropyFunctional.name did while problem.name and spec.name were read
    read = _loads()[1]
    unread = [f"{path.name}:{line}: {cls}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for cls, name, line in _dataclass_fields(
                  ast.parse(path.read_text(), filename=str(path)))
              if name not in read]
    assert not unread, "fields never read: " + ", ".join(unread)


def _class_members(cls):
    """(name, line) of the methods and ``name = property(...)`` bindings
    in a class body, dunder methods excepted."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
            yield item.name, item.lineno
        elif (isinstance(item, ast.Assign) and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)
                and isinstance(item.value, ast.Call)
                and isinstance(item.value.func, ast.Name)
                and item.value.func.id == "property"):
            yield item.targets[0].id, item.lineno


def _module_assignment(path, name):
    """The value node of the module-level assignment to ``name``."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def test_every_definition_is_used():
    # a module-level function or class counts as used when the package
    # exports it in __all__, or when its name is referenced or imported in
    # the package or its benchmark (an attribute name the tracer patches
    # by string counts); code that only the tests call is not.  A method
    # or property counts as used when an attribute of its name is loaded
    # in the package, its tests or its benchmark
    root = SRC.parent.parent
    exported = set(ast.literal_eval(
        _module_assignment(SRC / "__init__.py", "__all__")))
    traced = {node.value for node in ast.walk(_module_assignment(
                  root / "bench" / "tracing.py", "LAYER_FUNCTIONS"))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    used = exported | traced | set().union(*_loads(("src", "bench")))
    attrs = _loads()[1]
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                unused.extend(f"{path.name}:{line}: {node.name}.{name}"
                              for name, line in _class_members(node)
                              if name not in attrs)
    assert not unused, "definitions never used: " + ", ".join(unused)


def _requirement_name(spec):
    # "numpy>=1.24" -> "numpy"; names compare case- and separator-blind
    return re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("_", "-")


def test_runtime_dependencies_match_imports():
    # every third-party module src/ imports is a declared runtime
    # dependency, and every runtime dependency is imported by src/
    tomllib = pytest.importorskip("tomllib")
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    declared = {_requirement_name(s) for s
                in tomllib.loads(pyproject)["project"]["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {_requirement_name(m) for m in imported
                   if m not in sys.stdlib_module_names and m != SRC.name}
    assert third_party - declared == set(), "imported but not declared"
    assert declared - third_party == set(), "declared but never imported"
