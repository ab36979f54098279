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


def _dataclass_fields(tree):
    """(class, field, line) for every field of every dataclass in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Name) and target.id == "dataclass":
                break
        else:
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield node.name, stmt.target.id, stmt.lineno


def _loads():
    """(names, attributes) loaded or imported in the package, its tests
    and its benchmark."""
    names, attrs = set(), set()
    root = SRC.parent.parent
    for path in (p for d in ("src", "tests", "bench")
                 for p in sorted((root / d).rglob("*.py"))):
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
    # a field counts as read when any attribute of its name is loaded in
    # the package, its tests or its benchmark; a field nothing reads is
    # state that is set and carried for nothing
    read = _loads()[1]
    unread = [f"{path.name}:{line}: {cls}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for cls, name, line in _dataclass_fields(
                  ast.parse(path.read_text(), filename=str(path)))
              if name not in read]
    assert not unread, "dataclass fields never read: " + ", ".join(unread)


def test_every_definition_is_used():
    # a module-level function or class counts as used when its name is
    # referenced or imported anywhere in the package, its tests or its
    # benchmark, a method when an attribute of its name is loaded there
    names, attrs = _loads()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names and node.name not in attrs:
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                unused.extend(
                    f"{path.name}:{item.lineno}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and item.name not in attrs)
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
