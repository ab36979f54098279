"""Source hygiene checks that need nothing beyond the standard library."""

import ast
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


def _attributes_read(paths):
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    return read


def test_every_dataclass_field_is_read():
    # a field counts as read when any attribute of its name is loaded in
    # the package, its tests or its benchmark; a field nothing reads is
    # state that is set and carried for nothing
    root = SRC.parent.parent
    read = _attributes_read(p for d in ("src", "tests", "bench")
                            for p in sorted((root / d).rglob("*.py")))
    unread = [f"{path.name}:{line}: {cls}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for cls, name, line in _dataclass_fields(
                  ast.parse(path.read_text(), filename=str(path)))
              if name not in read]
    assert not unread, "dataclass fields never read: " + ", ".join(unread)
