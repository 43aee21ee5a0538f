"""Every public top-level name of the package, and every public method and
property of its classes, is reached by a subcommand, a benchmark job or
another part of the package, so API that only its own tests use does not grow
back unnoticed.

The member check matches by attribute name alone: a read of ``.x`` anywhere
counts as a use of every member named x, so it misses a dead member whose
name another class also uses.  It is a guard, not a proof."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carleman"

# Kept on purpose although only tests reach them: each is an independent
# oracle or a round-trip reader for code the subcommands run.
ALLOWED = {
    "discrete_laplacian",   # pointwise Laplacian, pins the sparse matrix and the stencils
    "random_tensor_field",  # one random field as the batched trial fields draw it
    "commutator_lhs",       # <(SA - AS) f, f> by composition, pins the closed form
    "read_trajectory",      # reads back what write_trajectory exports
}
MEMBERS_ALLOWED = {
    "DyadicField.potential_value",  # exact V at one site, pins the int64 V numerators
}


def _public_definitions(tree: ast.Module) -> dict:
    """name -> (name, first line, last line) of each public top-level definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                out[name] = (name, node.lineno, node.end_lineno)
    return out


def _public_members(tree: ast.Module) -> dict:
    """"Class.name" -> (name, first line, last line) of each public method and
    property of a top-level class."""
    return {f"{node.name}.{item.name}": (item.name, item.lineno, item.end_lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _references(tree: ast.Module) -> list:
    """(name, line) of every name read or attribute taken in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def _attributes(tree: ast.Module) -> list:
    """(name, line) of every attribute taken in a module."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)]


def _unused(definitions, references) -> set:
    """Keys of the package's definitions whose name no module of the package
    or of bench/ references outside the definition itself."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    refs = {path: references(tree) for path, tree in trees.items()}
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for key, (name, first, last) in definitions(trees[path]).items():
            if not any(ref == name and (other != path or not first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unused.add(key)
    return unused


def test_every_public_name_is_used_outside_its_definition():
    assert sorted(_unused(_public_definitions, _references) - ALLOWED) == []


def test_allowed_names_are_defined_and_otherwise_unused():
    # an entry whose name went away or gained a caller leaves the list
    assert sorted(ALLOWED - _unused(_public_definitions, _references)) == []


def test_every_public_member_is_read_outside_its_definition():
    assert sorted(_unused(_public_members, _attributes) - MEMBERS_ALLOWED) == []


def test_allowed_members_are_defined_and_otherwise_unread():
    assert sorted(MEMBERS_ALLOWED - _unused(_public_members, _attributes)) == []
