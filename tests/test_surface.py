"""Every public top-level name of the package is reached by a subcommand, a
benchmark job or another part of the package, so API that only its own tests
use does not grow back unnoticed."""

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


def _public_definitions(tree: ast.Module) -> dict:
    """name -> (first line, last line) of each public top-level definition."""
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
                out[name] = (node.lineno, node.end_lineno)
    return out


def _references(tree: ast.Module) -> list:
    """(name, line) of every name read or attribute taken in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def _unused_names() -> set:
    """Public top-level names of the package that no module of the package or
    of bench/ references outside the name's own definition."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, (first, last) in _public_definitions(trees[path]).items():
            if not any(ref == name and (other != path or not first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unused.add(name)
    return unused


def test_every_public_name_is_used_outside_its_definition():
    assert sorted(_unused_names() - ALLOWED) == []


def test_allowed_names_are_defined_and_otherwise_unused():
    # an entry whose name went away or gained a caller leaves the list
    assert sorted(ALLOWED - _unused_names()) == []
