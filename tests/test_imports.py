"""Every import in src/ and tests/ is used: a name bound by an import must be
read somewhere in its module or listed in its ``__all__``.  Every definition
in src/ is reached: see ``test_no_dead_definitions``.  No src/ module imports
another's underscore name: see ``test_no_private_cross_module_imports``."""

import ast
import pathlib

import pytest

import biotcgp

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# src/ definitions that only tests read, each with the reason it is kept; an
# entry that gains a reader in src/ or goes away fails the scan too
TEST_REFERENCES = {
    "grad_P": "the pressure gradient in the PDE-residual check of tests/test_mms.py",
    "poly_factors": "polynomial time factors, which cGP(k) reproduces exactly, in the "
                    "exactness tests of tests/test_slab.py and tests/test_acceptance.py",
    "stationary_block": "S alone, a row view of Discretization.slab_blocks, in the "
                        "Kronecker references of tests/test_slab.py",
}
SRC_FILES = sorted((ROOT / "src" / "biotcgp").glob("*.py"))


def _definitions(tree: ast.Module):
    """(name, node) of every top-level function and class and every method
    that is not a dunder (those are called by the language)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def _unreached_definitions() -> dict[str, str]:
    """Definitions no other code in src/ reads and biotcgp does not export,
    mapped to their location."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC_FILES}
    # every read of a name or attribute; __all__ entries are strings, not reads
    reads = [(path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unreached = {}
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name not in biotcgp.__all__ and not any(
                    read == name and not (where == path
                                          and node.lineno <= line <= node.end_lineno)
                    for where, read, line in reads):
                unreached[name] = f"{path.name}:{node.lineno}"
    return unreached


def test_no_dead_definitions():
    # a method counts as reached when any attribute of its name is read, so
    # the scan can miss a dead method that shares its name with a live one
    unreached = _unreached_definitions()
    assert sorted(unreached) == sorted(TEST_REFERENCES), unreached


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names bound by ``from x import _name``."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_cross_module_imports():
    # what one src/ module uses of another goes through a public name
    found = {path.name: names for path in SRC_FILES
             if (names := _private_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}
