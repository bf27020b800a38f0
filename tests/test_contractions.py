"""No src/ module contracts with a multi-operand np.einsum: the unoptimised
three- and four-operand forms loop in C over every index combination, and
the assembly does the same integrals as batched matmuls (``assembly._gram``).
Two-operand calls are allowed."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "biotcgp").glob("*.py"))
MAX_OPERANDS = 2


def _einsum_operands(tree: ast.Module) -> list[tuple[int, int]]:
    """(line, operand count) of every ``<module>.einsum(...)`` or ``einsum(...)``
    call; the first argument is the subscripts string, not an operand."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum":
            calls.append((node.lineno, len(node.args) - 1))
    return calls


def test_detector_counts_operands():
    tree = ast.parse('np.einsum("cq,cqi,cqj->cij", w, a, b)\n'
                     'einsum("ij,j->i", m, x)\nnumpy.einsum("i->", x)\n')
    assert _einsum_operands(tree) == [(1, 3), (2, 2), (3, 1)]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_multi_operand_einsum_in_src(path):
    calls = _einsum_operands(ast.parse(path.read_text(encoding="utf-8")))
    assert [line for line, count in calls if count > MAX_OPERANDS] == []
