import sys

import numpy as np
import pytest

from biotcgp.assembly import PhysicalParams
from biotcgp.mesh import _connect, structured_mesh

SEED = 20260808


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance lines after the test summary."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def params_ell1():
    return PhysicalParams(eta=16.0)


@pytest.fixture(scope="session")
def mesh2():
    return structured_mesh(2, 2)


@pytest.fixture(scope="session")
def mesh1():
    return structured_mesh(1, 1)


@pytest.fixture(scope="session")
def perturbed_mesh():
    """structured_mesh(3, 3) with every interior vertex moved by at most 0.2 h,
    so no two cells are congruent and B^-1 differs from its transpose."""
    mesh = structured_mesh(3, 3)
    rng = np.random.default_rng(7)
    verts = mesh.vertices.copy()
    inner = np.flatnonzero(np.all((verts > 0.0) & (verts < 1.0), axis=1))
    radius = 0.2 * rng.random(inner.size) / 3.0
    angle = 2.0 * np.pi * rng.random(inner.size)
    verts[inner] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    moved = _connect(verts, mesh.cells)
    moved.validate()
    return moved


@pytest.fixture(scope="session")
def quadratic_field():
    """A globally quadratic vector field and its gradient: a member of the
    unconstrained BDM_2 space, so degree-2 projections must reproduce it."""
    def val(x):
        return np.stack([0.3 * x[:, 0] * x[:, 1] - 0.1 * x[:, 1] ** 2 + 0.2 * x[:, 0],
                         0.25 * x[:, 0] ** 2 - 0.4 * x[:, 0] * x[:, 1] + 0.1],
                        axis=-1)

    def grad(x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 0.3 * x[..., 1] + 0.2
        g[..., 0, 1] = 0.3 * x[..., 0] - 0.2 * x[..., 1]
        g[..., 1, 0] = 0.5 * x[..., 0] - 0.4 * x[..., 1]
        g[..., 1, 1] = -0.4 * x[..., 0]
        return g

    return val, grad


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)
