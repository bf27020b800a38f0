import numpy as np
import pytest
import scipy.sparse as sp

from biotcgp import linalg
from biotcgp.linalg import (BorderedFactor, LinearSystem, SolverError, dense_min_eig_sym,
                            lu_solve)
from biotcgp.mesh import structured_mesh
from biotcgp.mms import default_mms
from biotcgp.slab import Discretization, TimeGrid, march
from biotcgp.verification import projection_p1


def test_identity_solve():
    system = LinearSystem(sp.eye(5, format="csr"), np.arange(5.0))
    assert np.array_equal(lu_solve(system), np.arange(5.0))


def test_hand_checkable_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = lu_solve(LinearSystem(a, np.array([3.0, 3.0])))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_random_spd_residual_contract(rng):
    for _ in range(100):
        n = 50
        m = rng.standard_normal((n, n))
        a = sp.csr_matrix(m @ m.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x = lu_solve(LinearSystem(a, b))   # raises if residual > 1e-10
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_zero_rhs_gives_zero():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = lu_solve(LinearSystem(a, np.zeros(2)))
    assert np.linalg.norm(x) <= 1e-12


def test_determinism_bit_identical(rng):
    m = rng.standard_normal((40, 40))
    a = sp.csr_matrix(m @ m.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    x1 = lu_solve(LinearSystem(a, b))
    x2 = lu_solve(LinearSystem(a.copy(), b.copy()))
    assert np.array_equal(x1, x2)


def test_singular_matrix_reports_row():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError) as err:
        lu_solve(LinearSystem(a, np.array([1.0, 1.0])))
    assert err.value.row == 1


def test_zero_diagonal_takes_off_diagonal_pivot():
    # structurally symmetric with an exactly zero diagonal: the static
    # diagonal pivots must give way where the diagonal entry is zero
    a = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 3.0]]))
    x = lu_solve(LinearSystem(a, np.array([1.0, 2.0, 3.0])))
    assert np.allclose(x, [4.0 / 3.0, 1.0, 1.0 / 3.0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("cells", [4, 10])
def test_tiny_pivot_is_raised_before_factoring(monkeypatch, cells):
    # 1D mixed Darcy with storage 1e-16: the pressure unknowns have the
    # lowest degree, so minimum degree takes their tiny diagonals as pivots
    # first; used as they stand they wipe out the flux mass entries
    h = 1.0 / cells
    mass = sp.diags([h / 6.0, 2.0 * h / 3.0, h / 6.0], [-1, 0, 1], shape=(cells + 1, cells + 1))
    div = sp.diags([-1.0, 1.0], [0, 1], shape=(cells, cells + 1))
    a = sp.bmat([[mass, div.T], [div, 1e-16 * sp.eye(cells)]], format="csr")
    system = LinearSystem(a, np.ones(a.shape[0]))
    x = lu_solve(system)
    assert np.linalg.norm(a @ x - system.rhs) <= 1e-14 * np.linalg.norm(system.rhs)
    monkeypatch.setattr(linalg, "_floor_tiny_pivots", lambda csc: csc)
    with pytest.raises(SolverError):
        lu_solve(system)


def test_refinement_stops_when_it_diverges():
    # an inner solve three times too large doubles the error at every step:
    # the second residual is already larger than the first
    a = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    system = LinearSystem(a, np.ones(3))
    factor = BorderedFactor(system, lambda matrix: linalg.lu_factor(matrix / 3.0))
    with pytest.raises(SolverError, match="diverged at step 1"):
        lu_solve(system, factor)


def _spd_with_mean_constraint(rng, n=30):
    m = rng.standard_normal((n, n))
    a = sp.csr_matrix(m @ m.T + n * np.eye(n))
    return LinearSystem(a, np.append(rng.standard_normal(n), 0.0), np.ones((1, n)))


def test_bad_start_falls_back_to_elimination(rng):
    # an inverse 1 % off shrinks the error of a step by 100: from a start
    # 1e3 times too large one step misses the contract, and the solve
    # without a start refines until it is met
    system = _spd_with_mean_constraint(rng)
    factor = BorderedFactor(system, lambda matrix: linalg.lu_factor(1.01 * matrix))
    b = system.rhs
    start = 1e3 * rng.standard_normal(b.size)
    assert system.residual(factor.solve(b, start)) > linalg.RESIDUAL_TOL
    x = lu_solve(system, factor, start)
    assert system.residual(x) <= linalg.RESIDUAL_TOL
    assert np.array_equal(x, lu_solve(system, factor))


def test_zero_rhs_ignores_the_start(rng):
    system = _spd_with_mean_constraint(rng)
    system.rhs = np.zeros_like(system.rhs)
    factor = BorderedFactor(system)
    starts = []
    solve = factor.solve

    def recording(rhs, start=None):
        starts.append(start)
        return solve(rhs, start)
    factor.solve = recording
    x = lu_solve(system, factor, rng.standard_normal(system.rhs.size))
    assert len(starts) == 1 and starts[0] is None
    assert np.linalg.norm(x) <= linalg.ZERO_RHS_TOL


def test_dimension_mismatch():
    with pytest.raises(SolverError):
        lu_solve(LinearSystem(sp.eye(3, format="csr"), np.ones(4)))
    # a bordered rhs holds the load and one value per constraint row
    with pytest.raises(SolverError):
        lu_solve(LinearSystem(sp.eye(3, format="csr"), np.ones(3), np.ones((1, 3))))


def test_empty_border_is_the_plain_system(rng):
    m = rng.standard_normal((20, 20))
    a = sp.csr_matrix(m @ m.T + 20 * np.eye(20))
    b = rng.standard_normal(20)
    assert np.array_equal(lu_solve(LinearSystem(a, b)),
                          lu_solve(LinearSystem(a, b, np.zeros((0, 20)))))


def test_empty_border_does_no_border_work(rng, monkeypatch):
    # a plain system skips the 0x0 Schur inverse and the zero-size products of
    # its border: the elimination is the inner solve and the matvec A x
    def no_inverse(matrix):
        raise AssertionError("inverted an empty Schur complement")
    monkeypatch.setattr(linalg.np.linalg, "inv", no_inverse)
    m = rng.standard_normal((20, 20))
    a = sp.csr_matrix(m @ m.T + 20 * np.eye(20))
    b = rng.standard_normal(20)
    factor = BorderedFactor(LinearSystem(a, b))
    assert np.array_equal(factor._eliminate(b), factor.inner.solve(b))
    assert np.array_equal(linalg._bordered_matvec(a, factor.c, b), a @ b)
    x = lu_solve(LinearSystem(a, b), factor)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_constraint_rows_enforced():
    # minimize-like saddle: pin the solution mean to zero
    a = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    b = np.array([1.0, 1.0, 1.0])
    c = np.ones((1, 3))
    x = lu_solve(LinearSystem(a, np.append(b, 0.0), c))
    assert abs(x[:3].sum()) <= 1e-12
    factor = BorderedFactor(LinearSystem(a, np.append(b, 0.0), c))
    x2 = factor.solve(np.append(b, 0.0))
    assert np.allclose(x, x2, atol=0)


def test_one_residual_contract(monkeypatch, params, quadratic_field):
    # the cached-factor slab solves and the standalone solve read one constant
    disc = Discretization(structured_mesh(2, 2), 0, params)
    case = default_mms(params)
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolverError):
        march(disc, 1, TimeGrid(0.5, 2), case.initial_state(disc), case.sources())
    with pytest.raises(SolverError):
        projection_p1(disc, *quadratic_field)


def test_min_eig_trivial_cases():
    assert dense_min_eig_sym(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert dense_min_eig_sym(np.diag([3.0, -2.0])) == pytest.approx(-2.0, abs=1e-12)
    assert dense_min_eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-10)
    assert dense_min_eig_sym(sp.eye(6, format="csr")) == pytest.approx(1.0, abs=1e-12)
