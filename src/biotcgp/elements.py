"""Reference-triangle bases and spatial quadrature.

The reference triangle has vertices (0,0), (1,0), (0,1).  Vector elements span
the full polynomial space [P_r]^2 with normal-trace DOFs realized at Gauss
points of each edge plus the classical interior moments; their dual basis is
built per cell by ``spaces.FunctionSpace``.  Scalar DG elements use an
L2-orthonormal modal basis so cell mass matrices are diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .time_basis import gauss_legendre_rule, gauss_rule

__all__ = ["GeometryError", "ReferenceElement", "reference_element", "triangle_rule"]


class GeometryError(ValueError):
    """Degenerate or negatively oriented cell map."""


# --- monomial exponents and exact moments ----------------------------------

def scalar_exponents(degree: int) -> list[tuple[int, int]]:
    """Monomial exponents of P_degree, ordered by total degree."""
    return [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]


def _tri_moment(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# --- symmetric quadrature on the triangle ----------------------------------

_DUNAVANT = {
    1: [((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 1.0)],
    2: [((2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0), 1.0 / 3.0)],
    4: [((0.108103018168070, 0.445948490915965, 0.445948490915965), 0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771), 0.109951743655322)],
    5: [((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 0.225),
        ((0.059715871789770, 0.470142064105115, 0.470142064105115), 0.132394152788506),
        ((0.797426985353087, 0.101286507323456, 0.101286507323456), 0.125939180544827)],
}


def _permute_barycentric(group):
    (b0, b1, b2), w = group
    seen = []
    for perm in {(b0, b1, b2), (b0, b2, b1), (b1, b0, b2), (b1, b2, b0),
                 (b2, b0, b1), (b2, b1, b0)}:
        seen.append(perm)
    seen.sort()
    return [(p, w) for p in seen]


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the reference triangle exact for total degree ``degree``.

    Symmetric tabulated rules up to degree 5; a collapsed tensor Gauss rule
    (exact by construction) above that.  Weights sum to the area 1/2.
    """
    if degree < 1 or degree > 12:
        raise ValueError(f"triangle rule degree {degree} unsupported (1..12)")
    table_degree = next((d for d in (1, 2, 4, 5) if d >= degree), None)
    if table_degree is not None:
        pts, wts = [], []
        for group in _DUNAVANT[table_degree]:
            for (b0, b1, b2), w in _permute_barycentric(group):
                pts.append((b1, b2))
                wts.append(w)
        points = np.asarray(pts)
        weights = 0.5 * np.asarray(wts)
    else:
        n = (degree + 3) // 2  # covers the extra (1-u) factor of the collapse
        line = gauss_legendre_rule(n)
        u, wu = line.nodes, line.weights
        uu, vv = np.meshgrid(u, u, indexing="ij")
        ww = np.outer(wu, wu) * (1.0 - uu)
        points = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
        weights = ww.ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


# --- monomial tabulation ----------------------------------------------------

def eval_scalar_monomials(exps, points: np.ndarray, order: int = 0) -> np.ndarray:
    """Derivatives of order ``order`` of x^a y^b; shape (n_monomials, ...,
    *[2]*order), one trailing axis per derivative direction (0 = x, 1 = y)."""
    x, y = points[..., 0], points[..., 1]
    out = np.zeros((len(exps),) + x.shape + (2,) * order)
    for m, (a, b) in enumerate(exps):
        for dirs in itertools.product((0, 1), repeat=order):
            j = sum(dirs)
            i = order - j
            c = math.perm(a, i) * math.perm(b, j)
            if c:
                out[(m, ...) + dirs] = c * x ** (a - i) * y ** (b - j)
    return out


def eval_vector_monomials(exps, points: np.ndarray, order: int = 0) -> np.ndarray:
    """[P_r]^2 monomials as (m,0) block then (0,m) block, differentiated
    ``order`` times; shape (2*nm, ..., 2, *[2]*order), the component axis
    before the derivative axes."""
    scal = eval_scalar_monomials(exps, points, order)
    nm = len(exps)
    lead = scal.ndim - order
    out = np.zeros((2 * nm,) + scal.shape[1:lead] + (2,) + scal.shape[lead:])
    comp = np.moveaxis(out, lead, 1)          # a view with the component axis second
    comp[:nm, 0] = scal
    comp[nm:, 1] = scal
    return out


# --- reference elements -----------------------------------------------------

@dataclass(frozen=True)
class ReferenceElement:
    """Reference data of BDM_r vectors or orthonormal modal P_l scalars.

    BDM keeps what ``FunctionSpace`` builds its per-cell dual basis from: the
    monomial exponents of [P_r]^2, the r+1 Gauss points per edge at which the
    normal values are taken, and the DOF counts (for r = 2 also the interior
    moments against constant fields and the bubble curl).  DGP keeps its
    modal basis, ``modal_coeffs[m, i]`` expanding basis i in the monomial list;
    it is orthonormal on the reference triangle and the DOFs are the matching
    L2 moments, so duality is exact by construction.
    """

    family: str
    degree: int
    exponents: tuple = field(repr=False)
    edge_points: np.ndarray = field(repr=False)   # Gauss nodes on [0,1]; empty for DGP
    modal_coeffs: np.ndarray | None = field(default=None, repr=False)   # DGP only

    @property
    def dim(self) -> int:
        return len(self.exponents) * (2 if self.family == "BDM" else 1)

    @property
    def n_edge_dofs(self) -> int:
        return self.edge_points.size

    @property
    def n_interior_dofs(self) -> int:
        return self.dim - 3 * self.n_edge_dofs

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        """DGP modal basis values at points of any leading shape; (..., nd)."""
        monos = eval_scalar_monomials(self.exponents, points)
        return np.einsum("mi,m...->...i", self.modal_coeffs, monos)


def _orthonormal_modal(degree: int) -> tuple[tuple, np.ndarray]:
    """Modal basis with int_ref b_i b_j = area * delta_ij and constant mode 1.

    The scaling makes every physical cell mass matrix diag(cell area) and the
    lowest mode literally the constant function 1.
    """
    exps = tuple(scalar_exponents(degree))
    n = len(exps)
    gram = np.empty((n, n))
    for i, (a1, b1) in enumerate(exps):
        for j, (a2, b2) in enumerate(exps):
            gram[i, j] = _tri_moment(a1 + a2, b1 + b2)
    lower = np.linalg.cholesky(gram)
    coeffs = np.linalg.inv(lower).T / math.sqrt(2.0)   # basis_i = sum coeffs[m, i] mono_m
    return exps, coeffs


@lru_cache(maxsize=None)
def reference_element(family: str, degree: int) -> ReferenceElement:
    if family == "DGP":
        if degree not in (0, 1):
            raise ValueError(f"DGP degree {degree} unsupported (0 or 1)")
        exps, coeffs = _orthonormal_modal(degree)
        coeffs.setflags(write=False)
        return ReferenceElement(family, degree, exps, np.zeros(0), coeffs)
    if family != "BDM":
        raise ValueError(f"unknown element family {family!r}")
    if degree not in (1, 2):
        raise ValueError(f"BDM degree {degree} unsupported (1 or 2)")
    return ReferenceElement("BDM", degree, tuple(scalar_exponents(degree)),
                            gauss_rule(degree + 1).nodes)
