"""Space-time finite elements for dynamic poroelasticity.

cGP(k) continuous Galerkin-Petrov time marching combined with H(div)-conforming
BDM / discontinuous-P spatial discretization of the three-field (displacement,
flux, pressure) dynamic Biot system, plus the verification harness used to
measure convergence orders and pointwise mass conservation.
"""

from .assembly import PhysicalParams
from .mesh import Mesh, structured_mesh, refine_uniform
from .mms import default_mms, discrete_case
from .slab import (Discretization, SlabState, SourceSet, TimeGrid, Trajectory,
                   march, project_initial_data)
from .spaces import build_space
from .verification import (eoc, mass_conservation_audit, projection_study,
                           spatial_study, temporal_study, trajectory_errors)

__all__ = [
    "PhysicalParams",
    "Mesh",
    "structured_mesh",
    "refine_uniform",
    "build_space",
    "Discretization",
    "SlabState",
    "SourceSet",
    "TimeGrid",
    "Trajectory",
    "march",
    "project_initial_data",
    "default_mms",
    "discrete_case",
    "eoc",
    "mass_conservation_audit",
    "projection_study",
    "spatial_study",
    "temporal_study",
    "trajectory_errors",
]
