"""Trajectory values and error norms at one arbitrary time: the per-sample
reference that tests check the batched ``verification.trajectory_errors``
and the stored slab coefficients against."""

import numpy as np

from biotcgp import verification as ver
from biotcgp.slab import FIELDS
from biotcgp.time_basis import lagrange_basis


def locate(traj, t: float) -> tuple[int, float]:
    """Index n (1-based) of the slab holding time t, and that slab's left end."""
    grid = traj.grid
    if t < -1e-12 or t > grid.total_time * (1.0 + 1e-12) + 1e-12:
        raise ValueError(f"time {t} outside [0, {grid.total_time}]")
    ends = grid.endpoints
    n = int(np.searchsorted(ends, min(max(t, 0.0), grid.total_time), side="left"))
    n = max(1, min(grid.num_slabs, n))
    return n, ends[n - 1]


def eval_at(traj, field_name: str, t: float) -> np.ndarray:
    """Coefficient vector at time t (Lagrange evaluation within the slab)."""
    ends = traj.grid.endpoints
    hit = np.flatnonzero(ends == t)
    if hit.size:  # endpoints resolve to the shared stored values
        return traj.endpoint(field_name, int(hit[0]))
    n, t_left = locate(traj, t)
    s = (t - t_left) / traj.grid.tau
    basis = lagrange_basis("G0", traj.k)
    return np.einsum("i,id->d", basis.eval_all(np.asarray(s)), traj.coeffs[field_name][n - 1])


def sample_error_norms(traj, case, t: float) -> dict[str, float]:
    """``field_error_norms`` of the trajectory at the single time t."""
    norms = ver._stacked_errors(traj.disc, case,
                                {f: eval_at(traj, f, t)[None] for f in FIELDS}, [t])
    return {key: float(val[0]) for key, val in norms.items()}
