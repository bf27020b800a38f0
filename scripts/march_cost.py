#!/usr/bin/env python3
"""Per-slab and fixed cost of a cGP(k) march, and the kernel floor of a slab.

    PYTHONPATH=src python3 scripts/march_cost.py [--mesh 8] [--k 2] [--repeats 7]

A march of N slabs costs about fixed + N * per_slab.  The script times
marches of 16 and 128 slabs of ``discrete_case`` (trig factors, ell = 0,
T = 0.5) on an N x N mesh, the minimum of ``--repeats`` runs each, and
reports the slope between them as the per-slab cost and the intercept as the
fixed cost (stage factorizations, first-slab solve).  On a noisy host the
minimum and the slope isolate the per-slab layer.  On the 128-slab
trajectory it also times the verification that a temporal study runs on every
level: ``trajectory_errors`` (Linf samples only, as the studies call it) and
``mass_conservation_audit``, the minimum of ``--repeats`` calls each.

The kernel floor is what a slab cannot avoid: one stage solve, 2k products
of the stacked slab block [T; S] (one per Gauss node in each of the two
coupled matvecs, the refinement step and the residual check) and one product
of T (the left-end term of the right-hand side).  Each kernel is timed back
to back on one BLAS thread, as in the march; the reported time is the
minimum over repeats of the mean over a batch.  The gap between the per-slab
cost and the floor is the march's glue.
"""

import argparse
import time
import timeit

import numpy as np

from biotcgp.assembly import PhysicalParams
from biotcgp.linalg import serial_blas
from biotcgp.mesh import structured_mesh
from biotcgp.mms import discrete_case
from biotcgp.slab import Discretization, SlabOperators, TimeGrid, march
from biotcgp.verification import mass_conservation_audit, trajectory_errors

SLABS = (16, 128)
TOTAL_TIME = 0.5


def _best_seconds(fn, repeats):
    """Minimum wall time of ``repeats`` calls of ``fn``, and its last result."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _kernel_seconds(fn, repeats, number=200):
    return min(timeit.Timer(fn).repeat(repeat=repeats, number=number)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mesh", type=int, default=8, help="cells per side")
    parser.add_argument("--k", type=int, default=2, help="cGP order")
    parser.add_argument("--repeats", type=int, default=7, help="runs per timing")
    args = parser.parse_args()
    k = args.k

    disc = Discretization(structured_mesh(args.mesh, args.mesh), 0, PhysicalParams())
    case = discrete_case(disc, 4.0)
    sources = case.sources()
    march(disc, k, TimeGrid(TOTAL_TIME, 2), case.initial_state(), sources)  # warm caches
    (few, _), (many, traj) = (
        _best_seconds(lambda: march(disc, k, TimeGrid(TOTAL_TIME, n), case.initial_state(),
                                    sources), args.repeats)
        for n in SLABS)
    errors = _best_seconds(lambda: trajectory_errors(traj, case, l2_in_time=False),
                           args.repeats)[0]
    audit = _best_seconds(lambda: mass_conservation_audit(traj, sources), args.repeats)[0]
    per_slab = (many - few) / (SLABS[1] - SLABS[0])
    fixed = few - SLABS[0] * per_slab

    rng = np.random.default_rng(0)
    ops = SlabOperators(disc, k, TOTAL_TIME / SLABS[1])
    n = k * ops.block_size
    ops.solve(rng.standard_normal(n))              # builds the stage factorization
    stages = ops._factor.inner
    stacked, t_block = disc.slab_blocks, disc.time_derivative_block
    x, node = rng.standard_normal(n), rng.standard_normal(ops.block_size)
    with serial_blas():
        solve = _kernel_seconds(lambda: stages.solve(x), args.repeats)
        product = _kernel_seconds(lambda: stacked @ node, args.repeats)
        t_product = _kernel_seconds(lambda: t_block @ node, args.repeats)
        matvec = _kernel_seconds(lambda: ops.inner_matrix @ x, args.repeats)
    floor = solve + 2 * k * product + t_product

    print(f"march {args.mesh}x{args.mesh}, k = {k}, block {ops.block_size}: "
          f"{SLABS[0]} slabs {1e3 * few:.1f} ms, {SLABS[1]} slabs {1e3 * many:.1f} ms "
          f"(min of {args.repeats})")
    print(f"per slab {1e3 * per_slab:.3f} ms, fixed {1e3 * fixed:.1f} ms")
    print(f"kernel floor per slab {1e3 * floor:.3f} ms: stage solve {1e3 * solve:.3f} ms, "
          f"[T; S] product {1e3 * product:.4f} ms x {2 * k}, "
          f"T product {1e3 * t_product:.4f} ms x 1")
    print(f"glue per slab {1e3 * (per_slab - floor):.3f} ms; coupled matvec "
          f"{1e3 * matvec:.4f} ms against {1e3 * k * product:.4f} ms for its {k} products")
    print(f"verification of the {SLABS[1]}-slab trajectory: trajectory_errors "
          f"{1e3 * errors:.3f} ms, mass_conservation_audit {1e3 * audit:.3f} ms "
          f"(min of {args.repeats})")


if __name__ == "__main__":
    main()
