#!/usr/bin/env python3
"""Compare the benchmark workloads' outputs of two source trees.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT

For seeds 0-7, every workload of ``perfbench/workloads.py`` runs once on each
tree, each run in a fresh interpreter with that tree's ``src`` and
``perfbench`` first on the path, writing into a temporary directory.  Per
workload it prints whether the ``output_digest``s of the two trees are equal
on every seed, the output checks that failed on either side, and the worst
reference deviation of each side as a fraction of its tolerance (> 1 fails).
The trees are only read; the exit status is 1 if any check failed.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

SEEDS = range(8)


def _child(root: str, *args: str) -> str:
    """Run this script's child mode on ``root`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", root, *args],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root} {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.splitlines()[-1]


def _run_workload(name: str, seed: int) -> dict:
    import workloads
    from biotcgp.linalg import SolverError

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    with tempfile.TemporaryDirectory() as out_dir:
        try:
            workload.execute(inputs, out_dir)
        except SolverError:  # a failed solve is a failed check, as in the benchmark
            return {"digest": None, "failed": ["SolverError"],
                    "deviation": math.inf}
        checks = workloads.check_outputs(workload, inputs, seed, out_dir)
        with open(workloads.REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)[name][str(seed % workloads.PARAM_SETS)]
        table = workloads.read_csv(os.path.join(out_dir, workload.csv_name))
        deviation = max((workloads._cell_deviation(column, got, want)
                         for column, column_want in reference.items()
                         for got, want in zip(table.get(column, []), column_want)),
                        default=0.0)
        return {"digest": workloads.output_digest(out_dir),
                "failed": [check.name for check in checks if not check.passed],
                "deviation": deviation}


def child(root: str, *args: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    if not args:
        import workloads
        print(json.dumps(sorted(workloads.WORKLOADS)))
    else:
        print(json.dumps(_run_workload(args[0], int(args[1]))))


def main(old: str, new: str) -> int:
    roots = {"old": os.path.abspath(old), "new": os.path.abspath(new)}
    names = json.loads(_child(roots["new"]))
    any_failed = False
    print(f"{'workload':12s} {'digests equal':>14s}  worst deviation old -> new  failed checks")
    for name in names:
        equal, worst, failed = 0, {"old": 0.0, "new": 0.0}, []
        for seed in SEEDS:
            runs = {side: json.loads(_child(root, name, str(seed))) for side, root in roots.items()}
            digest = runs["old"]["digest"]
            equal += digest is not None and digest == runs["new"]["digest"]
            for side, run in runs.items():
                worst[side] = max(worst[side], run["deviation"])
                failed += [f"{side}:seed{seed}:{check}" for check in run["failed"]]
        any_failed |= bool(failed)
        print(f"{name:12s} {equal:>10d}/{len(SEEDS)}   "
              f"{worst['old']:11.4g} -> {worst['new']:<11.4g}  {' '.join(failed) or 'none'}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        child(*sys.argv[2:])
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
