#!/usr/bin/env python3
"""Compare the benchmark workloads' outputs of two source trees.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT

For seeds 0-7, every workload of ``perfbench/workloads.py`` runs once on each
tree, each run in a fresh interpreter with that tree's ``src`` and
``perfbench`` first on the path, writing into a temporary directory.  Per
workload it prints whether the ``output_digest``s of the two trees are equal
on every seed, the output checks that failed on either side, and the worst
reference deviation of each side as a fraction of its tolerance (> 1 fails).
Where the digests differ, it lists the output files, by relative path, whose
bytes differ on the first such seed, the largest relative change of any CSV
cell over all seeds, with its file, column and seed, and per CSV file the
largest relative change of each row (a study level) over all seeds, to be
read against the rounding noise of that level, and how many snapshot files,
summed over the seeds whose digests differ, decode to values that are not
bitwise equal (``read_legacy_vtk``: ASCII and binary files of the same values
count as equal), and per check name of ``summary.txt`` the range of new/old
of its ``measured=`` value over the seeds where that value differs.  The trees
are only read; the exit status is 1 if any check failed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest

import numpy as np

SEEDS = range(8)


def _child(root: str, *args: str) -> str:
    """Run this script's child mode on ``root`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", root, *args],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root} {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.splitlines()[-1]


def _file_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every output file, keyed by its path relative to ``out_dir``."""
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                hashes[os.path.relpath(path, out_dir)] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def read_legacy_vtk(path: str) -> dict[str, np.ndarray]:
    """The arrays of a legacy VTK file as this project writes it, ASCII or
    BINARY (big-endian float64 and int32), keyed by block: ``POINTS`` and
    ``VECTORS`` as (n, 3), ``CELLS``, ``CELL_TYPES``, ``VERTICES`` and
    ``SCALARS`` flat, data arrays by their name.  Values come back float64 or
    int32 in native order, so both encodings of the same arrays decode equal.
    Strict: raises ValueError unless every block holds exactly the values its
    header counts and the file ends right after the last block."""
    with open(path, "rb") as handle:
        data = handle.read()
    pos = 0

    def line() -> str:
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise ValueError(f"{path}: line at byte {pos} has no end")
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    if line() != "# vtk DataFile Version 3.0":
        raise ValueError(f"{path}: not a legacy VTK 3.0 file")
    line()                                  # title
    encoding, _ = line(), line()            # ASCII or BINARY, DATASET kind
    if encoding not in ("ASCII", "BINARY"):
        raise ValueError(f"{path}: unknown encoding {encoding!r}")
    arrays, count = {}, 0
    while pos < len(data):
        words = line().split()
        key = words[0] if words else ""
        if key in ("CELL_DATA", "POINT_DATA"):
            count = int(words[1])
            continue
        if key == "POINTS" and words[2:] == ["double"]:
            name, shape, dtype = key, (int(words[1]), 3), ">f8"
        elif len(words) == {"CELLS": 3, "VERTICES": 3, "CELL_TYPES": 2}.get(key):
            name, shape, dtype = key, (int(words[-1]),), ">i4"
        elif (key == "SCALARS" and words[2:] == ["double", "1"]
              and line() == "LOOKUP_TABLE default"):
            name, shape, dtype = words[1], (count,), ">f8"
        elif key == "VECTORS" and words[2:] == ["double"]:
            name, shape, dtype = words[1], (count, 3), ">f8"
        else:
            raise ValueError(f"{path}: unexpected block header {' '.join(words)!r}")
        size = math.prod(shape)
        if encoding == "BINARY":
            end = pos + np.dtype(dtype).itemsize * size
            if data[end:end + 1] != b"\n":
                raise ValueError(f"{path}: block {name} does not hold {size} values")
            values, pos = np.frombuffer(data[pos:end], dtype), end + 1
        else:
            tokens = []
            while len(tokens) < size:
                tokens += line().split()
            if len(tokens) != size:
                raise ValueError(f"{path}: block {name} does not hold {size} values")
            values = np.array([(float if dtype == ">f8" else int)(t) for t in tokens], dtype)
        arrays[name] = values.astype(dtype[1:]).reshape(shape)
    return arrays


def _vtk_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of the decoded arrays of every ``.vtk`` output file, names and
    native bytes, keyed by its path relative to ``out_dir``: equal hashes mean
    bitwise equal values (a -0.0 to 0.0 flip counts), whatever the encoding."""
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".vtk"):
                path = os.path.join(root, name)
                digest = hashlib.sha256()
                for key, values in read_legacy_vtk(path).items():
                    digest.update(f"{key} {values.dtype.str} {values.shape}\n".encode())
                    digest.update(values.tobytes())
                hashes[os.path.relpath(path, out_dir)] = digest.hexdigest()
    return hashes


def _csv_tables(out_dir: str) -> dict[str, dict[str, list[str]]]:
    """Every CSV output file as columns of cell strings, keyed by its path
    relative to ``out_dir``."""
    import workloads

    return {os.path.relpath(os.path.join(root, name), out_dir):
            workloads.read_csv(os.path.join(root, name))
            for root, _, files in os.walk(out_dir) for name in files if name.endswith(".csv")}


def _relative_change(old: str, new: str) -> float:
    """|new - old| / |old| of two CSV cells; 0 for equal text, inf where a
    differing cell is not a number or the old value is 0."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _row_changes(old: dict, new: dict) -> dict[str, list[tuple[float, str]]]:
    """Per CSV file of two runs' ``_csv_tables``, the largest relative change
    of any cell in each row and its column ('' where no cell of the row
    changed); a file whose columns or rows differ has the one row (inf, '')."""
    out = {}
    for path in sorted(old.keys() | new.keys()):
        before, after = old.get(path, {}), new.get(path, {})
        if sorted(before) != sorted(after) or any(len(before[c]) != len(after[c]) for c in before):
            out[path] = [(math.inf, "")]
            continue
        columns = {column: list(map(_relative_change, cells, after[column]))
                   for column, cells in before.items()}
        out[path] = [max([(0.0, "")] + [(changes[i], column) for column, changes
                                        in columns.items() if changes[i] > 0.0],
                         key=lambda item: item[0])
                     for i in range(len(next(iter(before.values()), [])))]
    return out


def _largest_csv_change(old: dict, new: dict) -> tuple[float, str]:
    """Largest relative change of any cell between two runs' ``_csv_tables``,
    and where: 'file:column', the file alone when its columns or rows differ,
    or '' when no cell changed."""
    worst = (0.0, "")
    for path, rows in _row_changes(old, new).items():
        for change, column in rows:
            if change > worst[0]:
                worst = change, f"{path}:{column}" if column else path
    return worst


def _measured(out_dir: str) -> dict[str, float]:
    """The ``measured=`` value of each check line of ``summary.txt``, keyed by
    check name; empty where the workload writes no summary."""
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        lines = [line.split() for line in handle]
    return {words[1]: float(word.split("=", 1)[1])
            for words in lines for word in words[2:] if word.startswith("measured=")}


def _measured_ratios(old: dict, new: dict) -> dict[str, float]:
    """new/old of every ``measured=`` value of two runs' ``_measured`` that
    differs, keyed by check name; inf where the old value is 0."""
    return {name: new[name] / old[name] if old[name] else math.inf
            for name in sorted(old.keys() & new.keys()) if new[name] != old[name]}


def _run_workload(name: str, seed: int) -> dict:
    import workloads
    from biotcgp.linalg import SolverError

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    with tempfile.TemporaryDirectory() as out_dir:
        try:
            workload.execute(inputs, out_dir)
        except SolverError:  # a failed solve is a failed check, as in the benchmark
            return {"digest": None, "failed": ["SolverError"], "deviation": math.inf,
                    "files": {}, "csv": {}, "vtk": {}, "measured": {}}
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
                "deviation": deviation,
                "files": _file_hashes(out_dir),
                "csv": _csv_tables(out_dir),
                "vtk": _vtk_hashes(out_dir),
                "measured": _measured(out_dir)}


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
        equal, worst, failed, differing = 0, {"old": 0.0, "new": 0.0}, [], None
        largest = (0.0, "", None)    # relative CSV change, where, seed
        by_row = {}                  # CSV file -> largest relative change per row
        vtk_changed, vtk_files = 0, 0    # decoded snapshot files that differ, all compared
        ratios = {}                  # check -> lowest and highest new/old measured=, seeds
        for seed in SEEDS:
            runs = {side: json.loads(_child(root, name, str(seed))) for side, root in roots.items()}
            digest = runs["old"]["digest"]
            same = digest is not None and digest == runs["new"]["digest"]
            equal += same
            if not same:
                change, where = _largest_csv_change(runs["old"]["csv"], runs["new"]["csv"])
                largest = max(largest, (change, where, seed), key=lambda item: item[0])
                for path, rows in _row_changes(runs["old"]["csv"], runs["new"]["csv"]).items():
                    by_row[path] = [max(a, b) for a, b in zip_longest(
                        by_row.get(path, []), (c for c, _ in rows), fillvalue=0.0)]
                old_vtk, new_vtk = runs["old"]["vtk"], runs["new"]["vtk"]
                vtk_paths = old_vtk.keys() | new_vtk.keys()
                vtk_files += len(vtk_paths)
                vtk_changed += sum(old_vtk.get(path) != new_vtk.get(path) for path in vtk_paths)
                for check, ratio in _measured_ratios(runs["old"]["measured"],
                                                     runs["new"]["measured"]).items():
                    low, high, seeds = ratios.get(check, (ratio, ratio, 0))
                    ratios[check] = min(low, ratio), max(high, ratio), seeds + 1
            if not same and differing is None:
                old_files, new_files = runs["old"]["files"], runs["new"]["files"]
                differing = seed, sorted(path for path in old_files.keys() | new_files.keys()
                                         if old_files.get(path) != new_files.get(path))
            for side, run in runs.items():
                worst[side] = max(worst[side], run["deviation"])
                failed += [f"{side}:seed{seed}:{check}" for check in run["failed"]]
        any_failed |= bool(failed)
        print(f"{name:12s} {equal:>10d}/{len(SEEDS)}   "
              f"{worst['old']:11.4g} -> {worst['new']:<11.4g}  {' '.join(failed) or 'none'}")
        if differing is not None:
            seed, paths = differing
            print(f"{'':12s} seed {seed} differs in: {' '.join(paths) or 'no file (a run failed)'}")
            change, where, seed = largest
            print(f"{'':12s} largest relative CSV cell change: {change:.3g}"
                  + (f" in {where} (seed {seed})" if where else ""))
            for path, rows in sorted(by_row.items()):
                if any(rows):
                    print(f"{'':12s} {path} per row: {' '.join(f'{c:.2g}' for c in rows)}")
            if vtk_files:
                print(f"{'':12s} snapshot files with different decoded values: "
                      f"{vtk_changed} of {vtk_files}")
            for check, (low, high, seeds) in sorted(ratios.items()):
                print(f"{'':12s} summary.txt {check} measured= new/old: {low:.6g} to {high:.6g}"
                      f" ({seeds} seeds)")
    return 1 if any_failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        child(*sys.argv[2:])
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
