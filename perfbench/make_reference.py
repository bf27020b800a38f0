"""Regenerate ``reference.json``: the CSV table of every workload for every
parameter set, taken from one run of the current program.

Run from the repository root, only when the outputs are meant to change:

    python3 perfbench/make_reference.py

Every workload's own checks (summary PASS, audit, criterion-3 bands, snapshot
count) must pass before its table is stored.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in wl.WORKLOADS.items():
        reference[name] = {}
        for index in range(wl.PARAM_SETS):
            inputs = workload.inputs(index)
            with tempfile.TemporaryDirectory(dir=os.getcwd()) as out_dir:
                workload.execute(inputs, out_dir)
                failed = [c for c in workload.extra_checks(inputs, out_dir) if not c.passed]
                if failed:
                    print(f"{name} set {index}: {failed}", file=sys.stderr)
                    return 1
                reference[name][str(index)] = wl.read_csv(
                    os.path.join(out_dir, workload.csv_name))
            print(f"{name} set {index}: {wl.draw_params(index)}", flush=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
