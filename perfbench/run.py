"""biotcgp benchmark: time to a verified convergence table.

Run from the repository root:

    python3 perfbench/run.py --workload temporal --seed 1 --seconds 25 --trace 0

The workloads are defined in ``workloads.py`` and described in
``BENCHMARK.json``.  One process runs the workload's entry call in a closed
loop for ``--seconds`` (at least ``MIN_SAMPLES`` calls, after one untimed
warm-up call), each call writing into a fresh directory under
``.perfbench_out/`` that is checked and then removed.

``--trace 0`` reports the end-to-end metrics:
  norm_wall_s       median wall time of one entry call, tracing off, each call
                    scaled by the machine speed measured around it
                    (``calibrate.py``) to seconds on the unloaded reference
                    machine
  setup_s           median over ``SETUP_PROBES`` fresh interpreters of the time
                    from interpreter start through ``import biotcgp`` and the
                    generation of the workload's inputs
  peak_rss_mb       this process's ``ru_maxrss``
  check_pass_ratio  output checks passed / attempted (a SolverError is a
                    failed check)
``--trace 1`` alternates untraced and traced calls and reports the per-layer
metrics of ``spans.py`` (medians over the traced calls) plus the tracing
overhead; the spans of the last traced call go to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

Earlier lines of standard output are a readable report and a ``record`` line
with the samples and the platform; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

MIN_SAMPLES = 3
SETUP_PROBES = 5
RESIDUAL_MAX = 1e-10

# what a user's process pays before the first entry call
PROBE = ("import sys; sys.path[:0] = [sys.argv[3], sys.argv[4]]; import biotcgp, workloads; "
         "workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))")


def setup_seconds(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", PROBE, name, str(seed), SRC, HERE],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def output_size(out_dir: str) -> tuple[int, int]:
    files = total = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            total += os.path.getsize(os.path.join(root, name))
    return files, total


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, inputs, seed: int, seconds: float, trace: bool, run_dir: str):
    from biotcgp.linalg import SolverError
    from calibrate import Calibration, normalise
    from spans import Tracer
    import workloads as wl

    walls = {False: [], True: []}
    normalised = []
    layers: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = 0
    first_digest = None
    tracer = None
    calibration = Calibration()
    level = 0.0
    start = 0.0
    i = 0
    last = 0.0
    # call 0 warms lazy imports and allocator and is checked but not timed; the
    # clock starts after it.  Start no call that would end past ``seconds``,
    # once MIN_SAMPLES are in.
    while i <= MIN_SAMPLES or time.perf_counter() - start + last < seconds:
        warm_up = i == 0
        traced = trace and i % 2 == 0 and not warm_up
        out_dir = os.path.join(run_dir, f"call{i}")
        os.makedirs(out_dir)
        if traced:
            tracer = Tracer()
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.call(workload.entry, workload.execute, inputs, out_dir)
            else:
                workload.execute(inputs, out_dir)
            checks = []
        except SolverError as exc:
            checks = [wl.Check("solver", False, str(exc))]
        last = time.perf_counter() - t0
        before, level = level, calibration.sample(last)
        if warm_up:
            start = time.perf_counter()
        else:
            walls[traced].append(last)
            if not traced:
                normalised.append(normalise(last, (before + level) / 2))
        if not checks:
            checks = wl.check_outputs(workload, inputs, seed, out_dir)
            digest = wl.output_digest(out_dir)
            first_digest = first_digest or digest
            checks.append(wl.Check("rerun_identical", digest == first_digest))
        if traced:
            values = tracer.metrics()
            values["io.files"], values["io.bytes"] = output_size(out_dir)
            layers.append(values)
            residual = values["slab.residual_max"]
            checks.append(wl.Check("residual", residual <= RESIDUAL_MAX,
                                   f"max={residual:.3e} bound<={RESIDUAL_MAX:g}"))
        attempted += len(checks)
        failures += [f"call {i}: {c.name} {c.detail}" for c in checks if not c.passed]
        shutil.rmtree(out_dir)
        i += 1
    return walls, normalised, calibration, layers, tracer, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "biotcgp", "__init__.py")):
        print(f"perfbench: no biotcgp sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    setup = setup_seconds(workload.name, args.seed)
    inputs = workload.inputs(args.seed)
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        walls, normalised, calibration, layers, tracer, attempted, failures = measure(
            workload, inputs, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall = quartiles(walls[False])
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": wl.draw_params(args.seed),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "wall_s_samples": walls[False], "norm_wall_s_samples": normalised,
        "calibration_s_samples": calibration.samples,
        "setup_s_samples": setup,
        "checks_attempted": attempted, "checks_failed": len(failures),
    }
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed}: wall_s median {wall[1]:.4f} s "
          f"(q1 {wall[0]:.4f}, q3 {wall[2]:.4f}, {len(walls[False])} samples), "
          f"calibration median {statistics.median(calibration.samples):.5f} s "
          f"({len(calibration.samples)} samples), "
          f"norm_wall_s median {statistics.median(normalised):.4f} s, "
          f"setup_s median {statistics.median(setup):.4f} s ({len(setup)} samples), "
          f"checks {attempted - len(failures)}/{attempted} passed")

    if args.trace:
        metrics = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
        traced_wall = statistics.median(walls[True])
        metrics["trace.overhead_s"] = traced_wall - wall[1]
        record["traced_wall_s_samples"] = walls[True]
        total = sum(metrics[key] for key in metrics if key.endswith("_s")
                    and key != "trace.overhead_s")
        print(f"traced wall_s median {traced_wall:.4f} s ({len(walls[True])} samples); "
              f"overhead {metrics['trace.overhead_s']:+.4f} s; per-layer self time:")
        for key in sorted(metrics, key=lambda k: -metrics[k] if k.endswith("_s") else 0):
            share = f"{100 * metrics[key] / traced_wall:5.1f} %" if key.endswith("_s") else ""
            print(f"  {key:28s} {metrics[key]:14.6g} {share}")
        print(f"  {'(outside spans)':28s} {traced_wall - total:14.6g}")
        tracer.dump(os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json"))
    else:
        metrics = {
            "norm_wall_s": statistics.median(normalised),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "check_pass_ratio": (attempted - len(failures)) / attempted,
        }
    with open(SPEC, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
