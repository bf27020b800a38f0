"""Spans and counts recorded from outside the program, by wrapping biotcgp's
public functions, methods and cached properties for the length of one call.

A wrapped function is replaced wherever a biotcgp module binds it, because the
modules import names with ``from .x import y``: patching only the defining
module would miss ``biotcgp.verification.march`` and the like.  Spans live in
memory as ``[name, start, end, parent]`` rows and are written out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import numpy as np

# Span names are ``<layer>.<what>``; per-layer times are the self times of all
# spans of one name (a span's duration minus that of its direct children).
SPAN_METRICS = ("spaces.build", "spaces.volume", "spaces.volume_seconds",
                "spaces.edge_traces", "spaces.tabulate_at",
                "assembly.operators", "assembly.elasticity_rhs", "assembly.load",
                "slab.operators", "slab.rhs", "slab.solve",
                "linalg.factor", "linalg.solve",
                "verification.errors", "verification.audit",
                "io.format", "io.write", "cli.run")

COUNT_METRICS = ("spaces.tab_bytes", "assembly.load_calls", "slab.unknowns",
                 "slab.solves", "slab.residual_max", "linalg.factors", "linalg.nnz_lu",
                 "linalg.solves", "verification.error_samples",
                 "verification.audit_max")

DISCRETIZATION_OPERATORS = ("mass_bdm", "elasticity", "mass_kinv", "div_w",
                            "div_u_alpha", "mass_p")


def _count(key):
    def observe(stats, args, result):
        stats[key] = stats.get(key, 0) + 1
    return observe


def _maximum(key, value):
    def observe(stats, args, result):
        stats[key] = max(stats.get(key, 0), value(args, result))
    return observe


def _table_bytes(stats, args, result):
    """Bytes of the tabulated arrays a space keeps, computed from ``nbytes``;
    broadcast views (a zero stride) hold no memory of their own."""
    arrays = ([getattr(result, f.name) for f in dataclasses.fields(result)]
              if dataclasses.is_dataclass(result) else [result])
    total = sum(a.nbytes for a in arrays
                if isinstance(a, np.ndarray) and 0 not in a.strides)
    stats["spaces.tab_bytes"] = stats.get("spaces.tab_bytes", 0) + total


def _lu_counts(stats, args, result):
    stats["linalg.factors"] = stats.get("linalg.factors", 0) + 1
    nnz = result.L.nnz + result.U.nnz
    stats["linalg.nnz_lu"] = max(stats.get("linalg.nnz_lu", 0), nnz)


# (module, function, span name or None for count-only, observer)
FUNCTIONS = (
    ("biotcgp.mesh", "structured_mesh", "spaces.build", None),
    ("biotcgp.assembly", "assemble_load", "assembly.load", _count("assembly.load_calls")),
    ("biotcgp.assembly", "assemble_elasticity_rhs", "assembly.elasticity_rhs", None),
    ("biotcgp.linalg", "lu_factor", None, _lu_counts),
    ("biotcgp.verification", "trajectory_errors", "verification.errors", None),
    ("biotcgp.verification", "field_error_norms", "verification.errors",
     _count("verification.error_samples")),
    ("biotcgp.verification", "mass_conservation_audit", "verification.audit",
     _maximum("verification.audit_max", lambda args, result: result)),
    ("biotcgp.mesh", "write_vtk_mesh", "io.format", None),
    ("biotcgp.mesh", "write_vtk_edges", "io.format", None),
    ("biotcgp.ioutil", "atomic_write_text", "io.write", None),
)

# (module, class, attribute, span name or None, observer); cached properties
# are wrapped through their getter, so only the first access is a span.
METHODS = (
    ("biotcgp.slab", "Discretization", "__init__", "spaces.build", None),
    *(("biotcgp.slab", "Discretization", op, "assembly.operators", None)
      for op in DISCRETIZATION_OPERATORS),
    ("biotcgp.spaces", "FunctionSpace", "volume", "spaces.volume", _table_bytes),
    ("biotcgp.spaces", "FunctionSpace", "volume_seconds", "spaces.volume_seconds",
     _table_bytes),
    ("biotcgp.spaces", "FunctionSpace", "edge_traces", "spaces.edge_traces",
     _table_bytes),
    ("biotcgp.spaces", "FunctionSpace", "tabulate_at", "spaces.tabulate_at", None),
    ("biotcgp.slab", "SlabOperators", "__init__", "slab.operators",
     _maximum("slab.unknowns", lambda args, result: args[0].inner_matrix.shape[0])),
    ("biotcgp.slab", "SlabOperators", "rhs", "slab.rhs", None),
    ("biotcgp.slab", "SlabOperators", "solve", "slab.solve", _count("slab.solves")),
    ("biotcgp.linalg", "BorderedFactor", "__init__", "linalg.factor", None),
    ("biotcgp.linalg", "BorderedFactor", "solve", "linalg.solve", _count("linalg.solves")),
    ("biotcgp.linalg", "LinearSystem", "residual", None,
     _maximum("slab.residual_max", lambda args, result: result)),
)


class Tracer:
    """Installs the wrappers for one traced call and collects its spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, time.perf_counter(), 0.0, parent]
                tracer.spans.append(span)
                tracer._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    span[2] = time.perf_counter()
            if observe is not None:
                observe(tracer.stats, args, result)
            return result
        return wrapper

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "biotcgp" or key.startswith("biotcgp.")]
        for module_name, attr, name, observe in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, observe)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapper)
        for module_name, cls_name, attr, name, observe in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self.wrap(original.func, name, observe))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self.wrap(original, name, observe)
            self._replace(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as the root span ``name`` with every wrapper installed."""
        self.install()
        try:
            return self.wrap(fn, name, None)(*args, **kwargs)
        finally:
            self.uninstall()

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + seconds
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (``<span>_s``) and counts of this call."""
        times = self.self_times()
        out = {f"{name}_s": times.get(name, 0.0) for name in SPAN_METRICS}
        out.update({key: self.stats.get(key, 0) for key in COUNT_METRICS})
        factors = out["linalg.factors"]
        out["linalg.solves_per_factor"] = out["linalg.solves"] / factors if factors else 0.0
        return out

    def dump(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent} for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "stats": self.stats}, handle)
