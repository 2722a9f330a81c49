"""Span tracer that measures the gradedorbits layers from outside the package.

While installed, every public function of a layer module is replaced, in
the namespace of each layer module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent) and feeds a few
counters.  Intra-module calls go through the module's own globals, so they
are traced too.  Methods of the package's classes are not wrapped: their
time counts as self time of the layer that calls them.

Spans live in flat arrays while the run lasts and are written out at the
end; self times, call counts and ratios are derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter
from types import FunctionType

PACKAGE = "gradedorbits"
LAYERS = ("exactlin", "liegrade", "orbitlib", "rootdata", "ffgeom", "cohom", "cli")
RATIONAL_ELIMINATION = ("exactlin.nullspace", "exactlin.solve_linear", "exactlin.rank_rational")
TIMED_FUNCTIONS = (
    "exactlin.nullspace", "exactlin.solve_linear", "exactlin.rank_rational",
    "exactlin.hermite_rows", "exactlin.invariant_factors",
    "liegrade.graded_component", "liegrade.adapted_sl2_triple", "liegrade.canonical_parabolic",
)
COUNTED_FUNCTIONS = TIMED_FUNCTIONS + (
    "exactlin.rat_inverse", "liegrade.check_n_rigid", "cohom.load_case", "cohom.counting_polynomial",
)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = Counter()
        self.patches = []
        for caller, module in self.modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not isinstance(fn, FunctionType):
                    continue
                owner = fn.__module__.rpartition(".")[2]
                if owner not in self.modules or owner == "cli":
                    continue
                self.patches.append((module, attr, fn, self.wrap(fn, f"{owner}.{fn.__name__}", caller)))

    def install(self):
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self.patches:
            setattr(module, attr, fn)

    def wrap(self, fn, name, caller):
        """``fn`` as called from module ``caller``, recording a span per call.

        Generator functions get no span (their body runs in the consumer's
        span); the items they yield are counted instead."""
        counts = self.counts
        pair = f"{caller}->{name}"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                counts[pair] += 1
                for item in fn(*args, **kwargs):
                    counts[name + ".items"] += 1
                    yield item
            return generator_wrapper

        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, names, parents = self.stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        elimination = name in RATIONAL_ELIMINATION

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[pair] += 1
            if elimination and args and args[0]:
                cells = len(args[0]) * len(args[0][0])
                counts["elim_cells"] += cells
                counts["elim_max_cells"] = max(counts["elim_max_cells"], cells)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if name == "orbitlib.graded_orbit_reps_typeA":
                counts["reps"] += len(result)
            elif name == "ffgeom.count_stable_flags":
                counts["flags"] += result
            return result

        return wrapper

    def calls(self, name, caller=None):
        if caller is not None:
            return self.counts[f"{caller}->{name}"]
        return sum(v for k, v in self.counts.items() if k.endswith("->" + name))

    def span_stats(self):
        """Self seconds per layer and inclusive seconds per function name.

        A span's self time is its duration minus its children's durations.
        Inclusive time counts only the outermost of nested spans of a name."""
        n = len(self.span_name)
        child = [0.0] * n
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += duration[i]
        self_s = Counter()
        inclusive = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name.partition(".")[0]] += duration[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != self.span_name[i]:
                p = self.span_parent[p]
            if p < 0:
                inclusive[name] += duration[i]
        return self_s, inclusive

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json as name -> (value, unit),
        apart from the two that need figures of other rounds:
        trace.overhead_s and liegrade.graded_component_per_result."""
        self_s, inclusive = self.span_stats()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        for name in COUNTED_FUNCTIONS:
            out[f"{name}.calls"] = (self.calls(name), "count")
        for name in TIMED_FUNCTIONS:
            out[f"{name}.s"] = (inclusive[name], "s")
        closures = self.calls("exactlin.hermite_rows", caller="rootdata")
        families = self.calls("exactlin.torsion_primes_of_quotient", caller="rootdata")
        subspaces = c["ffgeom.enumerate_subspaces.items"]
        out.update({
            "exactlin.elim_cells": (c["elim_cells"], "count"),
            "exactlin.elim_max_cells": (c["elim_max_cells"], "count"),
            "liegrade.build_algebra.s": (inclusive["liegrade.build_algebra"], "s"),
            "orbitlib.reps": (c["reps"], "count"),
            "orbitlib.graded_orbit_dimension.s": (inclusive["orbitlib.graded_orbit_dimension"], "s"),
            "rootdata.closures": (closures, "count"),
            "rootdata.families": (families, "count"),
            "rootdata.families_per_closure": (ratio(families, closures), "ratio"),
            "ffgeom.sweeps": (self.calls("ffgeom.count_stable_flags"), "count"),
            "ffgeom.subspaces": (subspaces, "count"),
            "ffgeom.flags_per_subspace": (ratio(c["flags"], subspaces), "ratio"),
            "ffgeom.subspaces_per_s": (ratio(subspaces, inclusive["ffgeom.count_stable_flags"]), "1/s"),
        })
        return out

    def write_spans(self, path):
        """Gzipped CSV, one line per span: id, name, start, end, parent id
        (-1 for a root, which is one CLI call)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]}\n")
