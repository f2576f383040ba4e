"""Spans and counters recorded from outside the package.

The tracer replaces each public target with a timing wrapper in every
structdist namespace that holds a reference to it (the package, the module
that defines it and every module that imported it), so a call made from
inside the package, e.g. study's call to draw_multinomial, is seen too.
Spans (name, start, end, parent) stay in memory in flat arrays and are
written out at the end. A target that a later refactor renamed or removed
is listed as missing and its metrics read 0.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

# (layer, module, attribute); "Class.method" patches the method on the class.
TARGETS = (
    ("generators.cells", "structdist.generators", "cells_from_generator"),
    ("generators.limit", "structdist.generators", "limit_sdf"),
    ("sampling.draw", "structdist.sampling", "draw_multinomial"),
    ("sampling.draw", "structdist.sampling", "draw_poissonized"),
    ("sampling.draw", "structdist.sampling", "draw_poissonized_grouped"),
    ("sampling.draw", "structdist.sampling", "draw_coupled"),
    ("sampling.group", "structdist.sampling", "group_counts"),
    ("sampling.stream", "structdist.sampling", "RngStream.generator"),
    ("sampling.stream", "structdist.sampling", "RngStream.substream"),
    ("estimators.build", "structdist.estimators", "natural_estimator"),
    ("estimators.build", "structdist.estimators", "grouped_estimator"),
    ("estimators.build", "structdist.estimators", "grouped_estimator_from_grouped_counts"),
    ("model.eval", "structdist.model", "StepCdf.__call__"),
    ("model.eval", "structdist.model", "StepCdf.before"),
    ("model.sup", "structdist.model", "sup_distance"),
    ("model.sup", "structdist.model", "sup_distance_to_function"),
    ("asymptotics.quad", "structdist.asymptotics", "poisson_mixture_cdf"),
    ("study", "structdist.study", "run_mse_study"),
    ("study", "structdist.study", "variance_audit"),
    ("study", "structdist.study", "sweep_m"),
    ("study", "structdist.study", "poissonization_gap"),
    ("study", "structdist.study", "consistency_trend"),
    ("ingest.tokenize", "structdist.ingest", "tokenize"),
    ("ingest.estimate", "structdist.ingest", "estimate_from_corpus"),
    ("cli", "structdist.cli", "main"),
)


def _cells(result) -> int:
    parts = result if isinstance(result, tuple) else (result,)
    return sum(int(getattr(p, "size", 0)) for p in parts)


class Tracer:
    """Records spans at layer boundaries, and counts at the same boundaries,
    attributed to the root span ("bench.setup" or "bench.op") they ran under."""

    def __init__(self):
        self.names: list[str] = []
        self.code = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.root = array("l")
        self._stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list = []
        self._quad_code = -1

    # ---------- recording ----------

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        idx = len(self.code)
        parent = self._stack[-1] if self._stack else -1
        self.code.append(code)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        phase = self.names[self.code[self.root[self._stack[-1]]]] if self._stack else "none"
        self.counts[(phase, name)] += value

    def run_root(self, name: str, fn, *args):
        """Call fn(*args) under a root span."""
        idx = self._open(self._code(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # ---------- patching ----------

    def _wrap(self, fn, layer: str):
        code = self._code(layer)
        tracer = self
        hook = {
            "sampling.draw": lambda r: (tracer.count("draws", 1), tracer.count("cells_drawn", _cells(r))),
            "estimators.build": lambda r: (
                tracer.count("builds", 1), tracer.count("jumps", r.cdf.n_jumps), tracer.count("values", r.size)
            ),
            "model.eval": lambda r: tracer.count("evals", 1),
            "asymptotics.quad": lambda r: tracer.count("quad_points", 1),
            "ingest.tokenize": lambda r: tracer.count("tokens", len(r.tokens)),
        }.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    hook(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def _counting_by_name(self, by_name):
        """A generator resolver whose generators count density evaluations made
        inside a quadrature span (the integrand calls)."""
        tracer = self

        def counting(gen):
            g = gen.g

            def counted_g(u):
                if tracer._stack and tracer.code[tracer._stack[-1]] == tracer._quad_code:
                    tracer.count("integrand_evals", 1)
                return g(u)

            return dataclasses.replace(gen, g=counted_g)

        @functools.wraps(by_name)
        def resolve(spec):
            gen = by_name(spec)
            try:
                return counting(gen)
            except (TypeError, AttributeError):
                return gen

        return resolve

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("structdist"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        self._quad_code = self._code("asymptotics.quad")
        self.missing = []
        for layer, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or (meth not in vars(owner) if owner_name else not hasattr(owner, meth)):
                self.missing.append(f"{modname}.{attr}")
                continue
            if owner_name:
                original = vars(owner)[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, layer))
            else:
                original = getattr(owner, meth)
                self._patch_everywhere(original, self._wrap(original, layer))
        generators = sys.modules.get("structdist.generators")
        if generators is not None and hasattr(generators, "by_name"):
            original = generators.by_name
            self._patch_everywhere(original, self._counting_by_name(original))
        else:
            self.missing.append("structdist.generators.by_name")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------- reduction ----------

    def self_times(self) -> dict:
        """Self time (duration minus direct children) summed per (root name, span name)."""
        n = len(self.code)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict = defaultdict(float)
        for i in range(n):
            phase = self.names[self.code[self.root[i]]]
            out[(phase, self.names[self.code[i]])] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,root\n")
            for i in range(len(self.code)):
                fh.write(f"{self.names[self.code[i]]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.root[i]}\n")
