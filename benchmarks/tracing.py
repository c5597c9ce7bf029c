"""Per-layer counts and self times, taken from outside the package.

``Tracer`` replaces the functions and methods each possind module offers
to the others with timing shims, in every module namespace that binds
them.  A layer is one module: core, conjunction, independence, graphoid,
serialize or cli.  Shims record nothing unless ``active`` is set, which
the benchmark does only around each timed operation.

A span's self time is its duration minus the durations of the spans it
called; a layer's self time is the sum over its spans.  Time spent in
numpy or the standard library counts to the layer that called it.
Counters are taken at the same boundaries, from the arguments and
results of the shimmed calls.
"""

from __future__ import annotations

import inspect
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("core", "conjunction", "independence", "graphoid", "serialize", "cli")


def _relation_size(args, kwargs):
    return len(args[0] if args else kwargs["rel"])


def _candidates(args, kwargs):
    # every candidate triplet over the scope gets a membership decision
    n = len((args[0] if args else kwargs["dist"]).scope)
    return 4**n - 2 * 3**n + 2**n


def _cells(args, kwargs):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _report_bytes(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--json" not in argv:
        return 0
    path = Path(argv[argv.index("--json") + 1])
    return path.stat().st_size if path.exists() else 0


#: (layer, qualified name) -> [(counter, amount from (args, kwargs, result))]
COUNTERS = {
    ("core", "Distribution.__init__"): [("distributions_built", lambda a, k, r: 1)],
    ("core", "Distribution.marginalize"): [("marginalize_calls", lambda a, k, r: 1)],
    ("core", "Distribution.extend"): [("extend_calls", lambda a, k, r: 1)],
    ("conjunction", "Conjunction.residuum"): [
        ("residuum_calls", lambda a, k, r: 1), ("cells", lambda a, k, r: _cells(a, k))],
    ("conjunction", "Conjunction.conjoin"): [
        ("conjoin_calls", lambda a, k, r: 1), ("cells", lambda a, k, r: _cells(a, k))],
    ("independence", "condition"): [("condition_calls", lambda a, k, r: 1)],
    ("independence", "in_independence"): [("triplets_evaluated", lambda a, k, r: 1)],
    ("independence", "in_noninteractivity"): [("triplets_evaluated", lambda a, k, r: 1)],
    ("independence", "enumerate_relation"): [
        ("triplets_evaluated", lambda a, k, r: _candidates(a, k))],
    ("graphoid", "check_axiom"): [
        ("axiom_checks", lambda a, k, r: 1), ("members_checked", lambda a, k, r: _relation_size(a, k))],
    ("graphoid", "is_semigraphoid"): [
        ("axiom_checks", lambda a, k, r: 4), ("members_checked", lambda a, k, r: 4 * _relation_size(a, k))],
    ("graphoid", "is_graphoid"): [
        ("axiom_checks", lambda a, k, r: 5), ("members_checked", lambda a, k, r: 5 * _relation_size(a, k))],
    ("serialize", "parse_distribution"): [
        ("rows", lambda a, k, r: len((a[0] if a else k["doc"]).get("values", [])))],
    ("serialize", "distribution_document"): [("rows", lambda a, k, r: len(r["values"]))],
    ("cli", "main"): [("report_bytes", lambda a, k, r: _report_bytes(a, k))],
}

#: per-layer metric names, in the order BENCHMARK.json lists them
COUNT_METRICS = {
    "core": ("distributions_built", "marginalize_calls", "extend_calls"),
    "conjunction": ("residuum_calls", "conjoin_calls", "cells"),
    "independence": ("condition_calls", "triplets_evaluated"),
    "graphoid": ("axiom_checks", "members_checked"),
    "serialize": ("rows",),
    "cli": ("report_bytes",),
}


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[float] = []
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.fn_calls = Counter()
        self.fn_self = defaultdict(float)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "possind" or name.startswith("possind.")}
        shims = {}
        for layer in LAYERS:
            mod = modules.get(f"possind.{layer}")
            if mod is None:
                continue
            for name, fn in self._offered(mod, modules):
                shims[fn] = self._shim(layer, name, fn)
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._wrap_methods(layer, mod, cls)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in shims:
                    setattr(mod, name, shims[value])

    @staticmethod
    def _own(fn, mod) -> bool:
        return (isinstance(fn, types.FunctionType)
                and fn.__code__.co_filename == getattr(mod, "__file__", None))

    def _offered(self, mod, modules):
        """Module functions that are public or that another module imports."""
        imported = {id(v) for m in modules.values() if m is not mod for v in vars(m).values()}
        for name, fn in vars(mod).items():
            if self._own(fn, mod) and (not name.startswith("_") or id(fn) in imported):
                yield name, fn

    def _wrap_methods(self, layer, mod, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            if self._own(fn, mod):
                shim = self._shim(layer, f"{cls.__name__}.{name}", fn)
                setattr(cls, name, kind(shim) if kind else shim)

    def _shim(self, layer, name, fn):
        counters = COUNTERS.get((layer, name), ())
        label = f"{layer}.{name}"
        if inspect.isgeneratorfunction(fn):
            def gen_shim(*args, **kwargs):
                return self._iterate(layer, label, fn(*args, **kwargs))
            gen_shim.__wrapped__ = fn
            return gen_shim

        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, label, start)
            counted = perf_counter()
            for counter, amount in counters:
                self.counts[f"{layer}.{counter}"] += amount(args, kwargs, result)
            if self._stack:  # counting is charged to no layer
                self._stack[-1] += perf_counter() - counted
            return result

        shim.__wrapped__ = fn
        return shim

    def _iterate(self, layer, label, it):
        # each resumption of a generator is a span of the generator's layer
        while True:
            if not self.active:
                try:
                    value = next(it)
                except StopIteration:
                    return
            else:
                self._stack.append(0.0)
                start = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(layer, label, start)
            yield value

    def _close(self, layer, label, start):
        duration = perf_counter() - start
        own = duration - self._stack.pop()
        self.layer_self[layer] += own
        self.fn_self[label] += own
        self.fn_calls[label] += 1
        if self._stack:
            self._stack[-1] += duration

    def metrics(self, ops: int, speed: float = 1.0) -> dict:
        """Per-operation counts and self times of every layer; times are
        multiplied by `speed`."""
        out = {}
        for layer in LAYERS:
            for counter in COUNT_METRICS[layer]:
                unit = "B/op" if counter == "report_bytes" else "count/op"
                out[f"{layer}.{counter}"] = (self.counts[f"{layer}.{counter}"] / ops, unit)
            out[f"{layer}.self_ms"] = (self.layer_self[layer] * 1000.0 * speed / ops, "ms/op")
        return out

    def functions(self, ops: int, speed: float = 1.0) -> list[dict]:
        """Per-function calls and self time per operation, busiest first."""
        rows = [{"function": label, "calls_per_op": self.fn_calls[label] / ops,
                 "self_ms_per_op": self.fn_self[label] * 1000.0 * speed / ops}
                for label in self.fn_calls]
        return sorted(rows, key=lambda r: -r["self_ms_per_op"])
