"""Span tracing of slglab from outside the package.

`Tracer.install` replaces every public module-level function of the nine
slglab modules, the SymbolTable interning methods and `SLG.__init__` with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  Spans are kept in flat arrays in memory and
written out by `save` once the run is over.  A few wrappers also count work
from the call's arguments and result (see `_COUNTERS`).

Self time is a span's duration minus the time its child spans cover; a
layer's self time is the sum over the spans of its module.
"""
from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("symbols", "core", "compressors", "boost", "cfg", "rna", "generate", "verify", "cli")
INTERNING = ("terminal", "nonterminal", "sentinel", "fresh_nonterminal", "by_id", "get", "chars")
BOOSTERS = ("alpha", "beta", "rna_alpha", "rna_beta", "gamma")


def _cells(n):
    return n * (n + 1) // 2


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # layer name -> module object
        self.names: list[str] = []
        self.name_idx: list[int] = []
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.longest_fold = (0, (), {})  # (length, args, kwargs) of a wrna call
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        wrapped = {}  # original function -> its wrapper
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        table_cls = self.modules["symbols"].SymbolTable
        for attr in INTERNING:
            self._set(table_cls, attr, self._wrap(getattr(table_cls, attr), f"symbols.{attr}"))
        slg_cls = self.modules["core"].SLG
        self._set(slg_cls, "__init__", self._wrap(slg_cls.__init__, "core.SLG"))
        # Rebind every reference the package holds to a wrapped function:
        # names imported into other modules and tables such as verify.SUITES.
        for mod in [self.package, *self.modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]
                            self._restore.append((obj, key, val))

    def uninstall(self):
        for target, attr, old in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._restore.clear()

    def _set(self, target, attr, new):
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        counter = _COUNTERS.get(name)
        name_idx, parent, start, end, stack = (
            self.name_idx, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            stack.append(span)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def caller_layer(self):
        """Layer of the innermost open span, or None at top level."""
        if not self.stack:
            return None
        return self.names[self.name_idx[self.stack[-1]]].split(".", 1)[0]

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- results -----------------------------------------------------------

    def fold_peak_alloc(self):
        """tracemalloc peak, in bytes, of the longest wrna call seen, run
        again once tracing is off.  tracemalloc slows the numpy kernel about
        tenfold, so it must not run inside the timed passes."""
        length, args, kwargs = self.longest_fold
        if not length:
            return 0
        tracemalloc.start()
        try:
            self.modules["rna"].wrna(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def mark(self):
        """Number of spans recorded so far; phases are index ranges."""
        return len(self.start)

    def self_times(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - covered

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# -- counters computed from arguments and results ------------------------------


def _count_compressor(alg_of):
    def count(tracer, args, kwargs, result):
        g = result[1] if isinstance(result, tuple) else result
        alg = alg_of(args, kwargs)
        if alg is not None:
            tracer.add(f"compressors.{alg}.grammar_size", g.size)
        # the outermost compressor call sees the caller's input
        if tracer.caller_layer() != "compressors":
            tracer.add("compressors.symbols_in", len(args[0]))

    return count


def _strategy(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    return strategy.value


def _count_booster(tracer, args, kwargs, result):
    tracer.add("boost.symbols_out", len(result.text))


# cells: the sum over calls of n(n+1)/2, the intervals a cubic interval DP
# fills for an input of length n.


def _count_cyk(tracer, args, kwargs, result):
    tracer.add("cfg.cyk_member.cells", _cells(len(args[1])))


def _count_wrna(tracer, args, kwargs, result):
    n = len(args[0])
    tracer.add("rna.wrna.cells", _cells(n))
    if n > tracer.longest_fold[0]:
        tracer.longest_fold = (n, args, kwargs)


_COUNTERS = {
    "compressors.run_global": _count_compressor(_strategy),
    **{
        f"compressors.{alg}": _count_compressor(lambda a, k, alg=alg: alg)
        for alg in ("sequential", "sequitur", "bisection", "lz78", "lzd")
    },
    # repair() and friends delegate to run_global, whose counter names the
    # output by its strategy, so a direct run_global call counts alike.
    **{f"compressors.{fn}": _count_compressor(lambda a, k: None)
       for fn in ("repair", "repair_pairs_only", "greedy", "longest_match")},
    **{f"boost.{fn}": _count_booster for fn in BOOSTERS},
    "cfg.cyk_member": _count_cyk,
    "rna.wrna": _count_wrna,
}
