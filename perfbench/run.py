"""Seeded benchmark for slglab: one workload per process, timed from outside.

    python3 perfbench/run.py --workload compress-text --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; slglab is imported from its `src/`.  The
run sets up the workload SETUPS times (each a fresh import of slglab, the
seeded inputs and a warm-up), then repeats whole passes over the workload's
operations for about `--seconds`, timing every operation and checking the
outputs of every pass; it stops before a pass that would end past
`--seconds`, but always runs at least one.

Every raw time is scaled to a reference host speed: a fixed pure-Python
loop is timed between operations (`Calibrator`), and an interval that took
t while the loop took c around it counts as t * CAL_REF_S / c.  On a shared
host whose speed swings by up to twofold for seconds to minutes at a time,
this keeps slow phases out of the figures.  `setup_s` is the median scaled
set-up and `run_s` sums each operation's median scaled time over the passes.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the package is wrapped by
`tracing.Tracer` and the metrics are the per-layer ones.  Full results,
raw times among them, and in traced runs the spans, are written under
`.perfbench/`.  `--workload all` runs the four workloads one after
another, each in its own process.

Exit codes: 0 when every output checked out, 1 when a check failed, 2 when
the arguments or the slglab sources are wrong.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402  (a dependency of slglab; loaded before any timing)

import tracing as tr  # noqa: E402
from workloads import COMPRESSORS, WORKLOADS  # noqa: E402

SETUPS = 3
# Host-speed calibration: a fixed pure-Python loop, timed between operations
# at least every CAL_EVERY seconds of a pass (and around every set-up), runs
# slower when the host does.  Each raw time is scaled by CAL_REF_S (the
# loop's fastest time on the reference machine) over the loop's median time
# within CAL_WINDOW seconds of the interval (see `Calibrator`).
CAL_EVERY = 0.1
CAL_REPS = 3
CAL_WINDOW = 1.0
CAL_REF_S = 0.00060
SELF_TIMES = (
    "compressors", "compressors.sequitur", "compressors.run_global", "compressors.sequential",
    "compressors.bisection", "compressors.lz78", "compressors.lzd",
    "symbols", "cfg", "cfg.cyk_member", "rna", "rna.wrna", "boost", "boost.build_gi",
    "core", "core.random_access", "core.expand", "core.is_isomorphic",
    "generate", "verify", "cli",
)
CALLS = ("symbols", "symbols.by_id", "boost.bexp", "core.random_access")
COUNTS = (
    "compressors.symbols_in",
    *(f"compressors.{alg}.grammar_size" for alg, _ in COMPRESSORS),
    "cfg.cyk_member.cells", "rna.wrna.cells", "boost.symbols_out",
)


def import_slglab():
    """A fresh import of slglab from this checkout's src/."""
    for name in [m for m in sys.modules if m == "slglab" or m.startswith("slglab.")]:
        del sys.modules[name]
    package = importlib.import_module("slglab")
    if Path(package.__file__).resolve().parent != SRC / "slglab":
        raise ImportError(f"slglab imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"slglab.{layer}") for layer in tr.LAYERS}
    return SimpleNamespace(package=package, **modules)


_KERNEL_LIST = [0] * 256
_KERNEL_DICT = dict.fromkeys(range(97), 0)


def _kernel(n=2600):
    """Interpreter work of the kind slglab does: integer arithmetic, list
    and dict traffic.  It allocates no object that the cyclic garbage
    collector tracks, so that calibrating does not move the collector's
    schedule, and with it the cost of the operations timed in between."""
    lst, dct = _KERNEL_LIST, _KERNEL_DICT
    acc = 0
    for i in range(n):
        k = (i * 31 + acc) & 255
        lst[k] += i % 17
        j = k % 97
        dct[j] = dct.get(j, 0) + (lst[k] & 7)
        acc = (acc + lst[k] + dct[j]) % 65521
    return acc


class Calibrator:
    """Samples the host's speed: each sample is the mean time of CAL_REPS
    runs of `_kernel`, kept with the time it was taken.  `factors` turns raw
    intervals into seconds at the reference speed."""

    def __init__(self, clock):
        self.clock = clock
        self.at, self.cost = [], []

    def sample(self):
        t0 = self.clock()
        for _ in range(CAL_REPS):
            _kernel()
        self.at.append(self.clock())
        self.cost.append((self.at[-1] - t0) / CAL_REPS)

    def due(self):
        return not self.at or self.clock() - self.at[-1] >= CAL_EVERY

    def factors(self, starts, ends):
        """CAL_REF_S over the median sample within CAL_WINDOW of each
        interval, counting always the last sample before its start and the
        first after its end.  Every timed interval has both."""
        at, cost = np.array(self.at), np.array(self.cost)
        starts, ends = np.asarray(starts), np.asarray(ends)
        before = np.searchsorted(at, starts, side="right") - 1
        after = np.minimum(np.searchsorted(at, ends, side="left"), len(at) - 1)
        lo = np.minimum(np.searchsorted(at, starts - CAL_WINDOW, side="left"), before)
        hi = np.maximum(np.searchsorted(at, ends + CAL_WINDOW, side="right"), after + 1)
        median = {}  # many intervals share a window
        for window in set(zip(lo.tolist(), hi.tolist())):
            median[window] = np.median(cost[window[0]:window[1]])
        return CAL_REF_S / np.array([median[w] for w in zip(lo.tolist(), hi.tolist())])


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, cal, setup_end, pass_ranges, setup_counts, run_s, setup_time):
    """Per-layer figures for one set-up plus one pass (the mean of the
    traced passes).  The set-up's spans are the first `setup_end`.  Self
    times are scaled to the reference speed like the end-to-end times."""
    passes = len(pass_ranges)
    in_pass = np.zeros(tracer.mark(), dtype=bool)
    for lo, hi in pass_ranges:
        in_pass[lo:hi] = True
    weight = in_pass / passes
    weight[:setup_end] = 1.0
    names = np.array(tracer.name_idx, dtype=np.int64)
    k = len(tracer.names)
    scale = cal.factors(np.frombuffer(tracer.start), np.frombuffer(tracer.end))
    self_by_name = np.bincount(names, weights=tracer.self_times() * scale * weight, minlength=k)
    # whole counts per phase, so that a count is exact when every pass repeats it
    calls_by_name = (np.bincount(names[:setup_end], minlength=k)
                     + np.bincount(names[in_pass], minlength=k) / passes)

    def total(per_name, key):
        return float(sum(v for name, v in zip(tracer.names, per_name)
                         if name == key or (key in tr.LAYERS and name.startswith(key + "."))))

    out = {}
    for key in SELF_TIMES:
        out[f"{key}.self_s"] = metric(total(self_by_name, key), "s")
    for key in CALLS:
        out[f"{key}.calls"] = metric(total(calls_by_name, key), "count")
    for key in COUNTS:
        before = setup_counts.get(key, 0)
        out[key] = metric(before + (tracer.counts.get(key, 0) - before) / passes, "count")
    out["rna.wrna.peak_alloc_mb"] = metric(tracer.fold_peak_alloc() / 2**20, "MB")
    out["trace.setup_s"] = metric(setup_time, "s")
    out["trace.run_s"] = metric(run_s, "s")
    out["trace.spans"] = metric(setup_end + int(in_pass.sum()) / passes, "count")
    return out


def run_workload(name, seed, seconds, trace):
    setup, operations, check, count = WORKLOADS[name]
    clock = time.perf_counter
    cal = Calibrator(clock)
    tracer = None
    setup_spans = []
    for _ in range(1 if trace else SETUPS):
        gc.collect()
        cal.sample()
        started = clock()
        sl = import_slglab()
        if trace:
            tracer = tr.Tracer(sl.package, {layer: getattr(sl, layer) for layer in tr.LAYERS})
            tracer.install()
        state = setup(sl, random.Random(f"{name}:{seed}"))
        setup_spans.append((started, clock()))
        cal.sample()
    if trace:
        setup_end = tracer.mark()
        setup_counts = dict(tracer.counts)

    ops = operations(sl, state)
    raw, scaled = [], []  # per pass: each operation's raw and scaled time
    pass_ranges, problems = [], []
    attempted = failed = ops_per_pass = 0
    began = clock()
    # Whole passes only; stop before the one that would run past `seconds`.
    # Times are kept as flat float arrays, so that memory does not grow with
    # the number of passes and `peak_rss_mb` does not follow the host's speed.
    while not raw or (clock() - began) * (1 + 1 / len(raw)) <= seconds:
        gc.collect()
        lo = tracer.mark() if trace else 0
        outputs, t0s, t1s = [], array("d"), array("d")
        for op in ops:
            if cal.due():
                cal.sample()
            t0s.append(clock())
            outputs.append(op(outputs))
            t1s.append(clock())
        cal.sample()
        t0, t1 = np.frombuffer(t0s), np.frombuffer(t1s)
        raw.append(t1 - t0)
        scaled.append(raw[-1] * cal.factors(t0, t1))
        if trace:
            pass_ranges.append((lo, tracer.mark()))
        ops_per_pass, bad = count(state, outputs)
        attempted += ops_per_pass
        failed += bad
        problems += check(sl, state, outputs)
        del outputs

    raw, scaled = np.array(raw), np.array(scaled)  # passes x operations
    # Each operation at its median over the passes, at the reference speed.
    op_s = np.median(scaled, axis=0)
    run_s = float(op_s.sum())
    s0, s1 = np.array(setup_spans).T
    setup_scaled = (s1 - s0) * cal.factors(s0, s1)
    if trace:
        tracer.uninstall()
        metrics = layer_metrics(tracer, cal, setup_end, pass_ranges, setup_counts, run_s,
                                float(setup_scaled[0]))
    else:
        metrics = {
            "setup_s": metric(float(np.median(setup_scaled)), "s"),
            "run_s": metric(run_s, "s"),
            "ops_per_s": metric(ops_per_pass / run_s, "ops/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    details = {
        **result,
        "workload": name, "seed": seed, "seconds": seconds,
        "setup_raw_s": (s1 - s0).tolist(), "setup_scaled_s": setup_scaled.tolist(),
        "pass_raw_s": raw.sum(axis=1).tolist(), "pass_scaled_s": scaled.sum(axis=1).tolist(),
        "run_raw_median_s": float(np.median(raw, axis=0).sum()), "passes": len(raw),
        "op_scaled_median_s": op_s.tolist() if len(ops) <= 100 else None,
        "calibration_s": {"ref": CAL_REF_S, "min": min(cal.cost), "median": float(np.median(cal.cost)),
                          "max": max(cal.cost), "samples": len(cal.cost)},
        "ops_per_pass": ops_per_pass, "problems": problems[:50],
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        tracer.save(OUT / f"spans-{stem}.npz")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else {"correct": False, "exit": proc.returncode}
        for key, m in results[name].get("metrics", {}).items():
            print(f"{name:17s} {key:34s} {m['value']:.6g} {m['unit']}")
    ok = all(r.get("correct") for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "slglab" / "__init__.py").is_file():
        print(f"error: no slglab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("SLGLAB_SEED", None)  # it would override the verify seeds
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
