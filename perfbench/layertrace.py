"""Span tracer for the traced benchmark run.

The program has no instrumentation of its own, so the traced sample wraps
functions from outside: every public module-level function of each layer
(geometry, bundle, functional, green, testfunctions, sweep, presets, cli),
the private solver routines named in PRIVATE, and numpy's FFT entry points,
which are reported as the geometry layer's kernel.  A function imported by
name into another module has one binding per importing module
(`solve_green` in green, testfunctions, cli and the package root), and every
binding is replaced by the same wrapper, so a call is recorded once whichever
name it went through.

Span parents are kept per thread.  Worker threads of a ThreadPoolExecutor do
not inherit the caller's context, so the executor class bound in the program
is swapped for one whose submit() carries the submitting thread's current
span into the worker.

A metric whose wrap target is missing (renamed or merged away) is reported
as absent with a reason instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("geometry", "bundle", "functional", "green", "testfunctions",
          "sweep", "presets", "cli")
PRIVATE = {"functional": ("_newton_direction",),
           "green": ("_pcg", "_solve_smooth")}
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
             "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
FFT = "geometry.fft"

# name -> (unit, wrap targets it needs)
PER_LAYER = {
    "geometry.fft_calls": ("count", ()),
    "geometry.fft_s": ("s", ()),
    "geometry.fft_bytes_computed": ("bytes", ()),
    "functional.minimize_s": ("s", ("functional.minimize",)),
    "functional.outer_iterations": ("count", ("functional.minimize",)),
    "functional.newton_calls": ("count", ("functional._newton_direction",)),
    "functional.newton_s": ("s", ("functional._newton_direction",)),
    "functional.line_search_trials": ("count", ("functional.minimize", "functional.evaluate_J")),
    "functional.trials_per_outer": ("ratio", ("functional.minimize", "functional.evaluate_J")),
    "functional.converged_ratio": ("ratio", ("functional.minimize",)),
    "functional.newton_share": ("ratio", ("functional._newton_direction",)),
    "green.solve_calls": ("count", ("green.solve_green",)),
    "green.solve_s": ("s", ("green.solve_green",)),
    "green.smooth_solve_s": ("s", ("green._solve_smooth",)),
    "green.assembly_s": ("s", ("green.solve_green", "green._solve_smooth")),
    "green.fft_per_solve": ("calls/solve", ("green.solve_green",)),
    "green.concurrency": ("ratio", ("green.solve_green",)),
    "bundle.eigensolve_s": ("s", ("bundle.poincare_constant",)),
    "bundle.eigensolve_share": ("ratio", ("bundle.poincare_constant",)),
    "bundle.poisson_calls": ("count", ("bundle.solve_bundle_poisson",)),
    "bundle.poisson_s": ("s", ("bundle.solve_bundle_poisson",)),
    "bundle.kernel_basis_s": ("s", ("bundle.kernel_basis",)),
    "testfunctions.build_Qk_s": ("s", ("testfunctions.build_Qk", "green.solve_green")),
    "testfunctions.qk_audit_s": ("s", ("testfunctions.qk_audit",)),
    "sweep.steps": ("count", ("sweep.subcritical_sweep",)),
    "sweep.record_s": ("s", ("sweep.record_from_state",)),
    "sweep.diagnostics_s": ("s", ("sweep.blowup_diagnostics",)),
    "presets.csv_write_s": ("s", ("presets.save_scalar_csv",)),
    "presets.csv_bytes": ("bytes", ("presets.save_scalar_csv",)),
    "presets.csv_share": ("ratio", ("presets.save_scalar_csv",)),
    "cli.summary_write_s": ("s", ("cli.write_summary",)),
    "cli.build_problem_s": ("s", ("cli.build_problem",)),
}

# counts that must repeat exactly between two traced samples of one input
REPEATABLE = ("geometry.fft_calls", "functional.outer_iterations",
              "bundle.poisson_calls")


def _fft_bytes(out, args, kwargs):
    """Bytes computed from array sizes: input plus output, cache misses ignored."""
    a = args[0] if args else kwargs.get("a")
    return int(getattr(a, "nbytes", 0)) + int(out.nbytes)


def _csv_bytes(out, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path)


# what to keep from a traced call's result, per wrapped name
HOOKS = {
    FFT: _fft_bytes,
    "functional.minimize": lambda out, a, k: (out.iterations, out.converged),
    "sweep.subcritical_sweep": lambda out, a, k: len(out),
    "presets.save_scalar_csv": _csv_bytes,
}


class Tracer:
    """In-memory span recorder: (id, parent id, name, start, end) per call."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.extra: dict[int, object] = {}
        self.sites: dict[str, int] = {}
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def adopt(self, parent: int, fn, *args, **kwargs):
        """Run fn in this thread as a child of span `parent`."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                self._next += 1
                sid = self._next
            stack = self._stack()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                self.extra[sid] = hook(out, args, kwargs)
            return out

        return traced

    def pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn,
                                      *args, **kwargs)

        return TracedThreadPoolExecutor


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions and rebind every binding site."""
    import numpy.fft

    wrappers: dict[int, tuple[object, str]] = {}  # id(original) -> (wrapper, name)
    for layer in LAYERS:
        mod = importlib.import_module(f"bundlemf.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in PRIVATE.get(layer, ()))):
                qual = f"{layer}.{name}"
                wrappers[id(obj)] = (tracer.wrap(qual, obj), qual)
    for name in FFT_FUNCS:
        fn = getattr(numpy.fft, name)
        wrappers[id(fn)] = (tracer.wrap(FFT, fn), FFT)

    traced_pool = tracer.pool_class()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "bundlemf" or n.startswith("bundlemf.")
                                     or n == "numpy.fft")]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None:
                setattr(mod, attr, hit[0])
                tracer.sites[hit[1]] = tracer.sites.get(hit[1], 0) + 1
            elif val is ThreadPoolExecutor:
                setattr(mod, attr, traced_pool)


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sample, and absent metrics with reasons.

    Definitions (sums over the whole sample unless stated):
    - *_s: inclusive time in the named function, summed over threads;
    - functional.line_search_trials: evaluate_J calls made directly by
      minimize, less the one initial evaluation per minimize call;
    - green.assembly_s: solve_green time not spent in _solve_smooth;
    - testfunctions.build_Qk_s: build_Qk time not spent in solve_green;
    - green.fft_per_solve: FFT calls made under solve_green per solve;
    - green.concurrency: summed solve_green time over the wall time covered
      by at least one solve_green (the map's wall time in critmap);
    - *_share: the named time over the traced sample's wall time.
    """
    spans = tracer.spans
    parent = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def dur(spans) -> float:
        return sum(s[4] - s[3] for s in spans)

    def total(name) -> float:
        return dur(by_name.get(name, ()))

    def count(name) -> int:
        return len(by_name.get(name, ()))

    def nested(name, ancestor) -> list:
        """Spans of `name` with an `ancestor` span somewhere above them."""
        out = []
        for s in by_name.get(name, ()):
            p = s[1]
            while p and name_of.get(p) != ancestor:
                p = parent.get(p, 0)
            if p:
                out.append(s)
        return out

    mins = by_name.get("functional.minimize", ())
    outer = sum(tracer.extra[s[0]][0] for s in mins if s[0] in tracer.extra)
    converged = sum(1 for s in mins if s[0] in tracer.extra and tracer.extra[s[0]][1])
    min_ids = {s[0] for s in mins}
    j_in_min = sum(1 for s in by_name.get("functional.evaluate_J", ()) if s[1] in min_ids)
    trials = max(0, j_in_min - len(mins))
    solves = by_name.get("green.solve_green", ())
    solve_s = total("green.solve_green")
    ffts = by_name.get(FFT, ())
    csv_spans = by_name.get("presets.save_scalar_csv", ())
    csv_s = dur(csv_spans)

    values = {
        "geometry.fft_calls": len(ffts),
        "geometry.fft_s": total(FFT),
        "geometry.fft_bytes_computed": sum(tracer.extra.get(s[0], 0) for s in ffts),
        "functional.minimize_s": total("functional.minimize"),
        "functional.outer_iterations": outer,
        "functional.newton_calls": count("functional._newton_direction"),
        "functional.newton_s": total("functional._newton_direction"),
        "functional.line_search_trials": trials,
        "functional.trials_per_outer": trials / outer if outer else 0.0,
        "functional.converged_ratio": converged / len(mins) if mins else 0.0,
        "functional.newton_share": total("functional._newton_direction") / wall_s,
        "green.solve_calls": len(solves),
        "green.solve_s": solve_s,
        "green.smooth_solve_s": total("green._solve_smooth"),
        "green.assembly_s": solve_s - dur(nested("green._solve_smooth", "green.solve_green")),
        "green.fft_per_solve": len(nested(FFT, "green.solve_green")) / len(solves)
        if solves else 0.0,
        "green.concurrency": (solve_s / _union((s[3], s[4]) for s in solves))
        if solves else 0.0,
        "bundle.eigensolve_s": total("bundle.poincare_constant"),
        "bundle.eigensolve_share": total("bundle.poincare_constant") / wall_s,
        "bundle.poisson_calls": count("bundle.solve_bundle_poisson"),
        "bundle.poisson_s": total("bundle.solve_bundle_poisson"),
        "bundle.kernel_basis_s": total("bundle.kernel_basis"),
        "testfunctions.build_Qk_s": total("testfunctions.build_Qk")
        - dur(nested("green.solve_green", "testfunctions.build_Qk")),
        "testfunctions.qk_audit_s": total("testfunctions.qk_audit"),
        "sweep.steps": sum(tracer.extra.get(s[0], 0)
                           for s in by_name.get("sweep.subcritical_sweep", ())),
        "sweep.record_s": total("sweep.record_from_state"),
        "sweep.diagnostics_s": total("sweep.blowup_diagnostics"),
        "presets.csv_write_s": csv_s,
        "presets.csv_bytes": sum(tracer.extra.get(s[0], 0) for s in csv_spans),
        "presets.csv_share": csv_s / wall_s,
        "cli.summary_write_s": total("cli.write_summary"),
        "cli.build_problem_s": total("cli.build_problem"),
    }
    absent = {}
    for name, (_, needs) in PER_LAYER.items():
        missing = [t for t in needs if t not in tracer.sites]
        if missing:
            absent[name] = "wrap target not found: " + ", ".join(
                f"bundlemf.{t}" for t in missing)
    return values, absent
