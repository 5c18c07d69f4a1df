"""bundlemf benchmark: time to a checked solution on five solver workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a source checkout; bundlemf is imported from ./src and
nothing is installed.  Workloads, their seeded inputs and the output checks
are in workloads.py, which also says why BENCHMARK.json lists only three.

Every sample runs in a fresh interpreter, one at a time, because a CLI user
pays the per-process costs (imports, the Green moment cache, FFT plans) on
every call.  With --trace 0 a run reports the end-to-end metrics:

- wall_s: median time of the entry-point call over the samples that passed
  their output check, sampled in whole panels (see workloads.py) until
  --seconds have passed;
- setup_s: median time of importing bundlemf, loading the config and
  building the problem in a fresh interpreter, measured in every sample
  and in extra set-up-only processes up to SETUP_SAMPLES;
- peak_rss_mb: median peak resident memory of a sample process.

With --trace 1 a run makes one untraced and at least two traced samples of
the same input and reports the per-layer metrics of layertrace.py (medians
over the traced samples), plus the tracing overhead.  It fails unless the
traced results equal the untraced ones (up to the volatile summary keys) and
the counts in layertrace.REPEATABLE repeat exactly.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics; fail_frac is failed / attempted.  Too few samples are
taken for a tail percentile with ten samples beyond it, so only medians are
reported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"
SETUP_SAMPLES = 3
MIN_TRACED = 2
TIME_LIMIT = 150.0        # stop starting samples past this many seconds

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY = {"trace.wall_s": "s", "trace.overhead_s": "s"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """Machine and software record printed with every run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
        "fft_bytes": "computed from array sizes (input + output), not measured",
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


class Runner:
    """Starts sample processes one at a time and keeps the tallies."""

    def __init__(self, wl: workloads.Workload, seed: int):
        self.wl = wl
        self.inputs = workloads.sample_inputs(wl, seed)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def sample(self, mode: str, inputs: dict, trace: bool = False) -> dict:
        self._count += 1
        work = RUN_DIR / f"{self.wl.name}-{os.getpid()}-{self._count}"
        work.mkdir(parents=True)
        job = {"mode": mode, "workload": self.wl.name, "inputs": inputs,
               "trace": trace, "src": str(SRC), "out": str(work / "out"),
               "result": str(work / "result.json")}
        if trace:
            job["spans"] = str(RUN_DIR / f"spans-{self.wl.name}.json")
        timeout = max(5.0, 175.0 - self.elapsed())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "sample.py"), json.dumps(job)],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
            rec = json.loads((work / "result.json").read_text()) \
                if proc.returncode == 0 else None
            err = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
        except subprocess.TimeoutExpired:
            rec, err = None, [f"timed out after {timeout:.0f} s"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if rec is None:
            if mode == "setup":
                raise RuntimeError(f"setup sample failed: {' '.join(err)}")
            rec = {"why": "sample process failed: " + " ".join(err)}
        if mode == "solve":
            self.attempted += 1
            self.failed += bool(rec["why"])
            label = "traced" if trace else "solve"
            print(f"sample {self.attempted} {label} inputs={json.dumps(inputs)} "
                  f"wall_s={rec.get('wall_s', float('nan')):.4f} "
                  f"{'FAIL ' + rec['why'] if rec['why'] else 'ok'}", flush=True)
        return rec


def _median(values) -> float:
    """Median, or 0.0 when no sample produced the value (the run then fails)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def timed_run(wl: workloads.Workload, seed: int, seconds: float) -> tuple[dict, Runner]:
    run = Runner(wl, seed)
    solves = []
    while not solves or (run.elapsed() < TIME_LIMIT
                         and (run.elapsed() < seconds or len(solves) % wl.panel)):
        solves.append(run.sample("solve", next(run.inputs)))
    setup = [r["setup_s"] for r in solves if "setup_s" in r]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run.sample("setup", {})["setup_s"])
    good = [r for r in solves if not r["why"] and "wall_s" in r] or \
        [r for r in solves if "wall_s" in r]
    metrics = {
        "wall_s": _median(r["wall_s"] for r in good),
        "setup_s": _median(setup),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in good),
    }
    print(f"samples {len(solves)} timed, {len(setup)} setup", flush=True)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, run


def traced_run(wl: workloads.Workload, seed: int, seconds: float) -> tuple[dict, Runner, bool]:
    run = Runner(wl, seed)
    inputs = next(run.inputs)  # one input, so results and counts must repeat
    plain = run.sample("solve", inputs)
    traced = []
    while len(traced) < MIN_TRACED or (run.elapsed() < seconds
                                       and run.elapsed() < TIME_LIMIT):
        traced.append(run.sample("solve", inputs, trace=True))
    ok = not run.failed
    for rec in traced:
        if rec.get("result") != plain.get("result"):
            print("mismatch: traced result differs from the untraced one", flush=True)
            ok = False
    for name in layertrace.REPEATABLE:
        seen = {rec["layers"][name] for rec in traced if "layers" in rec}
        if len(seen) > 1:
            print(f"mismatch: {name} differs between traced samples: {sorted(seen)}",
                  flush=True)
            ok = False
    done = [rec for rec in traced if "layers" in rec]
    metrics = {}
    for name, (unit, _) in layertrace.PER_LAYER.items():
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        value = pick(rec["layers"][name] for rec in done) if done else 0
        metrics[name] = {"value": value, "unit": unit}
    wall = _median(rec["wall_s"] for rec in done)
    extra = {"trace.wall_s": wall, "trace.overhead_s": wall - plain.get("wall_s", 0.0)}
    metrics.update({k: {"value": v, "unit": TRACE_ONLY[k]} for k, v in extra.items()})
    if done:
        shared = sorted(f"{k} x{n}" for k, n in done[0]["sites"].items() if n > 1)
        print(f"binding sites wrapped: {sum(done[0]['sites'].values())}; "
              f"more than one: {', '.join(shared)}", flush=True)
        for name, why in done[0]["absent"].items():
            print(f"absent {name}: {why}", flush=True)
    return metrics, run, ok


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    if trace:
        metrics, run, ok = traced_run(wl, seed, seconds)
    else:
        metrics, run = timed_run(wl, seed, seconds)
        ok = not run.failed
    for key, m in metrics.items():
        print(f"metric {name} {key} {m['value']!r} {m['unit']}", flush=True)
    print(f"metric {name} fail_frac {run.failed / run.attempted!r} ratio", flush=True)
    return {"correct": ok, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bundlemf" / "__init__.py").is_file():
        print(f"error: no bundlemf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "bundlemf"), quiet=1)
    RUN_DIR.mkdir(exist_ok=True)
    print("env " + json.dumps(environment()), flush=True)
    for name, wl in workloads.WORKLOADS.items():
        if args.workload in (name, "all"):
            print(f"workload {name}: seed controls {wl.seed_controls}", flush=True)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {name: {mode: run_workload(name, args.seed, args.seconds, mode == "traced")
                             for mode in ("untraced", "traced")}
                      for name in workloads.WORKLOADS}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
