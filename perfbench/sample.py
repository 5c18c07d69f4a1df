"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py '<job json>'

Modes (job["mode"]):
- "setup": time the first import of bundlemf plus config load and problem
  build, as every CLI call pays them;
- "solve": the same set-up, then time one call of the workload's entry
  point (`bundlemf.cli.main`, or `bundle.poincare_constant` for eigen-128),
  check the output and record the peak resident memory.  The CLI builds
  its problem again inside the timed call, as it does for a user.  With
  job["trace"] the layers are wrapped after the set-up (see layertrace.py)
  and the per-layer metrics are computed from the spans.

The result is written as JSON to job["result"]; the parent reads it.
"""

import time

T_START = time.perf_counter()  # before numpy or bundlemf is imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib-only; sits next to this file)


def _import_bundlemf(src: str):
    sys.path.insert(0, src)
    import bundlemf
    import bundlemf.cli

    origin = Path(bundlemf.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise RuntimeError(f"bundlemf imported from {origin}, not from {src}")
    return bundlemf


def _setup(job: dict, wl: workloads.Workload):
    bundlemf = _import_bundlemf(job["src"])
    cfg = bundlemf.cli.load_config(None, workloads.config_for(wl, job["inputs"]))
    spec = bundlemf.cli.build_problem(cfg)
    return bundlemf, spec, time.perf_counter() - T_START


def _solve(job: dict, wl: workloads.Workload) -> dict:
    bundlemf, spec, setup_s = _setup(job, wl)
    if wl.command != "poincare":
        spec = None  # the CLI builds its own; keep the peak memory its own too
    out = Path(job["out"])
    inputs = job["inputs"]
    tracer = None
    if job["trace"]:
        import layertrace as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    if wl.command == "poincare":
        C = bundlemf.bundle.poincare_constant(spec.conn, spec.grid,
                                              seed=inputs["start_seed"])
    else:
        rc = bundlemf.cli.main(workloads.cli_argv(wl, inputs, str(out)))
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.command == "poincare":
        output = {"C": C}
        result = {"C": C}
    else:
        path = out / f"{wl.command.replace('-', '_')}_summary.json"
        summary = json.loads(path.read_text()) if path.exists() else None
        output = {"rc": rc, "summary": summary}
        if wl.command == "critmap" and rc == 0:
            rows = (out / "critmap.csv").read_text().split()
            output["values"] = [float(x) for row in rows for x in row.split(",")]
        # what a traced run must reproduce: everything but the volatile keys
        result = {"rc": rc, "values": output.get("values")}
        if summary is not None:
            result["summary"] = {k: v for k, v in summary.items()
                                 if k not in ("wall_time_s", "timestamp")}
            result["summary"]["config"].pop("out", None)
    record = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "why": workloads.check(wl, inputs, output), "result": result}
    if tracer is not None:
        record["layers"], record["absent"] = tracing.layer_metrics(tracer, wall_s)
        record["sites"] = tracer.sites
        if job.get("spans"):
            with open(job["spans"], "w") as fh:
                json.dump({"workload": wl.name, "inputs": inputs,
                           "spans": tracer.spans}, fh)
    return record


def main() -> int:
    job = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[job["workload"]]
    record = {"setup_s": _setup(job, wl)[2]} if job["mode"] == "setup" else _solve(job, wl)
    with open(job["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
