"""The five benchmark workloads: seeded inputs and output checks.

Each workload names one public entry point and a fixed problem.  Samples
come in panels of `panel` inputs, and a run measures whole panels.  The
seed given to the benchmark picks the inputs through `sample_inputs`; the
program itself only sees the generated values (a `--seed`, a `--p` node or
a start-vector seed).

- minimize-cold: the cost of a cold start jumps with the start (5 to 7
  Newton directions of about 1 s each), so a random draw of starts would
  move a run's median by a third.  Its panel is the fixed starts
  MINIMIZE_STARTS, and the seed only orders them.
- qk-1024 and eigen-128: the seed draws each sample's node or start vector;
  their cost varies by a few percent between inputs.
- sweep-warm and critmap-256 have no random input, so they ignore the seed
  instead of inventing one.

BENCHMARK.json lists only sweep-warm, qk-1024 and eigen-128, which between
them exercise every layer.  On a 2-core machine whose speed drifts by tens
of percent over seconds to minutes, 15 s runs of all five spread too much
from run to run (IQR/median up to 0.26), and the run budget only affords
30 s runs for three.  minimize-cold and critmap-256 stay runnable by name
and in `--workload all`.

Checks run after the timed region and decide whether a sample counts as
failed; a wrong answer is a failure, never a fast run.  Reference values for
`critmap-256` and `qk-1024` live in reference.json (see make_reference.py).
This module imports nothing heavy: the sample process times the first
import of numpy and bundlemf itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

EXACT = "exact:cos-x:0.3"

# Candidate nodes for qk-1024, one drawn per sample.  Each has a reference
# Lambda and interface jump in reference.json.
QK_NODES = ((3, 5), (0, 0), (256, 512), (512, 100), (700, 900), (128, 640),
            (900, 300), (1000, 1000))
MINIMIZE_STARTS = (0, 1, 2)

CRITMAP_REL_TOL = 1e-8
QK_REL_TOL = 1e-8
MINIMIZE_RESIDUAL = 1e-8
POINCARE_REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI command, or "poincare" for the eigen-solve
    config: dict          # RunConfig overrides shared by every sample
    seed_controls: str    # what the benchmark seed decides, or "nothing"
    panel: int = 1        # inputs per panel; a run measures whole panels


WORKLOADS = {
    w.name: w for w in (
        Workload("minimize-cold", "minimize",
                 {"n": 256, "rho": 12.0, "connection": EXACT,
                  "h_preset": "exp-cos:0.5"},
                 "the order of the fixed starts MINIMIZE_STARTS (minimize --seed)",
                 panel=len(MINIMIZE_STARTS)),
        Workload("sweep-warm", "sweep",
                 {"n": 128, "kmax": 32, "h_preset": "exp-cos:1.0"},
                 "nothing"),
        Workload("critmap-256", "critmap",
                 {"n": 256, "stride": 32, "connection": EXACT},
                 "nothing"),
        Workload("qk-1024", "qk",
                 {"n": 1024, "k": 64, "connection": EXACT,
                  "h_preset": "exp-cos:0.5"},
                 "the node p of each sample, one of QK_NODES"),
        Workload("eigen-128", "poincare",
                 {"n": 128, "connection": EXACT},
                 "the inverse-iteration start vector of each sample (poincare_constant seed)"),
    )
}


def sample_inputs(workload: Workload, seed: int):
    """Endless, reproducible stream of per-sample inputs, panel after panel."""
    rng = random.Random(seed)
    while True:
        if workload.name == "minimize-cold":
            yield from ({"seed": s} for s in rng.sample(MINIMIZE_STARTS, workload.panel))
        elif workload.name == "qk-1024":
            yield {"p": list(rng.choice(QK_NODES))}
        elif workload.name == "eigen-128":
            yield {"start_seed": rng.randrange(2**31)}
        else:
            yield {}


def config_for(workload: Workload, inputs: dict) -> dict:
    """RunConfig overrides for one sample (p as a tuple, as RunConfig wants)."""
    cfg = dict(workload.config)
    if "seed" in inputs:
        cfg["seed"] = inputs["seed"]
    if "p" in inputs:
        cfg["p"] = tuple(inputs["p"])
    return cfg


def cli_argv(workload: Workload, inputs: dict, out: str) -> list[str]:
    """The `bundlemf` command line a user would type for this sample."""
    argv = [workload.command]
    for key, value in config_for(workload, inputs).items():
        if key == "p":
            value = f"{value[0]},{value[1]}"
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--out", out]


# ---------------------------------------------------------------------------
# output checks: each returns "" when the output is right, else the reason
# ---------------------------------------------------------------------------

def _reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _rel_close(value, ref, tol) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= tol * max(abs(ref), 1e-300))


def check(workload: Workload, inputs: dict, output: dict) -> str:
    """Check one sample's output.

    `output` holds the exit code and CLI summary ("rc", "summary"), the
    critmap values ("values"), or the Poincare constant ("C").
    """
    if workload.command == "poincare":
        exact = 1.0 / (4.0 * math.pi**2)
        C = output.get("C")
        if not _rel_close(C, exact, POINCARE_REL_TOL):
            return f"C = {C} is not within 0.1% of 1/(4 pi^2) = {exact:.10g}"
        return ""
    if output.get("rc") != 0:
        return f"exit code {output.get('rc')}"
    summary = output.get("summary") or {}
    res = summary.get("results") or {}
    if summary.get("status") != "ok":
        return f"summary status {summary.get('status')!r}"
    if workload.command == "minimize":
        if res.get("converged") is not True:
            return "minimize did not converge"
        r = res.get("residual")
        if not (isinstance(r, (int, float)) and 0.0 <= r <= MINIMIZE_RESIDUAL):
            return f"residual {r} > {MINIMIZE_RESIDUAL:g}"
    elif workload.command == "sweep":
        if res.get("all_converged") is not True:
            return "sweep has unconverged steps"
        if res.get("classification") != "ATTAINED":
            return f"classification {res.get('classification')!r} != 'ATTAINED'"
    elif workload.command == "critmap":
        ref = _reference()["critmap-256"]["values"]
        values = output.get("values") or []
        if len(values) != len(ref):
            return f"{len(values)} critmap values, expected {len(ref)}"
        bad = [k for k, (v, r) in enumerate(zip(values, ref))
               if not _rel_close(v, r, CRITMAP_REL_TOL)]
        if bad:
            k = bad[0]
            return (f"{len(bad)} critmap values off the reference, first #{k}: "
                    f"{values[k]!r} vs {ref[k]!r}")
    elif workload.command == "qk":
        node = "{},{}".format(*inputs["p"])
        ref = _reference()["qk-1024"][node]
        for key in ("Lambda", "interface_jump"):
            if not _rel_close(res.get(key), ref[key], QK_REL_TOL):
                return f"{key} = {res.get(key)!r} at p={node}, reference {ref[key]!r}"
    return ""
