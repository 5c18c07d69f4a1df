"""Batch front door: config parsing, command dispatch, reproducible outputs.

Every command writes a JSON summary (config hash, library versions, wall
time, results) plus its artifacts into the output directory, also on
numerical failure: fields as .npy arrays beside a JSON sidecar, small tables
as CSV.  Exit codes: 0 success, 1 numerical failure, 2 usage
error.  Identical config and seed give bit-identical summaries up to the
volatile keys "wall_time_s" and "timestamp".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import ConvergenceError, EigensolveError, make_connection
from .functional import (
    ExponentOverflowError,
    ProblemSpec,
    SolverOptions,
    evaluate_J,
    log_mass,
    minimize,
)
from .geometry import ScalarField, build_grid, integrate, l2_inner, laplacian, random_band_limited
from .green import BACKENDS, SolvabilityError, critical_value, critical_value_map, solve_green
from .presets import (
    make_connection_form,
    make_h_field,
    make_v_field,
    save_field,
    save_field_json,
)
from .sweep import blowup_diagnostics, peak, subcritical_sweep
from .testfunctions import bubble_checks, build_Qk, moser_family, qk_audit, tm_probe


class UsageError(ValueError):
    """Bad configuration or arguments (exit code 2)."""


class NumericalFailure(RuntimeError):
    """A command finished without a usable result (exit code 1)."""

    def __init__(self, msg: str, payload: dict | None = None):
        super().__init__(msg)
        self.payload = payload or {}


@dataclass(frozen=True)
class RunConfig:
    n: int = 64
    v_preset: str = "zero"
    connection: str = "zero"
    h_preset: str = "one"
    rho: float = 4.0 * np.pi
    seed: int = 0
    out: str = "out"
    tol: float | None = None
    max_iter: int = 50_000
    kmax: int = 64
    p: tuple[int, int] = (0, 0)
    alpha: float = 4.1 * np.pi
    delta: float = 0.125
    stride: int = 16
    k: int = 16
    backend: str = "spectral"


_CONFIG_KEYS = {f.name for f in RunConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite int or float (an int past the float range is not)."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


# what each RunConfig field must be: (test, description for the error)
_FIELD_CHECKS = {
    **dict.fromkeys(("n", "max_iter", "kmax", "stride", "k"), (_is_int, "an integer")),
    "seed": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    **dict.fromkeys(("v_preset", "connection", "h_preset", "out"),
                    (lambda x: isinstance(x, str), "a string")),
    **dict.fromkeys(("rho", "alpha", "delta"), (_is_number, "a finite number")),
    "tol": (lambda x: x is None or _is_number(x), "a finite number"),
    "backend": (lambda x: x in BACKENDS, f"one of {BACKENDS}"),
    "p": (lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_int, x)),
          "a pair of integers"),
}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config parse error at {path}:{exc.lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config root must be an object: {path}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**data)
    for key, (ok, what) in _FIELD_CHECKS.items():
        if not ok(getattr(cfg, key)):
            raise UsageError(f"{key} must be {what}, got {getattr(cfg, key)!r}")
    return replace(cfg, p=tuple(cfg.p))


def build_problem(cfg: RunConfig) -> ProblemSpec:
    """The problem the presets describe.  numpy overflow raises instead of
    warning, and is reported as a usage error naming the preset at fault."""
    preset = cfg.v_preset
    try:
        with np.errstate(over="raise", invalid="raise"):
            grid = build_grid(cfg.n, make_v_field(cfg.v_preset, cfg.n))
            preset = cfg.h_preset
            hweight = make_h_field(cfg.h_preset, cfg.n)
            preset = cfg.connection          # the kernel basis exponentiates it
            conn = make_connection(make_connection_form(cfg.connection, grid), grid)
            return ProblemSpec(conn, hweight, cfg.rho)
    except FloatingPointError as exc:
        raise UsageError(f"preset {preset!r} leaves the floating-point range: {exc}") from exc
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    return obj


def config_hash(cfg: RunConfig) -> str:
    payload = _sanitize(asdict(cfg))
    payload.pop("out", None)  # environment, not run semantics
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_summary(outdir, command: str, cfg: RunConfig, payload: dict,
                  status: str, t0: float) -> str:
    summary = {
        "command": command,
        "status": status,
        "config": _sanitize(asdict(cfg)),
        "config_hash": config_hash(cfg),
        "versions": {"bundlemf": __version__, "numpy": np.__version__},
        "wall_time_s": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": _sanitize(payload),
    }
    path = outdir / f"{command.replace('-', '_')}_summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_minimize(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    init = random_band_limited(spec.grid, rng, amplitude=0.1)
    # a warning (rho >= 8 pi) goes into the summary, also under `python -W error`
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = minimize(spec, init, solver_options(cfg))
    except FloatingPointError as exc:
        raise NumericalFailure(f"minimization left the floating-point range: {exc}",
                               {"warnings": [str(w.message) for w in caught]}) from exc
    save_field(res.u, outdir / "minimizer.npy")
    save_field_json(str(outdir / "minimizer.json"), "minimizer.npy", "scalar",
                    cfg.n, cfg.v_preset)
    # below 1 the bubble is narrower than the grid spacing: a grid artifact
    r_over_h = (peak(res.u, spec.rho, spec, res.mu)[3] / spec.grid.h
                if spec.rho > 0 else None)
    out = {"jvalue": res.jvalue, "mu": res.mu, "lambda1": res.lambda1,
           "residual": res.residual, "iterations": res.iterations,
           "converged": res.converged, "max_u": float(res.u.values.max()),
           "r_scale_over_h": r_over_h,
           "grid_resolved": None if r_over_h is None else bool(r_over_h >= 1.0),
           "warnings": [str(w.message) for w in caught], "field_file": "minimizer.npy"}
    if not res.converged:
        raise NumericalFailure("minimization did not converge", out)
    return out


def cmd_sweep(cfg: RunConfig, outdir) -> dict:
    if cfg.kmax < 4:
        raise UsageError(f"kmax must be at least 4, got {cfg.kmax}")
    spec = build_problem(cfg)
    records = subcritical_sweep(spec, cfg.kmax, opts=solver_options(cfg))
    report = blowup_diagnostics(records, spec)
    rows = ["k,rho,c,x_i,x_j,mu,lambda1,energy,jvalue,r_scale,converged,"
            "iterations,predicted"]
    for k, rec in enumerate(records, start=1):
        rows.append(f"{k},{rec.rho:.17g},{rec.c:.17g},{rec.x[0]},{rec.x[1]},"
                    f"{rec.mu:.17g},{rec.lambda1:.17g},{rec.energy:.17g},"
                    f"{rec.jvalue:.17g},{rec.r_scale:.17g},{int(rec.converged)},"
                    f"{rec.iterations},{int(rec.predicted)}")
    (outdir / "sweep_records.csv").write_text("\n".join(rows) + "\n")
    report["records_csv"] = "sweep_records.csv"
    report["all_converged"] = bool(all(rec.converged for rec in records))
    report["outer_iterations"] = sum(rec.iterations for rec in records)
    return report


def cmd_green(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    gd = solve_green(cfg.p, spec, backend=cfg.backend)
    lam = critical_value(gd, spec)
    eta = gd.remainder(spec)
    save_field(gd.G, outdir / "green_field.npy")
    save_field_json(str(outdir / "green_field.json"), "green_field.npy",
                    "scalar", cfg.n, cfg.v_preset)
    save_field(ScalarField(eta), outdir / "green_eta.npy")
    return {"A_p": gd.A_p, "lambda1": gd.lambda1, "meanG": gd.meanG,
            "Lambda": lam, "residual": gd.residual, "backend": gd.backend,
            "pcg_iterations": gd.pcg_iterations,
            "p": list(gd.p), "field_file": "green_field.npy",
            "eta_file": "green_eta.npy"}


def cmd_critmap(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    try:
        out = critical_value_map(spec, cfg.stride, backend=cfg.backend)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    np.savetxt(outdir / "critmap.csv", out["values"], fmt="%.17g", delimiter=",")
    out = dict(out)
    out["values"] = None
    out["map_csv"] = "critmap.csv"
    return out


def cmd_moser(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    z = (spec.grid.n // 2, spec.grid.n // 2)
    ks, members = [], []
    k = 4
    while k <= max(cfg.kmax, 4):
        ks.append(k)
        try:
            members.append(moser_family(z, cfg.delta, k, spec))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        k *= 2
    values = tm_probe(cfg.alpha, members, spec.conn)
    rows = ["k,value"] + [f"{kk},{val:.17g}" for kk, val in zip(ks, values)]
    (outdir / "moser_probe.csv").write_text("\n".join(rows) + "\n")
    finite = [v for v in values if np.isfinite(v)]
    return {"alpha": cfg.alpha, "delta": cfg.delta, "ks": ks, "values": values,
            "diverged": len(finite) < len(values), "probe_csv": "moser_probe.csv"}


def cmd_bubble(cfg: RunConfig, outdir) -> dict:
    report = bubble_checks()
    rows = ["R,energy,closed,leading"]
    for row in report["energies"]:
        rows.append(f"{row['R']},{row['energy']:.17g},{row['closed']:.17g},"
                    f"{row['leading']:.17g}")
    (outdir / "bubble_energies.csv").write_text("\n".join(rows) + "\n")
    report["energies_csv"] = "bubble_energies.csv"
    return report


def cmd_qk(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    try:
        fam = build_Qk(cfg.p, cfg.k, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = qk_audit(fam, spec)
    report["pcg_iterations"] = fam.greendata.pcg_iterations
    save_field(fam.field, outdir / "qk_field.npy")
    save_field_json(str(outdir / "qk_field.json"), "qk_field.npy", "scalar",
                    cfg.n, cfg.v_preset)
    report["field_file"] = "qk_field.npy"
    return report


def cmd_reduce_check(cfg: RunConfig, outdir) -> dict:
    if cfg.connection != "zero":
        raise UsageError("reduce-check requires the zero connection")
    spec = build_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(20):
        u = random_band_limited(spec.grid, rng, amplitude=1.0)
        bundle_route = evaluate_J(u, spec)
        grad_energy = l2_inner(u, laplacian(u, spec.grid), spec.grid)
        mean_term = spec.rho / spec.grid.total_area * integrate(u, spec.grid)
        log_mu, _, _ = log_mass(u.values, spec)
        classical_route = 0.5 * grad_energy + mean_term - spec.rho * log_mu
        worst = max(worst, abs(bundle_route - classical_route))
    return {"fields": 20, "max_discrepancy": worst, "rho": cfg.rho}


_HANDLERS = {
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "green": cmd_green,
    "critmap": cmd_critmap,
    "moser": cmd_moser,
    "bubble": cmd_bubble,
    "qk": cmd_qk,
    "reduce-check": cmd_reduce_check,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one command, write its artifacts, return the process exit code.
    The command runs with numpy's overflow and invalid values raised, not
    warned about (also under `python -W error`); one that leaves the
    floating-point range is a numerical failure, so its summary is written."""
    t0 = time.time()
    outdir = Path(cfg.out)
    try:
        if command not in _HANDLERS:
            raise UsageError(f"unknown command {command!r}")
        outdir.mkdir(parents=True, exist_ok=True)
        with np.errstate(over="raise", invalid="raise"):
            payload = _HANDLERS[command](cfg, outdir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FloatingPointError, SolvabilityError,
            EigensolveError, ConvergenceError) as exc:
        if isinstance(exc, FloatingPointError) and not isinstance(exc, ExponentOverflowError):
            exc = NumericalFailure(f"{command} left the floating-point range: {exc}")
        payload = {**getattr(exc, "payload", {}), "error": str(exc)}
        write_summary(outdir, command, cfg, payload, "error", t0)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    path = write_summary(outdir, command, cfg, payload, "ok", t0)
    print(path)
    return 0


def _parse_p(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--p expects 'i,j', got {text!r}") from exc


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bundlemf",
        description="Variational toolkit for mean-field-type functionals on a "
                    "line bundle over the flat torus.",
        epilog="Config keys and defaults: " + ", ".join(
            f"{k}={getattr(RunConfig(), k)!r}" for k in sorted(_CONFIG_KEYS)),
    )
    ap.add_argument("command", choices=tuple(_HANDLERS))
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--seed", type=int, help="RNG seed")
    ap.add_argument("--n", type=int, help="grid nodes per axis (power of two)")
    ap.add_argument("--rho", type=float, help="functional parameter")
    ap.add_argument("--kmax", type=int, help="sweep length")
    ap.add_argument("--p", help="grid node 'i,j'")
    ap.add_argument("--alpha", type=float, help="probe exponent coefficient")
    ap.add_argument("--stride", type=int, help="critmap node stride")
    ap.add_argument("--k", type=int, help="test-section index")
    ap.add_argument("--connection", help="connection preset")
    ap.add_argument("--h-preset", dest="h_preset", help="weight preset")
    ap.add_argument("--v-preset", dest="v_preset", help="conformal factor preset")
    ap.add_argument("--backend", choices=BACKENDS)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        if overrides.get("p") is not None:
            overrides["p"] = _parse_p(overrides["p"])
        cfg = load_config(args.config, overrides)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
