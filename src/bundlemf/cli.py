"""Batch front door: config parsing, command dispatch, reproducible outputs.

Every command writes a JSON summary (config hash, library versions, wall
time, results) plus CSV artifacts into the output directory, also on
numerical failure.  Exit codes: 0 success, 1 numerical failure, 2 usage
error.  Identical config and seed give bit-identical summaries up to the
volatile keys "wall_time_s" and "timestamp".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import ConvergenceError, EigensolveError, kernel_basis, make_connection
from .functional import (
    ExponentOverflowError,
    ProblemSpec,
    SolverOptions,
    evaluate_J,
    log_mass,
    minimize,
)
from .geometry import build_grid, integrate, l2_inner, laplacian, random_band_limited
from .green import SolvabilityError, critical_value, critical_value_map, solve_green
from .presets import (
    make_connection_form,
    make_h_field,
    make_v_field,
    save_field_json,
    save_scalar_csv,
)
from .sweep import blowup_diagnostics, record_from_state, subcritical_sweep
from .testfunctions import bubble_checks, build_Qk, moser_family, qk_audit, tm_probe

COMMANDS = ("minimize", "sweep", "green", "critmap", "moser", "bubble", "qk",
            "reduce-check")


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
    if "p" in data and not isinstance(data["p"], tuple):
        data["p"] = tuple(int(t) for t in data["p"])
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise UsageError(f"bad config: {exc}") from exc
    for key in ("rho", "alpha", "delta", "tol"):
        val = getattr(cfg, key)
        if val is not None and not (isinstance(val, (int, float)) and np.isfinite(val)):
            raise UsageError(f"{key} must be a finite number, got {val!r}")
    return cfg


def build_problem(cfg: RunConfig) -> ProblemSpec:
    try:
        grid = build_grid(cfg.n, make_v_field(cfg.v_preset, cfg.n))
        conn = make_connection(make_connection_form(cfg.connection, grid), grid)
        h = make_h_field(cfg.h_preset, cfg.n)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc
    if h.values.min() <= 0.0:
        raise UsageError("h preset must yield a strictly positive field")
    return ProblemSpec(grid=grid, conn=conn, kb=kernel_basis(conn, grid),
                       hweight=h, rho=cfg.rho)


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


def _scipy_version() -> str:
    import scipy

    return scipy.__version__


def write_summary(outdir, command: str, cfg: RunConfig, payload: dict,
                  status: str, t0: float) -> str:
    summary = {
        "command": command,
        "status": status,
        "config": _sanitize(asdict(cfg)),
        "config_hash": config_hash(cfg),
        "versions": {"bundlemf": __version__, "numpy": np.__version__,
                     "scipy": _scipy_version()},
        "wall_time_s": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": _sanitize(payload),
    }
    outdir.mkdir(parents=True, exist_ok=True)
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
    res = minimize(spec, init, solver_options(cfg))
    save_scalar_csv(res.u, str(outdir / "minimizer.csv"), cfg.v_preset)
    save_field_json(str(outdir / "minimizer.json"), "minimizer.csv", "scalar",
                    cfg.n, cfg.v_preset)
    # below 1 the bubble is narrower than the grid spacing: a grid artifact
    r_over_h = (record_from_state(res.u, spec.rho, spec, res).r_scale / spec.grid.h
                if spec.rho > 0 else None)
    out = {"jvalue": res.jvalue, "mu": res.mu, "lambda1": res.lambda1,
           "residual": res.residual, "iterations": res.iterations,
           "converged": res.converged, "max_u": float(res.u.values.max()),
           "r_scale_over_h": r_over_h,
           "grid_resolved": None if r_over_h is None else bool(r_over_h >= 1.0),
           "field_csv": "minimizer.csv"}
    if not res.converged:
        raise NumericalFailure("minimization did not converge", out)
    return out


def cmd_sweep(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    records = subcritical_sweep(spec, cfg.kmax, opts=solver_options(cfg))
    report = blowup_diagnostics(records, spec)
    rows = ["k,rho,c,x_i,x_j,mu,lambda1,energy,jvalue,r_scale,converged"]
    for k, rec in enumerate(records, start=1):
        rows.append(f"{k},{rec.rho:.17g},{rec.c:.17g},{rec.x[0]},{rec.x[1]},"
                    f"{rec.mu:.17g},{rec.lambda1:.17g},{rec.energy:.17g},"
                    f"{rec.jvalue:.17g},{rec.r_scale:.17g},{int(rec.converged)}")
    (outdir / "sweep_records.csv").write_text("\n".join(rows) + "\n")
    report["records_csv"] = "sweep_records.csv"
    report["all_converged"] = bool(all(rec.converged for rec in records))
    return report


def cmd_green(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    gd = solve_green(cfg.p, spec, backend=cfg.backend)
    lam = critical_value(gd, spec)
    save_scalar_csv(gd.G, str(outdir / "green_field.csv"), cfg.v_preset)
    save_field_json(str(outdir / "green_field.json"), "green_field.csv",
                    "scalar", cfg.n, cfg.v_preset)
    save_scalar_csv(gd.eta, str(outdir / "green_eta.csv"), cfg.v_preset)
    return {"A_p": gd.A_p, "lambda1": gd.lambda1, "meanG": gd.meanG,
            "Lambda": lam, "residual": gd.residual, "backend": gd.backend,
            "p": list(gd.p), "field_csv": "green_field.csv",
            "eta_csv": "green_eta.csv"}


def cmd_critmap(cfg: RunConfig, outdir) -> dict:
    spec = build_problem(cfg)
    try:
        out = critical_value_map(spec, cfg.stride, backend=cfg.backend)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    np.savetxt(outdir / "critmap.csv", out["values"], delimiter=",", fmt="%.17g")
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
        members.append(moser_family(z, cfg.delta, k, spec))
        k *= 2
    values = tm_probe(cfg.alpha, members, spec.conn, spec.grid)
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
    fam = build_Qk(cfg.p, cfg.k, spec)
    report = qk_audit(fam, spec)
    save_scalar_csv(fam.field, str(outdir / "qk_field.csv"), cfg.v_preset)
    save_field_json(str(outdir / "qk_field.json"), "qk_field.csv", "scalar",
                    cfg.n, cfg.v_preset)
    report["field_csv"] = "qk_field.csv"
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
    """Run one command, write its artifacts, return the process exit code."""
    t0 = time.time()
    outdir = Path(cfg.out)
    if command not in _HANDLERS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        payload = _HANDLERS[command](cfg, _ensure_dir(outdir))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        write_summary(outdir, command, cfg, {**exc.payload, "error": str(exc)},
                      "error", t0)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ExponentOverflowError, SolvabilityError, EigensolveError,
            ConvergenceError) as exc:
        write_summary(outdir, command, cfg, {"error": str(exc)}, "error", t0)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    path = write_summary(outdir, command, cfg, payload, "ok", t0)
    print(path)
    return 0


def _ensure_dir(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _parse_p(text: str) -> tuple[int, int]:
    try:
        i, j = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--p expects 'i,j', got {text!r}") from exc
    return (i, j)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bundlemf",
        description="Variational toolkit for mean-field-type functionals on a "
                    "line bundle over the flat torus.",
        epilog="Config keys and defaults: " + ", ".join(
            f"{k}={getattr(RunConfig(), k)!r}" for k in sorted(_CONFIG_KEYS)),
    )
    ap.add_argument("command", choices=COMMANDS)
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
    ap.add_argument("--backend", choices=("spectral", "fd"))
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if overrides.get("p") is not None:
        try:
            overrides["p"] = _parse_p(overrides["p"])
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config, overrides)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
