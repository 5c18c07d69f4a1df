"""Approach-to-critical experiment: minimize along rho_k = 8 pi - 1/k and
classify the outcome from the recorded blow-up indicators."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bundle import bundle_energy
from .functional import (
    ExponentOverflowError,
    MinimizeResult,
    ProblemSpec,
    SolverOptions,
    evaluate_J,
    kernel_multiplier,
    log_mass,
    minimize,
)
from .geometry import ScalarField, torus_distance, trig_interpolant
from .testfunctions import bubble_profile

BLOWUP_HEIGHT = 50.0
SCALE_GAMMA = 0.4  # exponent in the r_k^2 e^{gamma c_k} decay check (< 1/2)


@dataclass(frozen=True)
class SweepRecord:
    rho: float
    u: ScalarField
    c: float                  # max of u
    x: tuple[int, int]        # argmax node
    mu: float
    lambda1: float
    energy: float
    jvalue: float
    r_scale: float
    converged: bool = True
    guard_hit: bool = False
    iterations: int = 0       # outer Newton steps of the accepted solve
    predicted: bool = False   # the predicted start was kept


def peak(u: ScalarField, rho: float, spec: ProblemSpec,
         mu: float) -> tuple[tuple[int, int], float, float, float]:
    """The argmax node x of u, c = u(x), the mass mu of u as given and the
    bubble scale r_scale = sqrt(mu / (rho h(x))) e^{-c/2}."""
    flat = int(np.argmax(u.values))
    x = (flat // spec.grid.n, flat % spec.grid.n)
    c = float(u.values[x])
    hx = float(spec.hweight.values[x])
    return x, c, mu, float(np.sqrt(mu / (rho * hx)) * np.exp(-c / 2.0))


def record_from_state(u: ScalarField, rho: float, spec: ProblemSpec,
                      res: MinimizeResult | None = None) -> SweepRecord:
    """The sweep record of u at rho.  Given the solve `res` that returned u,
    its lambda1, mu, J and energy are taken as they are: `minimize` computed
    them on the same u and rho by the same code."""
    if res is None:
        spec_rho = spec.with_rho(rho)
        energy, mass = bundle_energy(u, spec.conn), log_mass(u.values, spec)
        lam1 = kernel_multiplier(u.values, spec_rho, mass)
        jvalue, mu, solve = evaluate_J(u, spec_rho, energy, mass[0]), float(np.exp(mass[0])), {}
    else:
        lam1, jvalue, mu, energy = res.lambda1, res.jvalue, res.mu, res.energy
        solve = {"converged": res.converged, "guard_hit": res.guard_hit,
                 "iterations": res.iterations}
    x, c, mu, r_scale = peak(u, rho, spec, mu)
    return SweepRecord(rho=rho, u=u, c=c, x=x, mu=mu, lambda1=lam1, energy=energy,
                       jvalue=jvalue, r_scale=r_scale, **solve)


def _predict(records: list[SweepRecord], rho: float) -> ScalarField | None:
    """Lagrange extrapolation to rho through the last converged records, at
    most three, taken since the last failed one; None below two of them."""
    tail = []
    for rec in reversed(records[-3:]):
        if not rec.converged:
            break
        tail.append(rec)
    if len(tail) < 2:
        return None
    pred = np.zeros_like(tail[0].u.values)
    for j, rec in enumerate(tail):
        weight = 1.0
        for i, other in enumerate(tail):
            if i != j:
                weight *= (rho - other.rho) / (rec.rho - other.rho)
        pred += weight * rec.u.values
    return ScalarField(pred)


def subcritical_sweep(spec: ProblemSpec, kmax: int,
                      init: ScalarField | None = None,
                      opts: SolverOptions = SolverOptions()) -> list[SweepRecord]:
    """Minimize at rho_k = 8 pi - 1/k for k = 1..kmax.

    Step 1 starts from `init`.  A later step starts from a predictor: the
    Lagrange extrapolation in rho through the last converged minimizers,
    at most three (a secant, then a quadratic), taken since the last failed
    step; a failed step empties that history, and with fewer than two
    minimizers in it the start is the previous minimizer.  The predicted
    start is only a first guess: when the solve from it trips the overflow
    guard or does not converge, the step reruns from the previous
    minimizer, and only a failure of that rerun is recorded.  A step that
    trips the guard there is flagged, with the last good iterate as its
    state and 0 iterations, and the next step starts from that iterate.

    Each record keeps the outer Newton steps of its accepted solve
    (`iterations`) and whether the predicted start was kept (`predicted`);
    the `sweep` command writes both as the last columns of
    sweep_records.csv and their total as `outer_iterations`.  On the
    n = 128, kmax = 32, h = exp-cos:1.0 sweep the predictor cuts the outer
    steps from 93 (previous minimizer alone) to 35.
    """
    if kmax < 4:
        raise ValueError("kmax must be at least 4")
    records: list[SweepRecord] = []
    for k in range(1, kmax + 1):
        rho_k = 8.0 * np.pi - 1.0 / k
        spec_k = spec.with_rho(rho_k)
        u_prev = records[-1].u if records else init
        guess = _predict(records, rho_k)
        rec = None
        if guess is not None:
            try:
                res = minimize(spec_k, guess, opts)
                if res.converged:
                    rec = replace(record_from_state(res.u, rho_k, spec, res),
                                  predicted=True)
            except ExponentOverflowError:
                pass
        if rec is None:
            try:
                res = minimize(spec_k, u_prev, opts)
                rec = record_from_state(res.u, rho_k, spec, res)
            except ExponentOverflowError:
                fallback = u_prev if u_prev is not None else ScalarField(
                    np.zeros((spec.grid.n, spec.grid.n)))
                rec = record_from_state(fallback, rho_k, spec)
                rec = replace(rec, converged=False, guard_hit=True)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# rescaled profiles and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RescaledProfile:
    y: np.ndarray             # window coordinates along one axis, |y| <= 16
    phi: np.ndarray           # u(x + r y) - c, pinned to 0 at the origin
    psi: np.ndarray           # u(x + r y) / c (ones when c = 0)
    r_scale: float
    c: float


def window_profile(rec: SweepRecord, spec: ProblemSpec, half_width: float = 16.0,
                   points: int = 65) -> RescaledProfile:
    """Sample u around its max by periodic spectral interpolation.

    Evaluation is the exact trigonometric interpolant at the scaled window
    points (geometry.trig_interpolant), so phi(0) = 0 holds to roundoff.
    """
    y = np.linspace(-half_width, half_width, points)
    px, py = spec.grid.node_coords(rec.x)
    xs = (px + rec.r_scale * y) % 1.0
    ys = (py + rec.r_scale * y) % 1.0
    window = trig_interpolant(rec.u.values, xs, ys)

    phi = window - rec.c
    if abs(rec.c) > 1e-300:
        psi = window / rec.c
    else:
        psi = np.ones_like(window)
    center = points // 2
    phi[center, center] = 0.0
    return RescaledProfile(y=y, phi=phi, psi=psi, r_scale=rec.r_scale, c=rec.c)


def concentration_mass(rec: SweepRecord, spec: ProblemSpec) -> float:
    """int_{B_{16 r_k}(x_k)} h e^u / mu dv_g, the local share of the density."""
    g = spec.grid
    r = torus_distance(g, rec.x)
    mask = r <= 16.0 * rec.r_scale
    w = log_mass(rec.u.values, spec)[2] * g.area_element
    return float(np.sum(w[mask]) / np.sum(w))


def blowup_diagnostics(records: list[SweepRecord], spec: ProblemSpec) -> dict:
    """Classify the sweep and assemble the trend series.

    ATTAINED when the height stays bounded (the final iterate then serves as
    the approximate critical-parameter minimizer); BLOWUP-CANDIDATE when the
    height passes the threshold, the guard tripped, or the height trend is
    clearly increasing.  All trend series are reported either way.
    """
    if len(records) < 4:
        raise ValueError("need at least 4 records to classify")

    c = np.array([rec.c for rec in records])
    mu = np.array([rec.mu for rec in records])
    jv = np.array([rec.jvalue for rec in records])
    energy = np.array([rec.energy for rec in records])
    lam = np.array([rec.lambda1 for rec in records])
    r_scale = np.array([rec.r_scale for rec in records])

    quarter = max(1, len(records) // 4)
    trend_growth = float(np.mean(c[-quarter:]) - np.mean(c[:quarter]))
    guard = any(rec.guard_hit for rec in records)
    blowup = bool(c.max() > BLOWUP_HEIGHT or guard or trend_growth > 1.0)

    log_mu = np.log(mu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(np.abs(c - log_mu) > 1e-12, log_mu / (c - log_mu), np.nan)
    decay = r_scale**2 * np.exp(SCALE_GAMMA * c)

    c0 = float(max(0.0, np.max(energy - 8.4 * np.pi * c)))
    t1 = spec.conn.kernel.tau1
    tau_max = float(np.max(np.abs(t1.values))) if t1 is not None else 0.0
    lambda_bound = 8.0 * np.pi * (tau_max + spec.grid.total_area**-0.5)

    report = {
        "classification": "BLOWUP-CANDIDATE" if blowup else "ATTAINED",
        "n_records": len(records),
        "c_series": c.tolist(),
        "mu_series": mu.tolist(),
        "mu_min": float(mu.min()),
        "jvalue_series": jv.tolist(),
        "jvalue_tail_cauchy": float(np.max(np.abs(np.diff(jv[-5:]))))
        if len(jv) >= 5 else float(np.max(np.abs(np.diff(jv)))),
        "lambda1_series": lam.tolist(),
        "lambda1_bound": lambda_bound,
        "lambda1_bound_ok": bool(np.max(np.abs(lam)) <= lambda_bound),
        "energy_series": energy.tolist(),
        "energy_height_C0": c0,
        "ratio_logmu_series": ratio.tolist(),
        "scale_decay_series": decay.tolist(),
        "smallest_resolved_scale": float(r_scale.min() / spec.grid.h),
        "r_scale_series": r_scale.tolist(),
    }

    if blowup:
        masses = [concentration_mass(rec, spec) for rec in records]
        phi_dist, psi_dist = [], []
        for rec in records:
            prof = window_profile(rec, spec)
            Y1, Y2 = np.meshgrid(prof.y, prof.y, indexing="ij")
            target = bubble_profile(np.hypot(Y1, Y2))
            phi_dist.append(float(np.max(np.abs(prof.phi - target))))
            psi_dist.append(float(np.max(np.abs(prof.psi - 1.0))))
        report.update({
            "concentration_mass_series": masses,
            "phi_distance_series": phi_dist,
            "psi_distance_series": psi_dist,
            "ratio_logmu_last": float(ratio[-1]) if np.isfinite(ratio[-1]) else None,
        })
    return report
