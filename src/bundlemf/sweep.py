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
    el_residual,
    evaluate_J,
    log_mass,
    minimize,
)
from .geometry import ScalarField, torus_distance
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


def record_from_state(u: ScalarField, rho: float, spec: ProblemSpec,
                      res: MinimizeResult | None = None) -> SweepRecord:
    g = spec.grid
    flat = int(np.argmax(u.values))
    x = (flat // g.n, flat % g.n)
    c = float(u.values[x])
    mu = float(np.exp(log_mass(u.values, spec)[0]))
    hx = float(spec.hweight.values[x])
    r_scale = float(np.sqrt(mu / (rho * hx)) * np.exp(-c / 2.0))
    spec_rho = spec.with_rho(rho)
    _, lam1 = el_residual(u, spec_rho)
    return SweepRecord(
        rho=rho, u=u, c=c, x=x, mu=mu, lambda1=lam1,
        energy=bundle_energy(u, spec.conn, g),
        jvalue=evaluate_J(u, spec_rho),
        r_scale=r_scale,
        converged=res.converged if res is not None else True,
        guard_hit=res.guard_hit if res is not None else False,
    )


def subcritical_sweep(spec: ProblemSpec, kmax: int,
                      init: ScalarField | None = None,
                      opts: SolverOptions = SolverOptions()) -> list[SweepRecord]:
    """Minimize at rho_k = 8 pi - 1/k for k = 1..kmax, warm-starting each step
    from the previous minimizer; a step that trips the overflow guard is
    flagged and the warm start rolls back to the last good iterate."""
    if kmax < 4:
        raise ValueError("kmax must be at least 4")
    records: list[SweepRecord] = []
    u_prev = init
    for k in range(1, kmax + 1):
        rho_k = 8.0 * np.pi - 1.0 / k
        spec_k = spec.with_rho(rho_k)
        try:
            res = minimize(spec_k, u_prev, opts)
            rec = record_from_state(res.u, rho_k, spec, res)
            u_prev = res.u
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
    points, computed separably, so phi(0) = 0 holds to roundoff.
    """
    g = spec.grid
    u = rec.u.values
    y = np.linspace(-half_width, half_width, points)
    px, py = g.node_coords(rec.x)
    xs = (px + rec.r_scale * y) % 1.0
    ys = (py + rec.r_scale * y) % 1.0

    uh = np.fft.fft2(u) / g.n**2
    kx = np.fft.fftfreq(g.n) * g.n * 2.0 * np.pi
    ex = np.exp(1j * np.outer(xs, kx))           # (points, n)
    ey = np.exp(1j * np.outer(kx, ys))           # (n, points)
    window = np.real(ex @ uh @ ey)

    phi = window - rec.c
    if abs(rec.c) > 1e-300:
        psi = window / rec.c
    else:
        psi = np.ones_like(window)
    center = points // 2
    phi[center, center] = 0.0
    return RescaledProfile(y=y, phi=phi, psi=psi, r_scale=rec.r_scale, c=rec.c)


def concentration_mass(rec: SweepRecord, spec: ProblemSpec,
                       radius_factor: float = 16.0) -> float:
    """int_{B_{16 r_k}(x_k)} h e^u / mu dv_g, the local share of the density."""
    g = spec.grid
    r = torus_distance(g, rec.x)
    mask = r <= radius_factor * rec.r_scale
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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(c - log_mu) > 1e-12, log_mu / (c - log_mu), np.nan)
    decay = r_scale**2 * np.exp(SCALE_GAMMA * c)

    c0 = float(max(0.0, np.max(energy - 8.4 * np.pi * c)))
    t1 = spec.kb.tau1.values if spec.kb.dim == 1 else None
    tau_max = float(np.max(np.abs(t1))) if t1 is not None else 0.0
    area = spec.grid.total_area
    h = spec.hweight.values
    lambda_bound = 8.0 * np.pi * (tau_max + area**0.5 / area) * float(h.max() / h.min())

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
