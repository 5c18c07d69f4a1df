"""The mean-field-type functional and its constrained minimization.

J_rho(u) = 1/2 int |du + u w|^2 dv_g + (rho/|Sigma|) int u dv_g
           - rho log int h e^u dv_g,

minimized over the discrete complement of the covariantly-constant sections.
The L2 gradient is the raw Euler-Lagrange residual

    r(u) = (Delta_g + V) u - rho (h e^u / mu - 1/|Sigma|),   mu = int h e^u,

and critical points satisfy r = -lambda1 tau1, so the projected residual and
the full unprojected optimality defect coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bundle import Connection, KernelBasis, bundle_energy, kernel_basis, pcg
from .geometry import (
    ScalarField,
    TorusGrid,
    drop_nyquist,
    flat_laplacian_raw,
    invert_flat_shifted,
)

EXP_GUARD = 700.0
RHO_CRITICAL = 8.0 * np.pi

# line search and Newton polish of `minimize`
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
NEWTON_TRIGGER = 1e-4       # projected residual below which Newton-CG takes over


class ExponentOverflowError(FloatingPointError):
    """A field exceeded the e^u overflow guard (max u > 700)."""


@dataclass(frozen=True)
class ProblemSpec:
    """Full variational problem instance: grid, connection, weight, parameter."""

    grid: TorusGrid
    conn: Connection
    kb: KernelBasis
    hweight: ScalarField
    rho: float

    def __post_init__(self):
        if self.hweight.values.min() <= 0.0:
            raise ValueError("weight h must be strictly positive")
        if self.hweight.n != self.grid.n or self.conn.n != self.grid.n:
            raise ValueError("problem fields must match the grid size")

    def with_rho(self, rho: float) -> "ProblemSpec":
        return replace(self, rho=float(rho))


def make_problem(grid: TorusGrid, conn: Connection, hweight: ScalarField,
                 rho: float) -> ProblemSpec:
    return ProblemSpec(grid=grid, conn=conn, kb=kernel_basis(conn, grid),
                       hweight=hweight, rho=float(rho))


@dataclass(frozen=True)
class SolverOptions:
    tol: float | None = None          # None: 1e-10 * max(1, initial residual)
    max_iter: int = 50_000


@dataclass(frozen=True)
class MinimizeResult:
    u: ScalarField
    jvalue: float
    mu: float
    lambda1: float
    residual: float
    iterations: int
    converged: bool
    guard_hit: bool = field(default=False)


def _guard(u: np.ndarray):
    m = float(u.max())
    if m > EXP_GUARD:
        raise ExponentOverflowError(f"exponent overflow: max u = {m:.3g} > {EXP_GUARD:g}")


def log_mass(u: np.ndarray, spec: ProblemSpec) -> tuple[float, float, np.ndarray]:
    """Stable (log mu, shift, h e^{u - shift}) for mu = int h e^u dv_g."""
    shift = float(u.max())
    w = spec.hweight.values * np.exp(u - shift)
    slog = float(np.log(np.sum(w * spec.grid.area_element)))
    return shift + slog, shift, w


def evaluate_J(u: ScalarField, spec: ProblemSpec) -> float:
    """Value of the functional; raises ExponentOverflowError past the guard."""
    _guard(u.values)
    g = spec.grid
    energy = bundle_energy(u, spec.conn, g)
    mean_term = spec.rho / g.total_area * float(np.sum(u.values * g.area_element))
    log_mu, _, _ = log_mass(u.values, spec)
    return 0.5 * energy + mean_term - spec.rho * log_mu


def _raw_residual(u: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """r = (Delta_g + V) u - rho (h e^u / mu - 1/|Sigma|), plus log mu."""
    g = spec.grid
    lap = flat_laplacian_raw(u, g) / g.exp2v + spec.conn.potential.values * u
    log_mu, shift, w = log_mass(u, spec)
    density = w * np.exp(shift - log_mu)  # h e^u / mu, evaluated stably
    r = lap - spec.rho * (density - 1.0 / g.total_area)
    return r, log_mu


def el_residual(u: ScalarField, spec: ProblemSpec) -> tuple[ScalarField, float]:
    """Projected Euler-Lagrange residual and the multiplier lambda1.

    lambda1 is minus the tau1-component of the raw residual, which equals the
    closed-form quadrature rho int (h e^u/mu - 1/|Sigma|) tau1 dv_g because
    the bundle Laplacian annihilates tau1.
    """
    _guard(u.values)
    g = spec.grid
    r, _ = _raw_residual(u.values, spec)
    if spec.kb.dim == 0:
        return ScalarField(r), 0.0
    t = spec.kb.tau1.values
    coef = float(np.sum(r * t * g.area_element))
    return ScalarField(r - coef * t), -coef


def minimize(spec: ProblemSpec, init: ScalarField | None = None,
             opts: SolverOptions = SolverOptions()) -> MinimizeResult:
    """Minimize the functional over the kernel complement.

    Preconditioned projected gradient descent with Armijo backtracking;
    the descent direction is -P (Delta_flat + 1)^{-1} r, which is the exact
    Sobolev gradient in the spectral basis.  Once the projected residual
    drops below the Newton trigger an inexact Newton-CG polish takes over.
    Guaranteed-convergence regime is rho < 8 pi; larger rho is accepted with
    a warning, where divergence signals non-coercivity rather than failure.
    """
    g = spec.grid
    if spec.rho >= RHO_CRITICAL:
        warnings.warn(f"rho = {spec.rho:.6g} >= 8*pi: minimization may not be coercive",
                      RuntimeWarning)

    if init is None:
        init = ScalarField(np.zeros((g.n, g.n)))
    _guard(init.values)

    t1 = spec.kb.tau1.values if spec.kb.dim == 1 else None
    area = g.area_element

    def project(z: np.ndarray) -> np.ndarray:
        if t1 is None:
            return z
        return z - np.sum(z * t1 * area) * t1

    # iterates live in the Nyquist-free subspace, where the discrete energy
    # is definite; see geometry.drop_nyquist
    u = project(drop_nyquist(init.values, g))

    if spec.rho == 0.0:
        # quadratic problem: the minimizer on the kernel complement is zero
        zero = ScalarField(np.zeros((g.n, g.n)))
        return MinimizeResult(u=zero, jvalue=evaluate_J(zero, spec),
                              mu=float(np.exp(log_mass(zero.values, spec)[0])),
                              lambda1=0.0, residual=0.0, iterations=0, converged=True)

    def j_of(z: np.ndarray) -> float:
        return evaluate_J(ScalarField(z), spec)

    def grad(z: np.ndarray) -> np.ndarray:
        r, _ = _raw_residual(z, spec)
        return project(drop_nyquist(r, g))

    def resid_norm(r: np.ndarray) -> float:
        return float(np.sqrt(np.sum(r * r * area)))

    r = grad(u)
    rnorm = resid_norm(r)
    tol = opts.tol if opts.tol is not None else 1e-10 * max(1.0, rnorm)

    J = j_of(u)
    best = (J, u.copy(), rnorm)
    it = 0
    guard_hit = False
    converged = rnorm <= tol
    stall = 0

    while not converged and it < opts.max_iter:
        it += 1
        newton_step = rnorm < NEWTON_TRIGGER
        d = _newton_direction(u, r, spec, project) if newton_step else None
        if d is None:
            newton_step = False
            d = -project(drop_nyquist(invert_flat_shifted(r * g.exp2v, g, shift=1.0), g))
        slope = float(np.sum(r * d * area))
        if slope >= 0.0:
            d = -r
            slope = -rnorm**2
            newton_step = False

        step = 1.0
        accepted = False
        r_next = None
        for _ in range(MAX_BACKTRACKS):
            try:
                u_try = project(u + step * d)
                J_try = j_of(u_try)
            except ExponentOverflowError:
                guard_hit = True
                step *= BACKTRACK
                continue
            if J_try <= J + ARMIJO * step * slope:
                accepted = True
                break
            if newton_step:
                # near the minimum the functional is flat to roundoff and
                # Armijo cannot certify progress; accept on residual decrease
                r_try = grad(u_try)
                if resid_norm(r_try) <= 0.9 * rnorm:
                    accepted = True
                    r_next = r_try
                    break
            step *= BACKTRACK
        if not accepted:
            break  # stalled line search: no admissible decrease left

        u = u_try
        J = J_try
        r = grad(u) if r_next is None else r_next
        rnorm = resid_norm(r)
        if rnorm < best[2] * (1.0 - 1e-3):
            stall = 0
        else:
            stall += 1
        if rnorm < best[2]:
            best = (J, u.copy(), rnorm)
        converged = rnorm <= tol
        if stall >= 100:
            break  # residual no longer improving at this precision

    if not converged and best[2] < rnorm:
        J, u, rnorm = best[0], best[1], best[2]

    uf = ScalarField(u)
    _, lam1 = el_residual(uf, spec)
    log_mu, _, _ = log_mass(u, spec)
    return MinimizeResult(u=uf, jvalue=J, mu=float(np.exp(log_mu)), lambda1=lam1,
                          residual=rnorm, iterations=it, converged=converged,
                          guard_hit=guard_hit)


def _newton_direction(u: np.ndarray, r: np.ndarray, spec: ProblemSpec,
                      project) -> np.ndarray | None:
    """Inexact Newton step: CG on the projected Hessian to relative residual
    1e-3, stopped at the first negative curvature; None when that is the
    first direction, so the caller falls back to gradient descent.  An
    iterate cut off by the 200-step cap is still a usable inexact step."""
    g = spec.grid
    area = g.area_element
    log_mu, shift, w = log_mass(u, spec)
    W = w * np.exp(shift - log_mu)  # h e^u / mu

    def hess(phi: np.ndarray) -> np.ndarray:
        lin = flat_laplacian_raw(phi, g) / g.exp2v + spec.conn.potential.values * phi
        wphi = float(np.sum(W * phi * area))
        return project(drop_nyquist(lin - spec.rho * (W * phi - W * wphi), g))

    x, info = pcg(hess, -r, inner=lambda a, c: float(np.sum(a * c * area)),
                  tol=1e-3, max_iter=200)
    if info.reason == "negative_curvature" and info.iterations == 0:
        return None
    return x
