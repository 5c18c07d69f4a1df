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
from functools import partial

import numpy as np

from .bundle import (
    Connection,
    KernelBasis,
    bundle_energy,
    bundle_laplacian_raw,
    kernel_basis,
    pcg,
)
from .geometry import (
    ScalarField,
    TorusGrid,
    drop_nyquist,
    fourier_multiply,
    from_spectral,
    spectral_inner,
    spectral_laplacian_plus,
    to_spectral,
)

EXP_GUARD = 700.0
RHO_CRITICAL = 8.0 * np.pi

# line search of `minimize`
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60


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


def evaluate_J(u: ScalarField, spec: ProblemSpec, energy: float | None = None) -> float:
    """Value of the functional; raises ExponentOverflowError past the guard.
    `energy` is bundle_energy(u), when the caller has it already."""
    _guard(u.values)
    g = spec.grid
    if energy is None:
        energy = bundle_energy(u, spec.conn, g)
    mean_term = spec.rho / g.total_area * float(np.sum(u.values * g.area_element))
    log_mu, _, _ = log_mass(u.values, spec)
    return 0.5 * energy + mean_term - spec.rho * log_mu


def _raw_residual(u: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """r = (Delta_g + V) u - rho (h e^u / mu - 1/|Sigma|), plus log mu."""
    g = spec.grid
    lap = bundle_laplacian_raw(u, spec.conn, g)
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
    area = spec.grid.area_element
    r, _ = _raw_residual(u.values, spec)
    coef = spec.kb.component(r, area)
    return ScalarField(spec.kb.project(r, area)), 0.0 - coef   # never -0.0


def minimize(spec: ProblemSpec, init: ScalarField | None = None,
             opts: SolverOptions = SolverOptions()) -> MinimizeResult:
    """Minimize the functional over the kernel complement.

    Truncated Newton-PCG with Armijo backtracking: every step is the
    direction of `_newton_direction`, whose first PCG iterate is the
    preconditioned gradient -P (Delta_flat + 1)^{-1} e^{2v} r; a direction
    that is not a descent one is replaced by -r.  A step is also accepted
    when it cuts the residual by 10%, since near the minimum the functional
    is flat to roundoff and Armijo cannot certify progress.
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

    area = g.area_element
    project = partial(spec.kb.project, weights=area)

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
        d = _newton_direction(u, r, spec, project)
        slope = float(np.sum(r * d * area))
        if slope >= 0.0:
            d = -r
            slope = -rnorm**2

        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            try:
                u_try = project(u + step * d)
                J_try = j_of(u_try)
            except ExponentOverflowError:
                guard_hit = True
                step *= BACKTRACK
                continue
            r_try = grad(u_try)
            if J_try <= J + ARMIJO * step * slope or resid_norm(r_try) <= 0.9 * rnorm:
                break
            step *= BACKTRACK
        else:
            break  # stalled line search: no admissible decrease left

        u, J, r = u_try, J_try, r_try
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
                      project) -> np.ndarray:
    """Truncated Newton step (Steihaug, SIAM J. Numer. Anal. 20, 1983): PCG
    on the projected Hessian to relative residual 1e-3, in Fourier space
    like the bundle Poisson solve.

    The Hessian H phi = (Delta_g + V) phi - rho (W phi - W <W, phi>), with
    W = h e^u / mu and <.,.> the L2(dv_g) product, is self-adjoint in
    L2(dv_g); the PCG solves its flat-self-adjoint form e^{2v} H on the
    Nyquist-free rfft2 coefficients P of phi,

        H^ P = spectral_laplacian_plus(P, V - rho W) + rho h^4 <W^, P> W^,

    with W^ = to_spectral(e^{2v} W) formed once and <.,.> Parseval's
    (geometry.spectral_inner), the diagonal preconditioner
    grid.shifted_inverse and the right-hand side to_spectral(-e^{2v} r).  In
    exact arithmetic this is the L2(dv_g) PCG preconditioned with
    (Delta_flat + 1)^{-1} e^{2v}; its stop test is on the Parseval norm of
    e^{2v} times the residual, which is the L2(dv_g) norm up to a constant
    when v = 0.  tau1 is deflated by KernelBasis.deflation over its cached
    transforms: the iterate and the preconditioned residuals are
    kept L2(dv_g)-orthogonal to tau1 (Euclidean-orthogonal to e^{2v} tau1),
    the residuals and H^ P Euclidean-orthogonal to tau1.  A direction of m
    steps costs 2m + 3 FFTs.

    On negative curvature at the first step it returns the preconditioned
    gradient -project((Delta_flat + 1)^{-1} e^{2v} r); on negative curvature
    later, or at the 200-step cap, the iterate reached so far."""
    g = spec.grid
    primal = spec.kb.deflation(g, against_weighted=True)   # in place, on pcg's
    dual = spec.kb.deflation(g, along_weighted=True)       # temporaries only

    # e^{2v} = area_element / h^2 scales the fields in place, as in the
    # Poisson apply
    log_mu, shift, W = log_mass(u, spec)
    W *= np.exp(shift - log_mu)  # h e^u / mu
    pot = spec.rho * W
    np.subtract(spec.conn.potential.values, pot, out=pot)    # V - rho W
    W *= g.area_element
    W *= g.n**2
    What = to_spectral(W, g)
    del W
    b = r * g.area_element
    b *= -g.n**2                 # -e^{2v} r
    B = dual(to_spectral(b, g))
    del b
    rank_one = spec.rho * g.h**4

    def hess(P: np.ndarray) -> np.ndarray:
        HP = spectral_laplacian_plus(P, pot, g)
        HP += (rank_one * spectral_inner(What, P)) * What
        return dual(HP)

    X, info = pcg(hess, B,
                  precond=lambda R: primal(g.shifted_inverse * R),
                  inner=spectral_inner, tol=1e-3, max_iter=200)
    if info.reason == "negative_curvature" and info.iterations == 0:
        return -project(fourier_multiply(r * g.exp2v, g.shifted_inverse))
    return from_spectral(X, g)
