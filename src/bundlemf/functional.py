"""The mean-field-type functional and its constrained minimization.

J_rho(u) = 1/2 int |du + u w|^2 dv_g + (rho/|Sigma|) int u dv_g
           - rho log int h e^u dv_g,

minimized over the discrete complement of the covariantly-constant sections.
The L2 gradient is the raw Euler-Lagrange residual

    r(u) = (Delta_g + V) u - rho (h e^u / mu - 1/|Sigma|),   mu = int h e^u,

and critical points satisfy r = -lambda1 tau1, so the projected residual and
the full unprojected optimality defect coincide.

`minimize` works on the Nyquist-free rfft2 coefficients U of u (Nyquist
modes carry no discrete energy, and J is unbounded below along them).  Its
line search takes the energy as h^4 <U, k^2 U> + int V u^2 dv_g, <.,.>
Parseval's, whose gradient is r and whose Hessian the Newton step solves;
it differs from the covariant int |du + u w|^2 by the aliasing of u w.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
import numpy as np

from .bundle import (
    Connection,
    bundle_energy,
    bundle_laplacian_raw,
    pcg,
)
from .geometry import (
    ScalarField,
    TorusGrid,
    from_spectral,
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
    """Full variational problem instance: connection (on its grid), weight, parameter."""

    conn: Connection
    hweight: ScalarField
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        if self.hweight.values.min() <= 0.0:
            raise ValueError("weight h must be strictly positive")
        if self.hweight.n != self.grid.n:
            raise ValueError("the weight h must match the grid size")

    @property
    def grid(self) -> TorusGrid:
        return self.conn.grid

    def with_rho(self, rho: float) -> "ProblemSpec":
        return replace(self, rho=rho)


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
    energy: float             # bundle_energy(u), the covariant energy
    residual: float
    iterations: int
    converged: bool
    guard_hit: bool = False


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


def evaluate_J(u: ScalarField, spec: ProblemSpec, energy: float | None = None,
               log_mu: float | None = None) -> float:
    """Value of the functional; raises ExponentOverflowError past the guard.
    `energy` is bundle_energy(u) and `log_mu` log_mass(u)[0], when the
    caller has them already."""
    _guard(u.values)
    g = spec.grid
    if energy is None:
        energy = bundle_energy(u, spec.conn)
    mean_term = spec.rho / g.total_area * float(np.sum(u.values * g.area_element))
    if log_mu is None:
        log_mu = log_mass(u.values, spec)[0]
    return 0.5 * energy + mean_term - spec.rho * log_mu


def _raw_residual(u: np.ndarray, spec: ProblemSpec,
                  mass: tuple | None = None) -> np.ndarray:
    """r = (Delta_g + V) u - rho (h e^u / mu - 1/|Sigma|); `mass` is
    log_mass(u), when the caller has it already (it is not changed)."""
    lap = bundle_laplacian_raw(u, spec.conn)
    log_mu, shift, w = log_mass(u, spec) if mass is None else mass
    density = w * np.exp(shift - log_mu)  # h e^u / mu, evaluated stably
    return lap - spec.rho * (density - 1.0 / spec.grid.total_area)


def el_residual(u: ScalarField, spec: ProblemSpec) -> tuple[ScalarField, float]:
    """Projected Euler-Lagrange residual and the multiplier lambda1.

    lambda1 is minus the tau1-component of the raw residual, which equals the
    closed-form quadrature rho int (h e^u/mu - 1/|Sigma|) tau1 dv_g because
    the bundle Laplacian annihilates tau1.
    """
    _guard(u.values)
    r = _raw_residual(u.values, spec)
    lambda1 = 0.0 - spec.conn.kernel.remove(r)   # never -0.0
    return ScalarField(r), lambda1


def kernel_multiplier(u: np.ndarray, spec: ProblemSpec,
                      mass: tuple | None = None) -> float:
    """lambda1 of el_residual from the same raw residual, with no projected
    residual built; 0.0 at once when the kernel is trivial.  `mass` is
    log_mass(u), when the caller has it already."""
    if spec.conn.kernel.dim == 0:
        return 0.0
    return 0.0 - spec.conn.kernel.component(_raw_residual(u, spec, mass))


def minimize(spec: ProblemSpec, init: ScalarField | None = None,
             opts: SolverOptions = SolverOptions()) -> MinimizeResult:
    """Minimize the functional over the kernel complement.

    Truncated Newton-PCG with Armijo backtracking on the coefficients U:
    every step is the direction of `_newton_direction`, and one that is not
    a descent direction is replaced by the preconditioned gradient
    -P (Delta_flat + 1)^{-1} R, P the deflation of tau1.  A trial costs one
    FFT pair (`_state`).  A step is also accepted when it cuts the residual
    by 10%, since near the minimum the functional is flat to roundoff and
    Armijo cannot certify progress.  The residual is h^2 ||R||, Parseval's
    norm: the L2(dv_g) norm of the projected residual on the flat torus, of
    e^v times it on a conformal metric.  The reported J, mu, lambda1 and
    covariant energy are computed once, on the returned u, from one
    bundle_energy and one log_mass.
    Guaranteed-convergence regime is rho < 8 pi; larger rho is accepted with
    a warning, where divergence signals non-coercivity rather than failure.
    """
    g = spec.grid
    if spec.rho >= RHO_CRITICAL:
        warnings.warn(f"rho = {spec.rho:.6g} >= 8*pi: minimization may not be coercive",
                      RuntimeWarning)

    if init is None or spec.rho == 0.0:     # rho = 0: quadratic, minimized by zero
        init = ScalarField(np.zeros((g.n, g.n)))
    _guard(init.values)

    h4, inner = g.h**4, g.inner
    primal = spec.conn.kernel.deflation(against_weighted=True)

    def norm(R: np.ndarray) -> float:
        return float(g.h**2 * np.sqrt(inner(R, R)))

    U = primal(to_spectral(init.values, g))
    u, J, R = _state(U, spec)
    rnorm = norm(R)
    tol = opts.tol if opts.tol is not None else 1e-10 * max(1.0, rnorm)

    best = (rnorm, u)
    it = 0
    guard_hit = False
    converged = rnorm <= tol
    stall = 0

    while not converged and it < opts.max_iter:
        it += 1
        D = _newton_direction(u, -R, spec)
        slope = h4 * inner(R, D)
        if slope >= 0.0:
            D = -primal(g.shifted_inverse * R)
            slope = h4 * inner(R, D)

        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            U_try = U + step * D
            try:
                u_try, J_try, R_try = _state(U_try, spec)
            except ExponentOverflowError:
                guard_hit = True
                step *= BACKTRACK
                continue
            rnorm_try = norm(R_try)
            if J_try <= J + ARMIJO * step * slope or rnorm_try <= 0.9 * rnorm:
                break
            step *= BACKTRACK
        else:
            break  # stalled line search: no admissible decrease left

        U, u, J, R, rnorm = U_try, u_try, J_try, R_try, rnorm_try
        if rnorm < best[0] * (1.0 - 1e-3):
            stall = 0
        else:
            stall += 1
        if rnorm < best[0]:
            best = (rnorm, u)
        converged = rnorm <= tol
        if stall >= 100:
            break  # residual no longer improving at this precision

    if not converged and best[0] < rnorm:
        rnorm, u = best
    uf = ScalarField(u)
    energy, mass = bundle_energy(uf, spec.conn), log_mass(u, spec)
    return MinimizeResult(u=uf, jvalue=evaluate_J(uf, spec, energy, mass[0]),
                          mu=float(np.exp(mass[0])),
                          lambda1=kernel_multiplier(u, spec, mass),
                          energy=energy, residual=rnorm, iterations=it,
                          converged=converged, guard_hit=guard_hit)


def _state(U: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float, np.ndarray]:
    """The field u with coefficients U, the line search's J at u and R, the
    masked transform of e^{2v} r deflated along e^{2v} tau1: 2 FFTs.  J's
    slope along D is h^4 <R, D>; raises ExponentOverflowError past the guard."""
    g, rho = spec.grid, spec.rho
    u = from_spectral(U, g)
    _guard(u)
    log_mu, shift, q = log_mass(u, spec)
    ua = u * g.area_element
    Vu = spec.conn.potential.values * u
    KU = g.k2 * U
    # einsum, not vdot: numpy hands a real vdot to BLAS, which may split it
    # over threads and stall for milliseconds waking them
    J = (0.5 * (g.h**4 * g.inner(U, KU) + float(np.einsum("ij,ij->", Vu, ua)))
         + rho / g.total_area * float(np.sum(ua)) - rho * log_mu)
    q *= -rho * np.exp(shift - log_mu)          # -rho h e^u / mu
    q += rho / g.total_area
    q += Vu
    q *= g.area_element
    q *= g.n**2                  # e^{2v} = area_element / h^2, exactly
    R = to_spectral(q, g)
    R += KU
    return u, J, spec.conn.kernel.deflation(along_weighted=True)(R)


def _newton_direction(u: np.ndarray, B: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Truncated Newton step (Steihaug, SIAM J. Numer. Anal. 20, 1983) from
    u: PCG on the projected Hessian to relative residual 1e-3, in Fourier
    space like the bundle Poisson solve; returns the step's coefficients.

    The Hessian H phi = (Delta_g + V) phi - rho (W phi - W <W, phi>), with
    W = h e^u / mu and <.,.> the L2(dv_g) product, is self-adjoint in
    L2(dv_g); the PCG solves its flat-self-adjoint form e^{2v} H on the
    Nyquist-free rfft2 coefficients P of phi,

        H^ P = spectral_laplacian_plus(P, V - rho W) + rho h^4 <W^, P> W^,

    with W^ = to_spectral(e^{2v} W) formed once and <.,.> Parseval's
    (grid.inner), the diagonal preconditioner
    grid.shifted_inverse and the right-hand side B, minus the R of
    `_state` (pcg overwrites it).  In exact arithmetic this is the L2(dv_g)
    PCG preconditioned with (Delta_flat + 1)^{-1} e^{2v}; it stops on the
    Parseval norm, as `minimize` does.  tau1 is deflated by
    KernelBasis.deflation: the iterate and the preconditioned residuals are
    kept L2(dv_g)-orthogonal to tau1 (Euclidean-orthogonal to e^{2v} tau1),
    the residuals and H^ P Euclidean-orthogonal to tau1.  A direction of m
    steps costs 2m + 1 FFTs: W^ and the m operator applies.  It is zero on
    negative curvature at the first step; on negative curvature later, or
    at the 200-step cap, it is the iterate reached so far."""
    g, inner = spec.grid, spec.grid.inner
    kb = spec.conn.kernel
    primal = kb.deflation(against_weighted=True)   # in place, on pcg's
    dual = kb.deflation(along_weighted=True)       # temporaries only

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
    rank_one = spec.rho * g.h**4

    def hess(P: np.ndarray) -> np.ndarray:
        HP = spectral_laplacian_plus(P, pot, g)
        HP += (rank_one * inner(What, P)) * What
        return dual(HP)

    X, _ = pcg(hess, B, precond=lambda R: primal(g.shifted_inverse * R),
               inner=inner, tol=1e-3, max_iter=200)
    return X
