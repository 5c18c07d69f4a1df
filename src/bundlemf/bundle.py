"""Line-bundle layer over the torus grid.

Sections are represented through the global unit frame as scalar fields; the
connection is a 1-form w with covariant derivative (du + u w).  The bundle
Laplacian reduces to the Schrodinger operator Delta_g + V with potential
V = |w|^2_g + d* w, which is what every solver in this module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 imports it on first use, inside a solve)

from .geometry import (
    OneForm,
    ScalarField,
    TorusGrid,
    codifferential,
    curl,
    drop_nyquist,
    flat_laplacian_plus,
    flat_laplacian_raw,
    from_spectral,
    invert_flat_shifted,
    oneform_norm_field,
    partial_derivatives,
    primitive,
    solve_flat_poisson_raw,
    spectral_inner,
    spectral_laplacian_plus,
    to_spectral,
)


class EigensolveError(RuntimeError):
    """The eigen-solve stopped short of its tolerance (the message names why,
    after how many steps and at what residual) or found lambda <= 0."""


@dataclass(frozen=True)
class Connection:
    """Connection form w together with the cached potential V = |w|^2_g + d* w."""

    omega: OneForm
    potential: ScalarField

    @property
    def n(self) -> int:
        return self.omega.n


def make_connection(omega: OneForm, grid: TorusGrid) -> Connection:
    pot = oneform_norm_field(omega, grid).values + codifferential(omega, grid).values
    return Connection(omega=omega, potential=ScalarField(pot))


@dataclass(frozen=True)
class KernelBasis:
    """Covariantly-constant sections: dimension 0 or 1, never more.

    When the connection form is exact, w = df, the kernel is spanned by
    tau1 ~ e^{-f} normalized to unit L2 norm, f the zero-mean primitive.

    `component` and `project` act on raw arrays in the inner product with
    quadrature `weights` (Euclidean when None): the projection onto H1, the
    complement of the kernel, for every solver.  <tau1, tau1>_w is summed
    once per weights array.  `spectral` gives the Fourier-space solvers the
    masked transforms of tau1 and of e^{2v} tau1, each computed once per
    grid.
    """

    dim: int
    tau1: ScalarField | None = None
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def component(self, z: np.ndarray, weights: np.ndarray | None = None) -> float:
        """<z, tau1>_w / <tau1, tau1>_w; 0.0 when the kernel is trivial."""
        if self.dim == 0:
            return 0.0
        t = self.tau1.values
        hit = self._norms.get(id(weights))
        if hit is None or hit[0] is not weights:
            hit = self._norms[id(weights)] = (weights, self._dot(t, t, weights))
        return self._dot(z, t, weights) / hit[1]

    @staticmethod
    def _dot(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None) -> float:
        return float(np.vdot(b, a).real if weights is None else np.sum(a * b * weights))

    def project(self, z: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """z minus its tau1 component; z itself when the kernel is trivial."""
        if self.dim == 0:
            return z
        return z - self.component(z, weights) * self.tau1.values

    def spectral(self, grid: TorusGrid, weighted: bool = False) -> np.ndarray:
        """The read-only masked transform (geometry.to_spectral) of tau1, or
        of e^{2v} tau1 when `weighted`, on `grid`; the kernel must be
        one-dimensional."""
        weighted = weighted and bool(grid.v.values.any())   # flat: e^{2v} = 1 exactly
        hit = self._spectra.get((id(grid), weighted))
        if hit is None or hit[0] is not grid:
            t = grid.exp2v * self.tau1.values if weighted else self.tau1.values
            T = to_spectral(t, grid)
            T.setflags(write=False)
            hit = self._spectra[(id(grid), weighted)] = (grid, T)
        return hit[1]


def kernel_basis(conn: Connection, grid: TorusGrid) -> KernelBasis:
    """Classify the kernel structurally from the holonomy of the connection.

    The kernel is one-dimensional exactly when w is exact: both the scalar
    curl and the two cycle periods must vanish (up to a spectral-noise
    threshold).  Any nonzero period gives holonomy != 1 and forbids a global
    periodic solution of du + u w = 0.
    """
    w = conn.omega
    sup = max(np.max(np.abs(w.c1)), np.max(np.abs(w.c2)))
    eps = 1e-8 * (1.0 + sup)
    curl_inf = float(np.max(np.abs(curl(w, grid).values)))
    period1 = float(np.mean(w.c1))
    period2 = float(np.mean(w.c2))
    if curl_inf > eps or abs(period1) > eps or abs(period2) > eps:
        return KernelBasis(dim=0)
    tau = np.exp(-primitive(w, grid).values)
    tau /= np.sqrt(np.sum(tau**2 * grid.area_element))
    return KernelBasis(dim=1, tau1=ScalarField(tau))


def project_H1(u: ScalarField, kb: KernelBasis, grid: TorusGrid) -> ScalarField:
    """L2(dv_g)-orthogonal projection onto the complement of the kernel."""
    return u if kb.dim == 0 else ScalarField(kb.project(u.values, grid.area_element))


def bundle_energy(u: ScalarField, conn: Connection, grid: TorusGrid) -> float:
    """Covariant Dirichlet energy  int |du + u w|^2_g dv_g  >= 0, one
    component at a time, squared and summed in place."""
    density, comps = 0.0, partial_derivatives(u.values, grid)
    for w in (conn.omega.c1, conn.omega.c2):
        d = next(comps)
        d += u.values * w
        density += d * d
        del d
    return float(np.sum(density) * grid.h**2)


def bundle_laplacian_raw(u: np.ndarray, conn: Connection, grid: TorusGrid) -> np.ndarray:
    """Delta_g u + V u on a raw array, the frame-coefficient form of the
    bundle Laplacian."""
    return flat_laplacian_raw(u, grid) / grid.exp2v + conn.potential.values * u


def bundle_laplacian(u: ScalarField, conn: Connection, grid: TorusGrid) -> ScalarField:
    """`bundle_laplacian_raw` on a field."""
    return ScalarField(bundle_laplacian_raw(u.values, conn, grid))


# ---------------------------------------------------------------------------
# linear solves with the bundle Laplacian
# ---------------------------------------------------------------------------

PCG_TOL = 1e-13
PCG_MAX_ITER = 6000


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""


@dataclass(frozen=True)
class PCGInfo:
    """Why pcg stopped: "converged", "max_iter" or "negative_curvature"."""

    reason: str
    iterations: int
    residual: float         # final ||r|| / ||b|| in the solve's inner product

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def pcg(apply, b: np.ndarray, precond=lambda z: z,
        inner=lambda a, c: np.vdot(a, c).real, tol: float = PCG_TOL,
        max_iter: int = PCG_MAX_ITER) -> tuple[np.ndarray, PCGInfo]:
    """Preconditioned conjugate gradients (Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., section 9.2).

    Solves apply(x) = b; `precond` approximates the inverse and must be
    self-adjoint positive (semi-definite) in the inner product `inner`.  To
    solve on a kernel complement the caller deflates in its closures: `b`
    and every output of `apply` must lie in the residuals' range, every
    output of `precond` in the iterates' range.  Stops when ||r|| <= tol
    ||b||, after max_iter steps, or on a direction with <p, A p> <= 0, and
    returns the iterate reached so far.

    Holds x, r, p and one work vector: `b` becomes r and is overwritten
    (pass a copy to keep it), z = precond(r) is released once p is updated,
    A p once r is; the outputs of `apply` are overwritten.
    """
    bnorm = np.sqrt(inner(b, b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, PCGInfo("converged", 0, 0.0)
    r = b
    z = precond(r)
    p = z.copy()
    rz = inner(r, z)
    del z
    reason, it, rnorm = "max_iter", 0, bnorm
    while it < max_iter:
        Ap = apply(p)
        pAp = inner(p, Ap)
        if pAp <= 0.0:
            reason = "negative_curvature"
            break
        alpha = rz / pAp
        Ap *= alpha
        r -= Ap
        del Ap
        x += alpha * p
        it += 1
        rr = inner(r, r)
        rnorm = np.sqrt(rr)
        if rnorm <= tol * bnorm:
            reason = "converged"
            break
        z = precond(r)
        rz_new = rr if z is r else inner(r, z)   # plain CG: z is r itself
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    return x, PCGInfo(reason, it, float(rnorm / bnorm))


def require_converged(info: PCGInfo, what: str) -> None:
    if not info.converged:
        raise ConvergenceError(f"{what} stopped on {info.reason} after {info.iterations}"
                               f" iterations at relative residual {info.residual:.3e}")


def symmetrized_apply(conn: Connection, grid: TorusGrid):
    """p -> (Delta_flat + e^{2v} V) p with the Nyquist modes dropped: the
    flat-self-adjoint form e^{2v} (Delta_g + V) of the bundle Laplacian on
    real arrays, in 3 FFTs by geometry.flat_laplacian_plus: the eigen-solve's
    operator.  solve_symmetrized applies the same operator to Fourier
    coefficients, by geometry.spectral_laplacian_plus.

    See geometry.drop_nyquist: the spectral symbol has no stiffness on the
    Nyquist modes, where a partly negative potential would be indefinite.
    """
    V = conn.potential.values
    return lambda p: flat_laplacian_plus(p, V, grid)


def solve_symmetrized(b: np.ndarray, conn: Connection, grid: TorusGrid,
                      kb: KernelBasis, tol: float = PCG_TOL,
                      max_iter: int = PCG_MAX_ITER) -> np.ndarray:
    """Solve the flat-self-adjoint e^{2v} (Delta_g + V) x = b on the kernel
    complement: directly when V = 0, else by PCG in Fourier space (Boyd,
    Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 15); raises
    ConvergenceError short of tol.

    The Krylov vectors are Nyquist-free rfft2 coefficients: b is transformed
    once, each step applies geometry.spectral_laplacian_plus (one FFT pair)
    and the diagonal preconditioner grid.shifted_inverse, inner products are
    Parseval's, tau1 is deflated by its cached masked transform (in the
    right-hand side, the operator and the preconditioner), and x is
    transformed back once.  b is not kept once transformed.
    """
    V = conn.potential.values
    if not V.any():
        return solve_flat_poisson_raw(b - b.mean(), grid)
    if kb.dim == 1:
        T = kb.spectral(grid)
        tt = spectral_inner(T, T)

        def deflate(Z):            # in place: only ever given pcg's temporaries
            Z -= (spectral_inner(Z, T) / tt) * T
            return Z
    else:
        def deflate(Z):
            return Z

    B = deflate(to_spectral(b, grid))
    del b
    X, info = pcg(lambda P: deflate(spectral_laplacian_plus(P, V, grid)), B,
                  precond=lambda R: deflate(grid.shifted_inverse * R),
                  inner=spectral_inner, tol=tol, max_iter=max_iter)
    require_converged(info, "bundle Poisson PCG")
    return from_spectral(X, grid)


# ---------------------------------------------------------------------------
# Poincare constant: the smallest eigenvalue on the kernel complement
# ---------------------------------------------------------------------------

EIG_TOL = 1e-8          # relative residual; lam's error goes like its square
EIG_STALL_STEPS = 20    # steps without a new lowest residual that make a stall
EIG_DEPENDENT = 1e-8    # share of a vector left by Gram-Schmidt below which it is dependent


def poincare_constant(conn: Connection, grid: TorusGrid,
                      kb: KernelBasis | None = None, seed: int = 0,
                      tol: float = EIG_TOL, max_iter: int = 500) -> float:
    """1 / lambda_min of the bundle Laplacian on the discrete complement of
    the kernel; see `smallest_eigenvalue` for the method, `tol` and `seed`."""
    if kb is None:
        kb = kernel_basis(conn, grid)
    lam, _ = smallest_eigenvalue(conn, grid, kb, seed=seed, tol=tol, max_iter=max_iter)
    if lam <= 0.0:
        raise EigensolveError(f"nonpositive smallest eigenvalue {lam}")
    return 1.0 / lam


def smallest_eigenvalue(conn: Connection, grid: TorusGrid, kb: KernelBasis,
                        seed: int = 0, tol: float = EIG_TOL,
                        max_iter: int = 500) -> tuple[float, ScalarField]:
    """Smallest eigenvalue of Delta_g + V on the Nyquist-free fields
    L2(dv_g)-orthogonal to the kernel, and its unit eigenvector.

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517-541,
    Alg. 4.1 with block size 1) on the pencil K x = lam e^{2v} x, K the
    `symmetrized_apply` operator, preconditioned with
    geometry.invert_flat_shifted.  Each step is a Rayleigh-Ritz on
    span{x, T r, p} made L2(dv_g)-orthonormal by Gram-Schmidt; K x and K p
    are carried along, so a step costs one preconditioner and one operator
    apply.  p is dropped when it is nearly dependent on the other two.
    `seed` draws the start vector.

    `tol` bounds the relative residual ||K x - lam e^{2v} x|| / (|lam|
    ||e^{2v} x||); the eigenvalue error goes like its square.  Raises
    EigensolveError naming the reason (`max_iter`, or `stall` when the
    residual has not reached a new low in EIG_STALL_STEPS steps), the step
    count and the final relative residual; it never returns a pair short of
    tol.
    """
    apply = symmetrized_apply(conn, grid)
    weights = grid.area_element

    def dot(a, b):                              # L2(dv_g)
        return float(np.sum(a * b * weights))

    if grid.v.values.any():
        def mass(z):                            # e^{2v} z on the Nyquist-free fields
            return drop_nyquist(grid.exp2v * z, grid)
    else:
        def mass(z):
            return z

    if kb.dim == 1:                             # deflate the Nyquist-free part of tau1
        kb = replace(kb, tau1=ScalarField(drop_nyquist(kb.tau1.values, grid)))

    def deflate(z):
        return kb.project(z, weights)

    def orthonormalize(z, Az, basis):
        """Gram-Schmidt of z (and its image Az, when known) against the
        orthonormal basis, twice; None when less than EIG_DEPENDENT of z is left."""
        norm0 = np.sqrt(dot(z, z))
        for _ in range(2):
            for b, Ab in basis:
                c = dot(b, z)
                z = z - c * b
                if Az is not None:
                    Az = Az - c * Ab
        norm = np.sqrt(dot(z, z))
        if not norm > EIG_DEPENDENT * norm0:
            return None
        return z / norm, (None if Az is None else Az / norm)

    def stopped(reason):
        return EigensolveError(f"eigensolve stopped on {reason} after {steps} steps"
                               f" at relative residual {res:.3e}")

    rng = np.random.default_rng(seed)
    x, _ = orthonormalize(deflate(drop_nyquist(rng.standard_normal((grid.n, grid.n)),
                                               grid)), None, [])
    Ax, p, Ap = apply(x), None, None
    best, since_best, steps = np.inf, 0, 0
    while True:
        lam = float(np.vdot(x, Ax)) * grid.h**2 / dot(x, x)
        Mx = mass(x)
        r = Ax - lam * Mx
        res = float(np.linalg.norm(r) / (abs(lam) * np.linalg.norm(Mx)))
        if res <= tol:
            return lam, ScalarField(x)
        best, since_best = (res, 0) if res < best else (best, since_best + 1)
        if steps >= max_iter:
            raise stopped("max_iter")
        if since_best >= EIG_STALL_STEPS:
            raise stopped("stall")
        steps += 1
        basis = [(x, Ax)]
        q = None if p is None else orthonormalize(p, Ap, basis)
        Tr = deflate(invert_flat_shifted(r, grid))
        w = None if q is None else orthonormalize(Tr, None, basis + [q])
        if w is None:      # no p, or p or T r dependent on the rest: go on without p
            q, w = None, orthonormalize(Tr, None, basis)
        if w is None:
            raise stopped("stall")
        basis += ([q] if q else []) + [(w[0], apply(w[0]))]
        G = np.array([[float(np.vdot(a, Ab)) for _, Ab in basis] for a, _ in basis])
        c = np.linalg.eigh(0.5 * (G + G.T))[1][:, 0]
        p = sum(ci * b for ci, (b, _) in zip(c[1:], basis[1:]))
        Ap = sum(ci * Ab for ci, (_, Ab) in zip(c[1:], basis[1:]))
        x, Ax = c[0] * x + p, c[0] * Ax + Ap

