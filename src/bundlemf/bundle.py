"""Line-bundle layer over the torus grid.

Sections are represented through the global unit frame as scalar fields; the
connection is a 1-form w with covariant derivative (du + u w).  The bundle
Laplacian reduces to the Schrodinger operator Delta_g + V with potential
V = |w|^2_g + d* w, which is what every solver in this module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    OneForm,
    ScalarField,
    TorusGrid,
    codifferential,
    curl,
    drop_nyquist,
    exterior_derivative,
    flat_laplacian_raw,
    invert_flat_shifted,
    l2_inner,
    oneform_norm_field,
    solve_flat_poisson_raw,
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
    pot = oneform_norm_field(omega, grid) + codifferential(omega, grid)
    return Connection(omega=omega, potential=pot)


@dataclass(frozen=True)
class KernelBasis:
    """Covariantly-constant sections: dimension 0 or 1, never more.

    When the connection form is exact, w = df, the kernel is spanned by
    tau1 ~ e^{-f} normalized to unit L2 norm; f carries the zero-mean gauge.
    """

    dim: int
    tau1: ScalarField | None = None
    f: ScalarField | None = None


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
    # primitive of w by least squares in Fourier space, zero-mean gauge
    c1h = np.fft.rfft2(w.c1)
    c2h = np.fft.rfft2(w.c2)
    num = -1j * (grid.kx * c1h + grid.ky * c2h)
    ok = grid.k2 > 0.0
    fh = np.zeros_like(num)
    fh[ok] = num[ok] / grid.k2[ok]
    f = ScalarField(np.fft.irfft2(fh, s=w.c1.shape))
    tau = np.exp(-f.values)
    tau /= np.sqrt(np.sum(tau**2 * grid.area_element))
    return KernelBasis(dim=1, tau1=ScalarField(tau), f=f)


def project_H1(u: ScalarField, kb: KernelBasis, grid: TorusGrid) -> ScalarField:
    """L2-orthogonal projection onto the complement of the kernel."""
    if kb.dim == 0:
        return u
    coef = l2_inner(u, kb.tau1, grid)
    return ScalarField(u.values - coef * kb.tau1.values)


def bundle_energy(u: ScalarField, conn: Connection, grid: TorusGrid) -> float:
    """Covariant Dirichlet energy  int |du + u w|^2_g dv_g  >= 0."""
    du = exterior_derivative(u, grid)
    d1 = du.c1 + u.values * conn.omega.c1
    d2 = du.c2 + u.values * conn.omega.c2
    return float(np.sum(d1 * d1 + d2 * d2) * grid.h**2)


def bundle_laplacian(u: ScalarField, conn: Connection, grid: TorusGrid) -> ScalarField:
    """Delta_g u + V u, the frame-coefficient form of the bundle Laplacian."""
    from .geometry import laplacian

    return laplacian(u, grid) + ScalarField(conn.potential.values * u.values)


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


def pcg(apply, b: np.ndarray, precond=lambda z: z, project=lambda z: z,
        inner=lambda a, c: np.vdot(a, c).real, tol: float = PCG_TOL,
        max_iter: int = PCG_MAX_ITER) -> tuple[np.ndarray, PCGInfo]:
    """Deflated preconditioned conjugate gradients (Saad, Iterative Methods
    for Sparse Linear Systems, 2nd ed., section 9.2).

    Solves apply(x) = b on the range of the orthogonal projection `project`,
    which must commute with `apply`; `precond` approximates the inverse and
    must be self-adjoint positive in the inner product `inner`.  Stops when
    ||r|| <= tol ||b||, after max_iter steps, or on a direction with
    <p, A p> <= 0, and returns the iterate reached so far.
    """
    b = project(b)
    x = np.zeros_like(b)
    bnorm = np.sqrt(inner(b, b))
    if bnorm == 0.0:
        return x, PCGInfo("converged", 0, 0.0)
    r = b.copy()
    z = project(precond(r))
    p = z.copy()
    rz = inner(r, z)
    reason, it, rnorm = "max_iter", 0, bnorm
    while it < max_iter:
        Ap = project(apply(p))
        pAp = inner(p, Ap)
        if pAp <= 0.0:
            reason = "negative_curvature"
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        rr = inner(r, r)
        rnorm = np.sqrt(rr)
        if rnorm <= tol * bnorm:
            reason = "converged"
            break
        z = project(precond(r))
        rz_new = rr if z is r else inner(r, z)   # plain CG: z is r itself
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, PCGInfo(reason, it, float(rnorm / bnorm))


def require_converged(info: PCGInfo, what: str) -> None:
    if not info.converged:
        raise ConvergenceError(f"{what} stopped on {info.reason} after {info.iterations}"
                               f" iterations at relative residual {info.residual:.3e}")


def tau1_deflation(kb: KernelBasis):
    """Euclidean projection off tau1 for the flat-symmetrized solves."""
    if kb.dim == 0:
        return lambda z: z
    t = kb.tau1.values / np.linalg.norm(kb.tau1.values)
    return lambda z: z - np.vdot(t, z).real * t


def symmetrized_apply(conn: Connection, grid: TorusGrid):
    """p -> (Delta_flat + e^{2v} V) p with the Nyquist modes dropped: the
    flat-self-adjoint form e^{2v} (Delta_g + V) of the bundle Laplacian.

    See geometry.drop_nyquist: the spectral symbol has no stiffness on the
    Nyquist modes, where a partly negative potential would be indefinite.
    e^{2v} V is formed per apply: storing it for the solve raised the peak
    RSS of a 1024^2 Green solve by one field (8 MB).
    """
    V = conn.potential.values
    return lambda p: drop_nyquist(flat_laplacian_raw(p, grid) + grid.exp2v * V * p, grid)


def solve_symmetrized(b: np.ndarray, conn: Connection, grid: TorusGrid,
                      kb: KernelBasis, tol: float = PCG_TOL,
                      max_iter: int = PCG_MAX_ITER) -> np.ndarray:
    """Solve the flat-self-adjoint e^{2v} (Delta_g + V) x = b on the kernel
    complement: directly when V = 0, else by PCG on `symmetrized_apply`
    preconditioned with the Nyquist-free exact inverse of (Delta_flat + 1);
    raises ConvergenceError short of tol.
    """
    if not conn.potential.values.any():
        return solve_flat_poisson_raw(b - b.mean(), grid)
    x, info = pcg(symmetrized_apply(conn, grid), drop_nyquist(b, grid),
                  precond=lambda r: invert_flat_shifted(r, grid),
                  project=tau1_deflation(kb), tol=tol, max_iter=max_iter)
    require_converged(info, "bundle Poisson PCG")
    return x


def solve_bundle_poisson(rhs: ScalarField, conn: Connection, grid: TorusGrid,
                         kb: KernelBasis, tol: float = PCG_TOL,
                         max_iter: int = PCG_MAX_ITER) -> ScalarField:
    """Solve (Delta_g + V) u = rhs on the complement of the kernel.

    The caller must supply a right-hand side orthogonal to tau1 in L2(dv_g)
    when the kernel is one-dimensional; see `solve_symmetrized`.
    """
    return ScalarField(solve_symmetrized(grid.exp2v * rhs.values, conn, grid, kb,
                                         tol=tol, max_iter=max_iter))


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

    if kb.dim == 1:
        t = drop_nyquist(kb.tau1.values, grid)
        t /= np.sqrt(dot(t, t))

        def deflate(z):
            return z - dot(t, z) * t
    else:
        def deflate(z):
            return z

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


def dense_bundle_matrix(conn: Connection, grid: TorusGrid) -> np.ndarray:
    """Dense matrix of the bundle Laplacian in the L2(dv_g) inner product.

    Intended for small grids only (n <= 32); used as an independent oracle
    for the kernel dichotomy and the Poincare eigensolve.
    """
    n = grid.n
    N = n * n
    # matrix of the operator in nodal coordinates, then symmetrize with the
    # quadrature weights: A_sym = W^{1/2} A W^{-1/2} with W = area weights
    cols = []
    eye = np.eye(N)
    for j in range(N):
        e = ScalarField(eye[:, j].reshape(n, n))
        cols.append(bundle_laplacian(e, conn, grid).values.ravel())
    A = np.array(cols).T
    w = np.sqrt(grid.area_element.ravel())
    return A * (w[:, None] / w[None, :])
