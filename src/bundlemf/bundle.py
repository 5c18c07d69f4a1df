"""Line-bundle layer over the torus grid.

Sections are represented through the global unit frame as scalar fields; the
connection is a 1-form w with covariant derivative (du + u w).  The bundle
Laplacian reduces to the Schrodinger operator Delta_g + V with potential
V = |w|^2_g + d* w, which is what every solver in this module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 imports it on first use, inside a solve)

from .geometry import (
    OneForm,
    ScalarField,
    TorusGrid,
    flat_laplacian_raw,
    from_spectral,
    low_modes,
    oneform_calculus,
    partial_derivatives,
    set_window,
    spectral_laplacian_plus,
    to_spectral,
    window,
)


class EigensolveError(RuntimeError):
    """The eigen-solve stopped short of its tolerance (the message names why,
    after how many steps and at what residual) or found lambda <= 0."""


@dataclass(frozen=True)
class KernelBasis:
    """Covariantly-constant sections: dimension 0 or 1, never more.

    When the connection form is exact, w = df, the kernel is spanned by
    tau1 ~ e^{-f} normalized to unit L2(dv_g) norm, f the zero-mean
    primitive.  Only make_connection builds one, on its connection's grid;
    Connection.five_point copies it onto the 5-point twin.

    `component` and `remove` act on raw arrays in L2(dv_g): `remove` is the
    projection onto H1, the kernel's complement, for every solver, and
    <tau1, tau1> is summed once, on first use.  `spectral` gives the Fourier
    space solvers the masked transforms of tau1 and of e^{2v} tau1, each
    computed once, and `deflation` the one projection they deflate tau1 with.
    """

    dim: int
    grid: TorusGrid = field(repr=False, compare=False)
    tau1: ScalarField | None = None
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _norm2(self) -> float:
        t = self.tau1.values
        return float(np.sum(t * t * self.grid.area_element))

    def component(self, z: np.ndarray) -> float:
        """<z, tau1> / <tau1, tau1> in L2(dv_g); 0.0 when the kernel is trivial."""
        if self.dim == 0:
            return 0.0
        return float(np.sum(z * self.tau1.values * self.grid.area_element)) / self._norm2

    def remove(self, z: np.ndarray) -> float:
        """z minus its tau1 component, in place; returns the component (0.0 if trivial)."""
        c = self.component(z)
        if self.dim == 1:
            z -= c * self.tau1.values
        return c

    def spectral(self, weighted: bool = False) -> np.ndarray:
        """The read-only masked transform (geometry.to_spectral) of tau1, or
        of e^{2v} tau1 when `weighted`; the kernel must be one-dimensional."""
        grid = self.grid
        weighted = weighted and bool(grid.v.values.any())   # flat: e^{2v} = 1 exactly
        if weighted not in self._spectra:
            t = grid.exp2v * self.tau1.values if weighted else self.tau1.values
            self._spectra[weighted] = to_spectral(t, grid)
            self._spectra[weighted].setflags(write=False)
        return self._spectra[weighted]

    def deflation(self, against_weighted: bool = False, along_weighted: bool = False):
        """The in-place map Z -> Z - (<Z, A> / <B, A>) B on Nyquist-free rfft2
        coefficients, <.,.> Parseval's (grid.inner) and A, B the
        `spectral` transforms of tau1, weighted as flagged: Z made
        Euclidean-orthogonal to A along B.  With A weighted, Z is
        L2(dv_g)-orthogonal to tau1.  <B, A> is summed once; the identity
        when the kernel is trivial."""
        if self.dim == 0:
            return lambda Z: Z
        A, B = self.spectral(against_weighted), self.spectral(along_weighted)
        inner = self.grid.inner
        ba = inner(B, A)

        def deflate(Z):
            Z -= (inner(Z, A) / ba) * B
            return Z
        return deflate


@dataclass(frozen=True)
class Connection:
    """Connection form w, its potential V = |w|^2_g + d* w and its kernel,
    all computed with the metric of `grid`, which every solver reads."""

    omega: OneForm
    potential: ScalarField
    kernel: KernelBasis
    grid: TorusGrid = field(repr=False, compare=False)

    @cached_property
    def five_point(self) -> Connection:
        """This connection, built once on the grid's 5-point twin: the same
        potential and tau1 arrays, with the twin's spectra in its kernel."""
        twin = self.grid.five_point
        return replace(self, grid=twin, kernel=replace(self.kernel, grid=twin))

    @cached_property
    def preconditioner(self):
        """solve_symmetrized's preconditioner, built on first use: the map
        R -> M R on Nyquist-free rfft2 coefficients that applies the exact
        inverse of the coarse block (coarse_block, shifted along tau1's low
        modes when the kernel is one-dimensional) on the modes
        |k_x|, |k_y| <= COARSE_K and grid.shifted_inverse on the others.
        Only the inverse's rows with k_y >= 0 are kept (0.25 MB).  A block
        that is not positive definite leaves the diagonal alone."""
        K, grid = COARSE_K, self.grid
        m = 2 * K + 1
        inverse = _hpd_inverse(_shift_along_tau1(coarse_block(self, K), self.kernel,
                                                 K, COARSE_SHIFT))
        if inverse is None:
            return lambda R: grid.shifted_inverse * R
        inverse = inverse.reshape(m, m, m, m)[:, K:].copy()

        def precondition(R):
            Z = grid.shifted_inverse * R
            set_window(Z, np.einsum("abcd,cd->ab", inverse, window(R, K)), K)
            return Z
        return precondition


def make_connection(omega: OneForm, grid: TorusGrid) -> Connection:
    """The connection with form w from one transform of w's components
    (geometry.oneform_calculus): V = e^{-2v} (w1^2 + w2^2 - div w), and the
    kernel (KernelBasis), nontrivial exactly when w is exact: when the curl
    and the two cycle periods vanish up to a spectral-noise threshold.  A
    nonzero period gives holonomy != 1: no periodic solution of du + u w = 0."""
    calculus = oneform_calculus(omega, grid)
    eps = 1e-8 * (1.0 + max(np.max(np.abs(omega.c1)), np.max(np.abs(omega.c2))))
    curl_inf = float(np.max(np.abs(next(calculus))))
    pot = omega.c1**2 + omega.c2**2
    pot -= next(calculus)
    pot /= grid.exp2v
    kernel = KernelBasis(dim=0, grid=grid)
    if not (curl_inf > eps or abs(np.mean(omega.c1)) > eps or abs(np.mean(omega.c2)) > eps):
        tau = np.exp(-next(calculus))
        tau /= np.sqrt(np.sum(tau**2 * grid.area_element))
        kernel = KernelBasis(dim=1, tau1=ScalarField(tau), grid=grid)
    return Connection(omega=omega, potential=ScalarField(pot), kernel=kernel, grid=grid)


def project_H1(u: ScalarField, kb: KernelBasis) -> ScalarField:
    """L2(dv_g)-orthogonal projection onto the complement of the kernel."""
    if kb.dim == 0:
        return u
    z = u.values.copy()
    kb.remove(z)
    return ScalarField(z)


def bundle_energy(u: ScalarField, conn: Connection) -> float:
    """Covariant Dirichlet energy  int |du + u w|^2_g dv_g  >= 0, one
    component at a time, squared and summed in place."""
    density, comps = 0.0, partial_derivatives(u.values, conn.grid)
    for w in (conn.omega.c1, conn.omega.c2):
        d = next(comps)
        d += u.values * w
        density += d * d
        del d
    return float(np.sum(density) * conn.grid.h**2)


def bundle_laplacian_raw(u: np.ndarray, conn: Connection) -> np.ndarray:
    """Delta_g u + V u on a raw array, the frame-coefficient form of the
    bundle Laplacian."""
    return flat_laplacian_raw(u, conn.grid) / conn.grid.exp2v + conn.potential.values * u


def bundle_laplacian(u: ScalarField, conn: Connection) -> ScalarField:
    """`bundle_laplacian_raw` on a field."""
    return ScalarField(bundle_laplacian_raw(u.values, conn))


# ---------------------------------------------------------------------------
# linear solves with the bundle Laplacian
# ---------------------------------------------------------------------------

PCG_TOL = 1e-13
PCG_MAX_ITER = 6000


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""


@dataclass(frozen=True)
class PCGInfo:
    """Why pcg stopped: "converged", "max_iter", "negative_curvature" or
    "non_finite" (<p, A p> or ||r|| is NaN or infinite)."""

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
    ||b||, after max_iter steps, on a direction with <p, A p> <= 0, or as
    soon as <p, A p> or ||r|| is not finite, and returns the iterate reached
    so far.

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
        if not np.isfinite(pAp):
            reason = "non_finite"
            break
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
        if not np.isfinite(rnorm):
            reason = "non_finite"
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


COARSE_K = 6           # the coarse modes |k_x|, |k_y| <= COARSE_K: 169 of them
COARSE_SHIFT = 4 * np.pi**2   # the rank-one shift along tau1's low modes: the lowest k^2


def coarse_block(conn: Connection, K: int) -> np.ndarray:
    """The Galerkin block A_L = diag(k^2) + W(k - l) of solve_symmetrized's
    operator on the modes |k_x|, |k_y| <= K, W the fft2 of e^{2v} h^2 V:
    exact, since the Nyquist mask never reaches those modes.  A Hermitian
    (m^2, m^2) matrix, m = 2 K + 1, over the modes in C order of
    geometry.window's (k_x + K, k_y + K); one FFT.  COARSE_K builds
    Connection.preconditioner's block, EIG_START_K the eigen-solve's start."""
    grid = conn.grid
    m = 2 * K + 1
    W = low_modes(grid.area_element * conn.potential.values, 2 * K)
    d = np.arange(m)[:, None] - np.arange(m)[None, :] + 2 * K     # k - l + 2K
    A = W[d[:, None, :, None], d[None, :, None, :]].reshape(m * m, m * m)
    A[np.diag_indices(m * m)] += window(grid.k2, K).reshape(-1)
    return A


def _shift_along_tau1(A: np.ndarray, kernel: KernelBasis, K: int, shift: float) -> np.ndarray:
    """The coarse block A plus `shift` times the orthogonal projection onto
    tau1's window |k_x|, |k_y| <= K, in place, when the kernel is
    one-dimensional (A is only semi-definite there); else A as it is."""
    if kernel.dim == 1:
        t = window(kernel.spectral(), K).reshape(-1)
        A += (shift / np.sum(np.abs(t) ** 2)) * np.multiply.outer(t, t.conj())
    return A


def _hpd_inverse(A: np.ndarray) -> np.ndarray | None:
    """The inverse of the Hermitian positive-definite A, in place, by
    Gauss-Jordan elimination without pivoting in numpy alone: no BLAS or
    LAPACK, whose buffers would stay resident.  None when a pivot is not
    positive."""
    for j in range(len(A)):
        pivot = A[j, j].real
        if not pivot > 0.0:
            return None
        col = A[:, j].copy()
        col[j] = 0.0
        A[:, j] = 0.0
        A[j, j] = 1.0
        A[j] /= pivot
        A -= np.multiply.outer(col, A[j])
    return A


def solve_symmetrized(b: np.ndarray, conn: Connection, tol: float = PCG_TOL,
                      max_iter: int = PCG_MAX_ITER) -> tuple[np.ndarray, PCGInfo]:
    """Solve the flat-self-adjoint e^{2v} (Delta_g + V) x = b on the kernel
    complement by PCG in Fourier space (Boyd, Chebyshev and Fourier Spectral
    Methods, 2nd ed., ch. 15), the zero connection included.  Returns x and
    the PCGInfo; raises ConvergenceError short of tol.  conn.grid picks the
    discretization: `conn` for the spectral one, `conn.five_point` for the
    5-point one.

    The Krylov vectors are rfft2 coefficients masked by grid.mask (all ones
    on the 5-point twin, whose symbol grid.k2 is positive on the Nyquist
    modes): b is transformed once, each step applies
    geometry.spectral_laplacian_plus (one FFT pair) and
    conn.preconditioner, inner products are Parseval's, tau1 is deflated by
    KernelBasis.deflation (in the right-hand side, the operator and the
    preconditioner), and x is transformed back once.  b is not kept once
    transformed.

    The preconditioner is block Jacobi over a Fourier split, a coarse space
    solved exactly beside a diagonal smoother (Nicolaides, SIAM J. Numer.
    Anal. 24 (1987) 355-365): the inverse of the Galerkin block
    coarse_block on the 169 modes |k_x|, |k_y| <= COARSE_K = 6, shifted by
    COARSE_SHIFT along tau1's low modes when the kernel is one-dimensional
    (the block is only semi-definite there), and grid.shifted_inverse on
    every other mode.  The diagonal alone cannot see the O(10) potential
    e^{2v} V on the lowest modes: on exact:cos-x:0.3 a Green solve took 11
    steps with it and takes 5 with the block (flat and conformal, both
    discretizations, n = 256 and 1024), and 3 in place of 6 on
    harmonic:1,0.5.  The block is factored in the first solve of each
    connection (one FFT).  Inside the PCG numpy's overflow and invalid
    value errors are off whatever the caller's np.errstate, so a non-finite
    step ends it on pcg's own `non_finite` reason.
    """
    grid, V = conn.grid, conn.potential.values
    deflate = conn.kernel.deflation()   # in place: only ever given pcg's temporaries
    B = deflate(to_spectral(b, grid))
    del b
    precondition = conn.preconditioner
    with np.errstate(over="ignore", invalid="ignore"):
        X, info = pcg(lambda P: deflate(spectral_laplacian_plus(P, V, grid)), B,
                      precond=lambda R: deflate(precondition(R)),
                      inner=grid.inner, tol=tol, max_iter=max_iter)
    require_converged(info, "bundle Poisson PCG")
    return from_spectral(X, grid), info


# ---------------------------------------------------------------------------
# Poincare constant: the smallest eigenvalue on the kernel complement
# ---------------------------------------------------------------------------

EIG_TOL = 1e-8          # relative residual; lam's error goes like its square
EIG_STALL_STEPS = 20    # steps without a new lowest residual that make a stall
EIG_DEPENDENT = 1e-8    # share of a vector left by Gram-Schmidt below which it is dependent
EIG_START_K = 1         # the start's coarse modes |k_x|, |k_y| <= EIG_START_K: nine of them
EIG_START_NOISE = 1e-3  # the start's seeded perturbation, relative to its coarse part


def poincare_constant(conn: Connection, grid: TorusGrid, seed: int = 0,
                      tol: float = EIG_TOL, max_iter: int = 500) -> float:
    """1 / lambda_min of the bundle Laplacian on the discrete complement of
    the kernel; see `smallest_eigenvalue` for the method, its coarse start,
    `tol` and `seed`, which draws the start's small perturbation.  `grid`
    must be conn.grid itself: a connection holds one metric."""
    if grid is not conn.grid:
        raise ValueError("grid is not the connection's grid")
    lam, _ = smallest_eigenvalue(conn, seed=seed, tol=tol, max_iter=max_iter)
    if lam <= 0.0:
        raise EigensolveError(f"nonpositive smallest eigenvalue {lam}")
    return 1.0 / lam


def smallest_eigenvalue(conn: Connection, seed: int = 0, tol: float = EIG_TOL,
                        max_iter: int = 500) -> tuple[float, ScalarField]:
    """Smallest eigenvalue of Delta_g + V on the Nyquist-free fields
    L2(dv_g)-orthogonal to the kernel, and its unit eigenvector.

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517-541,
    Alg. 4.1 with block size 1) on the pencil K x = lam M x, in Fourier space
    like solve_symmetrized: the vectors are Nyquist-free rfft2 coefficients,
    K is geometry.spectral_laplacian_plus (one FFT pair), M the masked
    e^{2v} (the identity on the flat torus, else one FFT pair), the
    preconditioner T the diagonal grid.shifted_inverse, inner products are
    Parseval's, and tau1 is deflated by KernelBasis.deflation.  Each step is
    a Rayleigh-Ritz on span{x, T r, p} made M-orthonormal by Gram-Schmidt in
    place; K x and K p, and M x and M p on a conformal metric, are carried
    along, so a step costs one operator and one mass apply: 2 FFTs on the
    flat torus, 4 on a conformal metric.  p is dropped when it is nearly
    dependent on the other two.  The eigenvector is transformed back once.

    The start (`_coarse_start`) is a Rayleigh-Ritz on the coarse space of
    the two-level preconditioner (Nicolaides, SIAM J. Numer. Anal. 24
    (1987) 355-365): the lowest eigenvector of coarse_block on the nine
    modes |k_x|, |k_y| <= EIG_START_K = 1, with tau1's window shifted out
    of the way, which costs one FFT and an 18 x 18 real eigh.  It separates
    the near-degenerate cluster of the lowest Fourier modes that a white
    noise start spent most of its steps on: 13 applies in place of 24 to 36
    on exact:cos-x:0.3 at n = 128.  `seed` draws a white-noise perturbation
    of EIG_START_NOISE = 1e-3 of the start's norm, in Fourier space.  It
    stays because it keeps every mode present: the nine-mode window can
    rank the symmetry sectors wrongly, and a start confined to the wrong
    one stalled (exact:cos-x:2.0 on cos-x:0.5, n = 32 and 64).

    `tol` bounds the relative residual ||K x - lam M x|| / (|lam| ||M x||);
    the eigenvalue error goes like its square.  Raises EigensolveError naming
    the reason (`max_iter`, or `stall` when the residual has not reached a
    new low in EIG_STALL_STEPS steps), the step count and the final relative
    residual; it never returns a pair short of tol.
    """
    grid = conn.grid
    V, n2, inner = conn.potential.values, grid.n**2, grid.inner
    deflate = conn.kernel.deflation(against_weighted=True)
    conformal = grid.v.values.any()

    def mass(Z):            # M z, or None on the flat torus, where M z is z
        if not conformal:
            return None
        z = from_spectral(Z, grid)
        z *= grid.area_element  # e^{2v} h^2, and 1/h^2 = n^2 is exact
        MZ = to_spectral(z, grid)
        MZ *= n2
        return MZ

    def m(v):               # the mass image of a vector v = [z, K z, M z]
        return v[0] if v[2] is None else v[2]

    def dot(u, v):
        return inner(u[0], m(v))

    def orthonormalize(v, basis):
        """Gram-Schmidt of v against the M-orthonormal basis, twice, in place
        on the arrays v holds (K z is None when not yet known); None when less
        than EIG_DEPENDENT of z is left, else v."""
        norm0 = np.sqrt(dot(v, v))
        for _ in range(2):
            for b in basis:
                c = dot(b, v)
                for a, ab in zip(v, b):
                    if a is not None:
                        a -= c * ab
        norm = np.sqrt(dot(v, v))
        if not norm > EIG_DEPENDENT * norm0:
            return None
        for a in v:
            if a is not None:
                a /= norm
        return v

    def stopped(reason):
        return EigensolveError(f"eigensolve stopped on {reason} after {steps} steps"
                               f" at relative residual {res:.3e}")

    X = deflate(_coarse_start(conn, np.random.default_rng(seed)))
    x = orthonormalize([X, None, mass(X)], [])
    x[1] = spectral_laplacian_plus(X, V, grid)
    p = None
    best, since_best, steps = np.inf, 0, 0
    while True:
        lam = inner(x[0], x[1]) / dot(x, x)
        R = lam * m(x)
        np.subtract(x[1], R, out=R)             # r = K x - lam M x
        res = float(np.sqrt(inner(R, R))
                    / (abs(lam) * np.sqrt(inner(m(x), m(x)))))
        if res <= tol:
            u = from_spectral(x[0], grid)
            u *= n2                             # unit in L2(dv_g), exactly
            return lam, ScalarField(u)
        best, since_best = (res, 0) if res < best else (best, since_best + 1)
        if steps >= max_iter:
            raise stopped("max_iter")
        if since_best >= EIG_STALL_STEPS:
            raise stopped("stall")
        steps += 1
        R *= grid.shifted_inverse               # T r: r is not kept
        deflate(R)
        w = orthonormalize([R, None, mass(R)], [x])
        if w is None:
            raise stopped("stall")
        w[1] = spectral_laplacian_plus(w[0], V, grid)
        q = None if p is None else orthonormalize(p, [x, w])
        basis = [x, w] + ([q] if q else [])
        G = np.array([[inner(a[0], b[1]) for b in basis] for a in basis])
        c = np.linalg.eigh(0.5 * (G + G.T))[1][:, 0]
        for i in range(3):      # p = c1 w + c2 q, x = c0 x + p, in w's and x's arrays
            if w[i] is not None:
                w[i] *= c[1]
                if q:
                    w[i] += c[2] * q[i]
                x[i] *= c[0]
                x[i] += w[i]
        p = w
        del q, basis            # the old p, before the next step allocates


def _coarse_start(conn: Connection, rng: np.random.Generator) -> np.ndarray:
    """smallest_eigenvalue's start on Nyquist-free rfft2 coefficients: the
    lowest eigenvector of coarse_block on the modes |k_x|, |k_y| <=
    EIG_START_K, its tau1 window shifted past the block's spectrum (by the
    trace) when the kernel is one-dimensional, plus white noise drawn from
    `rng` as a real field's coefficients, EIG_START_NOISE of its norm.

    The Hermitian block is solved as its real symmetric embedding
    [[Re A, -Im A], [Im A, Re A]], and of the eigenvector z the larger of the
    real fields z + conj z(-k) and i (conj z(-k) - z) is kept (one of them
    may vanish).  One FFT, the block's."""
    grid, K = conn.grid, EIG_START_K
    m2 = (2 * K + 1) ** 2
    A = coarse_block(conn, K)
    A = _shift_along_tau1(A, conn.kernel, K, float(np.trace(A).real))
    y = np.linalg.eigh(np.block([[A.real, -A.imag], [A.imag, A.real]]))[1][:, 0]
    z = (y[:m2] + 1j * y[m2:]).reshape(2 * K + 1, 2 * K + 1)
    zc = z[::-1, ::-1].conj()               # conj z(-k)
    z = max((z + zc, 1j * (zc - z)), key=np.linalg.norm)
    z /= np.linalg.norm(z)                  # Parseval's norm of the window's field
    n = grid.n
    X = rng.standard_normal((n, n // 2 + 1, 2)).view(complex)[..., 0]
    for c in (0, -1):   # the columns where a real field's X(-k) = conj X(k) binds
        X[:, c] += X[-np.arange(n), c].conj()
    X *= grid.mask
    X *= EIG_START_NOISE / np.sqrt(grid.inner(X, X))
    set_window(X, window(X, K)[:, K:] + z[:, K:], K)
    return X
