import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space

from bundlemf import (
    OneForm,
    ScalarField,
    build_grid,
    bundle_energy,
    bundle_laplacian,
    exterior_derivative,
    kernel_basis,
    l2_inner,
    laplacian,
    make_connection,
    poincare_constant,
    project_H1,
)
from bundlemf.bundle import (
    ConvergenceError,
    EigensolveError,
    dense_bundle_matrix,
    pcg,
    smallest_eigenvalue,
    solve_bundle_poisson,
)
from bundlemf.geometry import drop_nyquist, random_band_limited

from conftest import (
    axis,
    cos_x_field,
    df_connection,
    harmonic_connection,
    zero_connection,
)


def kernel_residual(kb, conn, grid):
    du = exterior_derivative(kb.tau1, grid)
    d1 = du.c1 + kb.tau1.values * conn.omega.c1
    d2 = du.c2 + kb.tau1.values * conn.omega.c2
    return float(np.sqrt(np.sum(d1**2 + d2**2) * grid.h**2))


class TestKernelBasis:
    def test_zero_connection(self, grid64):
        kb = kernel_basis(zero_connection(grid64), grid64)
        assert kb.dim == 1
        # tau1 = |Sigma|^{-1/2} zeta, constant on the flat torus
        assert np.max(np.abs(kb.tau1.values - 1.0)) < 1e-12

    def test_zero_connection_conformal(self):
        g = build_grid(64, cos_x_field(64, 0.2))
        kb = kernel_basis(zero_connection(g), g)
        expected = g.total_area ** -0.5
        assert kb.dim == 1
        assert np.max(np.abs(kb.tau1.values - expected)) < 1e-12

    def test_exact_connection(self, grid64):
        conn = df_connection(grid64, 0.3)
        kb = kernel_basis(conn, grid64)
        assert kb.dim == 1
        assert kernel_residual(kb, conn, grid64) <= 1e-8
        # tau1 proportional to e^{-f}, f gauged to zero mean
        assert abs(np.mean(kb.f.values)) < 1e-12
        ratio = kb.tau1.values * np.exp(kb.f.values)
        assert np.ptp(ratio) < 1e-10 * np.max(ratio)

    def test_unit_norm(self, grid64):
        kb = kernel_basis(df_connection(grid64), grid64)
        assert l2_inner(kb.tau1, kb.tau1, grid64) == pytest.approx(1.0, abs=1e-10)

    def test_holonomy_obstruction(self, grid64):
        kb = kernel_basis(harmonic_connection(grid64, 2 * np.pi, 0.0), grid64)
        assert kb.dim == 0
        assert kb.tau1 is None

    def test_small_period_still_obstructs(self, grid64):
        kb = kernel_basis(harmonic_connection(grid64, 0.5, 0.0), grid64)
        assert kb.dim == 0

    def test_nonvanishing(self, grid64):
        kb = kernel_basis(df_connection(grid64, 0.4), grid64)
        assert np.min(np.abs(kb.tau1.values)) > 0.0


class TestProjection:
    def test_annihilates_kernel(self, grid64):
        kb = kernel_basis(df_connection(grid64), grid64)
        out = project_H1(kb.tau1, kb, grid64)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_fixes_orthogonal_fields(self, grid64):
        kb = kernel_basis(df_connection(grid64), grid64)
        rng = np.random.default_rng(2)
        u = project_H1(random_band_limited(grid64, rng), kb, grid64)
        again = project_H1(u, kb, grid64)
        assert np.max(np.abs(again.values - u.values)) < 1e-13
        assert abs(l2_inner(u, kb.tau1, grid64)) < 1e-12

    def test_zero_connection_is_mean_removal(self, grid64):
        kb = kernel_basis(zero_connection(grid64), grid64)
        rng = np.random.default_rng(4)
        u = random_band_limited(grid64, rng)
        out = project_H1(u, kb, grid64)
        expected = u.values - u.values.mean()
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_dim0_is_identity(self, grid64):
        kb = kernel_basis(harmonic_connection(grid64), grid64)
        rng = np.random.default_rng(6)
        u = random_band_limited(grid64, rng)
        assert project_H1(u, kb, grid64) is u


class TestBundleOperators:
    def test_constant_zero_energy(self, grid64):
        conn = zero_connection(grid64)
        u = ScalarField(np.full((64, 64), 5.0))
        assert bundle_energy(u, conn, grid64) < 1e-14

    def test_kernel_has_zero_energy(self, grid64):
        conn = df_connection(grid64)
        kb = kernel_basis(conn, grid64)
        assert bundle_energy(kb.tau1, conn, grid64) <= 1e-14

    def test_energy_matches_weak_form(self, grid64):
        conn = df_connection(grid64)
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = random_band_limited(grid64, rng)
            e = bundle_energy(u, conn, grid64)
            w = l2_inner(u, bundle_laplacian(u, conn, grid64), grid64)
            assert abs(e - w) < 1e-9 * max(1.0, abs(e))

    def test_reduces_to_laplacian_for_zero_connection(self, grid64):
        conn = zero_connection(grid64)
        rng = np.random.default_rng(10)
        u = random_band_limited(grid64, rng)
        lhs = bundle_laplacian(u, conn, grid64)
        rhs = laplacian(u, grid64)
        assert np.max(np.abs(lhs.values - rhs.values)) == 0.0

    def test_annihilates_tau1(self, grid64):
        conn = df_connection(grid64)
        kb = kernel_basis(conn, grid64)
        out = bundle_laplacian(kb.tau1, conn, grid64)
        assert np.max(np.abs(out.values)) < 1e-8

    def test_eigenfunction(self, grid64):
        conn = zero_connection(grid64)
        x = axis(64)
        u = ScalarField(np.sin(2 * np.pi * x)[:, None] * np.ones((1, 64)))
        out = bundle_laplacian(u, conn, grid64)
        assert np.max(np.abs(out.values - 4 * np.pi**2 * u.values)) < 1e-10

    def test_self_adjointness(self, grid64):
        conn = df_connection(grid64)
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = random_band_limited(grid64, rng)
            w = random_band_limited(grid64, rng)
            a = l2_inner(bundle_laplacian(u, conn, grid64), w, grid64)
            b = l2_inner(u, bundle_laplacian(w, conn, grid64), grid64)
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_potential_recomputable(self, grid64):
        from bundlemf.geometry import codifferential, oneform_norm_field

        conn = df_connection(grid64, 0.25)
        recomputed = (oneform_norm_field(conn.omega, grid64)
                      + codifferential(conn.omega, grid64))
        assert np.max(np.abs(conn.potential.values - recomputed.values)) < 1e-12


class TestPCG:
    def test_spd_converges_within_distinct_eigenvalues(self):
        d = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0])
        b = np.random.default_rng(0).standard_normal(d.size)
        x, info = pcg(lambda p: d * p, b, tol=1e-12)
        assert info.converged
        assert info.iterations <= len(np.unique(d))
        assert info.residual <= 1e-12
        assert np.allclose(x, b / d, rtol=0.0, atol=1e-12)

    def test_small_cap_stops_on_max_iter(self):
        d = np.arange(1.0, 11.0)
        x, info = pcg(lambda p: d * p, np.ones(10), tol=1e-12, max_iter=2)
        assert info.reason == "max_iter"
        assert not info.converged
        assert info.iterations == 2
        assert info.residual > 1e-12

    def test_indefinite_stops_on_negative_curvature(self):
        # one step along b = (1, 1), then the next direction has <p, A p> < 0
        d = np.array([4.0, -1.0])
        x, info = pcg(lambda p: d * p, np.ones(2))
        assert info.reason == "negative_curvature"
        assert info.iterations == 1
        assert np.allclose(x, [2.0 / 3.0, 2.0 / 3.0], rtol=0.0, atol=1e-15)

    def test_unconverged_poisson_solve_raises(self, grid32):
        conn = df_connection(grid32, 0.3)
        kb = kernel_basis(conn, grid32)
        rhs = project_H1(random_band_limited(grid32, np.random.default_rng(1)), kb, grid32)
        with pytest.raises(ConvergenceError):
            solve_bundle_poisson(rhs, conn, grid32, kb, max_iter=1)


class TestPoincare:
    def test_flat_torus_constant(self, grid64):
        conn = zero_connection(grid64)
        C = poincare_constant(conn, grid64)
        assert abs(C - 1 / (4 * np.pi**2)) < 1e-3 * (1 / (4 * np.pi**2))

    def test_harmonic_connection_positive(self):
        # the 2 pi dx holonomy on the flat torus; the exact connection on the
        # conformal metric cos-x:0.3, where inverse iteration converged at
        # rate 0.988 and stopped at its 500-step cap; and a rough conformal
        # metric, whose e^{2v} x has Nyquist modes the residual must drop
        rough = 0.3 * np.random.default_rng(0).standard_normal((32, 32))
        for v, conn_of, dim in ((None, lambda g: harmonic_connection(g, 2 * np.pi, 0.0), 0),
                                ("cos-x:0.3", df_connection, 1),
                                (rough, lambda g: harmonic_connection(g, 1.0, 2.0), 0)):
            grid = build_grid(32, v)
            conn = conn_of(grid)
            kb = kernel_basis(conn, grid)
            assert kb.dim == dim
            lam, _ = smallest_eigenvalue(conn, grid, kb)
            assert lam > 0.0
            ref = _restricted_oracle(conn, grid, kb)
            assert abs(lam - ref) < 1e-10 * max(1.0, ref)

    def test_unconverged_eigensolve_raises(self, grid32):
        conn = df_connection(grid32, 0.3)
        kb = kernel_basis(conn, grid32)
        with pytest.raises(EigensolveError,
                          match=r"max_iter after 2 steps at relative residual \d"):
            smallest_eigenvalue(conn, grid32, kb, max_iter=2)

    @given(a=st.floats(0.5, 10.0), b=st.floats(-10.0, 10.0),
           amp=st.floats(-1.0, 1.0), harmonic=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_eigenpair_properties(self, grid32, a, b, amp, harmonic, seed):
        conn = (harmonic_connection(grid32, a, b) if harmonic
                else df_connection(grid32, amp))
        kb = kernel_basis(conn, grid32)
        lam, x = smallest_eigenvalue(conn, grid32, kb, seed=seed)
        scale = np.max(np.abs(x.values))
        assert np.max(np.abs(drop_nyquist(x.values, grid32) - x.values)) <= 1e-12 * scale
        if kb.dim == 1:
            assert abs(l2_inner(x, kb.tau1, grid32)) <= 1e-10
        rayleigh = bundle_energy(x, conn, grid32) / l2_inner(x, x, grid32)
        assert abs(lam - rayleigh) <= 1e-10 * lam
        if harmonic:
            assert abs(lam - (a * a + b * b)) <= 1e-10 * (a * a + b * b)

    def test_refinement_stability(self):
        vals = []
        for n in (32, 64):
            g = build_grid(n)
            conn = df_connection(g, 0.3)
            vals.append(poincare_constant(conn, g))
        assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[1])

    def test_inequality_on_random_samples(self, grid64):
        conn = df_connection(grid64, 0.3)
        kb = kernel_basis(conn, grid64)
        C = poincare_constant(conn, grid64, kb)
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = project_H1(random_band_limited(grid64, rng, kmax=10), kb, grid64)
            assert l2_inner(u, u, grid64) <= C * bundle_energy(u, conn, grid64) * (1 + 1e-10)


def _nyquist_projector(grid):
    n = grid.n
    N = n * n
    cols = np.empty((N, N))
    eye = np.eye(N)
    for j in range(N):
        cols[:, j] = drop_nyquist(eye[:, j].reshape(n, n), grid).ravel()
    return cols


def _restricted_oracle(conn, grid, kb):
    """Smallest eigenvalue of the symmetrized dense bundle matrix on an
    orthonormal basis of W^{1/2} (Nyquist-free fields), W the area weights,
    with W^{1/2} tau1 removed.  Unlike F A F it holds on conformal metrics."""
    evals, B = np.linalg.eigh(_nyquist_projector(grid))
    w = np.sqrt(grid.area_element.ravel())
    Q, _ = np.linalg.qr(w[:, None] * B[:, evals > 0.5])
    if kb.dim == 1:
        Q = Q @ null_space((Q.T @ (w * kb.tau1.values.ravel()))[None, :])
    M = Q.T @ dense_bundle_matrix(conn, grid) @ Q
    return np.linalg.eigvalsh(0.5 * (M + M.T))[0]


class TestKernelDichotomy:
    @pytest.mark.parametrize("maker", [zero_connection, df_connection,
                                       harmonic_connection])
    def test_single_near_zero_eigenvalue(self, grid32, maker):
        conn = maker(grid32)
        kb = kernel_basis(conn, grid32)
        assert kb.dim in (0, 1)
        lam, _ = smallest_eigenvalue(conn, grid32, kb)
        # after deflating the at-most-one kernel direction, a clear gap
        assert lam >= 0.1

    def test_dense_oracle_counts_kernel(self, grid32):
        conn = df_connection(grid32, 0.3)
        A = dense_bundle_matrix(conn, grid32)
        F = _nyquist_projector(grid32)
        M = F @ A @ F + 1e6 * (np.eye(A.shape[0]) - F)
        evals = np.linalg.eigvalsh(0.5 * (M + M.T))
        near_zero = int(np.sum(np.abs(evals) < 0.05))
        assert near_zero == 1
        assert evals[1] >= 0.1
