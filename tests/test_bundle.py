import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space

import bundlemf
from bundlemf import (
    KernelBasis,
    OneForm,
    ProblemSpec,
    ScalarField,
    build_grid,
    bundle_energy,
    bundle_laplacian,
    exterior_derivative,
    l2_inner,
    laplacian,
    make_connection,
    poincare_constant,
    project_H1,
)
from bundlemf import bundle
from bundlemf.bundle import (
    PCG_MAX_ITER,
    PCG_TOL,
    ConvergenceError,
    EigensolveError,
    pcg,
    smallest_eigenvalue,
    solve_symmetrized,
)
from bundlemf.geometry import (
    codifferential,
    flat_laplacian_raw,
    fourier_multiply,
    from_spectral,
    oneform_calculus,
    pseudo_inverse,
    random_band_limited,
    spectral_inner,
    spectral_l1,
    spectral_laplacian_plus,
    to_spectral,
    window,
)
from bundlemf.presets import make_connection_form, make_v_field
from bundlemf.testfunctions import plateau_integral, tm_probe

from conftest import (
    axis,
    cos_x_field,
    count_fft_calls,
    df_connection,
    drop_nyquist,
    harmonic_connection,
    ones_field,
    spy_pcg,
    traced_peak,
    zero_connection,
)


def folded_apply(conn, grid):
    """p -> the real array of spectral_laplacian_plus(to_spectral(p)): the
    flat-self-adjoint e^{2v} (Delta_g + V) with the Nyquist modes dropped,
    on real arrays."""
    V = conn.potential.values
    return lambda p: from_spectral(spectral_laplacian_plus(to_spectral(p, grid), V, grid), grid)


def wide_connection(grid, seed=4):
    """df with f a random field of modes |k_x|, |k_y| <= 6: a potential with
    hundreds of Fourier terms, applied by an FFT pair."""
    f = random_band_limited(grid, np.random.default_rng(seed), amplitude=0.3)
    return make_connection(exterior_derivative(f, grid), grid)


def count_applies(monkeypatch) -> list:
    """A list that records every Connection.apply call made from here on."""
    applies, apply = [], bundle.Connection.apply
    monkeypatch.setattr(bundle.Connection, "apply",
                        lambda self, P: applies.append(1) or apply(self, P))
    return applies


def five_point_apply(conn, grid):
    """z -> (4 z - neighbours) / h^2 + e^{2v} V z by np.roll on real arrays:
    the physical-space 5-point operator, kept as the reference for the
    solve on the grid's 5-point twin."""
    V = conn.potential.values
    return lambda z: ((4.0 * z - np.roll(z, 1, 0) - np.roll(z, -1, 0)
                       - np.roll(z, 1, 1) - np.roll(z, -1, 1)) / grid.h**2
                      + grid.exp2v * V * z)


def dense_bundle_matrix(conn, grid) -> np.ndarray:
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
        cols.append(bundle_laplacian(e, conn).values.ravel())
    A = np.array(cols).T
    w = np.sqrt(grid.area_element.ravel())
    return A * (w[:, None] / w[None, :])


def solve_bundle_poisson(rhs, conn, tol=PCG_TOL, max_iter=PCG_MAX_ITER):
    """Solve (Delta_g + V) u = rhs on the complement of the kernel, for rhs
    L2(dv_g)-orthogonal to tau1; see `solve_symmetrized`."""
    return ScalarField(solve_symmetrized(conn.grid.exp2v * rhs.values, conn,
                                         tol=tol, max_iter=max_iter)[0])


def primitive_reference(a, grid):
    """The zero-mean least-squares primitive of a 1-form from its own two
    transforms (3 FFTs): the construction make_connection replaced."""
    num = -1j * (grid.kx * np.fft.rfft2(a.c1) + grid.ky * np.fft.rfft2(a.c2))
    return np.fft.irfft2(num * pseudo_inverse(grid.k2), s=a.c1.shape)


def curl_reference(a, grid):
    """d1 a2 - d2 a1 by one Fourier multiplier per component (4 FFTs)."""
    return fourier_multiply(a.c2, 1j * grid.kx) - fourier_multiply(a.c1, 1j * grid.ky)


def potential_reference(a, grid):
    """|a|^2_g + d* a, each term on its own route: the pointwise norm
    e^{-2v} (a1^2 + a2^2) plus geometry.codifferential (4 FFTs)."""
    return (a.c1**2 + a.c2**2) / grid.exp2v + codifferential(a, grid).values


def kernel_reference(a, grid):
    """(dim, tau1) of the kernel classified from the curl_reference and the
    periods, tau1 from the primitive_reference."""
    eps = 1e-8 * (1.0 + max(np.max(np.abs(a.c1)), np.max(np.abs(a.c2))))
    if (np.max(np.abs(curl_reference(a, grid))) > eps or abs(np.mean(a.c1)) > eps
            or abs(np.mean(a.c2)) > eps):
        return 0, None
    tau = np.exp(-primitive_reference(a, grid))
    return 1, tau / np.sqrt(np.sum(tau**2 * grid.area_element))


def kernel_residual(kb, conn, grid):
    du = exterior_derivative(kb.tau1, grid)
    d1 = du.c1 + kb.tau1.values * conn.omega.c1
    d2 = du.c2 + kb.tau1.values * conn.omega.c2
    return float(np.sqrt(np.sum(d1**2 + d2**2) * grid.h**2))


class TestKernelBasis:
    def test_zero_connection(self, grid64):
        kb = zero_connection(grid64).kernel
        assert kb.dim == 1
        # tau1 = |Sigma|^{-1/2} zeta, constant on the flat torus
        assert np.max(np.abs(kb.tau1.values - 1.0)) < 1e-12

    def test_zero_connection_conformal(self):
        g = build_grid(64, cos_x_field(64, 0.2))
        kb = zero_connection(g).kernel
        expected = g.total_area ** -0.5
        assert kb.dim == 1
        assert np.max(np.abs(kb.tau1.values - expected)) < 1e-12

    def test_exact_connection(self, grid64):
        conn = df_connection(grid64, 0.3)
        kb = conn.kernel
        assert kb.dim == 1
        assert kernel_residual(kb, conn, grid64) <= 1e-8
        # tau1 proportional to e^{-f}, f gauged to zero mean
        f = primitive_reference(conn.omega, grid64)
        assert abs(np.mean(f)) < 1e-12
        ratio = kb.tau1.values * np.exp(f)
        assert np.ptp(ratio) < 1e-10 * np.max(ratio)

    def test_unit_norm(self, grid64):
        kb = df_connection(grid64).kernel
        assert l2_inner(kb.tau1, kb.tau1, grid64) == pytest.approx(1.0, abs=1e-10)

    def test_holonomy_obstruction(self, grid64):
        kb = harmonic_connection(grid64, 2 * np.pi, 0.0).kernel
        assert kb.dim == 0
        assert kb.tau1 is None

    def test_small_period_still_obstructs(self, grid64):
        kb = harmonic_connection(grid64, 0.5, 0.0).kernel
        assert kb.dim == 0

    def test_nonvanishing(self, grid64):
        kb = df_connection(grid64, 0.4).kernel
        assert np.min(np.abs(kb.tau1.values)) > 0.0

    @pytest.mark.parametrize("scale, dim", [(0.5, 1), (2.0, 0)])
    def test_curl_past_its_spectral_bound(self, grid32, scale, dim):
        """A curl whose spectral bound (spectral_l1 / n^2) exceeds the
        threshold but whose sup-norm is half of it is transformed back and
        found closed; at twice the threshold, not."""
        n = 32
        rng = np.random.default_rng(13)
        df = exterior_derivative(cos_x_field(n, 0.3), grid32)
        dg = exterior_derivative(ScalarField(rng.standard_normal((n, n))), grid32)
        curl = next(oneform_calculus(OneForm(-dg.c2, dg.c1), grid32))
        eps = 1e-8 * (1.0 + np.max(np.abs(df.c1)))
        t = scale * eps / np.max(np.abs(from_spectral(curl, grid32)))
        assert t * spectral_l1(curl) / n**2 > 2 * eps
        w = OneForm(df.c1 - t * dg.c2, df.c2 + t * dg.c1)
        assert make_connection(w, grid32).kernel.dim == dim


    @given(seed=st.integers(0, 2**32 - 1), kmax=st.integers(1, 6),
           amp=st.floats(0.0, 2.0), a=st.floats(0.1, 5.0), b=st.floats(-5.0, 5.0),
           swap=st.booleans(), conformal=st.booleans())
    def test_classification_of_random_forms(self, grid32, seed, kmax, amp, a, b, swap,
                                            conformal):
        """w = df is exact for every band-limited f: a one-dimensional kernel
        spanned by e^{-f}, f in the zero-mean gauge.  Adding a harmonic form
        with a nonzero period, w = df + a dx + b dy, leaves no kernel."""
        grid = build_grid(32, cos_x_field(32, 0.3)) if conformal else grid32
        f = random_band_limited(grid, np.random.default_rng(seed), kmax=kmax,
                                amplitude=amp).values
        df = exterior_derivative(ScalarField(f), grid)
        kb = make_connection(df, grid).kernel
        assert kb.dim == 1
        gauged = primitive_reference(df, grid)
        assert np.max(np.abs(gauged - (f - f.mean()))) <= 1e-12 * max(1.0, amp)
        tau = np.exp(-gauged)
        tau /= np.sqrt(np.sum(tau**2 * grid.area_element))
        assert np.max(np.abs(kb.tau1.values - tau)) <= 1e-12 * np.max(tau)
        a, b = (b, a) if swap else (a, b)
        harmonic = OneForm(df.c1 + a, df.c2 + b)
        assert make_connection(harmonic, grid).kernel.dim == 0

    @pytest.mark.parametrize("v", [None, "cos-x:0.3"], ids=["flat", "cos-x"])
    @pytest.mark.parametrize("preset", ["zero", "harmonic:1,0.5", "exact:cos-x:0.3",
                                        "harmonic+exact"])
    def test_one_pass_matches_separate_routes(self, v, preset):
        """make_connection's one transform of w gives the potential, the
        kernel dimension and tau1 of the separate routes it replaced
        (potential_reference, kernel_reference): V to 1e-13 relative, tau1
        to 1e-14."""
        n = 64
        grid = build_grid(n, make_v_field(v, n) if v else None)
        if preset == "harmonic+exact":
            ex = make_connection_form("exact:cos-x:0.3", grid)
            w = OneForm(ex.c1 + 1.0, ex.c2 + 0.5)
        else:
            w = make_connection_form(preset, grid)
        conn = make_connection(w, grid)
        ref = potential_reference(w, grid)
        assert np.max(np.abs(conn.potential.values - ref)) <= 1e-13 * np.max(np.abs(ref))
        dim, tau = kernel_reference(w, grid)
        assert conn.kernel.dim == dim == (preset in ("zero", "exact:cos-x:0.3"))
        if dim:
            assert np.max(np.abs(conn.kernel.tau1.values - tau)) <= 1e-14 * np.max(tau)


class TestKernelOwner:
    def test_no_other_handle(self):
        """The connection is the one way to the kernel: no spec field, no
        accessor, no kernel or weights parameter on the solvers."""
        assert "kb" not in {f.name for f in dataclasses.fields(ProblemSpec)}
        assert not hasattr(bundlemf, "kernel_basis")
        assert not hasattr(bundle, "kernel_basis")
        for fn in (solve_symmetrized, smallest_eigenvalue, poincare_constant,
                   KernelBasis.component, KernelBasis.remove):
            params = inspect.signature(fn).parameters.values()
            assert not [q.name for q in params
                        if q.name in ("kb", "kernel", "weights")
                        or "KernelBasis" in str(q.annotation)], fn.__qualname__
        assert list(inspect.signature(project_H1).parameters) == ["u", "kb"]

    @pytest.mark.parametrize("v", [None, "cos-x:0.3"], ids=["flat", "cos-x"])
    def test_component_is_the_area_weighted_quotient(self, v):
        """component(z) is <z, tau1> / <tau1, tau1> in L2(dv_g), bit for bit,
        with the grid's own area element; <tau1, tau1> is summed on first
        use, not when the connection is made."""
        grid = build_grid(64, make_v_field(v, 64) if v else None)
        kb = df_connection(grid).kernel
        assert kb.grid is grid
        assert "_norm2" not in vars(kb)
        t, area = kb.tau1.values, grid.area_element
        z = random_band_limited(grid, np.random.default_rng(3)).values
        assert kb.component(z) == np.sum(z * t * area) / np.sum(t * t * area)
        assert "_norm2" in vars(kb)

    def test_with_rho_keeps_the_kernel(self, grid32):
        spec = ProblemSpec(df_connection(grid32), ones_field(32), 5.0)
        assert spec.with_rho(7.0).conn.kernel is spec.conn.kernel


class TestGridOwner:
    def test_poincare_rejects_another_grid(self):
        """A connection made on the flat grid, paired with a conformal one of
        the same size, is refused instead of mixing two metrics."""
        flat, conformal = build_grid(32), build_grid(32, make_v_field("cos-x:0.3", 32))
        conn = make_connection(make_connection_form("exact:cos-x:0.3", flat), flat)
        with pytest.raises(ValueError):
            poincare_constant(conn, conformal)

    def test_spec_grid_is_the_connections(self, grid32):
        spec = ProblemSpec(df_connection(grid32), ones_field(32), 5)
        assert "grid" not in {f.name for f in dataclasses.fields(ProblemSpec)}
        assert spec.grid is spec.conn.grid is grid32
        assert spec.with_rho(7).grid is spec.grid
        assert type(spec.rho) is float

    def test_no_grid_beside_the_connection(self):
        """No public function or method of bundlemf takes a grid next to a
        connection, a kernel or a spec, which hold their grid already (a
        method of theirs counts `self`); poincare_constant alone keeps its
        grid, and rejects a foreign one."""
        owners = {"Connection", "KernelBasis", "ProblemSpec"}

        def role(q):
            if q.name == "grid" or str(q.annotation) == "TorusGrid":
                return "grid"
            if q.name in ("conn", "kb", "spec") or str(q.annotation) in owners:
                return "owner"

        offenders = set()
        for info in pkgutil.iter_modules(bundlemf.__path__):
            module = importlib.import_module(f"bundlemf.{info.name}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                calls = [(obj, set())] if inspect.isfunction(obj) else []
                if inspect.isclass(obj):
                    calls += [(m, {"owner"} if name in owners else set())
                              for k, m in vars(obj).items()
                              if not k.startswith("_") and inspect.isfunction(m)]
                for fn, roles in calls:
                    roles |= {role(q) for q in inspect.signature(fn).parameters.values()}
                    if {"grid", "owner"} <= roles:
                        offenders.add(f"{module.__name__}.{fn.__qualname__}")
        assert offenders == {"bundlemf.bundle.poincare_constant"}
        assert not hasattr(bundlemf, "make_problem")
        assert "make_problem" not in bundlemf.__all__


class TestProjection:
    def test_annihilates_kernel(self, grid64):
        kb = df_connection(grid64).kernel
        out = project_H1(kb.tau1, kb)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_fixes_orthogonal_fields(self, grid64):
        kb = df_connection(grid64).kernel
        rng = np.random.default_rng(2)
        u = project_H1(random_band_limited(grid64, rng), kb)
        again = project_H1(u, kb)
        assert np.max(np.abs(again.values - u.values)) < 1e-13
        assert abs(l2_inner(u, kb.tau1, grid64)) < 1e-12

    def test_zero_connection_is_mean_removal(self, grid64):
        kb = zero_connection(grid64).kernel
        rng = np.random.default_rng(4)
        u = random_band_limited(grid64, rng)
        out = project_H1(u, kb)
        expected = u.values - u.values.mean()
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_dim0_is_identity(self, grid64):
        kb = harmonic_connection(grid64).kernel
        rng = np.random.default_rng(6)
        u = random_band_limited(grid64, rng)
        assert project_H1(u, kb) is u

    @given(kind=st.sampled_from(["zero", "exact", "harmonic"]), amp=st.floats(-1.0, 1.0),
           a=st.floats(0.5, 10.0), b=st.floats(-10.0, 10.0), conformal=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_basis_methods(self, grid32, kind, amp, a, b, conformal, seed):
        grid = build_grid(32, cos_x_field(32, 0.3)) if conformal else grid32
        conn = (zero_connection(grid) if kind == "zero"
                else df_connection(grid, amp) if kind == "exact"
                else harmonic_connection(grid, a, b))
        kb = conn.kernel
        z = random_band_limited(grid, np.random.default_rng(seed)).values
        pz = z.copy()
        c = kb.remove(pz)                       # in place, returning the component
        assert c == kb.component(z)
        if kb.dim == 0:
            assert c == 0.0
            assert pz.tobytes() == z.tobytes()
        else:
            assert pz.tobytes() == (z - kb.component(z) * kb.tau1.values).tobytes()
            assert abs(kb.component(pz)) <= 1e-12
            again = pz.copy()
            kb.remove(again)
            assert np.max(np.abs(again - pz)) <= 1e-12
            assert kb.component(kb.tau1.values) == pytest.approx(1.0, abs=1e-12)


class TestBundleOperators:
    def test_constant_zero_energy(self, grid64):
        conn = zero_connection(grid64)
        u = ScalarField(np.full((64, 64), 5.0))
        assert bundle_energy(u, conn) < 1e-14

    def test_kernel_has_zero_energy(self, grid64):
        conn = df_connection(grid64)
        kb = conn.kernel
        assert bundle_energy(kb.tau1, conn) <= 1e-14

    def test_energy_matches_weak_form(self, grid64):
        conn = df_connection(grid64)
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = random_band_limited(grid64, rng)
            e = bundle_energy(u, conn)
            w = l2_inner(u, bundle_laplacian(u, conn), grid64)
            assert abs(e - w) < 1e-9 * max(1.0, abs(e))

    def test_reduces_to_laplacian_for_zero_connection(self, grid64):
        conn = zero_connection(grid64)
        rng = np.random.default_rng(10)
        u = random_band_limited(grid64, rng)
        lhs = bundle_laplacian(u, conn)
        rhs = laplacian(u, grid64)
        assert np.max(np.abs(lhs.values - rhs.values)) == 0.0

    def test_annihilates_tau1(self, grid64):
        conn = df_connection(grid64)
        kb = conn.kernel
        out = bundle_laplacian(kb.tau1, conn)
        assert np.max(np.abs(out.values)) < 1e-8

    def test_eigenfunction(self, grid64):
        conn = zero_connection(grid64)
        x = axis(64)
        u = ScalarField(np.sin(2 * np.pi * x)[:, None] * np.ones((1, 64)))
        out = bundle_laplacian(u, conn)
        assert np.max(np.abs(out.values - 4 * np.pi**2 * u.values)) < 1e-10

    def test_self_adjointness(self, grid64):
        conn = df_connection(grid64)
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = random_band_limited(grid64, rng)
            w = random_band_limited(grid64, rng)
            a = l2_inner(bundle_laplacian(u, conn), w, grid64)
            b = l2_inner(u, bundle_laplacian(w, conn), grid64)
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    @given(kind=st.sampled_from(["zero", "exact", "harmonic"]), conformal=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_folded_operator(self, grid32, kind, conformal, seed):
        """folded_apply K, spectral_laplacian_plus with the Nyquist mask
        folded into its symbol, is flat-self-adjoint, Nyquist-free, and
        equals the unfolded drop_nyquist(Delta_flat p + e^{2v} V p)."""
        grid = build_grid(32, cos_x_field(32, 0.3)) if conformal else grid32
        make = {"zero": zero_connection, "exact": df_connection,
                "harmonic": harmonic_connection}[kind]
        conn = make(grid)
        K = folded_apply(conn, grid)
        rng = np.random.default_rng(seed)
        p, q = (drop_nyquist(rng.standard_normal((32, 32)), grid) for _ in range(2))
        Kp, Kq = K(p), K(q)
        scale = np.linalg.norm(Kp) * np.linalg.norm(q)
        assert abs(np.vdot(Kp, q) - np.vdot(p, Kq)) <= 1e-10 * scale
        assert np.max(np.abs(drop_nyquist(Kp, grid) - Kp)) <= 1e-12 * np.max(np.abs(Kp))
        unfolded = drop_nyquist(flat_laplacian_raw(p, grid)
                                + grid.exp2v * conn.potential.values * p, grid)
        assert np.max(np.abs(Kp - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))

    def test_potential_recomputable(self, grid64):
        conn = df_connection(grid64, 0.25)
        recomputed = potential_reference(conn.omega, grid64)
        assert np.max(np.abs(conn.potential.values - recomputed)) < 1e-12


class TestPCG:
    def test_spd_converges_within_distinct_eigenvalues(self):
        d = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0])
        b = np.random.default_rng(0).standard_normal(d.size)
        x, info = pcg(lambda p: d * p, b.copy(), tol=1e-12)
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

    def test_nan_operator_stops_on_non_finite(self):
        """A NaN <p, A p> ends the solve at once, not after max_iter steps."""
        x, info = pcg(lambda p: np.full_like(p, np.nan), np.ones(4))
        assert info.reason == "non_finite"
        assert not info.converged
        assert info.iterations <= 1

    def test_unconverged_poisson_solve_raises(self, grid32):
        conn = df_connection(grid32, 0.3)
        rhs = project_H1(random_band_limited(grid32, np.random.default_rng(1)), conn.kernel)
        with pytest.raises(ConvergenceError):
            solve_bundle_poisson(rhs, conn, max_iter=1)


class TestSpectralPCG:
    """solve_symmetrized runs its PCG on Nyquist-free rfft2 coefficients."""

    @given(n=st.sampled_from([16, 32]), seed=st.integers(0, 2**32 - 1))
    def test_parseval(self, n, seed):
        """Exact on Nyquist-free coefficients and on the full rfft2 layout,
        whose last (Nyquist) column the 5-point twin's Krylov vectors fill.
        The twin's `inner` is spectral_inner; a masked grid's drops that
        column's vdot and equals it bit for bit on masked coefficients."""
        grid = build_grid(n)
        rng = np.random.default_rng(seed)
        raw = [rng.standard_normal((n, n)) for _ in range(2)]
        masked = [drop_nyquist(a, grid) for a in raw]
        for (a, b), transform in ((masked, lambda u: to_spectral(u, grid)),
                                  (raw, np.fft.rfft2)):
            A, B = transform(a), transform(b)
            scale = n**2 * np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(spectral_inner(A, B) - n**2 * np.sum(a * b)) <= 1e-12 * scale
            assert abs(spectral_inner(A, A) - n**2 * np.sum(a * a)) <= 1e-12 * n**2 * np.sum(a * a)
        assert grid.five_point.inner is spectral_inner
        A, B = (to_spectral(a, grid) for a in masked)
        assert grid.inner(A, B) == spectral_inner(A, B)
        assert grid.inner(A, A) == spectral_inner(A, A)

    @pytest.mark.parametrize("conformal", [False, True], ids=["flat", "cos-x"])
    @pytest.mark.parametrize("kind", ["exact", "harmonic"])
    def test_agrees_with_dense_solve(self, kind, conformal):
        """The dense solve of K x = b on an orthonormal basis of the fields
        Euclidean-orthogonal to tau1.  On the grid, K is the matrix of
        folded_apply and the fields and tau1 are Nyquist-free; on its 5-point
        twin, K is the matrix of five_point_apply and nothing is filtered."""
        n = 16
        grid = build_grid(n, cos_x_field(n, 0.3) if conformal else None)
        conn = df_connection(grid) if kind == "exact" else harmonic_connection(grid, 1.0, 2.0)
        kb = conn.kernel
        assert kb.dim == (kind == "exact")
        b = random_band_limited(grid, np.random.default_rng(5)).values
        evals, B = np.linalg.eigh(_nyquist_projector(grid))
        for solve_conn, apply, Q in ((conn, folded_apply(conn, grid), B[:, evals > 0.5]),
                                     (conn.five_point, five_point_apply(conn, grid),
                                      np.eye(n * n))):
            x, _ = solve_symmetrized(b, solve_conn)
            K = np.column_stack([apply(e.reshape(n, n)).ravel() for e in np.eye(n * n)])
            if kb.dim == 1:
                Q = Q @ null_space((Q.T @ kb.tau1.values.ravel())[None, :])
            ref = (Q @ np.linalg.solve(Q.T @ K @ Q, Q.T @ b.ravel())).reshape(n, n)
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_one_fft_pair_per_step(self, monkeypatch):
        """On a potential with a full spectrum, on the grid and on its
        5-point twin, once the connection's cached spectra (tau1's transform
        and the potential's) are warm: one FFT pair per step, plus b's
        transform and x's way back."""
        grid = build_grid(32, cos_x_field(32, 0.3))
        conn = wide_connection(grid)
        b = random_band_limited(grid, np.random.default_rng(6)).values
        for solve_conn in (conn, conn.five_point):
            solve_symmetrized(b, solve_conn)
        calls = count_fft_calls(monkeypatch)
        infos = spy_pcg(monkeypatch, bundle)
        for solve_conn in (conn, conn.five_point):
            calls.clear()
            infos.clear()
            solve_symmetrized(b, solve_conn)
            assert len(infos) == 1 and infos[0].iterations > 0
            assert len(calls) == 2 * infos[0].iterations + 2

    def test_no_fft_per_step_with_fourier_terms(self, monkeypatch):
        """The exact connection's potential has five Fourier terms: once the
        cached spectra are warm, a solve spends b's transform and x's way
        back and no FFT in its 5 steps, on the grid and on its twin."""
        grid = build_grid(32, cos_x_field(32, 0.3))
        conn = df_connection(grid)
        b = random_band_limited(grid, np.random.default_rng(6)).values
        for solve_conn in (conn, conn.five_point):
            solve_symmetrized(b, solve_conn)
        calls = count_fft_calls(monkeypatch)
        infos = spy_pcg(monkeypatch, bundle)
        for solve_conn in (conn, conn.five_point):
            calls.clear()
            infos.clear()
            solve_symmetrized(b, solve_conn)
            assert len(infos) == 1 and infos[0].iterations >= 5
            assert len(calls) == 2

    def test_memory_peak(self):
        """The PCG holds x, r, p and one work vector, the apply two
        temporaries at most, and the right-hand side, handed over as a
        temporary, is freed once transformed: at n = 256 the traced peak
        stays within 6 arrays of rfft2 coefficients (5.00 measured with the
        Fourier-term apply, 5.25 with the FFT pair)."""
        n = 256
        grid = build_grid(n)
        conn = df_connection(grid)
        b = random_band_limited(grid, np.random.default_rng(7)).values
        peak = traced_peak(lambda: solve_symmetrized(b.copy(), conn))
        assert peak <= 6 * 16 * n * (n // 2 + 1)


class TestFourierTermsApply:
    """Connection.apply convolves with the Fourier terms of e^{2v} h^2 V when
    it has a few (geometry.spectral_laplacian_plus_terms) and spends the FFT
    pair of spectral_laplacian_plus otherwise."""

    @pytest.mark.parametrize("preset, v, modes", [
        ("exact:cos-x:0.3", None, {0, 1, -1, 2, -2}),
        ("exact:cos-x:0.3", "cos-x:0.3", {0, 1, -1, 2, -2}),
        ("harmonic:1,0.5", None, {0}),
        ("zero", None, set()),
        pytest.param("diagonal", None, None, id="diagonal-None-modes4"),
        ("x-only", None, {0, 2, -2, 4, -4})])
    def test_equals_the_fft_apply(self, monkeypatch, tmp_path, preset, v, modes):
        """The terms' l_x are `modes`, and the apply equals the FFT pair's to
        1e-14 relative with no FFT, on the grid and on its 5-point twin, on
        coefficients whose columns 0 and n/2 are not a real field's
        (irfft2 reads their real fields' part).  Two connections are read
        from files: `x-only`, d(0.2 sin 4 pi x), convolves like a built-in
        one, with terms that are not real, so the shift's direction shows;
        `diagonal`, d(0.2 cos 2 pi (x + y)), depends on y, has no
        terms (modes None) and takes the FFT pair, bit for bit."""
        n = 32
        grid = build_grid(n, make_v_field(v, n) if v else None)
        x, y = np.meshgrid(axis(n), axis(n), indexing="ij")
        forms = {"diagonal": [-0.4 * np.pi * np.sin(2 * np.pi * (x + y))] * 2,
                 "x-only": [0.8 * np.pi * np.cos(4 * np.pi * x), np.zeros_like(x)]}
        if preset in forms:
            np.save(tmp_path / "w.npy", np.stack(forms[preset]))
            preset = f"file:{tmp_path / 'w.npy'}"
        conn = make_connection(make_connection_form(preset, grid), grid)
        terms = conn.potential_modes[1]
        assert (terms if modes is None else {lx for lx, _ in terms}) == modes
        rng = np.random.default_rng(9)
        P = rng.standard_normal((n, n // 2 + 1)) + 1j * rng.standard_normal((n, n // 2 + 1))
        calls = count_fft_calls(monkeypatch)
        for on in (conn, conn.five_point):
            calls.clear()
            got = on.apply(P)
            assert len(calls) == (2 if terms is None else 0)
            want = spectral_laplacian_plus(P, on.potential.values, on.grid)
            if terms is None:
                assert np.array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_full_spectrum_takes_the_fft_pair(self, monkeypatch, tmp_path):
        """A file: connection of white noise has no short spectrum: its
        apply is spectral_laplacian_plus, bit for bit, one FFT pair."""
        n = 32
        grid = build_grid(n)
        np.save(tmp_path / "w.npy", np.random.default_rng(3).standard_normal((2, n, n)))
        conn = make_connection(make_connection_form(f"file:{tmp_path / 'w.npy'}", grid), grid)
        assert conn.potential_modes[1] is None
        P = to_spectral(np.random.default_rng(4).standard_normal((n, n)), grid)
        calls = count_fft_calls(monkeypatch)
        got = conn.apply(P)
        assert len(calls) == 2
        assert np.array_equal(got, spectral_laplacian_plus(P, conn.potential.values, grid))

    @pytest.mark.parametrize("v", [None, "cos-x:0.3"], ids=["flat", "cos-x"])
    @pytest.mark.parametrize("preset", ["zero", "harmonic:1,0.5", "exact:cos-x:0.3"])
    def test_builtin_presets_need_no_transform(self, monkeypatch, preset, v):
        """Every built-in connection's apply spends no FFT at n = 64."""
        n = 64
        grid = build_grid(n, make_v_field(v, n) if v else None)
        conn = make_connection(make_connection_form(preset, grid), grid)
        assert conn.potential_modes[1] is not None
        P = to_spectral(np.random.default_rng(5).standard_normal((n, n)), grid)
        calls = count_fft_calls(monkeypatch)
        conn.apply(P)
        assert not calls


class TestCoarsePreconditioner:
    """solve_symmetrized's block-Jacobi preconditioner: the exact inverse of
    the Galerkin block on |k_x|, |k_y| <= COARSE_K beside the diagonal."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("case", ["flat", "cos-x", "rough"])
    def test_block_is_the_operator_on_low_modes(self, n, case):
        """A_L applied to a low-mode unit vector (real or imaginary, with its
        conjugate at -l) is the low window of spectral_laplacian_plus on
        it, to 1e-12 relative, for the preconditioner's K and the
        eigen-solve start's: on the grid and on its 5-point twin, flat
        and conformal, and at n = 16, where the offsets k - l wrap mod n
        and reach the Nyquist modes of e^{2v} h^2 V, which a connection
        df with f white noise fills."""
        grid = build_grid(n, cos_x_field(n, 0.3) if case == "cos-x" else None)
        if case == "rough":
            f = ScalarField(0.3 * np.random.default_rng(4).standard_normal((n, n)))
            conn = make_connection(exterior_derivative(f, grid), grid)
        else:
            conn = df_connection(grid)
        for K, c in itertools.product((bundle.COARSE_K, bundle.EIG_START_K),
                                      (conn, conn.five_point)):
            A = bundle.coarse_block(c, K)
            assert A.shape == ((2 * K + 1) ** 2,) * 2
            for l, unit in (((0, 0), 1.0), ((1, 0), 1.0), ((-3, 2), 1.0),
                            ((K, K), 1j), ((-K, 1), 1j), ((2, K), 1.0)):
                if max(map(abs, l)) > K:
                    continue
                E = np.zeros((n, n // 2 + 1), dtype=complex)
                E[l[0] % n, l[1]] = unit
                if l[1] == 0:
                    E[-l[0] % n, 0] += np.conj(unit)
                S = spectral_laplacian_plus(E, c.potential.values, c.grid)
                want = window(S, K).ravel()
                got = A @ window(E, K).ravel()
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("conformal", [False, True], ids=["flat", "cos-x"])
    @pytest.mark.parametrize("kind", ["exact", "harmonic"])
    def test_hermitian_positive_on_the_complement(self, kind, conformal):
        """<X, M Y> = <M X, Y> and <X, M X> > 0 in Parseval's inner product
        for random tau1-deflated X, Y, M the deflated preconditioner; the
        exact connection's block is only semi-definite before its shift."""
        n = 32
        grid = build_grid(n, cos_x_field(n, 0.3) if conformal else None)
        conn = df_connection(grid) if kind == "exact" else harmonic_connection(grid, 1.0, 0.5)
        rng = np.random.default_rng(8)
        for c in (conn, conn.five_point):
            deflate, inner = c.kernel.deflation(), c.grid.inner
            M = lambda R: deflate(c.preconditioner(R))  # noqa: E731
            for _ in range(3):
                X, Y = (deflate(to_spectral(rng.standard_normal((n, n)), c.grid))
                        for _ in range(2))
                xmy, mxy = inner(X, M(Y)), inner(M(X), Y)
                assert abs(xmy - mxy) <= 1e-12 * np.sqrt(inner(M(X), M(X)) * inner(Y, Y))
                assert inner(X, M(X)) > 0.0

    def test_retains_at_most_half_a_megabyte(self):
        """The factor keeps the inverse's rows with k_y >= 0 only: 91 x 169
        complex entries, 0.25 MB, and nothing of its n x n work arrays."""
        grid = build_grid(256, cos_x_field(256, 0.3))
        conn = df_connection(grid)
        conn.kernel.spectral()            # tau1's transform, cached apart
        tracemalloc.start()
        try:
            conn.preconditioner
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 0.5e6

    def test_indefinite_block_leaves_the_diagonal(self):
        """A potential that makes the low block indefinite (a large negative
        constant) keeps the diagonal preconditioner alone."""
        n = 16
        grid = build_grid(n)
        conn = dataclasses.replace(harmonic_connection(grid, 1.0, 0.0),
                                   potential=ScalarField(np.full((n, n), -100.0)))
        R = to_spectral(random_band_limited(grid, np.random.default_rng(2)).values, grid)
        assert np.array_equal(conn.preconditioner(R), grid.shifted_inverse * R)


class TestPoincare:
    def test_flat_torus_constant(self, grid64):
        conn = zero_connection(grid64)
        C = poincare_constant(conn, grid64)
        assert abs(C - 1 / (4 * np.pi**2)) < 1e-3 * (1 / (4 * np.pi**2))

    def test_harmonic_connection_positive(self):
        # the 2 pi dx holonomy on the flat torus; the exact connection on the
        # conformal metric cos-x:0.3, where inverse iteration converged at
        # rate 0.988 and stopped at its 500-step cap; a rough conformal
        # metric, whose e^{2v} x has Nyquist modes the residual must drop;
        # and exact:cos-x:2.0 on cos-x:0.5, where the coarse start without
        # its seeded perturbation stalls
        rough = 0.3 * np.random.default_rng(0).standard_normal((32, 32))
        for v, conn_of, dim in ((None, lambda g: harmonic_connection(g, 2 * np.pi, 0.0), 0),
                                (make_v_field("cos-x:0.3", 32), df_connection, 1),
                                (rough, lambda g: harmonic_connection(g, 1.0, 2.0), 0),
                                (make_v_field("cos-x:0.5", 32),
                                 lambda g: df_connection(g, 2.0), 1)):
            grid = build_grid(32, v)
            conn = conn_of(grid)
            assert conn.kernel.dim == dim
            lam, _ = smallest_eigenvalue(conn)
            assert lam > 0.0
            ref = _restricted_oracle(conn, grid)
            assert abs(lam - ref) < 1e-10 * max(1.0, ref)

    def test_unconverged_eigensolve_raises(self, grid32):
        conn = df_connection(grid32, 0.3)
        with pytest.raises(EigensolveError,
                          match=r"max_iter after 2 steps at relative residual \d"):
            smallest_eigenvalue(conn, max_iter=2)

    @given(a=st.floats(0.5, 10.0), b=st.floats(-10.0, 10.0),
           amp=st.floats(-1.0, 1.0), harmonic=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_eigenpair_properties(self, grid32, a, b, amp, harmonic, seed):
        conn = (harmonic_connection(grid32, a, b) if harmonic
                else df_connection(grid32, amp))
        kb = conn.kernel
        lam, x = smallest_eigenvalue(conn, seed=seed)
        scale = np.max(np.abs(x.values))
        assert np.max(np.abs(drop_nyquist(x.values, grid32) - x.values)) <= 1e-12 * scale
        if kb.dim == 1:
            assert abs(l2_inner(x, kb.tau1, grid32)) <= 1e-10
        rayleigh = bundle_energy(x, conn) / l2_inner(x, x, grid32)
        assert abs(lam - rayleigh) <= 1e-10 * lam
        if harmonic:
            assert abs(lam - (a * a + b * b)) <= 1e-10 * (a * a + b * b)

    @pytest.mark.parametrize("v, per_step", [(None, 0), ("cos-x:0.3", 2)],
                             ids=["flat", "cos-x"])
    def test_fft_budget(self, monkeypatch, v, per_step):
        """Each step applies the operator once, with no FFT for the exact
        connection's five Fourier terms, and on a conformal metric the mass
        once, one FFT pair (the initial x pays the same); the start's coarse
        block costs one FFT, the potential's transform (the start itself is
        drawn in Fourier space), tau1 and e^{2v} tau1 are transformed once
        and the eigenvector back once."""
        grid = build_grid(32, make_v_field(v, 32) if v else None)
        conn = df_connection(grid)
        applies = count_applies(monkeypatch)
        calls = count_fft_calls(monkeypatch)
        smallest_eigenvalue(conn)
        assert len(applies) > 1
        assert len(calls) <= per_step * len(applies) + 4

    def test_coarse_start_applies(self, monkeypatch):
        """Started from the coarse block's lowest eigenvector, the solve on
        exact:cos-x:0.3 at n = 128 takes 13 operator applies for every seed
        (24 to 36 from white noise), and lam is 4 pi^2, the Rayleigh
        quotient of e^{-f} sin 2 pi y, to 1e-12."""
        grid = build_grid(128)
        conn = df_connection(grid)
        applies = count_applies(monkeypatch)
        for seed in range(5):
            applies.clear()
            lam, _ = smallest_eigenvalue(conn, seed=seed)
            assert len(applies) <= 16
            assert abs(lam - 4 * np.pi**2) <= 1e-12 * lam

    def test_memory_peak(self):
        """Gram-Schmidt and the updates run in place, r is freed once
        preconditioned, and on the flat torus no mass images are carried: at
        n = 128 the traced peak stays within 10 n x n arrays (7.7 measured)."""
        n = 128
        grid = build_grid(n)
        conn = df_connection(grid)
        peak = traced_peak(lambda: smallest_eigenvalue(conn))
        assert peak <= 10 * 8 * n * n

    @pytest.mark.parametrize("v", [None, "cos-x:0.3"], ids=["flat", "cos-x"])
    def test_unit_eigenvector(self, v):
        grid = build_grid(32, make_v_field(v, 32) if v else None)
        conn = df_connection(grid)
        _, x = smallest_eigenvalue(conn)
        assert abs(l2_inner(x, x, grid) - 1.0) <= 1e-12

    def test_no_kernel_ffts(self, monkeypatch, grid32):
        """poincare_constant reads the connection's kernel: it spends the
        FFTs of the eigen-solve, and no more."""
        calls = count_fft_calls(monkeypatch)
        spent = []
        for solve in (lambda c: poincare_constant(c, c.grid), smallest_eigenvalue):
            conn = df_connection(grid32)    # fresh: tau1's transforms not cached
            calls.clear()
            solve(conn)
            spent.append(len(calls))
        assert spent[0] == spent[1]

    def test_refinement_stability(self):
        vals = []
        for n in (32, 64):
            g = build_grid(n)
            conn = df_connection(g, 0.3)
            vals.append(poincare_constant(conn, g))
        assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[1])

    def test_inequality_on_random_samples(self, grid64):
        conn = df_connection(grid64, 0.3)
        C = poincare_constant(conn, grid64)
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = project_H1(random_band_limited(grid64, rng, kmax=10), conn.kernel)
            assert l2_inner(u, u, grid64) <= C * bundle_energy(u, conn) * (1 + 1e-10)


def _nyquist_projector(grid):
    n = grid.n
    N = n * n
    cols = np.empty((N, N))
    eye = np.eye(N)
    for j in range(N):
        cols[:, j] = drop_nyquist(eye[:, j].reshape(n, n), grid).ravel()
    return cols


def _restricted_oracle(conn, grid):
    """Smallest eigenvalue of the symmetrized dense bundle matrix on an
    orthonormal basis of W^{1/2} (Nyquist-free fields), W the area weights,
    with W^{1/2} tau1 removed.  Unlike F A F it holds on conformal metrics."""
    evals, B = np.linalg.eigh(_nyquist_projector(grid))
    w = np.sqrt(grid.area_element.ravel())
    Q, _ = np.linalg.qr(w[:, None] * B[:, evals > 0.5])
    if conn.kernel.dim == 1:
        Q = Q @ null_space((Q.T @ (w * conn.kernel.tau1.values.ravel()))[None, :])
    M = Q.T @ dense_bundle_matrix(conn, grid) @ Q
    return np.linalg.eigvalsh(0.5 * (M + M.T))[0]


class TestKernelDichotomy:
    @pytest.mark.parametrize("maker", [zero_connection, df_connection,
                                       harmonic_connection])
    def test_single_near_zero_eigenvalue(self, grid32, maker):
        conn = maker(grid32)
        assert conn.kernel.dim in (0, 1)
        lam, _ = smallest_eigenvalue(conn)
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
