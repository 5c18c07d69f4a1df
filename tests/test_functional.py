import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bundlemf import (
    ExponentOverflowError,
    ProblemSpec,
    ScalarField,
    SolverOptions,
    bundle_energy,
    bundle_laplacian,
    el_residual,
    evaluate_J,
    integrate,
    l2_inner,
    laplacian,
    minimize,
    project_H1,
)
from bundlemf import functional
from bundlemf.bundle import bundle_laplacian_raw, pcg
from bundlemf.cli import RunConfig, build_problem
from bundlemf.functional import RHO_CRITICAL, _newton_direction, _raw_residual, log_mass
from bundlemf.geometry import (
    build_grid,
    fourier_multiply,
    from_spectral,
    random_band_limited,
    spectral_inner,
    to_spectral,
)

from conftest import (
    cos_x_field,
    count_calls,
    count_fft_calls,
    df_connection,
    drop_nyquist,
    harmonic_connection,
    ones_field,
    spy_pcg,
    zero_connection,
)


def classical_J(u, spec):
    # independent route through the scalar Laplacian (valid when omega = 0)
    g = spec.grid
    grad_energy = l2_inner(u, laplacian(u, g), g)
    mean_term = spec.rho / g.total_area * integrate(u, g)
    shift = float(u.values.max())
    log_mu = shift + np.log(np.sum(spec.hweight.values * np.exp(u.values - shift)
                                   * g.area_element))
    return 0.5 * grad_energy + mean_term - spec.rho * log_mu


def l2_norm(values, grid):
    return float(np.sqrt(np.sum(values**2 * grid.area_element)))


class TestEvaluate:
    def test_zero_section(self, grid64):
        h = ScalarField(np.exp(cos_x_field(64, 1.0).values))
        spec = ProblemSpec(zero_connection(grid64), h, 4 * np.pi)
        expected = -4 * np.pi * np.log(integrate(h, grid64))
        zero = ScalarField(np.zeros((64, 64)))
        assert evaluate_J(zero, spec) == pytest.approx(expected, rel=1e-14)

    def test_unit_weight_zero(self, flat_problem64):
        zero = ScalarField(np.zeros((64, 64)))
        assert abs(evaluate_J(zero, flat_problem64)) < 1e-14

    def test_classical_reduction(self, flat_problem64):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = random_band_limited(flat_problem64.grid, rng, amplitude=1.0)
            a = evaluate_J(u, flat_problem64)
            b = classical_J(u, flat_problem64)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_overflow_guard(self, flat_problem64):
        u = ScalarField(np.full((64, 64), 701.0))
        with pytest.raises(ExponentOverflowError):
            evaluate_J(u, flat_problem64)


class TestResidual:
    def test_rho_zero(self, grid64):
        spec = ProblemSpec(df_connection(grid64), ones_field(64), 0.0)
        r, lam = el_residual(ScalarField(np.zeros((64, 64))), spec)
        assert np.max(np.abs(r.values)) < 1e-14
        assert lam == 0.0

    def test_constant_state_critical(self, flat_problem64):
        r, lam = el_residual(ScalarField(np.zeros((64, 64))), flat_problem64)
        assert np.max(np.abs(r.values)) < 1e-13
        assert abs(lam) < 1e-13

    def test_lambda_two_routes(self, df_problem64):
        spec = df_problem64
        g = spec.grid
        rng = np.random.default_rng(23)
        u = random_band_limited(g, rng, amplitude=0.7)
        _, lam_proj = el_residual(u, spec)
        mu = integrate(ScalarField(spec.hweight.values * np.exp(u.values)), g)
        density = ScalarField(spec.hweight.values * np.exp(u.values) / mu
                              - 1.0 / g.total_area)
        lam_quad = spec.rho * l2_inner(density, spec.conn.kernel.tau1, g)
        assert abs(lam_proj - lam_quad) < 1e-10 * max(1.0, abs(lam_quad))

    @pytest.mark.parametrize("exact", [False, True], ids=["harmonic", "exact"])
    def test_kernel_multiplier_is_el_residual_lambda(self, grid64, exact):
        conn = df_connection(grid64) if exact else harmonic_connection(grid64, 1.0, 0.5)
        spec = ProblemSpec(conn, ones_field(64), 6.0)
        u = random_band_limited(grid64, np.random.default_rng(31), amplitude=0.7)
        _, lam = el_residual(u, spec)
        assert functional.kernel_multiplier(u.values, spec) == lam
        assert (lam == 0.0) != exact

    def test_gradient_matches_finite_differences(self, df_problem64):
        spec = df_problem64
        g = spec.grid
        rng = np.random.default_rng(29)
        u = project_H1(random_band_limited(g, rng, amplitude=0.5), spec.conn.kernel)
        for _ in range(3):
            phi = project_H1(random_band_limited(g, rng), spec.conn.kernel)
            r, _ = el_residual(u, spec)
            pairing = l2_inner(r, phi, g)
            eps = 1e-6
            jp = evaluate_J(ScalarField(u.values + eps * phi.values), spec)
            jm = evaluate_J(ScalarField(u.values - eps * phi.values), spec)
            fd = (jp - jm) / (2 * eps)
            assert abs(pairing - fd) <= 1e-6 * max(1.0, abs(fd))


class TestMinimize:
    def test_rho_zero_exact(self, grid64):
        spec = ProblemSpec(df_connection(grid64), ones_field(64), 0.0)
        res = minimize(spec)
        assert res.converged
        assert np.max(np.abs(res.u.values)) == 0.0
        assert res.residual == 0.0
        assert res.mu > 0.0

    def test_closing_report_one_log_mass(self, df_problem64, monkeypatch):
        """The returned J, mu and lambda1 share one log_mass: every other
        call is a line-search trial's or a Newton direction's."""
        masses = count_calls(monkeypatch, "log_mass", functional)
        states = count_calls(monkeypatch, "_state", functional)
        directions = count_calls(monkeypatch, "_newton_direction", functional)
        init = random_band_limited(df_problem64.grid, np.random.default_rng(4), amplitude=0.5)
        res = minimize(df_problem64, init)
        assert res.converged and len(directions) > 0
        assert len(masses) == len(states) + len(directions) + 1

    def test_flat_unit_weight(self, flat_problem64):
        rng = np.random.default_rng(31)
        init = random_band_limited(flat_problem64.grid, rng, amplitude=0.5)
        res = minimize(flat_problem64, init, SolverOptions(tol=1e-11))
        j0 = evaluate_J(ScalarField(np.zeros((64, 64))), flat_problem64)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.jvalue <= j0 + 1e-10
        assert np.max(np.abs(res.u.values)) <= 1e-6

    def test_flat_minimality_probes(self, flat_problem64):
        res = minimize(flat_problem64, opts=SolverOptions(tol=1e-11))
        rng = np.random.default_rng(37)
        for _ in range(100):
            phi = project_H1(random_band_limited(flat_problem64.grid, rng),
                             flat_problem64.conn.kernel)
            probe = ScalarField(res.u.values + 1e-3 * phi.values)
            assert evaluate_J(probe, flat_problem64) >= res.jvalue - 1e-12

    def test_exact_connection_case(self, df_problem64):
        spec = df_problem64
        rng = np.random.default_rng(41)
        init = random_band_limited(spec.grid, rng, amplitude=0.5)
        res = minimize(spec, init, SolverOptions(tol=1e-11))
        assert res.converged
        assert res.residual <= 1e-8
        # full unprojected optimality system
        g = spec.grid
        full = (bundle_laplacian(res.u, spec.conn).values
                - spec.rho * (spec.hweight.values * np.exp(res.u.values) / res.mu
                              - 1.0 / g.total_area)
                + res.lambda1 * spec.conn.kernel.tau1.values)
        assert l2_norm(full, g) <= 1e-7

    def test_nonuniform_weight_descends(self, grid64):
        h = ScalarField(np.exp(cos_x_field(64, 1.0).values))
        spec = ProblemSpec(zero_connection(grid64), h, 4 * np.pi)
        res = minimize(spec, opts=SolverOptions(tol=1e-11))
        zero = ScalarField(np.zeros((64, 64)))
        assert res.converged
        assert res.jvalue < evaluate_J(zero, spec)
        # mu and lambda1 self-consistent with the returned field
        mu = integrate(ScalarField(h.values * np.exp(res.u.values)), grid64)
        assert res.mu == pytest.approx(mu, rel=1e-12)
        _, lam = el_residual(res.u, spec)
        assert res.lambda1 == pytest.approx(lam, abs=1e-12)

    def test_descent_from_init(self, df_problem64):
        rng = np.random.default_rng(43)
        init = project_H1(random_band_limited(df_problem64.grid, rng, amplitude=0.8),
                          df_problem64.conn.kernel)
        res = minimize(df_problem64, init, SolverOptions(tol=1e-11))
        assert res.jvalue <= evaluate_J(init, df_problem64) + 1e-12

    def test_iterates_stay_constrained(self, df_problem64):
        rng = np.random.default_rng(47)
        init = random_band_limited(df_problem64.grid, rng, amplitude=0.5)
        res = minimize(df_problem64, init, SolverOptions(tol=1e-11))
        assert abs(l2_inner(res.u, df_problem64.conn.kernel.tau1, df_problem64.grid)) <= 1e-10

    def test_trivial_kernel_branch(self, grid64):
        # holonomy-obstructed connection: no multiplier, no projection
        from conftest import harmonic_connection

        h = ScalarField(np.exp(cos_x_field(64, 1.0).values))
        spec = ProblemSpec(harmonic_connection(grid64), h, 4 * np.pi)
        assert spec.conn.kernel.dim == 0
        res = minimize(spec, opts=SolverOptions(tol=1e-11))
        assert res.converged
        assert res.residual <= 1e-8
        assert res.lambda1 == 0.0
        assert res.jvalue < evaluate_J(ScalarField(np.zeros((64, 64))), spec)

    def test_supercritical_warns(self, flat_problem64):
        spec = flat_problem64.with_rho(9 * np.pi)
        with pytest.warns(RuntimeWarning):
            minimize(spec, opts=SolverOptions(max_iter=5))

    def test_max_iter_returns_best(self, df_problem64):
        rng = np.random.default_rng(53)
        init = random_band_limited(df_problem64.grid, rng, amplitude=0.8)
        res = minimize(df_problem64, init, SolverOptions(tol=1e-14, max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert np.isfinite(res.jvalue)
        # at tol 1e-14 the residual reaches its ~2e-13 roundoff floor after
        # a few steps, and accepted steps then raise it again (2.09e-13 at
        # max_iter 6, 2.93e-13 at 7): only the restore of the best iterate
        # keeps the returned residual from increasing with max_iter
        spec = build_problem(RunConfig(n=32, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:1.0"))
        init = random_band_limited(spec.grid, np.random.default_rng(0), amplitude=0.8)
        residuals = [minimize(spec, init, SolverOptions(tol=1e-14, max_iter=m)).residual
                     for m in range(1, 9)]
        assert all(b <= a for a, b in zip(residuals, residuals[1:])), residuals


def tau1_projection(spec):
    """The L2(dv_g) projection off tau1 that `minimize` hands to the Newton step."""
    if spec.conn.kernel.dim == 0:
        return lambda z: z
    t1 = spec.conn.kernel.tau1.values
    area = spec.grid.area_element
    return lambda z: z - np.sum(z * t1 * area) * t1


def projected_residual(u, spec, project):
    return project(drop_nyquist(_raw_residual(u, spec), spec.grid))


def newton_step(u, r, spec):
    """`_newton_direction` from u as a real array, given the projected
    Nyquist-free residual r: its right-hand side is minus the deflated
    transform of e^{2v} r, the R of functional._state."""
    g = spec.grid
    B = spec.conn.kernel.deflation(along_weighted=True)(to_spectral(-r * g.exp2v, g))
    return from_spectral(_newton_direction(u, B, spec), g)


def start_coefficients(init, spec):
    """The coefficients minimize starts from: Nyquist-free, off tau1."""
    g = spec.grid
    return spec.conn.kernel.deflation(against_weighted=True)(to_spectral(init.values, g))


def physical_newton_direction(u, r, spec, project):
    """Oracle: the truncated Newton PCG in physical space, with the L2(dv_g)
    inner product and the preconditioner (Delta_flat + 1)^{-1} e^{2v}."""
    g = spec.grid
    area = g.area_element
    log_mu, shift, w = log_mass(u, spec)
    W = w * np.exp(shift - log_mu)

    def hess(phi):
        lin = bundle_laplacian_raw(phi, spec.conn)
        wphi = float(np.sum(W * phi * area))
        return project(drop_nyquist(lin - spec.rho * (W * phi - W * wphi), g))

    def precond(z):
        return project(fourier_multiply(z * g.exp2v, g.shifted_inverse))

    x, info = pcg(hess, project(-r), precond=precond,
                  inner=lambda a, c: float(np.sum(a * c * area)), tol=1e-3, max_iter=200)
    return x, info



class TestNewtonDirection:
    def test_cold_start_few_steps(self):
        # the CLI's minimize start: seed 0, amplitude 0.1
        spec = build_problem(RunConfig(n=64, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5"))
        init = random_band_limited(spec.grid, np.random.default_rng(0), amplitude=0.1)
        res = minimize(spec, init, SolverOptions(tol=1e-11))
        assert res.converged
        assert res.iterations <= 6
        assert abs(res.jvalue - (-0.99347800438375)) <= 1e-12

    def test_first_step_negative_curvature_is_preconditioned_gradient(self, monkeypatch):
        """Negative curvature at the PCG's first step gives a zero direction,
        and minimize's first trial is then U - P (Delta_flat + 1)^{-1} R."""
        spec = build_problem(RunConfig(n=32, rho=200.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5"))
        g = spec.grid
        init = random_band_limited(g, np.random.default_rng(0), amplitude=0.1)
        U = start_coefficients(init, spec)
        u, _, R = functional._state(U, spec)
        infos = spy_pcg(monkeypatch, functional)
        assert not _newton_direction(u, -R, spec).any()
        assert infos[0].reason == "negative_curvature" and infos[0].iterations == 0

        trials, state = [], functional._state
        monkeypatch.setattr(functional, "_state",
                            lambda Z, spec: trials.append(Z.copy()) or state(Z, spec))
        with pytest.warns(RuntimeWarning):
            minimize(spec, init, SolverOptions(max_iter=1))
        D = -spec.conn.kernel.deflation(against_weighted=True)(g.shifted_inverse * R)
        assert np.array_equal(trials[0], U)
        assert np.array_equal(trials[1], U + 1.0 * D)

    @given(conn=st.sampled_from(["zero", "exact", "harmonic"]),
           rho=st.floats(-10.0, RHO_CRITICAL, exclude_max=True),
           seed=st.integers(0, 2**32 - 1),
           kmax=st.integers(1, 8),
           amplitude=st.floats(0.05, 2.0),
           conformal=st.booleans())
    def test_direction_properties(self, grid32, conn, rho, seed, kmax, amplitude,
                                  conformal):
        make = {"zero": zero_connection, "exact": df_connection,
                "harmonic": harmonic_connection}[conn]
        h = ScalarField(np.exp(cos_x_field(32, 0.5).values))
        grid = build_grid(32, cos_x_field(32, 0.3)) if conformal else grid32
        spec = ProblemSpec(make(grid), h, rho)
        g = spec.grid
        project = tau1_projection(spec)
        u = project(random_band_limited(g, np.random.default_rng(seed), kmax=kmax,
                                        amplitude=amplitude).values)
        r = projected_residual(u, spec, project)
        d = newton_step(u, r, spec)
        dnorm = l2_norm(d, g)
        assert np.sum(r * d * g.area_element) < 0.0
        if spec.conn.kernel.dim == 1:
            assert abs(np.sum(d * spec.conn.kernel.tau1.values * g.area_element)) <= 1e-10 * dnorm
        assert np.max(np.abs(drop_nyquist(d, g) - d)) <= 1e-12 * np.max(np.abs(d))

    @pytest.mark.parametrize("conn, rel", [("zero", 1e-12), ("exact", 1e-12),
                                           ("harmonic", 1e-11)])
    def test_matches_physical_space_pcg(self, grid32, conn, rel):
        """On the flat torus the Fourier-space PCG and the L2(dv_g) PCG take
        the same steps: their stop norms differ by the constant n^2.

        With the harmonic connection the preconditioned Hessian is a tight
        cluster at 1 plus the outlier 4 pi^2 on the constants, and the
        physical-space PCG itself moves by up to 1.7e-13 (relative) when r
        changes by one ulp; the two agree to 1.1e-12 there, 4e-15 with the
        other connections."""
        make = {"zero": zero_connection, "exact": df_connection,
                "harmonic": harmonic_connection}[conn]
        h = ScalarField(np.exp(cos_x_field(32, 0.5).values))
        rng = np.random.default_rng(7)
        for rho in (-5.0, 4 * np.pi, 24.0):
            spec = ProblemSpec(make(grid32), h, rho)
            project = tau1_projection(spec)
            for _ in range(3):
                u = project(random_band_limited(grid32, rng, kmax=6, amplitude=1.0).values)
                r = projected_residual(u, spec, project)
                d = newton_step(u, r, spec)
                ref, info = physical_newton_direction(u, r, spec, project)
                assert info.iterations > 1
                assert np.max(np.abs(d - ref)) <= rel * np.max(np.abs(ref))

    def test_fft_calls_per_direction(self, monkeypatch):
        """One direction of m PCG steps costs 2m + 1 FFTs once the kernel
        transforms are cached: W^ and m operator applies; the right-hand
        side comes in, and the step goes out, as coefficients."""
        spec = build_problem(RunConfig(n=32, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5", v_preset="cos-x:0.3"))
        init = random_band_limited(spec.grid, np.random.default_rng(3), amplitude=1.0)
        u, _, R = functional._state(start_coefficients(init, spec), spec)
        _newton_direction(u, -R, spec)      # fills the kernel transforms
        calls = count_fft_calls(monkeypatch)
        infos = spy_pcg(monkeypatch, functional)
        _newton_direction(u, -R, spec)
        assert len(infos) == 1 and infos[0].reason == "converged"
        assert infos[0].iterations > 1
        assert len(calls) == 2 * infos[0].iterations + 1

    def test_fft_calls_per_trial(self, monkeypatch):
        """A line-search trial is one FFT pair: u from U, and R."""
        spec = build_problem(RunConfig(n=32, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5", v_preset="cos-x:0.3"))
        init = random_band_limited(spec.grid, np.random.default_rng(3), amplitude=1.0)
        U = start_coefficients(init, spec)
        functional._state(U, spec)          # fills the kernel transforms
        calls = count_fft_calls(monkeypatch)
        functional._state(U, spec)
        assert len(calls) == 2


class TestLineSearchFunctional:
    def test_no_real_vdot(self, monkeypatch):
        """A trial hands no real product to np.vdot, which numpy passes to
        BLAS and BLAS may split over threads; the complex Parseval products
        stay on it."""
        spec = build_problem(RunConfig(n=128, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5", v_preset="cos-x:0.3"))
        init = random_band_limited(spec.grid, np.random.default_rng(3), amplitude=1.0)
        U = start_coefficients(init, spec)
        calls = count_calls(monkeypatch, "vdot", np)
        functional._state(U, spec)
        kinds = {(a.dtype.kind, b.dtype.kind) for a, b in calls}
        assert kinds == {("c", "c")}

    def test_gradient_is_consistent(self):
        """Central differences of the line search's J along a random
        Nyquist-free H1 direction D match its slope h^4 <R, D> to O(eps^2):
        J and R belong to one function."""
        spec = build_problem(RunConfig(n=32, rho=12.0, connection="exact:cos-x:0.3",
                                       h_preset="exp-cos:0.5", v_preset="cos-x:0.3"))
        g = spec.grid
        rng = np.random.default_rng(11)
        U = start_coefficients(random_band_limited(g, rng, amplitude=0.5), spec)
        D = start_coefficients(random_band_limited(g, rng), spec)
        _, _, R = functional._state(U, spec)
        slope = g.h**4 * spectral_inner(R, D)
        errors = []
        for eps in (1e-2, 5e-3):
            jp = functional._state(U + eps * D, spec)[1]
            jm = functional._state(U - eps * D, spec)[1]
            errors.append(abs((jp - jm) / (2 * eps) - slope))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert errors[0] <= 1e-3 * abs(slope)

    def test_energy_is_the_quadratic_form(self):
        """At rho = 0 the line search's J is half the energy
        int u (Delta_g + V) u dv_g, which on a band-limited u equals the
        covariant int |du + u w|^2 up to the aliasing of u w: none here,
        where u w and u^2 are resolved by the grid."""
        spec = build_problem(RunConfig(n=32, rho=0.0, connection="exact:cos-x:0.3",
                                       v_preset="cos-x:0.3"))
        u = random_band_limited(spec.grid, np.random.default_rng(13), kmax=4)
        J = functional._state(to_spectral(u.values, spec.grid), spec)[1]
        energy = bundle_energy(u, spec.conn)
        assert abs(2.0 * J - energy) <= 1e-13 * energy


class TestCoercivityProbe:
    @pytest.mark.parametrize("rho_over_pi", [2.0, 4.0, 6.0])
    def test_bounded_below_on_unit_energy_ball(self, flat_problem64, rho_over_pi):
        spec = flat_problem64.with_rho(rho_over_pi * np.pi)
        g = spec.grid
        rng = np.random.default_rng(61)
        worst = np.inf
        for _ in range(400):
            u = project_H1(random_band_limited(g, rng, kmax=8), spec.conn.kernel)
            e = bundle_energy(u, spec.conn)
            if e > 1e-12:
                u = ScalarField(u.values / max(1.0, np.sqrt(e)))
            worst = min(worst, evaluate_J(u, spec))
        assert worst > -50.0
