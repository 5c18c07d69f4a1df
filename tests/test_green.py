import contextlib
import io
import json
from math import comb, factorial

import numpy as np
import pytest
from scipy.integrate import quad

from bundlemf import green
from bundlemf import (
    ProblemSpec,
    ScalarField,
    bundle_laplacian,
    critical_value,
    critical_value_map,
    integrate,
    l2_inner,
    make_connection,
    solve_green,
)
from bundlemf.cli import main
from bundlemf.geometry import build_grid, random_band_limited, torus_distance
from bundlemf.green import (
    _STEP,
    CUTOFF_ORDER,
    CUTOFF_RADIUS,
    SolvabilityError,
    _commutator_field,
    _radial_moments,
    cutoff,
)
from bundlemf.presets import make_connection_form, make_v_field

from conftest import (
    count_fft_calls,
    df_connection,
    ones_field,
    traced_peak,
    zero_connection,
)

RHO8 = 8 * np.pi


def flat_spec(n):
    g = build_grid(n)
    return ProblemSpec(zero_connection(g), ones_field(n), RHO8)


@pytest.fixture(scope="module")
def spec128():
    return flat_spec(128)


@pytest.fixture(scope="module")
def gd128(spec128):
    return solve_green((0, 0), spec128)


class TestCutoff:
    def test_annulus_evaluation_matches_full_grid(self):
        """Evaluating the ramp on the annulus alone gives the full-grid
        1 - _STEP(clip(t, 0, 1)) bit for bit: _STEP is exactly 0 at t = 0 and
        1 at t = 1."""
        assert _STEP(0.0) == 0.0 and _STEP(1.0) == 1.0
        g = build_grid(256)
        for p in ((0, 0), (3, 5), (128, 77)):
            r = torus_distance(g, p)
            full = 1.0 - _STEP(np.clip((r - CUTOFF_RADIUS) / CUTOFF_RADIUS, 0.0, 1.0))
            assert np.array_equal(cutoff(r)[0], full)


class TestFlatCase:
    def test_multiplier_and_mean_vanish(self, gd128):
        assert abs(gd128.lambda1) <= 1e-8
        assert abs(gd128.meanG) <= 1e-8

    def test_solvability_residual_small(self, gd128):
        assert gd128.residual <= 1e-8

    def test_orthogonality(self, spec128, gd128):
        assert abs(l2_inner(gd128.G, spec128.conn.kernel.tau1, spec128.grid)) <= 1e-8

    def test_mean_matches_integrate(self, spec128, gd128):
        assert gd128.meanG == pytest.approx(integrate(gd128.G, spec128.grid), abs=1e-12)

    def test_translation_invariance(self, spec128):
        ref = solve_green((0, 0), spec128).A_p
        for p in [(13, 40), (64, 64), (100, 5), (31, 97), (2, 2)]:
            assert abs(solve_green(p, spec128).A_p - ref) <= 1e-3

    def test_regular_limit_stored_at_p(self, gd128):
        i, j = gd128.p
        assert gd128.G.values[i, j] == pytest.approx(gd128.A_p)


class TestRemainderFile:
    @pytest.mark.parametrize("p", [(0, 0), (253, 3)])
    def test_written_eta(self, tmp_path, p):
        """green_eta.npy is eta = G + 4 log r + 4 v(p) - A_p (d_g ~ e^{v(p)} r
        near p), r = torus_distance, from the written G and A_p, bit for bit,
        and 0 at p; (253, 3) puts p near two edges, so its boxes wrap."""
        n = 256
        argv = ["green", "--n", str(n), "--v-preset", "cos-x:0.3",
                "--connection", "exact:cos-x:0.3", "--p", f"{p[0]},{p[1]}",
                "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        A_p = json.loads((tmp_path / "green_summary.json").read_text())["results"]["A_p"]
        G = np.load(tmp_path / "green_field.npy")
        eta = np.load(tmp_path / "green_eta.npy")
        r = torus_distance(build_grid(n), p)
        vp = make_v_field("cos-x:0.3", n).values[p]
        expected = G + 4.0 * np.log(np.where(r > 0.0, r, 1.0)) + 4.0 * vp - A_p
        expected[p] = 0.0
        assert eta[p] == 0.0
        assert np.array_equal(eta, expected)


class TestBackends:
    def test_cross_validation(self):
        spec = flat_spec(256)
        a = solve_green((0, 0), spec).A_p
        b = solve_green((0, 0), spec, backend="fd").A_p
        assert abs(a - b) <= 0.01 * abs(a)

    def test_refinement_consistency(self, spec128):
        a = solve_green((0, 0), spec128).A_p
        b = solve_green((0, 0), flat_spec(256)).A_p
        assert abs(a - b) <= 0.01 * abs(b)

    def test_exact_connection_backends(self):
        n = 256
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        gd_s = solve_green((5, 7), spec)
        gd_f = solve_green((5, 7), spec, backend="fd")
        assert abs(gd_s.A_p - gd_f.A_p) <= 0.01 * abs(gd_s.A_p)
        assert abs(l2_inner(gd_s.G, spec.conn.kernel.tau1, g)) <= 1e-8

    def test_conformal_with_connection(self):
        # conformal factor and exact connection together: both backends, the
        # multiplier formula, orthogonality and the solvability contract
        n = 256
        g = build_grid(n, make_v_field("cos-x:0.1", n))
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        gd = solve_green((31, 77), spec)
        gd_fd = solve_green((31, 77), spec, backend="fd")
        assert gd.residual <= 1e-8
        assert abs(gd.A_p - gd_fd.A_p) <= 0.01 * abs(gd.A_p)
        assert abs(l2_inner(gd.G, spec.conn.kernel.tau1, g)) <= 1e-8
        t1 = spec.conn.kernel.tau1
        expected = 8 * np.pi * (t1.values[31, 77]
                                - integrate(t1, g) / g.total_area)
        assert gd.lambda1 == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("v", ["zero", "cos-x:0.3"])
    @pytest.mark.parametrize("connection, steps", [("exact:cos-x:0.3", 6),
                                                   ("harmonic:1,0.5", 4)])
    def test_pcg_step_counts(self, connection, steps, v):
        """The coarse block keeps the Green PCG at 5 steps on the exact
        connection (11 with the diagonal preconditioner alone) and 3 on the
        harmonic one (6), on both backends, flat and conformal, at n = 256."""
        n = 256
        g = build_grid(n, make_v_field(v, n))
        spec = ProblemSpec(make_connection(make_connection_form(connection, g), g),
                           ones_field(n), RHO8)
        for backend in ("spectral", "fd"):
            gd = solve_green((67, 33), spec, backend=backend)
            assert 0 < gd.pcg_iterations <= steps

    def test_five_point_twin_built_once(self, monkeypatch):
        """Two fd solves on one spec share the connection's 5-point twin: on
        the grid's twin, with the parent's potential and tau1 arrays, and
        tau1 and the coarse block's e^{2v} h^2 V each transformed once, so a
        second solve at the same node makes two FFTs fewer than the first."""
        n = 256
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        solved_on, solve = [], green.solve_symmetrized
        monkeypatch.setattr(green, "solve_symmetrized",
                            lambda b, conn: solved_on.append(conn) or solve(b, conn))
        calls = count_fft_calls(monkeypatch)
        counts = []
        for _ in range(2):
            calls.clear()
            solve_green((5, 7), spec, backend="fd")
            counts.append(len(calls))
        twin = spec.conn.five_point
        assert len(solved_on) == 2 and solved_on[0] is solved_on[1] is twin
        assert twin.grid is spec.grid.five_point
        assert twin.potential.values is spec.conn.potential.values
        assert twin.kernel.tau1.values is spec.conn.kernel.tau1.values
        assert counts[0] == counts[1] + 2

    def test_zero_connection_on_the_one_poisson_path(self):
        """The zero connection is solved by the same masked PCG as any other,
        so a connection 1e-6 away gives the same Lambda at n = 128 (to 3e-11;
        6.5e-3 apart when V = 0 had a direct solve keeping the Nyquist column)."""
        n = 128
        g = build_grid(n)
        lam = []
        for connection in ("zero", "exact:cos-x:1e-6"):
            spec = ProblemSpec(make_connection(make_connection_form(connection, g), g),
                               ones_field(n), RHO8)
            gd = solve_green((n // 4, n // 8), spec)
            assert gd.pcg_iterations > 0
            lam.append(critical_value(gd, spec))
        assert abs(lam[0] - lam[1]) <= 1e-9

    def test_unknown_backend(self, spec128):
        with pytest.raises(ValueError):
            solve_green((0, 0), spec128, backend="magic")


class TestLocalExpansion:
    def test_ring_deviation_first_order(self):
        # fitted constant from G + 4 log r over the 4h..16h annulus converges
        # to A_p at first order under refinement
        errs = []
        for n in (128, 256):
            spec = flat_spec(n)
            gd = solve_green((0, 0), spec)
            g = spec.grid
            r = torus_distance(g, (0, 0))
            mask = (r >= 4 * g.h) & (r <= 16 * g.h)
            fit = float(np.mean(gd.G.values[mask] + 4 * np.log(r[mask])))
            errs.append(abs(fit - gd.A_p))
        assert errs[1] <= 0.6 * errs[0] + 1e-12
        assert errs[1] <= 5.0 * (1.0 / 256)

    def test_conformal_regular_part_convention(self):
        # with a conformal factor the regular part is defined through the
        # geodesic distance d_g ~ e^{v(p)} r; the ring fit of
        # G + 4 log(e^{v(p)} r) must approach the reported A_p
        diffs = {}
        for n in (128, 256):
            g = build_grid(n, make_v_field("cos-x:0.1", n))
            spec = ProblemSpec(zero_connection(g), ones_field(n), RHO8)
            p = (n // 8, n // 3)
            gd = solve_green(p, spec)
            r = torus_distance(g, p)
            vp = g.v.values[p]
            mask = (r >= 4 * g.h) & (r <= 16 * g.h)
            fit = float(np.mean(gd.G.values[mask] + 4 * np.log(r[mask]) + 4 * vp))
            diffs[n] = abs(fit - gd.A_p)
        assert diffs[256] <= 0.6 * diffs[128]
        assert diffs[256] <= 0.05

    def test_ringwise_deviation_bounded(self):
        # the deviation on the 4h..16h annulus is dominated by the genuine
        # 2 pi r^2 curvature of the regular part, so it scales like h^2;
        # assert the C*h bound with a measured constant and the h^2 decay
        devs = {}
        for n in (128, 256):
            spec = flat_spec(n)
            gd = solve_green((0, 0), spec)
            g = spec.grid
            r = torus_distance(g, (0, 0))
            mask = (r >= 4 * g.h) & (r <= 16 * g.h)
            devs[n] = float(np.max(np.abs(
                gd.G.values[mask] + 4 * np.log(r[mask]) - gd.A_p)))
        assert devs[128] <= 15.0 / 128
        assert devs[256] <= 15.0 / 256
        assert devs[256] <= 0.4 * devs[128]


class TestDistributional:
    def test_weak_identity(self):
        # error scales like h^2 log(1/h) times the strong norm of the test
        # field (the quadrature sees G through the smoothness of Delta phi)
        errs = {}
        for n in (128, 256):
            spec = flat_spec(n)
            gd = solve_green((0, 0), spec)
            g = spec.grid
            rng = np.random.default_rng(3)
            worst = 0.0
            for _ in range(3):
                phi = random_band_limited(g, rng, kmax=5)
                lap_phi = bundle_laplacian(phi, spec.conn)
                lhs = l2_inner(gd.G, lap_phi, g)
                i, j = gd.p
                rhs = (8 * np.pi * (phi.values[i, j]
                                    - integrate(phi, g) / g.total_area)
                       - gd.lambda1 * l2_inner(spec.conn.kernel.tau1, phi, g))
                strong = float(np.max(np.abs(lap_phi.values)))
                bound = 2.0 * g.h**2 * (1 + abs(np.log(g.h))) * strong
                worst = max(worst, abs(lhs - rhs) / bound)
            errs[n] = worst
        assert errs[128] <= 1.0
        assert errs[256] <= 1.0

    def test_lambda_closed_form(self):
        n = 256
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        gd = solve_green((11, 40), spec)
        t1 = spec.conn.kernel.tau1
        expected = 8 * np.pi * (t1.values[11, 40]
                                - integrate(t1, g) / g.total_area)
        assert abs(gd.lambda1 - expected) <= 1e-10 * max(1.0, abs(expected))


class TestErrors:
    def test_off_grid_point(self, spec128):
        with pytest.raises(ValueError):
            solve_green((1.5, 2), spec128)

    def test_solvability_guard_trips_on_coarse_grid(self):
        # a non-constant kernel at n = 64 leaves a quadrature defect above
        # the default tolerance
        n = 64
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        with pytest.raises(SolvabilityError):
            solve_green((0, 0), spec)
        gd = solve_green((0, 0), spec, solvability_tol=1e-2)
        assert gd.residual <= 1e-2


class TestCriticalValue:
    def test_flat_formula(self, spec128, gd128):
        lam = critical_value(gd128, spec128)
        expected = (-8 * np.pi - 8 * np.pi * np.log(np.pi)
                    - 4 * np.pi * gd128.A_p)
        assert lam == pytest.approx(expected, abs=1e-8)

    def test_weight_rescaling_shift(self, spec128, gd128):
        c = 3.7
        from dataclasses import replace

        spec_scaled = replace(spec128, hweight=ScalarField(
            c * spec128.hweight.values))
        lam0 = critical_value(gd128, spec128)
        lam1 = critical_value(gd128, spec_scaled)
        assert lam1 - lam0 == pytest.approx(-8 * np.pi * np.log(c), rel=1e-12)


class TestCriticalValueMap:
    def test_flat_map_constant(self):
        spec = flat_spec(128)
        out = critical_value_map(spec, stride=64)
        assert out["values"].shape == (2, 2)
        assert out["max"] - out["min"] <= 1e-3

    def test_weight_monotonicity(self):
        n = 128
        g = build_grid(n)
        x = np.arange(n) / n
        h = ScalarField(np.exp(np.cos(2 * np.pi * x))[:, None] * np.ones((1, n)))
        spec = ProblemSpec(zero_connection(g), h, RHO8)
        out = critical_value_map(spec, stride=32)
        # A_p and meanG are translation invariant here, so the map is
        # C - 8 pi log h(p): its argmin sits where h peaks (x = 0)
        assert out["argmin_node"][0] == 0
        assert out["argmax_node"][0] == n // 2

    def test_bad_stride(self, spec128):
        with pytest.raises(ValueError):
            critical_value_map(spec128, stride=33)


class TestMemory:
    def test_green_solve_peak(self):
        """The traced peak of one spectral Green solve, exact:cos-x:0.3 at
        n = 256, stays at or below 6 n x n float64 arrays (5.56 measured:
        the smooth solve beside the log field s, which lives on the box of
        radius 1/4 around p, a quarter of the nodes)."""
        n = 256
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        assert traced_peak(lambda: solve_green((3, 5), spec)) <= 6 * 8 * n * n

    def test_whole_grid_remainder_peak(self):
        """The whole-grid remainder, as the `green` command writes it, holds
        the distance field and eta, whose log is taken in place: at most
        2.1 n x n arrays over the Green solve at n = 256 (2.0 measured)."""
        n = 256
        g = build_grid(n)
        spec = ProblemSpec(df_connection(g, 0.3), ones_field(n), RHO8)
        gd = solve_green((3, 5), spec)
        assert traced_peak(lambda: gd.remainder(spec)) <= 2.1 * 8 * n * n


# the moments against 40-digit mpmath (tanh-sinh on the same integrands)
ACCURATE_MOMENTS = (0.9621780513378017, 0.015306362096180234, 3.8487122053512066)


def numpy_moments(nodes: int = 40) -> np.ndarray:
    """The radial moments without scipy: the core r <= r0, where the cutoff
    is 1, in closed form, and the ramp annulus by Gauss-Legendre with the
    ramp S in Bernstein form and S', S'' in product form, which keep full
    precision where the monomial coefficients cancel."""
    r0, s = CUTOFF_RADIUS, CUTOFF_ORDER

    def core(k):
        m = k + 2
        return -8.0 * np.pi * (r0**m * np.log(r0) / m - r0**m / m**2)

    x, w = np.polynomial.legendre.leggauss(nodes)
    r = r0 * (1.5 + 0.5 * x)
    w = 0.5 * r0 * w * 2.0 * np.pi * r
    t = (r - r0) / r0
    step = sum(comb(2 * s + 1, j) * t**j * (1 - t)**(2 * s + 1 - j)
               for j in range(s + 1, 2 * s + 2))
    beta = factorial(2 * s + 1) / factorial(s)**2
    c1 = -beta * t**s * (1 - t)**s / r0
    c2 = -beta * s * t**(s - 1) * (1 - t)**(s - 1) * (1 - 2 * t) / r0**2
    L = np.log(r)
    log_field = -4.0 * (1.0 - step) * L
    commutator = -4.0 * (c2 * L + c1 * L / r + 2.0 * c1 / r)
    return np.array([core(0) + w @ log_field, core(2) + w @ (log_field * r**2),
                     w @ (commutator * r**2)])


class TestRadialMoments:
    def test_literals_are_the_quad_values(self):
        """The literals are what scipy's adaptive quadrature gives on the
        package's own cutoff and commutator field."""
        def moment(f, order):
            return quad(lambda t: f(t) * t**order * 2.0 * np.pi * t,
                        0.0, 2.0 * CUTOFF_RADIUS, limit=200)[0]

        def log_field(t):
            return -4.0 * cutoff(np.array([t]))[0][0] * np.log(t)

        def commutator(t):
            _, c1, c2 = cutoff(np.array([t]))
            return _commutator_field(np.array([t]), np.log(np.array([t])), c1, c2)[0]

        ref = np.array([moment(log_field, 0), moment(log_field, 2), moment(commutator, 2)])
        np.testing.assert_allclose(_radial_moments(), ref, rtol=1e-14, atol=0)

    def test_numpy_route(self):
        """Computed independently, the moments reproduce the accurate values
        to roundoff, and the literals within their measured quadrature error
        (2.14e-12, 8.74e-14 and 5.85e-10; relative 2.22e-12, 5.71e-12 and
        1.52e-10)."""
        ours = numpy_moments()
        np.testing.assert_allclose(ours, ACCURATE_MOMENTS, rtol=1e-14, atol=0)
        gap = np.abs(np.array(_radial_moments()) - ours)
        assert np.all(gap <= [3e-12, 2e-13, 1e-9]), gap
