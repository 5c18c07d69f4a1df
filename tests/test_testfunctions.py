import numpy as np
import pytest

from bundlemf import (
    ScalarField,
    annulus_capacity,
    annulus_capacity_numeric,
    build_Qk,
    bundle_energy,
    l2_inner,
    make_problem,
    moser_family,
    qk_audit,
    tm_probe,
)
from bundlemf.geometry import build_grid, torus_distance
from bundlemf.testfunctions import (
    bubble_checks,
    bubble_energy_closed,
    bubble_energy_numeric,
    bubble_mass_numeric,
    bubble_profile,
    extrapolate_limit,
    moser_profile,
    plateau_integral,
    qk_gap_sequence,
)

from conftest import ones_field, zero_connection


class TestBubble:
    def test_profile_pinned_and_decreasing(self):
        r = np.linspace(0, 50, 400)
        phi = bubble_profile(r)
        assert phi[0] == 0.0
        assert np.all(np.diff(phi) < 0)

    def test_mass(self):
        assert abs(bubble_mass_numeric() - 8 * np.pi) <= 1e-8

    @pytest.mark.parametrize("R", [4.0, 16.0, 64.0])
    def test_energy_matches_closed_form(self, R):
        e = bubble_energy_numeric(R)
        assert abs(e - bubble_energy_closed(R)) <= 1e-6 * abs(e)

    def test_energy_tail_is_explicit(self):
        # closed form minus the two leading terms is 16 pi / (1 + R^2/8)
        for R in (4.0, 16.0, 64.0):
            lead = 16 * np.pi * (np.log(1 + R * R / 8) - 1)
            assert bubble_energy_closed(R) - lead == pytest.approx(
                16 * np.pi / (1 + R * R / 8), rel=1e-12)

    def test_energy_at_zero(self):
        assert bubble_energy_numeric(0.0) == 0.0

    def test_report_shape(self):
        rep = bubble_checks()
        assert rep["mass_error"] <= 1e-8
        assert len(rep["energies"]) == 3


class TestMoser:
    def test_plateau_value(self, flat_problem64):
        z = (32, 32)
        k = 16
        u = moser_profile(z, 0.125, k, flat_problem64.grid)
        assert u.values[z] == pytest.approx(-np.sqrt(np.log(k) / (4 * np.pi)))

    def test_zero_outside_support(self, flat_problem64):
        g = flat_problem64.grid
        u = moser_profile((32, 32), 0.125, 2, g)
        outside = torus_distance(g, (32, 32)) >= 0.125
        assert np.max(np.abs(u.values[outside])) == 0.0

    def test_projected_membership(self, flat_problem64):
        u = moser_family((32, 32), 0.125, 16, flat_problem64)
        assert abs(l2_inner(u, flat_problem64.kb.tau1,
                            flat_problem64.grid)) <= 1e-12

    def test_energy_near_unit(self):
        # delta/sqrt(k) = 8h here, the spec's resolvability edge
        n = 256
        g = build_grid(n)
        spec = make_problem(g, zero_connection(g), ones_field(n), 4 * np.pi)
        u = moser_family((n // 2, n // 2), 0.125, 16, spec)
        e = bundle_energy(u, spec.conn, g)
        assert 0.95 <= e <= 1.05

    def test_rejects_bad_parameters(self, flat_problem64):
        with pytest.raises(ValueError):
            moser_profile((0, 0), 0.3, 8, flat_problem64.grid)
        with pytest.raises(ValueError):
            moser_profile((0, 0), 0.125, 1, flat_problem64.grid)


class TestProbe:
    def test_alpha_zero_gives_area(self, flat_problem64):
        u = moser_family((32, 32), 0.125, 8, flat_problem64)
        vals = tm_probe(0.0, [u], flat_problem64.conn, flat_problem64.grid)
        assert vals == [pytest.approx(1.0)]

    def test_overflow_reported_as_diverged(self, flat_problem64):
        u = moser_family((32, 32), 0.125, 8, flat_problem64)
        vals = tm_probe(3000 * np.pi, [u], flat_problem64.conn,
                        flat_problem64.grid)
        assert vals == [float("inf")]

    def test_zero_energy_member_rejected(self, flat_problem64):
        zero = ScalarField(np.zeros((64, 64)))
        with pytest.raises(ValueError):
            tm_probe(np.pi, [zero], flat_problem64.conn, flat_problem64.grid)

    def test_plateau_integral_variants(self, flat_problem64):
        u = moser_family((32, 32), 0.125, 16, flat_problem64)
        masked = plateau_integral(4.1 * np.pi, u, (32, 32), 0.125, 16,
                                  flat_problem64.conn, flat_problem64.grid)
        smooth = plateau_integral(4.1 * np.pi, u, (32, 32), 0.125, 16,
                                  flat_problem64.conn, flat_problem64.grid,
                                  exact_area=True)
        assert masked == pytest.approx(smooth, rel=0.3)


class TestCapacity:
    def test_equal_boundary_values(self):
        assert annulus_capacity(1.3, 1.3, 0.1, 0.5) == 0.0

    def test_unit_log_ratio(self):
        assert annulus_capacity(1.0, 0.0, 1.0, np.e) == pytest.approx(2 * np.pi)

    def test_numeric_matches_closed_form(self):
        a, b, r_in, r_out = 1.3, 0.2, 0.05, 0.4
        closed = annulus_capacity(a, b, r_in, r_out)
        numeric = annulus_capacity_numeric(a, b, r_in, r_out, nodes=10_000)
        assert abs(numeric - closed) <= 1e-6 * closed

    def test_degenerate_radii(self):
        with pytest.raises(ValueError):
            annulus_capacity(1.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            annulus_capacity_numeric(1.0, 0.0, -0.1, 0.5)


@pytest.fixture(scope="module")
def spec256():
    n = 256
    g = build_grid(n)
    return make_problem(g, zero_connection(g), ones_field(n), 8 * np.pi)


class TestQk:
    def test_membership_and_continuity(self, spec256):
        fam = build_Qk((0, 0), 32, spec256)
        assert abs(l2_inner(fam.field, spec256.kb.tau1, spec256.grid)) <= 1e-10
        rep = qk_audit(fam, spec256)
        assert rep["interface_jump"] <= 0.2

    def test_matching_constant(self, spec256):
        fam = build_Qk((0, 0), 16, spec256)
        k, R = fam.k, fam.R
        expected = (2 * np.log(1 + R**2 / 8) - 4 * np.log(R)
                    + 4 * np.log(k) + fam.greendata.A_p)
        assert fam.c == pytest.approx(expected, rel=1e-14)

    def test_projection_shift_decreases(self, spec256):
        shifts = [abs(build_Qk((0, 0), k, spec256).shift) for k in (16, 32, 64)]
        assert shifts == sorted(shifts, reverse=True)

    def test_interface_jump_decreases(self, spec256):
        from bundlemf.green import solve_green

        gd = solve_green((0, 0), spec256)
        jumps = [qk_audit(build_Qk((0, 0), k, spec256, gd), spec256)
                 ["interface_jump"] for k in (16, 32, 64)]
        assert jumps == sorted(jumps, reverse=True)

    def test_rejects_coarse_grid(self):
        n = 32
        g = build_grid(n)
        spec = make_problem(g, zero_connection(g), ones_field(n), 8 * np.pi)
        with pytest.raises(ValueError):
            build_Qk((0, 0), 64, spec)

    def test_rejects_unresolved_bubble_core(self, spec256):
        # R/k >= 8h holds at k = 512, n = 256; the core sqrt(8)/k is 1.41 h
        with pytest.raises(ValueError, match="bubble core"):
            build_Qk((0, 0), 512, spec256)

    def test_rejects_small_k(self, spec256):
        with pytest.raises(ValueError):
            build_Qk((0, 0), 4, spec256)

    def test_audit_reports_all_quantities(self, spec256):
        rep = qk_audit(build_Qk((0, 0), 32, spec256), spec256)
        for key in ("energy", "energy_closed", "logint", "logint_closed",
                    "bubble_energy", "bubble_energy_closed", "jvalue",
                    "Lambda", "gap", "projection_shift", "interface_jump"):
            assert np.isfinite(rep[key])

    def test_gap_sequence_shares_green_solve(self, spec256):
        out = qk_gap_sequence((0, 0), (8, 16, 32), spec256)
        assert len(out["reports"]) == 3
        assert np.isfinite(out["extrapolated"])


class TestExtrapolation:
    def test_recovers_synthetic_limit(self):
        ks = np.array([8.0, 16.0, 32.0, 64.0])
        vals = 3.7 - 5.0 / ks + 11.0 / ks**2
        assert extrapolate_limit(ks, vals) == pytest.approx(3.7, abs=1e-10)
