import numpy as np
import pytest

from dataclasses import fields, replace

from bundlemf import ProblemSpec, build_Qk, bundle_energy, evaluate_J, functional, sweep
from bundlemf.cli import RunConfig, build_problem
from bundlemf.functional import ExponentOverflowError, minimize
from bundlemf.geometry import build_grid, random_band_limited
from bundlemf.sweep import (
    SweepRecord,
    blowup_diagnostics,
    concentration_mass,
    record_from_state,
    subcritical_sweep,
    window_profile,
)
from conftest import count_calls, count_fft_calls, ones_field, zero_connection


@pytest.fixture(scope="module")
def trivial_sweep():
    n = 64
    g = build_grid(n)
    spec = ProblemSpec(zero_connection(g), ones_field(n), 4 * np.pi)
    return spec, subcritical_sweep(spec, 8)


class TestSweep:
    def test_minimizer_no_worse_than_zero(self, trivial_sweep):
        _, records = trivial_sweep
        for rec in records:
            assert rec.jvalue <= 1e-12
            assert rec.converged

    def test_rho_schedule(self, trivial_sweep):
        _, records = trivial_sweep
        for k, rec in enumerate(records, start=1):
            assert rec.rho == pytest.approx(8 * np.pi - 1.0 / k)

    def test_record_consistency(self, trivial_sweep):
        spec, records = trivial_sweep
        for rec in records:
            assert rec.c == rec.u.values[rec.x]
            assert rec.mu > 0
            assert rec.r_scale > 0
            expected = np.sqrt(rec.mu / (rec.rho * 1.0)) * np.exp(-rec.c / 2)
            assert rec.r_scale == pytest.approx(expected, rel=1e-12)

    def test_record_energy_computed_once(self, trivial_sweep, monkeypatch):
        spec, _ = trivial_sweep
        u = random_band_limited(spec.grid, np.random.default_rng(5), amplitude=0.5)
        energies = count_calls(monkeypatch, "bundle_energy", sweep, functional)
        masses = count_calls(monkeypatch, "log_mass", functional, sweep)
        rec = record_from_state(u, 6.0, spec)
        assert len(energies) == 1
        assert len(masses) == 1     # mu, J and lambda1 share one log_mass
        assert rec.energy == bundle_energy(u, spec.conn)
        assert rec.jvalue == evaluate_J(u, spec.with_rho(6.0))

    def test_record_from_result_equals_recomputed(self):
        spec = build_problem(RunConfig(n=32, h_preset="exp-cos:1.0",
                                       connection="exact:cos-x:0.3"))
        rho = 8 * np.pi - 0.25
        init = random_band_limited(spec.grid, np.random.default_rng(2), amplitude=0.3)
        res = minimize(spec.with_rho(rho), init)
        assert res.converged and res.iterations > 0
        taken = record_from_state(res.u, rho, spec, res)
        recomputed = record_from_state(res.u, rho, spec)
        assert taken.iterations == res.iterations and recomputed.iterations == 0
        for f in fields(SweepRecord):
            if f.name != "iterations":
                assert getattr(taken, f.name) == getattr(recomputed, f.name), f.name

    def test_kmax_validation(self, trivial_sweep):
        spec, _ = trivial_sweep
        with pytest.raises(ValueError):
            subcritical_sweep(spec, 3)


def warm_start_loop(spec, kmax):
    """The sweep without a predictor: every step starts from the previous
    minimizer (all steps converge on the problems used here)."""
    u, out = None, []
    for k in range(1, kmax + 1):
        rho_k = 8 * np.pi - 1.0 / k
        res = minimize(spec.with_rho(rho_k), u)
        out.append(record_from_state(res.u, rho_k, spec, res))
        u = res.u
    return out


class TestPredictor:
    @pytest.mark.parametrize("connection, h_preset", [
        ("zero", "exp-cos:1.0"), ("exact:cos-x:0.3", "exp-cos:0.5")])
    def test_matches_warm_start_loop_in_fewer_steps(self, connection, h_preset):
        spec = build_problem(RunConfig(n=64, connection=connection, h_preset=h_preset))
        records = subcritical_sweep(spec, 16)
        reference = warm_start_loop(spec, 16)
        assert all(rec.converged for rec in reference)
        for rec, ref in zip(records, reference, strict=True):
            assert rec.converged and not rec.guard_hit
            assert np.max(np.abs(rec.u.values - ref.u.values)) <= 1e-9
            assert abs(rec.jvalue - ref.jvalue) <= 1e-10
        assert [rec.predicted for rec in records[:2]] == [False, False]
        assert any(rec.predicted for rec in records[2:])
        assert (sum(rec.iterations for rec in records)
                < sum(rec.iterations for rec in reference))

    @staticmethod
    def patched_minimize(monkeypatch, unconverged=False, fail_from_previous=()):
        """Make every solve of sweep.minimize from a predicted start raise the
        overflow error (or, with `unconverged`, return unconverged), and the
        solve from the previous minimizer raise at the steps k listed; return
        the log of (k, start kind) calls."""
        solved, calls = [], []

        def fake(spec_k, init=None, opts=functional.SolverOptions()):
            k = round(1.0 / (8 * np.pi - spec_k.rho))
            kind = ("init" if init is None
                    else "previous" if any(init is u for u in solved) else "predicted")
            calls.append((k, kind))
            if kind == "predicted" and unconverged:
                return replace(minimize(spec_k, init, opts), converged=False)
            if kind == "predicted" or (kind == "previous" and k in fail_from_previous):
                raise ExponentOverflowError("injected")
            res = minimize(spec_k, init, opts)
            solved.append(res.u)
            return res

        monkeypatch.setattr(sweep, "minimize", fake)
        return calls

    @pytest.mark.parametrize("unconverged", [False, True], ids=["overflow", "unconverged"])
    def test_failed_prediction_reruns_from_previous(self, monkeypatch, unconverged):
        spec = build_problem(RunConfig(n=32, h_preset="exp-cos:1.0"))
        reference = warm_start_loop(spec, 8)
        calls = self.patched_minimize(monkeypatch, unconverged)
        records = subcritical_sweep(spec, 8)
        assert [k for k, kind in calls if kind == "predicted"] == [3, 4, 5, 6, 7, 8]
        for rec, ref in zip(records, reference, strict=True):
            assert rec.converged and not rec.guard_hit and not rec.predicted
            assert np.array_equal(rec.u.values, ref.u.values)
            assert rec.jvalue == ref.jvalue and rec.iterations == ref.iterations

    def test_failure_from_both_starts_is_flagged(self, monkeypatch):
        spec = build_problem(RunConfig(n=32, h_preset="exp-cos:1.0"))
        calls = self.patched_minimize(monkeypatch, fail_from_previous=(5,))
        records = subcritical_sweep(spec, 8)
        flagged = records[4]
        assert flagged.guard_hit and not flagged.converged
        assert flagged.iterations == 0 and not flagged.predicted
        assert flagged.u is records[3].u
        expected = replace(record_from_state(records[3].u, flagged.rho, spec),
                           converged=False, guard_hit=True)
        for f in fields(SweepRecord):
            assert getattr(flagged, f.name) == getattr(expected, f.name), f.name
        # the failure empties the history: one minimizer since it at k = 7,
        # two (a secant) at k = 8
        assert calls[-6:] == [(5, "predicted"), (5, "previous"), (6, "previous"),
                              (7, "previous"), (8, "predicted"), (8, "previous")]
        assert all(rec.converged for k, rec in enumerate(records, 1) if k != 5)

    def test_sweep_warm_outer_steps(self, monkeypatch):
        """The benchmark's sweep-warm problem: 93 outer Newton steps from
        the previous minimizer alone, 35 with the predictor, in at most 600
        FFT calls (568; 1005 when a line-search trial cost 7 FFTs, not 2)."""
        spec = build_problem(RunConfig(n=128, h_preset="exp-cos:1.0"))
        calls = count_fft_calls(monkeypatch)
        records = subcritical_sweep(spec, 32)
        assert all(rec.converged for rec in records)
        assert sum(rec.iterations for rec in records) <= 40
        assert len(calls) <= 600


class TestDiagnosticsTrivial:
    def test_classification_attained(self, trivial_sweep):
        spec, records = trivial_sweep
        rep = blowup_diagnostics(records, spec)
        assert rep["classification"] == "ATTAINED"
        assert rep["mu_min"] >= 1e-6
        assert rep["jvalue_tail_cauchy"] <= 1e-4
        assert rep["lambda1_bound_ok"]

    def test_energy_height_inequality(self, trivial_sweep):
        spec, records = trivial_sweep
        rep = blowup_diagnostics(records, spec)
        c0 = rep["energy_height_C0"]
        for rec in records:
            assert rec.energy <= 8.4 * np.pi * rec.c + c0 + 1e-12

    def test_needs_enough_records(self, trivial_sweep):
        spec, records = trivial_sweep
        with pytest.raises(ValueError):
            blowup_diagnostics(records[:3], spec)


class TestWindowProfile:
    def test_pinning(self, trivial_sweep):
        spec, records = trivial_sweep
        prof = window_profile(records[-1], spec)
        c = prof.phi.shape[0] // 2
        assert prof.phi[c, c] == 0.0
        assert np.max(prof.psi) <= 1.0 + 1e-12

    def test_interpolation_reproduces_nodes(self, trivial_sweep):
        spec, _ = trivial_sweep
        rng = np.random.default_rng(3)
        from bundlemf.geometry import random_band_limited

        u = random_band_limited(spec.grid, rng)
        rec = record_from_state(u, 4 * np.pi, spec)
        # choose the window so its corner points land exactly on grid nodes
        hw = 2 * spec.grid.h / rec.r_scale
        prof = window_profile(rec, spec, half_width=hw, points=3)
        i, j = rec.x
        n = spec.grid.n
        node_val = u.values[(i + 2) % n, (j + 2) % n]
        assert prof.phi[2, 2] + rec.c == pytest.approx(node_val, abs=1e-10)


@pytest.fixture(scope="module")
def injected_records():
    n = 256
    g = build_grid(n)
    spec = ProblemSpec(zero_connection(g), ones_field(n), 8 * np.pi)
    records = []
    from bundlemf.green import solve_green

    gd = solve_green((n // 2, n // 2), spec)
    for k in (16, 32, 64, 128):
        rho_k = 8 * np.pi - 1.0 / k
        fam = build_Qk((n // 2, n // 2), k, spec, gd)
        records.append(record_from_state(fam.field, rho_k, spec))
    return spec, records


class TestSyntheticBlowup:
    def test_classified_as_blowup(self, injected_records):
        spec, records = injected_records
        rep = blowup_diagnostics(records, spec)
        assert rep["classification"] == "BLOWUP-CANDIDATE"
        assert rep["mu_min"] >= 1e-6

    def test_concentration_mass(self, injected_records):
        spec, records = injected_records
        assert concentration_mass(records[-1], spec) >= 0.9

    def test_height_grows_scale_shrinks(self, injected_records):
        _, records = injected_records
        c = [rec.c for rec in records]
        r = [rec.r_scale for rec in records]
        assert all(np.diff(c) > 0)
        assert all(np.diff(r) < 0)

    def test_window_distance_trend(self, injected_records):
        spec, records = injected_records
        rep = blowup_diagnostics(records, spec)
        dist = rep["phi_distance_series"]
        assert dist[-1] <= dist[0]
        assert all(d >= 0 for d in dist)

    def test_ratio_series_present(self, injected_records):
        spec, records = injected_records
        rep = blowup_diagnostics(records, spec)
        assert len(rep["ratio_logmu_series"]) == len(records)
        assert rep["ratio_logmu_last"] is not None

    def test_guard_flag_forces_blowup_class(self, injected_records):
        spec, records = injected_records
        from dataclasses import replace

        flagged = [replace(rec, guard_hit=True) for rec in records]
        rep = blowup_diagnostics(flagged, spec)
        assert rep["classification"] == "BLOWUP-CANDIDATE"
