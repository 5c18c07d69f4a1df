"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines
with the measured numbers at the stated parameters and tolerances."""

import time

import numpy as np

from bundlemf import (
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
    moser_family,
    poincare_constant,
    project_H1,
    solve_green,
    tm_probe,
)
from bundlemf.bundle import smallest_eigenvalue
from bundlemf.geometry import build_grid, random_band_limited
from bundlemf.green import critical_value
from bundlemf.sweep import blowup_diagnostics, subcritical_sweep
from bundlemf.testfunctions import (
    bubble_energy_closed,
    bubble_energy_numeric,
    bubble_mass_numeric,
    build_Qk,
    extrapolate_limit,
    plateau_integral,
    qk_audit,
)

from conftest import df_connection, harmonic_connection, ones_field, zero_connection


def check(lines, ok, label, detail):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {label}: {detail}"
    print(line)
    if not ok:
        lines.append(line)
    return ok


def flat_spec(n, rho=8 * np.pi):
    g = build_grid(n)
    return ProblemSpec(zero_connection(g), ones_field(n), rho)


def test_criterion_01_bubble_mass():
    fails = []
    t0 = time.time()
    mass = bubble_mass_numeric()
    elapsed = time.time() - t0
    check(fails, abs(mass - 8 * np.pi) <= 1e-8, "criterion 1 (bubble mass)",
          f"|mass - 8pi| = {abs(mass - 8 * np.pi):.2e} (tol 1e-8)")
    check(fails, elapsed < 1.0, "criterion 1 (runtime)",
          f"{elapsed:.3f} s (< 1 s)")
    assert not fails, "\n".join(fails)


def test_criterion_02_bubble_energy():
    fails = []
    for R in (4.0, 16.0, 64.0):
        e = bubble_energy_numeric(R)
        closed = bubble_energy_closed(R)
        rel = abs(e - closed) / abs(closed)
        check(fails, rel <= 1e-6, "criterion 2 (bubble energy)",
              f"R = {R:g}: rel err = {rel:.2e} (tol 1e-6)")
    assert not fails, "\n".join(fails)


def test_criterion_03_trudinger_moser_threshold():
    fails = []
    n, delta = 512, 0.125
    spec = flat_spec(n, rho=4 * np.pi)
    z = (n // 2, n // 2)
    ks = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    members = [moser_family(z, delta, k, spec) for k in ks]

    probe_41 = tm_probe(4.1 * np.pi, members, spec.conn)
    probe_39 = tm_probe(3.9 * np.pi, members, spec.conn)
    plateau = [plateau_integral(4.1 * np.pi, u, z, delta, k, spec.conn, exact_area=True)
               for u, k in zip(members, ks)]

    lk = np.log(np.asarray(ks, dtype=float))
    slope_raw = float(np.polyfit(lk, np.log(probe_41), 1)[0])
    slope_plateau = float(np.polyfit(lk, np.log(plateau), 1)[0])
    target = 4.1 * np.pi / (4 * np.pi) - 1.0

    print(f"       raw probe values (4.1 pi): {np.round(probe_41, 4).tolist()}")
    print(f"       raw-probe slope {slope_raw:.4f} (background-dominated, "
          "recorded for transparency)")
    check(fails, all(np.diff(probe_41) > 0), "criterion 3 (values grow)",
          f"probe values strictly increasing over k = 4..1024")
    check(fails, abs(slope_plateau - target) <= 0.2 * target,
          "criterion 3 (growth rate)",
          f"plateau-ball integral slope = {slope_plateau:.4f} vs "
          f"alpha/4pi - 1 = {target:.4f} (+-20%)")
    ratio = max(probe_39) / min(probe_39)
    check(fails, ratio <= 10.0, "criterion 3 (subcritical bounded)",
          f"alpha = 3.9 pi: max/min over family = {ratio:.3f} (<= 10)")
    assert not fails, "\n".join(fails)


def test_criterion_04_moser_normalization():
    fails = []
    n = 512
    spec = flat_spec(n, rho=4 * np.pi)
    u = moser_family((n // 2, n // 2), 0.125, 64, spec)
    e = bundle_energy(u, spec.conn)
    check(fails, 0.98 <= e <= 1.02, "criterion 4 (Moser energy)",
          f"grid Dirichlet energy = {e:.5f} (in [0.98, 1.02]) at n=512, k=64")
    assert not fails, "\n".join(fails)


def test_criterion_05_subcritical_minimization():
    fails = []
    n = 64
    g = build_grid(n)
    rng = np.random.default_rng(2024)
    init = random_band_limited(g, rng, amplitude=0.5)
    opts = SolverOptions(tol=1e-11)

    spec = ProblemSpec(zero_connection(g), ones_field(n), 4 * np.pi)
    res = minimize(spec, init, opts)
    j0 = evaluate_J(ScalarField(np.zeros((n, n))), spec)
    check(fails, res.converged and res.residual <= 1e-8,
          "criterion 5 (flat converged)",
          f"converged={res.converged}, residual={res.residual:.2e} (<= 1e-8)")
    check(fails, res.jvalue <= j0 + 1e-10, "criterion 5 (flat minimal)",
          f"J = {res.jvalue:.3e} vs J(0) = {j0:.3e} (+1e-10)")
    sup = float(np.max(np.abs(res.u.values)))
    check(fails, sup <= 1e-6, "criterion 5 (flat trivial)",
          f"sup|u| = {sup:.2e} (<= 1e-6)")

    spec2 = ProblemSpec(df_connection(g, 0.3), ones_field(n), 4 * np.pi)
    res2 = minimize(spec2, init, opts)
    check(fails, res2.converged and res2.residual <= 1e-8,
          "criterion 5 (bundle converged)",
          f"converged={res2.converged}, residual={res2.residual:.2e} (<= 1e-8)")
    full = (bundle_laplacian(res2.u, spec2.conn).values
            - spec2.rho * (spec2.hweight.values * np.exp(res2.u.values) / res2.mu
                           - 1.0 / g.total_area)
            + res2.lambda1 * spec2.conn.kernel.tau1.values)
    full_norm = float(np.sqrt(np.sum(full**2 * g.area_element)))
    check(fails, full_norm <= 1e-7, "criterion 5 (bundle optimality)",
          f"full Euler-Lagrange norm = {full_norm:.2e} (<= 1e-7)")
    assert not fails, "\n".join(fails)


def test_criterion_06_kernel_dichotomy():
    fails = []
    n = 64
    g = build_grid(n)
    from bundlemf.geometry import exterior_derivative

    for name, conn in (("zero", zero_connection(g)),
                       ("exact", df_connection(g, 0.3))):
        kb = conn.kernel
        du = exterior_derivative(kb.tau1, g)
        d1 = du.c1 + kb.tau1.values * conn.omega.c1
        d2 = du.c2 + kb.tau1.values * conn.omega.c2
        resid = float(np.sqrt(np.sum(d1**2 + d2**2) * g.h**2))
        check(fails, kb.dim == 1 and resid <= 1e-8,
              f"criterion 6 ({name} connection)",
              f"dim = {kb.dim} (= 1), kernel residual = {resid:.2e} (<= 1e-8)")
        lam, _ = smallest_eigenvalue(conn)
        check(fails, lam >= 0.1, f"criterion 6 ({name} gap)",
              f"deflated smallest eigenvalue = {lam:.3f} (>= 0.1)")

    conn = harmonic_connection(g, 2 * np.pi, 0.0)
    kb = conn.kernel
    check(fails, kb.dim == 0, "criterion 6 (holonomy)",
          f"omega = 2 pi dx: dim = {kb.dim} (= 0)")
    lam, _ = smallest_eigenvalue(conn)
    check(fails, lam >= 0.1, "criterion 6 (holonomy gap)",
          f"smallest eigenvalue = {lam:.3f} (>= 0.1)")
    assert not fails, "\n".join(fails)


def test_criterion_07_poincare():
    fails = []
    n = 64
    g = build_grid(n)
    conn = zero_connection(g)
    kb = conn.kernel
    C = poincare_constant(conn, g)
    exact = 1.0 / (4 * np.pi**2)
    check(fails, abs(C - exact) <= 1e-3 * exact, "criterion 7 (constant)",
          f"C = {C:.8f} vs 1/(4 pi^2) = {exact:.8f} (0.1%)")
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        u = project_H1(random_band_limited(g, rng, kmax=10), kb)
        lhs = l2_inner(u, u, g)
        rhs = C * bundle_energy(u, conn)
        worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
    check(fails, worst <= 1.0 + 1e-10, "criterion 7 (inequality)",
          f"max ||u||^2 / (C energy) over 200 samples = {worst:.6f} (<= 1)")
    assert not fails, "\n".join(fails)


def test_criterion_08_green_cross_validation():
    fails = []
    n = 512
    spec = flat_spec(n)
    gd = solve_green((0, 0), spec)
    gd_fd = solve_green((0, 0), spec, backend="fd")
    rel = abs(gd.A_p - gd_fd.A_p) / abs(gd.A_p)
    check(fails, rel <= 0.01, "criterion 8 (backends)",
          f"A_p spectral = {gd.A_p:.6f}, fd = {gd_fd.A_p:.6f}, "
          f"rel diff = {rel:.2e} (<= 1%)")
    spread = max(abs(solve_green(p, spec).A_p - gd.A_p)
                 for p in [(100, 3), (256, 256), (17, 400), (333, 77), (5, 5)])
    check(fails, spread <= 1e-3, "criterion 8 (translation invariance)",
          f"max |A_p - A_0| over 5 nodes = {spread:.2e} (<= 1e-3)")
    check(fails, abs(gd.lambda1) <= 1e-8 and abs(gd.meanG) <= 1e-8,
          "criterion 8 (flat identities)",
          f"lambda1 = {gd.lambda1:.2e}, int G = {gd.meanG:.2e} (<= 1e-8)")
    assert not fails, "\n".join(fails)


def test_criterion_09_critical_value_consistency():
    fails = []
    n = 1024
    spec = flat_spec(n)
    p = (0, 0)
    gd = solve_green(p, spec)
    lam = critical_value(gd, spec)
    # The closed forms are the k -> oo leading terms at R = sqrt(k); their
    # finite-R remainders are 16 pi/(1 + R^2/8) + 16 pi log(1 + 8/R^2) ~ 256 pi/k
    # for the energy and log(1 + 16/R^2) ~ 16/k for the log integral. Measured
    # here, k (E - E_closed)/pi = 257.8, 256.3, 256.0, 255.8, 255.7 and
    # k (L - L_closed) = 18.7, 17.9, 17.2, 16.7, 16.4 for k = 64..1024, so the
    # 3% energy tolerance holds from k = 256 (3.13% at 128) and the 0.05 log
    # tolerance from k ~ 320 (0.067 at 256, 0.033 at 512). The ramp annulus
    # B_{2R/k} fits inside the injectivity radius 1/2 only for k >= 16; below
    # that the gap is erratic (k = 8..20 give -2.65, -1.65, -1.70, -2.39,
    # -2.85, -2.99). At n = 1024 the remainders follow 256 pi/k up to
    # k = 1024, k (E - E_closed)/pi is already 290 at k = 2048, and at k = 4096
    # the bubble core sqrt(8)/k is below one grid spacing. Hence four
    # doublings inside 16 <= k <= 1024, with the closed forms checked at the
    # last one.
    ks = (64, 128, 256, 512)
    k0, k1 = ks[0], ks[-1]
    reports = [qk_audit(build_Qk(p, k, spec, gd), spec) for k in ks]
    gaps = [abs(rep["gap"]) for rep in reports]
    jvals = [rep["jvalue"] for rep in reports]
    e_rem = [k * (rep["energy"] - rep["energy_closed"]) / np.pi
             for k, rep in zip(ks, reports)]
    l_rem = [k * (rep["logint"] - rep["logint_closed"])
             for k, rep in zip(ks, reports)]
    print(f"       Lambda(p) = {lam:.4f}; J(Q_k) = "
          f"{[round(j, 4) for j in jvals]}; |gaps| = "
          f"{[round(gv, 4) for gv in gaps]}; k (E - E_closed)/pi = "
          f"{[round(e, 1) for e in e_rem]}; k (L - L_closed) = "
          f"{[round(lv, 2) for lv in l_rem]}")

    dec = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    check(fails, dec, "criterion 9 (gap decreasing)",
          f"|gaps| over k = {ks}: {[round(gv, 4) for gv in gaps]}")
    check(fails, gaps[-1] <= 0.5 * gaps[0], "criterion 9 (gap halved)",
          f"gap({k1}) = {gaps[-1]:.4f} <= half gap({k0}) = {0.5 * gaps[0]:.4f}")
    extra = extrapolate_limit(np.asarray(ks, dtype=float), np.asarray(jvals))
    rel = abs(extra - lam) / abs(lam)
    check(fails, rel <= 0.02, "criterion 9 (Richardson)",
          f"extrapolated = {extra:.4f} vs Lambda = {lam:.4f}, "
          f"rel err = {rel:.2%} (<= 2%)")
    rep = reports[-1]
    check(fails, rep["energy_rel_err"] <= 0.03, "criterion 9 (energy form)",
          f"k={k1} energy = {rep['energy']:.3f} vs closed "
          f"{rep['energy_closed']:.3f}, rel = {rep['energy_rel_err']:.2%} (<= 3%)")
    check(fails, rep["logint_abs_err"] <= 0.05, "criterion 9 (log form)",
          f"k={k1} log integral = {rep['logint']:.4f} vs closed "
          f"{rep['logint_closed']:.4f}, abs = {rep['logint_abs_err']:.4f} (<= 0.05)")
    assert not fails, "\n".join(fails)


def test_criterion_10_sweep_sanity():
    fails = []
    n = 256
    spec = flat_spec(n, rho=4 * np.pi)
    records = subcritical_sweep(spec, 64)
    report = blowup_diagnostics(records, spec)
    mu_min = report["mu_min"]
    check(fails, mu_min >= 1e-6, "criterion 10 (mass bounded)",
          f"min mu_k = {mu_min:.3e} (>= 1e-6)")
    c0 = report["energy_height_C0"]
    ok = all(rec.energy <= 8.4 * np.pi * rec.c + c0 + 1e-12 for rec in records)
    check(fails, ok, "criterion 10 (energy-height)",
          f"energy <= 8.4 pi c + C0 with reported C0 = {c0:.3e}")
    check(fails, report["jvalue_tail_cauchy"] <= 1e-4,
          "criterion 10 (value tail)",
          f"Cauchy tail over last 5 = {report['jvalue_tail_cauchy']:.2e} (<= 1e-4)")
    check(fails, report["classification"] in ("ATTAINED", "BLOWUP-CANDIDATE"),
          "criterion 10 (classification)",
          f"classification = {report['classification']}")
    assert not fails, "\n".join(fails)


def test_criterion_11_classical_reduction():
    fails = []
    n = 64
    spec = flat_spec(n, rho=4 * np.pi)
    g = spec.grid
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        u = random_band_limited(g, rng, amplitude=1.0)
        bundle_route = evaluate_J(u, spec)
        grad_energy = l2_inner(u, laplacian(u, g), g)
        shift = float(u.values.max())
        log_mu = shift + np.log(np.sum(spec.hweight.values
                                       * np.exp(u.values - shift)
                                       * g.area_element))
        classical = (0.5 * grad_energy
                     + spec.rho / g.total_area * integrate(u, g)
                     - spec.rho * log_mu)
        worst = max(worst, abs(bundle_route - classical))
    check(fails, worst <= 1e-12, "criterion 11 (classical reduction)",
          f"max two-route discrepancy over 20 fields = {worst:.2e} (<= 1e-12)")
    assert not fails, "\n".join(fails)


def test_criterion_12_neck_capacity():
    from bundlemf import annulus_capacity, annulus_capacity_numeric

    fails = []
    a, b, r_in, r_out = 1.0, 0.0, 0.01, 0.3
    closed = annulus_capacity(a, b, r_in, r_out)
    numeric = annulus_capacity_numeric(a, b, r_in, r_out, nodes=10_000)
    err = abs(numeric - closed) / closed
    check(fails, err <= 1e-6, "criterion 12 (neck capacity)",
          f"closed = {closed:.8f}, numeric = {numeric:.8f}, "
          f"rel err = {err:.2e} (<= 1e-6)")
    assert not fails, "\n".join(fails)
