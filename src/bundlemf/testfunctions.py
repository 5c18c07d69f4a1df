"""Explicit families: the Liouville bubble, Moser functions, neck capacity,
and the critical test sections used to audit the exact critical value.

Everything here is constructive; the audits compare measured grid quantities
against closed forms and report the comparison rather than asserting it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import bundle_energy, project_H1
from .functional import EXP_GUARD, ProblemSpec, evaluate_J, log_mass
from .geometry import ScalarField, TorusGrid, torus_box, torus_distance
from .green import GreenData, critical_value, solve_green


# ---------------------------------------------------------------------------
# the Liouville bubble
# ---------------------------------------------------------------------------

def bubble_profile(rho: np.ndarray | float) -> np.ndarray | float:
    """phi(y) = -2 log(1 + |y|^2 / 8) as a function of the radius."""
    return -2.0 * np.log1p(np.asarray(rho, dtype=float) ** 2 / 8.0)


def _bubble_radial_integral(f, R: float) -> float:
    """int_0^R f(t) dt, R finite or inf, by 64-point Gauss-Legendre after the
    substitution t = sqrt(8) tan(theta), which maps the bubble scale
    1 + t^2/8 = sec^2(theta) onto the finite interval [0, arctan(R/sqrt 8)]."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    top = np.arctan(R / np.sqrt(8.0))
    theta = 0.5 * top * (nodes + 1.0)
    dt = np.sqrt(8.0) / np.cos(theta) ** 2
    return float(0.5 * top * np.sum(weights * f(np.sqrt(8.0) * np.tan(theta)) * dt))


def bubble_mass_numeric() -> float:
    """int_{R^2} e^phi dy by radial quadrature (exact value 8 pi)."""
    return _bubble_radial_integral(lambda t: 2.0 * np.pi * t / (1.0 + t * t / 8.0) ** 2,
                                   np.inf)


def bubble_energy_numeric(R: float) -> float:
    """int_{B_R} |d phi|^2 dy by radial quadrature."""
    def integrand(t):
        slope = -(t / 2.0) / (1.0 + t * t / 8.0)
        return 2.0 * np.pi * t * slope * slope

    return _bubble_radial_integral(integrand, R)


def bubble_energy_closed(R: float) -> float:
    """Exact antiderivative: 16 pi (log(1 + R^2/8) - 1 + 1/(1 + R^2/8))."""
    T = 1.0 + R * R / 8.0
    return 16.0 * np.pi * (np.log(T) - 1.0 + 1.0 / T)


def bubble_checks() -> dict:
    mass = bubble_mass_numeric()
    rows = []
    for R in (4.0, 16.0, 64.0):
        e = bubble_energy_numeric(R)
        closed = bubble_energy_closed(R)
        leading = 16.0 * np.pi * (np.log(1.0 + R * R / 8.0) - 1.0)
        rows.append({"R": R, "energy": e, "closed": closed,
                     "leading": leading, "tail": e - leading})
    return {"mass": mass, "mass_exact": 8.0 * np.pi,
            "mass_error": abs(mass - 8.0 * np.pi), "energies": rows}


# ---------------------------------------------------------------------------
# Moser functions
# ---------------------------------------------------------------------------

def moser_profile(z, delta: float, k: int, grid: TorusGrid) -> ScalarField:
    """Truncated-log Moser function before projection.

    Plateau -sqrt(log k / 4 pi) on B_{delta/sqrt k}(z), the 1/sqrt(pi log k)
    log ramp on the annulus, zero outside B_delta(z); unit Dirichlet energy
    in the continuum.
    """
    if not 0.0 < delta <= 0.25:
        raise ValueError(f"delta = {delta} outside (0, 1/4]: the Moser ball must be"
                         " nonempty and inside the unit torus")
    if k < 2:
        raise ValueError("k must be at least 2")
    r = torus_distance(grid, z)
    inner = delta / np.sqrt(k)
    u = np.zeros_like(r)
    plateau = -np.sqrt(np.log(k) / (4.0 * np.pi))
    u[r <= inner] = plateau
    ann = (r > inner) & (r < delta)
    u[ann] = np.log(r[ann] / delta) / np.sqrt(np.pi * np.log(k))
    return ScalarField(u)


def moser_family(z, delta: float, k: int, spec: ProblemSpec) -> ScalarField:
    """Projected Moser function, a member of the discrete kernel complement."""
    u = moser_profile(z, delta, k, spec.grid)
    return project_H1(u, spec.conn.kernel)


def tm_probe(alpha: float, family, conn) -> list[float]:
    """int e^{alpha u^2} dv_g per member, each rescaled to unit bundle energy.

    A member whose rescaled exponent exceeds the overflow guard is reported
    as diverged (inf), which is a valid finding above the 4 pi threshold.
    """
    grid, out = conn.grid, []
    for u in family:
        if alpha == 0.0:
            out.append(grid.total_area)
            continue
        e = bundle_energy(u, conn)
        if e <= 0.0:
            raise ValueError("cannot rescale a zero-energy member")
        un = u.values / np.sqrt(e)
        expo = alpha * un * un
        if expo.max() > EXP_GUARD:
            out.append(float("inf"))
            continue
        out.append(float(np.sum(np.exp(expo) * grid.area_element)))
    return out


def plateau_integral(alpha: float, u: ScalarField, z, delta: float, k: int,
                     conn, exact_area: bool = False) -> float:
    """int_{B_{delta/sqrt k}(z)} e^{alpha u^2} dv_g after unit-energy rescaling.

    This is the quantity whose growth in k carries the k^{alpha/4pi - 1}
    rate; the full-torus probe buries it under the O(|Sigma|) background.
    With exact_area the quantized node count of the plateau ball (pure grid
    noise once the ball shrinks to a few spacings) is replaced by the exact
    ball area times the measured plateau value.
    """
    grid, e = conn.grid, bundle_energy(u, conn)
    un = u.values / np.sqrt(e)
    if exact_area:
        i, j = int(z[0]) % grid.n, int(z[1]) % grid.n
        plateau = float(un[i, j])
        return float(np.pi * delta**2 / k * np.exp(alpha * plateau**2))
    mask = torus_distance(grid, z) <= delta / np.sqrt(k)
    return float(np.sum(np.exp(alpha * un[mask] ** 2)
                        * grid.area_element[mask]))


# ---------------------------------------------------------------------------
# neck capacity
# ---------------------------------------------------------------------------

def annulus_capacity(a: float, b: float, r_in: float, r_out: float) -> float:
    """Minimal Dirichlet energy on the annulus: 2 pi (a-b)^2 / log(r_out/r_in)."""
    if not (0.0 < r_in < r_out):
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
    return 2.0 * np.pi * (a - b) ** 2 / np.log(r_out / r_in)


def annulus_capacity_numeric(a: float, b: float, r_in: float, r_out: float,
                             nodes: int = 10_000) -> float:
    """Same quantity from a radial two-point boundary value problem.

    Piecewise-linear finite elements on a uniform radial grid: the elements
    of (r u')' = 0 are conductances in series, so the discrete Dirichlet
    energy of the solution is (a - b)^2 / sum(1 / conductance).
    """
    if not (0.0 < r_in < r_out):
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
    r = np.linspace(r_in, r_out, nodes)
    cond = np.pi * (r[:-1] + r[1:]) / np.diff(r)   # element conductances 2 pi r_mid / dr
    return float((a - b) ** 2 / np.sum(1.0 / cond))


# ---------------------------------------------------------------------------
# critical test sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QkFamily:
    p: tuple[int, int]
    k: int
    R: float
    c: float
    field: ScalarField            # projected section coefficient
    greendata: GreenData
    shift: float                  # projection coefficient <q, tau1>


def bubble_cap(c: float, k: int, r: np.ndarray) -> np.ndarray:
    return c - 2.0 * np.log1p(k * k * r * r / 8.0)


def build_Qk(p, k: int, spec: ProblemSpec, gd: GreenData | None = None) -> QkFamily:
    """Assemble the test section at node p with the schedule R = sqrt(k).

    Pieces: bubble cap on B_{R/k}, Green-minus-ramped-remainder on the
    transition annulus, the Green scalar outside; the matching constant c
    makes the profile continuous across r = R/k by construction.

    k must be at least 16: the ramp annulus reaches r = 2R/k = 2/sqrt(k),
    which stays inside the injectivity radius 1/2 of the unit torus only
    for k >= 16 (below it the gap to Lambda(p) is erratic).

    Two grid guards: the cap radius R/k >= 8h, and the bubble core
    sqrt(8)/k >= 2h, i.e. k <= sqrt(2) n; past the latter the measured
    energy remainder k (E - E_closed)/pi leaves its ~256 plateau.
    """
    if k < 16:
        raise ValueError(f"k = {k} < 16: the ramp annulus r <= 2/sqrt(k) would cross"
                         " the injectivity radius 1/2 of the torus")
    g = spec.grid
    R = float(np.sqrt(k))
    if R / k < 8.0 * g.h:
        raise ValueError(f"grid too coarse to resolve the bubble cap: R/k = {R / k:.4g}"
                         f" < 8 h = {8 * g.h:.4g}")
    if np.sqrt(8.0) / k < 2.0 * g.h:
        raise ValueError(f"grid too coarse to resolve the bubble core: sqrt(8)/k ="
                         f" {np.sqrt(8.0) / k:.4g} < 2 h = {2 * g.h:.4g}")
    if gd is None:
        gd = solve_green(p, spec)
    i, j = gd.p
    c = 2.0 * np.log1p(R * R / 8.0) - 4.0 * np.log(R) + 4.0 * np.log(k) + gd.A_p

    # the ramp vanishes from r = 2R/k on, where q is G: G - ramp eta, then
    # the cap, are written on the box of that radius (the torus at k = 16)
    box, r = torus_box(g, (i, j), 2.0 * R / k)
    qb = _qk_ramp(r, R / k)
    qb *= gd.remainder(spec, box, r)
    np.subtract(gd.G.values[box], qb, out=qb)
    cap = r <= R / k
    qb[cap] = bubble_cap(c, k, r[cap])
    q = gd.G.values.copy()
    q[box] = qb
    del qb, r
    shift = spec.conn.kernel.remove(q)    # projected onto H1
    return QkFamily(p=(i, j), k=k, R=R, c=c, field=ScalarField(q),
                    greendata=gd, shift=shift)


def _qk_ramp(r: np.ndarray, a: float) -> np.ndarray:
    """Radial C^2 quintic ramp: 1 on r <= a, 0 from r >= 2a, |slope| <= 1.875/a."""
    t = np.clip((r - a) / a, 0.0, 1.0)
    return 1.0 - (6.0 * t**5 - 15.0 * t**4 + 10.0 * t**3)


def qk_energy_closed(k: int, gd: GreenData, spec: ProblemSpec) -> float:
    """Leading k -> oo form of the covariant energy of Q_k.

    32 pi log k - 16 pi log 8 - 16 pi + 8 pi A_p - 8 pi int G_p / |Sigma|.
    At finite R it omits 16 pi/(1 + R^2/8) + 16 pi log(1 + 8/R^2), which is
    about 256 pi/k for R = sqrt(k).
    """
    pi = np.pi
    return float(32.0 * pi * np.log(k) - 16.0 * pi * np.log(8.0) - 16.0 * pi
                 + 8.0 * pi * gd.A_p - 8.0 * pi * gd.meanG / spec.grid.total_area)


def qk_logint_closed(k: int, gd: GreenData, spec: ProblemSpec) -> float:
    """Leading k -> oo form of log int h e^{Q_k}.

    -log 8 + log(pi h(p)) + 2 log k + A_p. At finite R it omits
    log(1 + 16/R^2), which is about 16/k for R = sqrt(k).
    """
    i, j = gd.p
    hp = float(spec.hweight.values[i, j])
    return float(-np.log(8.0) + np.log(np.pi * hp) + 2.0 * np.log(k) + gd.A_p)


def qk_bubble_region_closed(k: int, R: float) -> float:
    """Leading form 16 pi log(1 + R^2/8) - 16 pi of the energy on B_{R/k}.

    It leaves out the 16 pi/(1 + R^2/8) term that `bubble_energy_closed`
    keeps, so it falls short of the exact bubble energy by that amount.
    """
    return float(16.0 * np.pi * np.log1p(R * R / 8.0) - 16.0 * np.pi)


def qk_audit(fam: QkFamily, spec: ProblemSpec) -> dict:
    """Measured-vs-closed-form report for one test section.

    Reports the covariant energy against the 32 pi log k form, the log of the
    weighted exponential integral against its closed form, the bubble-region
    gradient energy against 16 pi log(1+R^2/8) - 16 pi, and the functional
    value at rho = 8 pi against the critical value Lambda(p).

    The energy, log-integral and bubble-region forms are leading order as
    k -> oo; their finite-R remainders (about 256 pi/k, 16/k and
    16 pi/(1 + R^2/8)) stay in the reported errors.
    """
    g = spec.grid
    gd = fam.greendata
    spec8 = spec.with_rho(8.0 * np.pi)

    energy = bundle_energy(fam.field, spec.conn)
    energy_closed = qk_energy_closed(fam.k, gd, spec)

    logint = log_mass(fam.field.values, spec)[0]
    logint_closed = qk_logint_closed(fam.k, gd, spec)

    jval = evaluate_J(fam.field, spec8, energy, logint)
    lam = critical_value(gd, spec)

    # the ring, the cap and the cap cells' forward neighbours lie within
    # R/k + h of p in each coordinate, so on the box of radius R/k + 2h the
    # masked energy's roll wraps no cap cell
    box, r = torus_box(g, fam.p, fam.R / fam.k + 2.0 * g.h)
    ring = np.abs(r - fam.R / fam.k) <= g.h
    G, eta = gd.G.values[box][ring], gd.remainder(spec, box, r)[ring]
    jump = float(np.max(np.abs(
        bubble_cap(fam.c, fam.k, r[ring])
        - (G - _qk_ramp(r[ring], fam.R / fam.k) * eta))))

    # build_Qk wrote the cap itself on the cells where this reads the profile
    cap = r <= fam.R / fam.k
    profile = bubble_cap(fam.c, fam.k, r)
    del r
    bubble_meas = _masked_gradient_energy(profile, cap, g)
    bubble_closed = qk_bubble_region_closed(fam.k, fam.R)

    return {
        "k": fam.k, "R": fam.R, "p": list(fam.p),
        "energy": energy, "energy_closed": energy_closed,
        "energy_rel_err": abs(energy - energy_closed) / abs(energy_closed),
        "logint": logint, "logint_closed": logint_closed,
        "logint_abs_err": abs(logint - logint_closed),
        "bubble_energy": bubble_meas, "bubble_energy_closed": bubble_closed,
        "jvalue": jval, "Lambda": lam, "gap": jval - lam,
        "projection_shift": fam.shift,
        "interface_jump": jump,
    }


def _masked_gradient_energy(u: np.ndarray, mask: np.ndarray, grid: TorusGrid) -> float:
    """Forward-difference Dirichlet energy over cells whose corners lie in
    mask, so it reads u on mask only."""
    ux = (np.roll(u, -1, 0) - u) / grid.h
    uy = (np.roll(u, -1, 1) - u) / grid.h
    ux *= ux                      # ux^2 + uy^2, in place
    uy *= uy
    ux += uy
    cell = mask & np.roll(mask, -1, 0) & np.roll(mask, -1, 1)
    return float(np.sum(ux[cell]) * grid.h**2)


def extrapolate_limit(ks: np.ndarray, values: np.ndarray) -> float:
    """Generalized Richardson limit: least-squares fit on {1, 1/k, 1/k^2}."""
    A = np.vstack([np.ones_like(ks), 1.0 / ks, 1.0 / ks**2]).T
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    return float(coef[0])
