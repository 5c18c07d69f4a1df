"""Green sections of the bundle Laplacian and the exact critical value.

The Green section at a node p solves

    (Delta_g + V) G = 8 pi (delta_p - 1/|Sigma|) - lambda1 tau1,
    lambda1 = 8 pi (tau1(p) - (1/|Sigma|) int tau1 dv_g)        (kernel dim 1)

with lambda1 = 0 and no multiplier when the kernel is trivial.  The log
singularity is split off analytically: G = -4 chi(r) log r + w with a radial
C^8 cutoff chi, so that only the smooth remainder w is solved for and the
regular part is read off as A_p = w(p) (+ 4 v(p) with a conformal factor,
since d_g ~ e^{v(p)} r near p).

Two discretizations back the smooth solve, used to cross-validate A_p: the
spectral one and a 5-point finite-difference one.  Both are the one Fourier
space solve bundle.solve_symmetrized, given the connection or its 5-point
twin conn.five_point (the same connection on geometry.TorusGrid.five_point),
the symbol and its mask being the only difference.  Its PCG is
preconditioned block-Jacobi over a Fourier split (Connection.preconditioner:
the exact coarse block on |k_x|, |k_y| <= COARSE_K = 6, shifted along
tau1's low modes when the kernel is one-dimensional, and the diagonal
(k^2 + 1)^{-1} elsewhere): 5 steps per Green solve on exact:cos-x:0.3 and
3 on harmonic:1,0.5, where the diagonal alone took 11 and 6.
GreenData.pcg_iterations records the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bundle import solve_symmetrized
from .functional import ProblemSpec
from .geometry import ScalarField, torus_box, torus_distance

BACKENDS = ("spectral", "fd")   # the two discretizations of the smooth solve
CUTOFF_RADIUS = 0.125
CUTOFF_ORDER = 8  # smoothness class of the radial ramp


class SolvabilityError(RuntimeError):
    """The tau1-component of the assembled right-hand side is too large."""


@dataclass(frozen=True)
class GreenData:
    """One Green solve.  The remainder eta = G + 4 log d_g - A_p is not kept:
    `remainder` forms it from G where it is read."""

    p: tuple[int, int]
    G: ScalarField          # Green scalar; at p it stores the regular limit
    A_p: float              # regular part: lim (G + 4 log d_g)
    lambda1: float
    meanG: float            # int G dv_g under the nodal convention
    residual: float         # pre-projection tau1-component of the rhs
    backend: str = "spectral"
    pcg_iterations: int = 0  # Krylov steps of the smooth solve

    def remainder(self, spec: ProblemSpec, index=np.s_[:, :], r=None) -> np.ndarray:
        """The C^1 remainder eta = G + 4 log r + 4 v(p) - A_p on G.values[index]
        (a slice reads G without a copy), r the distance to p there, as
        torus_box gives it; the whole grid, with torus_distance, by default.
        eta(p) = 0, as d_g ~ e^{v(p)} r near p.  Beside r it holds eta alone:
        p is found by argmin and the log is taken in place."""
        if r is None:
            r = torus_distance(spec.grid, self.p)
        at_p = np.unravel_index(np.argmin(r), r.shape)   # r = 0 there, if p is indexed
        eta = r.copy()
        eta[at_p] = r[at_p] or 1.0
        np.log(eta, out=eta)
        eta *= 4.0                        # G + 4 log r + 4 v(p) - A_p, in place
        eta += self.G.values[index]
        eta += 4.0 * float(spec.grid.v.values[self.p])
        eta -= self.A_p
        if r[at_p] == 0.0:
            eta[at_p] = 0.0
        return eta


# ---------------------------------------------------------------------------
# radial cutoff machinery
# ---------------------------------------------------------------------------

def _smoothstep_coeffs(s: int) -> np.polynomial.Polynomial:
    c = np.zeros(2 * s + 2)
    for i in range(s + 1):
        c[s + 1 + i] = (-1) ** i * comb(s + i, i) * comb(2 * s + 1, s - i)
    return np.polynomial.Polynomial(c)

_STEP = _smoothstep_coeffs(CUTOFF_ORDER)
_STEP1 = _STEP.deriv()
_STEP2 = _STEP.deriv(2)


def cutoff(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial ramp chi, 1 for r <= r0 = CUTOFF_RADIUS, 0 for r >= 2 r0, C^8
    in between, where alone it and its r-derivatives chi', chi'' (returned
    after it) are evaluated; _STEP(0) = 0 and _STEP(1) = 1 hold exactly."""
    r0 = CUTOFF_RADIUS
    t = (np.asarray(r, dtype=float) - r0) / r0
    chi = (t <= 0.0).astype(float)
    inside = (t > 0.0) & (t < 1.0)
    t = t[inside]
    c1 = np.zeros_like(chi)
    c2 = np.zeros_like(chi)
    chi[inside] = 1.0 - _STEP(t)
    c1[inside] = -_STEP1(t) / r0
    c2[inside] = -_STEP2(t) / r0**2
    return chi, c1, c2


def _radial_moments() -> tuple[float, float, float]:
    """int_0^{2 r0} f(t) t^k 2 pi t dt for (f, k) = (-4 chi log, 0), (-4 chi
    log, 2) and (_commutator_field, 2), as scipy.integrate.quad (limit=200,
    scipy 1.17.1) gave them, kept bit for bit.  Against 40-digit mpmath they
    are off by 2.14e-12, 8.74e-14 and 5.85e-10 (2.22e-12, 5.71e-12 and
    1.52e-10 relative); the accurate values are 0.9621780513378017,
    0.015306362096180234 and 3.8487122053512066."""
    return 0.9621780513399368, 0.01530636209626765, 3.8487122059357146


def _commutator_field(rr, L, c1, c2) -> np.ndarray:
    """Smooth part m of Delta_flat(-4 chi log r) = -8 pi delta + m, formed in
    c2, given rr, the distance with 1 at the pole (outside the ramp), L = log
    rr and chi' = c1, chi'' = c2 (see cutoff).

    Supported on the ramp annulus; normalized afterwards so its discrete
    flat integral is exactly 8 pi, which the continuum identity requires.
    """
    c2 *= L                       # -4 (c2 L + c1 L / rr + 2 c1 / rr), in place
    c2 += c1 * L / rr
    c2 += 2.0 * c1 / rr
    c2 *= -4.0
    return c2


# ---------------------------------------------------------------------------
# backends for the smooth solve
# ---------------------------------------------------------------------------

def _solve_smooth(rhs: list, spec: ProblemSpec, backend: str) -> tuple[np.ndarray, int]:
    """Solve (Delta_g + V) w = rhs[0] for w orthogonal to the kernel;
    returns w and the PCG's step count.

    rhs holds the projected right-hand side, scaled in place to e^{2v} rhs
    and taken out of the list, so no frame keeps it once transformed.  Both
    backends are the bundle Poisson solve, the fd one given the connection's
    5-point twin spec.conn.five_point: the 5-point symbol with no Nyquist
    mask, since it is positive there, and tau1 deflated unmasked.
    """
    rhs[0] *= spec.grid.area_element
    rhs[0] *= spec.grid.n**2      # e^{2v} = area_element / h^2, exactly
    conn = spec.conn if backend == "spectral" else spec.conn.five_point
    w, info = solve_symmetrized(rhs.pop(), conn)
    return w, info.iterations


# ---------------------------------------------------------------------------
# the Green solve
# ---------------------------------------------------------------------------

def solve_green(p, spec: ProblemSpec, backend: str = "spectral",
                solvability_tol: float = 1e-8) -> GreenData:
    """Green section at grid node p = (i, j).  The log field s and the
    commutator field m vanish from r = 2 CUTOFF_RADIUS = 1/4 on, so they,
    their moments and the shell correction are formed on the box of that
    radius around p (geometry.torus_box), about a quarter of the nodes;
    through the smooth solve the Green solve holds s alone beside it.  The
    remainder eta is not formed here (see GreenData.remainder)."""
    g = spec.grid
    if float(p[0]) != int(p[0]) or float(p[1]) != int(p[1]):
        raise ValueError(f"p must be a grid node (integer pair), got {p}")
    i, j = int(p[0]) % g.n, int(p[1]) % g.n
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")

    box, r = torus_box(g, (i, j), 2.0 * CUTOFF_RADIUS)
    c = r.shape[0] // 2                   # p in box coordinates: (c, c)
    s, c1, c2 = cutoff(r)
    s *= -4.0                             # times log r below: the log field
    rr = np.where(r > 0.0, r, 1.0)
    L = np.log(rr)
    s *= L

    # moment-matched mollification: the discrete mass AND second moment of
    # the commutator field match the continuum (8 pi and its r^2 moment), so
    # the solvability pairing against any smooth section is exact through
    # the quadratic term of its Taylor expansion at p
    log0, log2, commutator2 = _radial_moments()
    m = _commutator_field(rr, L, c1, c2)
    del rr, L, c1, c2
    r2m = r**2 * m
    mom = np.array([m.sum(), r2m.sum()]) * g.h**2
    cross = np.array([r2m.sum(), (m * r**4).sum()]) * g.h**2
    coeff = np.linalg.solve(np.array([[mom[0], cross[0]], [mom[1], cross[1]]]),
                            np.array([8.0 * np.pi, commutator2]))
    m *= coeff[0]                         # coeff[0] m + coeff[1] r^2 m, in place
    r2m *= coeff[1]
    m += r2m
    del r2m

    # same treatment for the log field: the singular node carries the mass
    # defect and its 4-neighbour shell the second-moment defect
    shell = [(c + 1, c), (c - 1, c), (c, c + 1), (c, c - 1)]
    m2_s = float(sum(s[a, b] for a, b in shell)) * g.h**2 * g.h**2
    m2_rest = float((s * r**2).sum()) * g.h**2 - m2_s
    d_shell = (log2 - m2_rest) / (4.0 * g.h**4) \
        - float(np.mean([s[a, b] for a, b in shell]))
    for a, b in shell:
        s[a, b] += d_shell
    mass_rest = (s.sum() - s[c, c]) * g.h**2
    s[c, c] = (log0 - mass_rest) / g.h**2
    del r

    # off the box m = s = 0, where f is -8 pi/|Sigma| to the bit
    f = np.full((g.n, g.n), -8.0 * np.pi / g.total_area)
    m /= g.area_element[box] / g.h**2     # e^{2v} on the box
    m -= 8.0 * np.pi / g.total_area
    m -= spec.conn.potential.values[box] * s
    f[box] = m
    del m

    kb = spec.conn.kernel
    area = g.area_element
    lambda1 = residual = 0.0
    if kb.dim == 1:
        t1 = kb.tau1.values
        lambda1 = 8.0 * np.pi * (t1[i, j] - np.sum(t1 * area) / g.total_area)
        f -= lambda1 * t1
        residual = kb.remove(f)           # projected onto H1
        if abs(residual) > solvability_tol:
            raise SolvabilityError(
                f"rhs component along tau1 is {residual:.3e} > {solvability_tol:.1e}; "
                "the multiplier and the discretization are inconsistent")

    rhs = [f]                             # handed over: freed once transformed
    del f
    w, iterations = _solve_smooth(rhs, spec, backend)

    w_p = float(w[i, j])                  # read before s is added: G is w
    G = w
    G[box] += s
    G[i, j] = w_p + 4.0 * float(g.v.values[i, j])   # regular limit stored at p
    del s, w
    kb.remove(G)
    A_p = float(G[i, j])
    mean_G = float(np.sum(G * area))

    return GreenData(p=(i, j), G=ScalarField(G), A_p=A_p,
                     lambda1=float(lambda1), meanG=mean_G,
                     residual=abs(residual), backend=backend,
                     pcg_iterations=iterations)


# ---------------------------------------------------------------------------
# the critical value
# ---------------------------------------------------------------------------

def critical_value(gd: GreenData, spec: ProblemSpec) -> float:
    """Lambda(p) = -8 pi - 4 pi A_p - 8 pi log pi - 8 pi log h(p)
    + (4 pi/|Sigma|) int G dv_g."""
    i, j = gd.p
    hp = float(spec.hweight.values[i, j])
    pi = np.pi
    return float(-8.0 * pi - 4.0 * pi * gd.A_p - 8.0 * pi * np.log(pi)
                 - 8.0 * pi * np.log(hp) + 4.0 * pi * gd.meanG / spec.grid.total_area)


def critical_value_map(spec: ProblemSpec, stride: int, backend: str = "spectral") -> dict:
    """Lambda(p) over every stride-th node; reports argmin and argmax, and
    the Green PCG steps summed over the nodes."""
    n = spec.grid.n
    if stride <= 0 or n % stride != 0:
        raise ValueError(f"stride {stride} must divide n = {n}")
    values, iterations = [], 0
    for i in range(0, n, stride):
        for j in range(0, n, stride):
            gd = solve_green((i, j), spec, backend=backend)
            values.append(critical_value(gd, spec))
            iterations += gd.pcg_iterations
            del gd                        # frees G before the next solve
    values = np.array(values).reshape(n // stride, n // stride)
    amin = np.unravel_index(int(np.argmin(values)), values.shape)
    amax = np.unravel_index(int(np.argmax(values)), values.shape)
    return {
        "stride": stride,
        "nodes_per_axis": n // stride,
        "values": values,
        "argmin_node": (int(amin[0] * stride), int(amin[1] * stride)),
        "argmax_node": (int(amax[0] * stride), int(amax[1] * stride)),
        "min": float(values.min()),
        "max": float(values.max()),
        "pcg_iterations": iterations,
    }

