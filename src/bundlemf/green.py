"""Green sections of the bundle Laplacian and the exact critical value.

The Green section at a node p solves

    (Delta_g + V) G = 8 pi (delta_p - 1/|Sigma|) - lambda1 tau1,
    lambda1 = 8 pi (tau1(p) - (1/|Sigma|) int tau1 dv_g)        (kernel dim 1)

with lambda1 = 0 and no multiplier when the kernel is trivial.  The log
singularity is split off analytically: G = -4 chi(r) log r + w with a radial
C^8 cutoff chi, so that only the smooth remainder w is solved for and the
regular part is read off as A_p = w(p) (+ 4 v(p) with a conformal factor,
since d_g ~ e^{v(p)} r near p).

Two discretizations back the smooth solve: the spectral one and a 5-point
finite-difference one, used to cross-validate A_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import quad

from .bundle import pcg, require_converged, solve_symmetrized, tau1_deflation
from .functional import ProblemSpec
from .geometry import ScalarField, solve_flat_poisson_raw, torus_distance

CUTOFF_RADIUS = 0.125
CUTOFF_ORDER = 8  # smoothness class of the radial ramp


class SolvabilityError(RuntimeError):
    """The tau1-component of the assembled right-hand side is too large."""


@dataclass(frozen=True)
class GreenData:
    p: tuple[int, int]
    G: ScalarField          # Green scalar; at p it stores the regular limit
    eta: ScalarField        # C^1 remainder, eta(p) = 0
    A_p: float              # regular part: lim (G + 4 log d_g)
    lambda1: float
    meanG: float            # int G dv_g under the nodal convention
    residual: float         # pre-projection tau1-component of the rhs
    backend: str = "spectral"


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


def cutoff(r: np.ndarray, r0: float = CUTOFF_RADIUS) -> np.ndarray:
    """Radial ramp: 1 for r <= r0, 0 for r >= 2 r0, C^8 in between."""
    t = np.clip((np.asarray(r, dtype=float) - r0) / r0, 0.0, 1.0)
    return 1.0 - _STEP(t)


def _cutoff_derivs(r: np.ndarray, r0: float):
    t = (r - r0) / r0
    inside = (t > 0.0) & (t < 1.0)
    c1 = np.zeros_like(r)
    c2 = np.zeros_like(r)
    c1[inside] = -_STEP1(t[inside]) / r0
    c2[inside] = -_STEP2(t[inside]) / r0**2
    return c1, c2


_MOMENT_CACHE: dict[tuple[float, str, int], float] = {}


def _radial_moment(r0: float, kind: str, order: int) -> float:
    """Exact flat integral of the log field or the commutator field times
    r^order, by adaptive 1-D quadrature (cached)."""
    key = (r0, kind, order)
    if key not in _MOMENT_CACHE:
        if kind == "log":
            def f(t):
                return -4.0 * cutoff(np.array([t]), r0)[0] * np.log(t)
        elif kind == "commutator":
            def f(t):
                return _commutator_field(np.array([t]), r0)[0]
        else:
            raise ValueError(kind)
        val, _ = quad(lambda t: f(t) * t**order * 2.0 * np.pi * t,
                      0.0, 2.0 * r0, limit=200)
        _MOMENT_CACHE[key] = val
    return _MOMENT_CACHE[key]


def _commutator_field(r: np.ndarray, r0: float) -> np.ndarray:
    """Smooth part m of Delta_flat(-4 chi log r) = -8 pi delta + m.

    Supported on the ramp annulus; normalized afterwards so its discrete
    flat integral is exactly 8 pi, which the continuum identity requires.
    """
    c1, c2 = _cutoff_derivs(r, r0)
    rr = np.where(r > 0.0, r, 1.0)
    L = np.log(rr)
    return -4.0 * (c2 * L + c1 * L / rr + 2.0 * c1 / rr)


# ---------------------------------------------------------------------------
# backends for the smooth solve
# ---------------------------------------------------------------------------

def _fd_symbol(grid) -> np.ndarray:
    j = np.fft.fftfreq(grid.n) * grid.n
    lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * j / grid.n)) / grid.h**2
    return lam[:, None] + lam[None, : grid.n // 2 + 1]


def _solve_smooth(rhs: np.ndarray, spec: ProblemSpec, backend: str) -> np.ndarray:
    """Solve (Delta_g + V) w = rhs for w orthogonal to the kernel.

    rhs must already be projected.  The spectral backend is the bundle
    Poisson solve; the fd backend inverts the 5-point symbol directly when V
    vanishes and runs deflated PCG otherwise, with no Nyquist filter since
    the 5-point symbol is positive there.
    """
    g = spec.grid
    b = g.exp2v * rhs
    if backend == "spectral":
        return solve_symmetrized(b, spec.conn, g, spec.kb)
    sym = _fd_symbol(g)
    V = spec.conn.potential.values
    if not V.any():
        return solve_flat_poisson_raw(b - b.mean(), g, symbol=sym)

    def apply(z):
        return (4.0 * z - np.roll(z, 1, 0) - np.roll(z, -1, 0)
                - np.roll(z, 1, 1) - np.roll(z, -1, 1)) / g.h**2 + g.exp2v * V * z

    def precond(z):
        return np.fft.irfft2(np.fft.rfft2(z) / (sym + 1.0), s=z.shape)

    x, info = pcg(apply, b, precond=precond, project=tau1_deflation(spec.kb))
    require_converged(info, "finite-difference Green PCG")
    return x


# ---------------------------------------------------------------------------
# the Green solve
# ---------------------------------------------------------------------------

def solve_green(p, spec: ProblemSpec, backend: str = "spectral",
                solvability_tol: float = 1e-8,
                r0: float = CUTOFF_RADIUS) -> GreenData:
    """Green section at grid node p = (i, j)."""
    g = spec.grid
    if float(p[0]) != int(p[0]) or float(p[1]) != int(p[1]):
        raise ValueError(f"p must be a grid node (integer pair), got {p}")
    i, j = int(p[0]) % g.n, int(p[1]) % g.n
    if backend not in ("spectral", "fd"):
        raise ValueError(f"unknown backend {backend!r}")

    r = torus_distance(g, (i, j))
    rr = np.where(r > 0.0, r, 1.0)
    L = np.log(rr)

    # moment-matched mollification: the discrete mass AND second moment of
    # the commutator field match the continuum (8 pi and its r^2 moment), so
    # the solvability pairing against any smooth section is exact through
    # the quadratic term of its Taylor expansion at p
    m = _commutator_field(r, r0)
    mom = np.array([m.sum(), (m * r**2).sum()]) * g.h**2
    cross = np.array([(m * r**2).sum(), (m * r**4).sum()]) * g.h**2
    coeff = np.linalg.solve(np.array([[mom[0], cross[0]], [mom[1], cross[1]]]),
                            np.array([8.0 * np.pi, _radial_moment(r0, "commutator", 2)]))
    m = coeff[0] * m + coeff[1] * (r**2 * m)

    # same treatment for the log field: the singular node carries the mass
    # defect and its 4-neighbour shell the second-moment defect
    s = -4.0 * cutoff(r, r0) * L
    shell = [((i + 1) % g.n, j), ((i - 1) % g.n, j),
             ((i, (j + 1) % g.n)), ((i, (j - 1) % g.n))]
    m2_s = float(sum(s[a, b] for a, b in shell)) * g.h**2 * g.h**2
    m2_rest = float((s * r**2).sum()) * g.h**2 - m2_s
    d_shell = (_radial_moment(r0, "log", 2) - m2_rest) / (4.0 * g.h**4) \
        - float(np.mean([s[a, b] for a, b in shell]))
    for a, b in shell:
        s[a, b] += d_shell
    mass_rest = (s.sum() - s[i, j]) * g.h**2
    s[i, j] = (_radial_moment(r0, "log", 0) - mass_rest) / g.h**2

    V = spec.conn.potential.values
    area = g.area_element
    if spec.kb.dim == 1:
        t1 = spec.kb.tau1.values
        lambda1 = 8.0 * np.pi * (t1[i, j] - np.sum(t1 * area) / g.total_area)
    else:
        t1 = None
        lambda1 = 0.0

    f = m / g.exp2v - 8.0 * np.pi / g.total_area - V * s
    if t1 is not None:
        f = f - lambda1 * t1
        residual = float(np.sum(f * t1 * area))
        if abs(residual) > solvability_tol:
            raise SolvabilityError(
                f"rhs component along tau1 is {residual:.3e} > {solvability_tol:.1e}; "
                "the multiplier and the discretization are inconsistent")
        f = f - residual * t1
    else:
        residual = 0.0

    w = _solve_smooth(f, spec, backend)

    vp = float(g.v.values[i, j])
    B = s + w
    B[i, j] = w[i, j] + 4.0 * vp          # regular limit stored at p
    if t1 is not None:
        shift = -float(np.sum(B * t1 * area))
        G = B + shift * t1
    else:
        G = B
    A_p = float(G[i, j])
    mean_G = float(np.sum(G * area))

    eta = G + 4.0 * L + 4.0 * vp - A_p    # d_g ~ e^{v(p)} r near p
    eta[i, j] = 0.0

    return GreenData(p=(i, j), G=ScalarField(G), eta=ScalarField(eta), A_p=A_p,
                     lambda1=float(lambda1), meanG=mean_G,
                     residual=abs(float(residual)), backend=backend)


# ---------------------------------------------------------------------------
# the critical value
# ---------------------------------------------------------------------------

def critical_value(gd: GreenData, spec: ProblemSpec) -> float:
    """Lambda(p) = -8 pi - 4 pi A_p - 8 pi log pi - 8 pi log h(p)
    + (4 pi/|Sigma|) int G dv_g."""
    i, j = gd.p
    hp = float(spec.hweight.values[i, j])
    if hp <= 0.0:
        raise ValueError("weight h must be strictly positive")
    pi = np.pi
    return float(-8.0 * pi - 4.0 * pi * gd.A_p - 8.0 * pi * np.log(pi)
                 - 8.0 * pi * np.log(hp) + 4.0 * pi * gd.meanG / spec.grid.total_area)


def critical_value_map(spec: ProblemSpec, stride: int, backend: str = "spectral") -> dict:
    """Lambda(p) over every stride-th node; reports argmin and argmax."""
    n = spec.grid.n
    if stride <= 0 or n % stride != 0:
        raise ValueError(f"stride {stride} must divide n = {n}")
    values = [critical_value(solve_green((i, j), spec, backend=backend), spec)
              for i in range(0, n, stride) for j in range(0, n, stride)]
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
    }

