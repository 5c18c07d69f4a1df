"""Periodic grid on the flat torus [0,1)^2 with an optional conformal factor.

The metric is g = e^{2v} (dx^2 + dy^2) for a periodic exponent field v, so the
torus is globally isothermal and all calculus reduces to trigonometric
(spectral) operations on uniform grids.  Sign convention: the Laplacian is the
geometer's positive semi-definite one, Delta_g u = d* du = -e^{-2v} (u_xx + u_yy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Node-sampled periodic real field on an n x n torus grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"scalar field must be square 2-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("scalar field contains NaN or Inf")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __add__(self, other):
        return ScalarField(self.values + _vals(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.values - _vals(other))

    def __rsub__(self, other):
        return ScalarField(_vals(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.values * _vals(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.values / _vals(other))

    def __neg__(self):
        return ScalarField(-self.values)


def _vals(x):
    return x.values if isinstance(x, ScalarField) else x


@dataclass(frozen=True)
class OneForm:
    """Periodic 1-form c1 dx + c2 dy given by two component fields."""

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        if c1.shape != c2.shape or c1.ndim != 2 or c1.shape[0] != c1.shape[1]:
            raise ValueError(f"one-form components must be equal square 2-D, got {c1.shape}, {c2.shape}")
        if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
            raise ValueError("one-form contains NaN or Inf")
        object.__setattr__(self, "c1", _readonly(c1))
        object.__setattr__(self, "c2", _readonly(c2))

    @property
    def n(self) -> int:
        return self.c1.shape[0]

    def __add__(self, other):
        return OneForm(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return OneForm(self.c1 - other.c1, self.c2 - other.c2)

    def __mul__(self, a):
        return OneForm(self.c1 * _vals(a), self.c2 * _vals(a))

    __rmul__ = __mul__

    def __neg__(self):
        return OneForm(-self.c1, -self.c2)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on [0,1)^2 with metric g = e^{2v} (dx^2 + dy^2).

    Carries the per-node area element e^{2v} h^2, the total area, and the
    spectral wavenumber tables used by the differential operators.  Nyquist
    wavenumbers are zeroed so that first derivatives of real fields stay real
    and Delta_g = d* d holds exactly on the grid.
    """

    n: int
    h: float
    v: ScalarField
    area_element: np.ndarray      # e^{2v} h^2 per node
    total_area: float             # |Sigma|
    kx: np.ndarray                # (n, 1) derivative wavenumbers, Nyquist zeroed
    ky: np.ndarray                # (1, n//2+1) rfft layout, Nyquist zeroed
    k2: np.ndarray                # kx^2 + ky^2 in rfft layout
    x: np.ndarray                 # node coordinates along one axis

    @property
    def exp2v(self) -> np.ndarray:
        return self.area_element / self.h**2

    def node_coords(self, p) -> tuple[float, float]:
        i, j = p
        return self.x[i % self.n], self.x[j % self.n]


def build_grid(n: int, v=None) -> TorusGrid:
    """Build the periodic torus grid; n must be a power of two, n >= 16.

    v may be a ScalarField, an (n, n) array, a preset name handled by
    presets.make_v_field, or None for the flat torus.
    """
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    h = 1.0 / n
    x = np.arange(n) * h
    if v is None:
        vfield = ScalarField(np.zeros((n, n)))
    elif isinstance(v, str):
        from .presets import make_v_field

        vfield = make_v_field(v, n)
    elif isinstance(v, ScalarField):
        vfield = v
    else:
        vfield = ScalarField(np.asarray(v, dtype=float))
    if vfield.n != n:
        raise ValueError(f"conformal exponent has size {vfield.n}, expected {n}")

    area = np.exp(2.0 * vfield.values) * h**2
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kx[n // 2] = 0.0
    ky = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    ky[-1] = 0.0
    kx = kx[:, None]
    ky = ky[None, :]
    return TorusGrid(
        n=n,
        h=h,
        v=vfield,
        area_element=_readonly(area),
        total_area=float(area.sum()),
        kx=_readonly(kx),
        ky=_readonly(ky),
        k2=_readonly(kx**2 + ky**2),
        x=_readonly(x),
    )


def _check_shape(obj, grid: TorusGrid):
    if obj.n != grid.n:
        raise ValueError(f"field size {obj.n} does not match grid size {grid.n}")


# ---------------------------------------------------------------------------
# quadrature and inner products
# ---------------------------------------------------------------------------

def integrate(f: ScalarField, grid: TorusGrid) -> float:
    """Periodic trapezoid rule, spectrally accurate for smooth integrands."""
    _check_shape(f, grid)
    return float(np.sum(f.values * grid.area_element))


def l2_inner(f: ScalarField, g: ScalarField, grid: TorusGrid) -> float:
    _check_shape(f, grid)
    _check_shape(g, grid)
    return float(np.sum(f.values * g.values * grid.area_element))


def oneform_inner(a: OneForm, b: OneForm, grid: TorusGrid) -> float:
    """L2 pairing of 1-forms; the conformal factors of |.|^2_g and dv_g cancel."""
    _check_shape(a, grid)
    _check_shape(b, grid)
    return float(np.sum(a.c1 * b.c1 + a.c2 * b.c2) * grid.h**2)


def oneform_norm_field(a: OneForm, grid: TorusGrid) -> ScalarField:
    """Pointwise squared norm |a|^2_g = e^{-2v} (c1^2 + c2^2)."""
    _check_shape(a, grid)
    return ScalarField((a.c1**2 + a.c2**2) / grid.exp2v)


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def _dx(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.irfft2(1j * grid.kx * np.fft.rfft2(u), s=u.shape)


def _dy(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return np.fft.irfft2(1j * grid.ky * np.fft.rfft2(u), s=u.shape)


def exterior_derivative(u: ScalarField, grid: TorusGrid) -> OneForm:
    """du by trigonometric differentiation; exact on band-limited fields."""
    _check_shape(u, grid)
    uh = np.fft.rfft2(u.values)
    return OneForm(
        np.fft.irfft2(1j * grid.kx * uh, s=u.values.shape),
        np.fft.irfft2(1j * grid.ky * uh, s=u.values.shape),
    )


def codifferential(a: OneForm, grid: TorusGrid) -> ScalarField:
    """d* a = -e^{-2v} (d1 a1 + d2 a2) on the conformal torus."""
    _check_shape(a, grid)
    div = _dx(a.c1, grid) + _dy(a.c2, grid)
    return ScalarField(-div / grid.exp2v)


def laplacian(u: ScalarField, grid: TorusGrid) -> ScalarField:
    """Positive Laplacian Delta_g u = d* du = -e^{-2v} Delta_flat u."""
    _check_shape(u, grid)
    uh = np.fft.rfft2(u.values)
    flat = np.fft.irfft2(grid.k2 * uh, s=u.values.shape)
    return ScalarField(flat / grid.exp2v)


def curl(a: OneForm, grid: TorusGrid) -> ScalarField:
    """Scalar exterior derivative d(a) = d1 a2 - d2 a1 (flat components)."""
    _check_shape(a, grid)
    return ScalarField(_dx(a.c2, grid) - _dy(a.c1, grid))


def flat_laplacian_raw(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Positive flat Laplacian on a raw array (internal helper)."""
    return np.fft.irfft2(grid.k2 * np.fft.rfft2(u), s=u.shape)


def invert_flat_shifted(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(Delta_flat + 1)^{-1} u with the Nyquist row and column zeroed: the
    preconditioner of every spectral Krylov solve and of the eigen-solve
    (see drop_nyquist)."""
    uh = np.fft.rfft2(u)
    uh /= grid.k2 + 1.0
    uh[grid.n // 2, :] = 0.0
    uh[:, -1] = 0.0
    return np.fft.irfft2(uh, s=u.shape)


def drop_nyquist(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Remove the Nyquist row/column modes.

    The derivative wavenumbers are zeroed at Nyquist, so those modes carry no
    discrete Dirichlet energy; any optimization over fields must stay in this
    filtered subspace or the functional is unbounded below along them.
    """
    uh = np.fft.rfft2(u)
    uh[grid.n // 2, :] = 0.0
    uh[:, -1] = 0.0
    return np.fft.irfft2(uh, s=u.shape)


def solve_flat_poisson_raw(f: np.ndarray, grid: TorusGrid,
                           symbol: np.ndarray | None = None) -> np.ndarray:
    """Solve positive flat Laplacian w = f with zero-mean gauge.

    The flat mean of f must vanish; the mean component is simply dropped,
    which the callers guarantee by projection.  `symbol` replaces the
    spectral one (grid.k2) in rfft layout; its zero modes are dropped too.
    """
    sym = grid.k2 if symbol is None else symbol
    fh = np.fft.rfft2(f)
    ok = sym > 0.0
    wh = np.zeros_like(fh)
    wh[ok] = fh[ok] / sym[ok]
    return np.fft.irfft2(wh, s=f.shape)


# ---------------------------------------------------------------------------
# auxiliary constructions
# ---------------------------------------------------------------------------

def torus_distance(grid: TorusGrid, p) -> np.ndarray:
    """Euclidean distance to node p with the periodic minimum-image convention."""
    px, py = grid.node_coords(p)
    dx = np.abs(grid.x[:, None] - px)
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(grid.x[None, :] - py)
    dy = np.minimum(dy, 1.0 - dy)
    return np.hypot(dx, dy)


def random_band_limited(grid: TorusGrid, rng: np.random.Generator,
                        kmax: int = 6, amplitude: float = 1.0) -> ScalarField:
    """Random real field with Fourier support in |k_i| <= kmax, sup-norm ~ amplitude."""
    n = grid.n
    kmax = min(kmax, n // 2 - 1)
    coef = np.zeros((n, n), dtype=complex)
    box = rng.standard_normal((2 * kmax + 1, kmax + 1)) \
        + 1j * rng.standard_normal((2 * kmax + 1, kmax + 1))
    idx = np.r_[np.arange(0, kmax + 1), np.arange(n - kmax, n)]
    coef[np.ix_(idx, np.arange(kmax + 1))] = np.roll(box, -kmax, axis=0)
    coef[0, 0] = coef[0, 0].real
    u = np.fft.irfft2(coef[:, : n // 2 + 1], s=(n, n))
    m = np.max(np.abs(u))
    if m > 0:
        u *= amplitude / m
    return ScalarField(u)
