"""Periodic grid on the flat torus [0,1)^2 with an optional conformal factor.

The metric is g = e^{2v} (dx^2 + dy^2) for a periodic exponent field v, so the
torus is globally isothermal and all calculus reduces to trigonometric
(spectral) operations on uniform grids.  Sign convention: the Laplacian is the
geometer's positive semi-definite one, Delta_g u = d* du = -e^{-2v} (u_xx + u_yy).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    """a itself when it owns C-contiguous float64 data, else a float copy;
    marked read-only either way, so a wrapped array is not held twice and a
    later write through the caller's reference raises."""
    if not (a.dtype == np.float64 and a.flags.owndata and a.flags.c_contiguous):
        a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Node-sampled periodic real field on an n x n torus grid.

    A validated, read-only container: arithmetic is done on `.values`."""

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


@dataclass(frozen=True)
class OneForm:
    """Periodic 1-form c1 dx + c2 dy given by two component fields (a
    validated, read-only container, like ScalarField)."""

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
    mask: np.ndarray              # 0 on the Nyquist row and column, else 1
    shifted_inverse: np.ndarray   # mask / (k2 + 1): the Nyquist-free (Delta_flat + 1)^{-1}
    x: np.ndarray                 # node coordinates along one axis

    @property
    def exp2v(self) -> np.ndarray:
        return self.area_element / self.h**2

    def node_coords(self, p) -> tuple[float, float]:
        i, j = p
        return self.x[i % self.n], self.x[j % self.n]

    @cached_property
    def five_point(self) -> TorusGrid:
        """The 5-point twin, built once per grid: the same nodes and metric,
        with k2 the symbol of the positive 5-point Laplacian
        (4 u - neighbours) / h^2, no mask (that symbol is positive on the
        Nyquist modes) and shifted_inverse = 1 / (k2 + 1); kx and ky stay
        the spectral ones."""
        j = np.fft.fftfreq(self.n) * self.n
        lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * j / self.n)) / self.h**2
        k2 = lam[:, None] + lam[None, : self.n // 2 + 1]
        return replace(self, k2=_readonly(k2), mask=_readonly(np.ones_like(k2)),
                       shifted_inverse=_readonly(1.0 / (k2 + 1.0)))

    @property
    def inner(self):
        """Parseval's inner product on this grid's rfft2 coefficients,
        spectral_inner; on a masked grid, whose coefficients have a zero
        Nyquist column, without that column's vdot, bit for bit the same."""
        return spectral_inner if self.mask[0, -1] else _nyquist_free_inner


def build_grid(n: int, v=None) -> TorusGrid:
    """Build the periodic torus grid; n must be a power of two, n >= 16.

    v may be a ScalarField, an (n, n) array, or None for the flat torus.
    """
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    h = 1.0 / n
    x = np.arange(n) * h
    if v is None:
        vfield = ScalarField(np.zeros((n, n)))
    elif isinstance(v, ScalarField):
        vfield = v
    else:
        vfield = ScalarField(np.asarray(v, dtype=float))
    if vfield.n != n:
        raise ValueError(f"conformal exponent has size {vfield.n}, expected {n}")

    area = np.exp(2.0 * vfield.values) * h**2
    nyq = n // 2                  # Nyquist row, and the last rfft column
    mask = np.outer(np.arange(n) != nyq, np.arange(nyq + 1) != nyq).astype(float)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=h)[:, None] * mask[:, :1]
    ky = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)[None, :] * mask[:1, :]
    k2 = kx**2 + ky**2
    return TorusGrid(
        n=n,
        h=h,
        v=vfield,
        area_element=_readonly(area),
        total_area=float(area.sum()),
        kx=_readonly(kx),
        ky=_readonly(ky),
        k2=_readonly(k2),
        mask=_readonly(mask),
        shifted_inverse=_readonly(mask / (k2 + 1.0)),
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


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def _rfft2(u: np.ndarray) -> np.ndarray:
    """np.fft.rfft2 of a real array, bit for bit, with both 1-D passes
    writing into one buffer (the plain call allocates one per pass)."""
    out = np.empty((u.shape[0], u.shape[1] // 2 + 1), dtype=complex)
    return np.fft.rfft2(u, out=out)


def fourier_multiply(u: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The Fourier multiplier `symbol`, an array in the rfft2 layout of
    TorusGrid.k2, applied to a real array: one FFT pair, multiplied in place."""
    uh = _rfft2(u)
    uh *= symbol
    return np.fft.irfft2(uh, s=u.shape)


def pseudo_inverse(symbol: np.ndarray) -> np.ndarray:
    """1 / symbol where it is positive, 0 on its zero modes."""
    return np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0.0)


def partial_derivatives(u: np.ndarray, grid: TorusGrid):
    """u_x, then u_y, of a raw array (3 FFTs), yielded one at a time so a
    caller need not hold both; the transform of u goes before the second."""
    uh = _rfft2(u)
    yield np.fft.irfft2(1j * grid.kx * uh, s=u.shape)
    yield np.fft.irfft2(np.multiply(1j * grid.ky, uh, out=uh), s=u.shape)


def exterior_derivative(u: ScalarField, grid: TorusGrid) -> OneForm:
    """du by trigonometric differentiation; exact on band-limited fields."""
    _check_shape(u, grid)
    return OneForm(*partial_derivatives(u.values, grid))


def oneform_calculus(a: OneForm, grid: TorusGrid):
    """The curl d1 a2 - d2 a1, the flat divergence d1 a1 + d2 a2 and the
    zero-mean primitive f = -Delta_flat^+ div (df = a when a is exact), in
    that order, each only when asked for: 2 FFTs for the transforms of a,
    then one inverse FFT each.  Beside the two transforms it keeps no
    spectrum: the divergence's, then the primitive's, are formed in them."""
    _check_shape(a, grid)
    A1, A2 = _rfft2(a.c1), _rfft2(a.c2)
    yield np.fft.irfft2(1j * grid.kx * A2 - 1j * grid.ky * A1, s=a.c1.shape)
    A1 *= 1j * grid.kx
    A1 += np.multiply(A2, 1j * grid.ky, out=A2)
    del A2
    yield np.fft.irfft2(A1, s=a.c1.shape)
    A1 *= pseudo_inverse(grid.k2)
    yield np.fft.irfft2(np.negative(A1, out=A1), s=a.c1.shape)


def codifferential(a: OneForm, grid: TorusGrid) -> ScalarField:
    """d* a = -e^{-2v} (d1 a1 + d2 a2) on the conformal torus."""
    _check_shape(a, grid)
    div = fourier_multiply(a.c1, 1j * grid.kx) + fourier_multiply(a.c2, 1j * grid.ky)
    return ScalarField(-div / grid.exp2v)


def laplacian(u: ScalarField, grid: TorusGrid) -> ScalarField:
    """Positive Laplacian Delta_g u = d* du = -e^{-2v} Delta_flat u."""
    _check_shape(u, grid)
    return ScalarField(flat_laplacian_raw(u.values, grid) / grid.exp2v)


def flat_laplacian_raw(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Positive flat Laplacian on a raw array (internal helper)."""
    return fourier_multiply(u, grid.k2)


def spectral_laplacian_plus(P: np.ndarray, V: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The Nyquist-free rfft2 coefficients of Delta_flat p + e^{2v} V p, p
    the real array with Nyquist-free coefficients P: the flat-self-adjoint
    form e^{2v} (Delta_g + V) of the bundle Laplacian, one FFT pair, with the
    Nyquist mask folded into the symbol.  e^{2v} h^2 V (grid.area_element
    and V) multiplies in place and 1/h^2 = n^2, a power of two and so exact,
    scales the spectral result: grid.exp2v would allocate a field per call,
    and the memory peak of a Green solve is in this apply."""
    q = np.fft.irfft2(P, s=(grid.n, grid.n))
    q *= grid.area_element
    q *= V
    sh = _rfft2(q)
    del q
    sh *= grid.n**2
    sh += grid.k2 * P
    sh *= grid.mask
    return sh


def to_spectral(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The masked transform: Nyquist-free rfft2 coefficients of a real array."""
    uh = _rfft2(u)
    uh *= grid.mask
    return uh


def from_spectral(uh: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The real array with rfft2 coefficients uh."""
    return np.fft.irfft2(uh, s=(grid.n, grid.n))


def window(U: np.ndarray, m: int) -> np.ndarray:
    """The fft2 coefficients on the window |k_x|, |k_y| <= m of the real
    n x n array with rfft2 coefficients U: a (2m+1, 2m+1) array indexed by
    k + m.  Wavenumbers wrap mod n, and a k_y past the rfft2 columns is read
    at -k and conjugated (the array is real)."""
    n = U.shape[0]
    k = np.arange(-m, m + 1) % n
    kx, ky = np.broadcast_arrays(k[:, None], k[None, :])
    flip = ky > n // 2
    W = U[np.where(flip, -kx % n, kx), np.where(flip, n - ky, ky)]
    return np.where(flip, W.conj(), W)


def set_window(U: np.ndarray, Z: np.ndarray, m: int) -> None:
    """Write Z, the k_y >= 0 half (the last m + 1 columns) of a `window`
    with m < n/2, into the rfft2 coefficients U, in place."""
    U[np.arange(-m, m + 1) % U.shape[0], : m + 1] = Z


def low_modes(u: np.ndarray, m: int) -> np.ndarray:
    """The `window` of the real array u's fft2 coefficients, from one rfft2."""
    return window(_rfft2(u), m)


def spectral_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Parseval on the rfft2 layout: n^2 times the Euclidean inner product of
    the real arrays with rfft2 coefficients a and b (weight 1 on column 0
    and on the last, Nyquist, column, 2 on the inner columns)."""
    return _nyquist_free_inner(a, b) - float(np.vdot(a[:, -1], b[:, -1]).real)


def _nyquist_free_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(2.0 * np.vdot(a, b).real - np.vdot(a[:, 0], b[:, 0]).real)


# ---------------------------------------------------------------------------
# auxiliary constructions
# ---------------------------------------------------------------------------

def _wrapped(x: np.ndarray, c: float) -> np.ndarray:
    """|x - c| with the periodic minimum-image convention on [0, 1)."""
    d = np.abs(x - c)
    return np.minimum(d, 1.0 - d)


def torus_distance(grid: TorusGrid, p) -> np.ndarray:
    """Euclidean distance to node p with the periodic minimum-image convention."""
    px, py = grid.node_coords(p)
    return np.hypot(_wrapped(grid.x, px)[:, None], _wrapped(grid.x, py)[None, :])


def torus_box(grid: TorusGrid, p, radius: float):
    """The nodes within `radius` of node p in each coordinate, as an np.ix_
    index with p at its centre (m, m), m = side // 2, and torus_distance on
    them, bit for bit.  As n is a power of two the distance depends on the
    offsets from p alone, so it is the same array for every p.  Once
    ceil(radius n) >= n/2 the box is the whole torus, rolled: n indices per
    axis, each once."""
    n = grid.n
    m = int(np.ceil(radius * n))
    offsets = np.arange(-(n // 2), n // 2) if 2 * m >= n else np.arange(-m, m + 1)
    i, j = int(p[0]) % n, int(p[1]) % n
    rows, cols = (i + offsets) % n, (j + offsets) % n
    r = np.hypot(_wrapped(grid.x[rows], grid.x[i])[:, None],
                 _wrapped(grid.x[cols], grid.x[j])[None, :])
    return np.ix_(rows, cols), r


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
