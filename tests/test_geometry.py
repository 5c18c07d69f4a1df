import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bundlemf
from bundlemf import (
    OneForm,
    ScalarField,
    build_grid,
    codifferential,
    exterior_derivative,
    integrate,
    l2_inner,
    laplacian,
    oneform_inner,
)
from bundlemf import bundle, cli, functional, geometry, green, presets, sweep, testfunctions
from bundlemf.geometry import (
    _rfft2,
    flat_laplacian_raw,
    low_modes,
    oneform_calculus,
    random_band_limited,
    set_window,
    torus_box,
    torus_distance,
    window,
)

from conftest import axis, cos_x_field, count_fft_calls, fresh_python


def gauss_integral_exp2v(amp, panels=64, order=20):
    # composite Gauss-Legendre oracle for int_0^1 exp(2 amp cos(2 pi x)) dx
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for i in range(panels):
        a, b = i / panels, (i + 1) / panels
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(weights * np.exp(2 * amp * np.cos(2 * np.pi * x)))
    return total


class TestBuildGrid:
    def test_flat_unit_torus(self):
        g = build_grid(64)
        assert g.total_area == pytest.approx(1.0, abs=1e-14)
        assert g.h == pytest.approx(1 / 64)

    def test_constant_conformal_factor(self):
        c = 0.37
        g = build_grid(64, ScalarField(np.full((64, 64), c)))
        assert g.total_area == pytest.approx(np.exp(2 * c), rel=1e-14)

    def test_area_matches_gauss_quadrature(self):
        g = build_grid(128, cos_x_field(128, 0.1))
        oracle = gauss_integral_exp2v(0.1)
        assert abs(g.total_area - oracle) < 1e-10

    @pytest.mark.parametrize("n", [48, 8, 15])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            build_grid(n)

    def test_rejects_nan_conformal_factor(self):
        v = np.zeros((32, 32))
        v[3, 4] = np.nan
        with pytest.raises(ValueError):
            build_grid(32, v)


class TestFieldTypes:
    def test_scalar_rejects_nonfinite(self):
        bad = np.zeros((32, 32))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ScalarField(bad)

    def test_oneform_rejects_nonfinite(self):
        a = np.zeros((32, 32))
        b = a.copy()
        b[1, 1] = np.nan
        with pytest.raises(ValueError):
            OneForm(a, b)

    def test_values_are_readonly(self):
        u = ScalarField(np.zeros((32, 32)))
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0

    def test_fresh_array_is_wrapped_without_copy(self):
        a = np.zeros((32, 32))
        u = ScalarField(a)
        assert np.shares_memory(a, u.values)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        c1, c2 = np.zeros((32, 32)), np.ones((32, 32))
        w = OneForm(c1, c2)
        assert np.shares_memory(c1, w.c1) and np.shares_memory(c2, w.c2)
        with pytest.raises(ValueError):
            c2[0, 0] = 0.0

    def test_views_and_other_dtypes_are_copied(self):
        base = np.zeros((32, 64))
        view = base[:, :32]
        ints = np.zeros((32, 32), dtype=int)
        for a in (view, ints, np.asfortranarray(np.zeros((32, 32)))):
            u = ScalarField(a)
            assert not np.shares_memory(a, u.values) and u.values.dtype == np.float64
            assert a.flags.writeable and not u.values.flags.writeable


class TestIntegrate:
    def test_constant(self, grid64):
        assert integrate(ScalarField(np.ones((64, 64))), grid64) == pytest.approx(1.0)

    def test_sin_squared(self, grid64):
        x = axis(64)
        f = ScalarField((np.sin(2 * np.pi * x) ** 2)[:, None] * np.ones((1, 64)))
        assert abs(integrate(f, grid64) - 0.5) < 1e-12

    def test_band_limited_vs_refined_oracle(self):
        # explicit trig field so it can be sampled on the 4x refined grid
        rng = np.random.default_rng(7)
        modes = [(rng.integers(1, 5), rng.integers(0, 5), rng.normal(), rng.uniform(0, 2 * np.pi))
                 for _ in range(6)]
        amp_v = 0.1

        def sample(n):
            x = axis(n)
            X, Y = np.meshgrid(x, x, indexing="ij")
            f = np.zeros((n, n))
            for a, b, c, ph in modes:
                f += c * np.cos(2 * np.pi * (a * X + b * Y) + ph)
            return f

        n = 64
        g = build_grid(n, cos_x_field(n, amp_v))
        val = integrate(ScalarField(sample(n)), g)
        n4 = 4 * n
        g4 = build_grid(n4, cos_x_field(n4, amp_v))
        oracle = integrate(ScalarField(sample(n4)), g4)
        assert abs(val - oracle) < 1e-10

    def test_shape_mismatch(self, grid64):
        with pytest.raises(ValueError):
            integrate(ScalarField(np.zeros((32, 32))), grid64)


class TestForwardTransform:
    @given(n=st.sampled_from([16, 32, 64, 128]), seed=st.integers(0, 2**32 - 1))
    def test_bits_of_numpy_rfft2(self, n, seed):
        """The one-buffer transform is numpy's rfft2, bit for bit."""
        u = np.random.default_rng(seed).standard_normal((n, n))
        ours, ref = _rfft2(u), np.fft.rfft2(u)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


    @pytest.mark.parametrize("n, m", [(16, 12), (16, 6), (64, 6)])
    def test_window_is_the_fft2_window(self, n, m):
        """low_modes and window give fft2(u)[k mod n] on |k_x|, |k_y| <= m,
        also past the rfft2 columns (m = 12 > n/2 = 8 wraps), and
        set_window writes the k_y >= 0 half back where window read it."""
        u = np.random.default_rng(n + m).standard_normal((n, n))
        k = np.arange(-m, m + 1) % n
        want = np.fft.fft2(u)[np.ix_(k, k)]
        assert np.allclose(low_modes(u, m), want, rtol=0, atol=1e-12 * n * n)
        if 2 * m < n:
            U = np.fft.rfft2(u)
            V = np.zeros_like(U)
            set_window(V, window(U, m)[:, m:], m)
            assert np.array_equal(window(V, m), window(U, m))


class TestExteriorDerivative:
    def test_constant_gives_zero(self, grid64):
        du = exterior_derivative(ScalarField(np.full((64, 64), 3.2)), grid64)
        assert np.max(np.abs(du.c1)) < 1e-12
        assert np.max(np.abs(du.c2)) < 1e-12

    def test_sin_mode(self, grid64):
        x = axis(64)
        u = ScalarField(np.sin(2 * np.pi * x)[:, None] * np.ones((1, 64)))
        du = exterior_derivative(u, grid64)
        assert np.max(np.abs(du.c1 - 2 * np.pi * np.cos(2 * np.pi * x)[:, None])) < 1e-11
        assert np.max(np.abs(du.c2)) < 1e-12

    def test_against_fd4_oracle(self):
        # 4th-order centered differences on a smooth (non-band-limited) field
        def fd4(u, h, ax):
            return (-np.roll(u, -2, ax) + 8 * np.roll(u, -1, ax)
                    - 8 * np.roll(u, 1, ax) + np.roll(u, 2, ax)) / (12 * h)

        errs = []
        for n in (64, 128):
            g = build_grid(n)
            x = axis(n)
            X, Y = np.meshgrid(x, x, indexing="ij")
            u = np.exp(np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
            du = exterior_derivative(ScalarField(u), g)
            err = max(np.max(np.abs(du.c1 - fd4(u, g.h, 0))),
                      np.max(np.abs(du.c2 - fd4(u, g.h, 1))))
            errs.append(err)
        assert errs[0] < 1e-2
        assert errs[0] / errs[1] > 12  # ~16 for O(h^4)


class TestCodifferential:
    def test_zero_form(self, grid64):
        z = np.zeros((64, 64))
        assert np.max(np.abs(codifferential(OneForm(z, z), grid64).values)) == 0.0

    def test_dstar_d_equals_laplacian(self, grid64):
        rng = np.random.default_rng(3)
        u = random_band_limited(grid64, rng)
        lhs = codifferential(exterior_derivative(u, grid64), grid64)
        rhs = laplacian(u, grid64)
        scale = max(1.0, np.max(np.abs(rhs.values)))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * scale

    def test_constant_form_coclosed(self, grid64):
        c = np.full((64, 64), 1.7)
        z = np.zeros((64, 64))
        assert np.max(np.abs(codifferential(OneForm(c, z), grid64).values)) < 1e-12


class TestOneFormCalculus:
    def test_parts_and_fft_budget(self, monkeypatch, grid64):
        """w = df + (-g_y, g_x) + a dx + b dy has curl Delta_classic g,
        divergence Delta_classic f and primitive f - mean f; the transforms
        of w cost 2 FFTs and each part one more, paid only when asked for."""
        rng = np.random.default_rng(11)
        f, g = (random_band_limited(grid64, rng).values for _ in range(2))
        df = exterior_derivative(ScalarField(f), grid64)
        dg = exterior_derivative(ScalarField(g), grid64)
        w = OneForm(df.c1 - dg.c2 + 0.7, df.c2 + dg.c1 - 1.3)
        expected = (-flat_laplacian_raw(g, grid64), -flat_laplacian_raw(f, grid64),
                    f - f.mean())
        calls = count_fft_calls(monkeypatch)
        for k, (part, ref) in enumerate(zip(oneform_calculus(w, grid64), expected)):
            assert len(calls) == 3 + k
            assert np.max(np.abs(part - ref)) <= 1e-11 * np.max(np.abs(ref))


class TestLaplacian:
    def test_eigenfunction_positive_convention(self, grid64):
        x = axis(64)
        u = ScalarField(np.sin(2 * np.pi * x)[:, None] * np.ones((1, 64)))
        lap = laplacian(u, grid64)
        assert np.max(np.abs(lap.values - 4 * np.pi**2 * u.values)) < 1e-10

    def test_constant_gives_zero(self, grid64):
        lap = laplacian(ScalarField(np.full((64, 64), 2.0)), grid64)
        assert np.max(np.abs(lap.values)) < 1e-12

    def test_conformal_formula(self):
        n = 64
        g = build_grid(n, cos_x_field(n, 0.2))
        rng = np.random.default_rng(11)
        u = random_band_limited(g, rng)
        flat = np.fft.irfft2(g.k2 * np.fft.rfft2(u.values), s=(n, n))
        expected = flat / np.exp(2 * g.v.values)
        assert np.max(np.abs(laplacian(u, g).values - expected)) < 1e-12


class TestTorusBox:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_distance_is_torus_distance_on_the_box(self, n):
        """Bit for bit, at the origin, on the edges and at the wrap nodes,
        and the same array for every p."""
        g = build_grid(n)
        ps = [(0, 0), (0, n // 2), (n - 1, 3), (5, n - 1), (n // 2, n // 2),
              (n - 2, n - 3), (17, 1)]
        _, r0 = torus_box(g, ps[0], 0.25)
        assert r0.shape == (n // 2 + 1, n // 2 + 1)
        for p in ps:
            box, r = torus_box(g, p, 0.25)
            d = torus_distance(g, p)
            assert np.array_equal(r, d[box])
            assert np.array_equal(r, r0)
            assert r[n // 4, n // 4] == 0.0     # p at the centre

    @pytest.mark.parametrize("n", [64, 256])
    def test_distance_exceeds_radius_off_the_box(self, n):
        g = build_grid(n)
        for p in [(0, 0), (n - 1, 7), (n // 2, 1)]:
            box, _ = torus_box(g, p, 0.25)
            off = np.ones((n, n), dtype=bool)
            off[box] = False
            assert np.all(torus_distance(g, p)[off] > 0.25)

    @pytest.mark.parametrize("radius", [0.5, 0.6, 2.0])
    def test_large_radius_is_the_whole_torus_once(self, radius):
        n = 64
        g = build_grid(n)
        box, r = torus_box(g, (3, n - 2), radius)
        rows, cols = box
        assert r.shape == (n, n)
        assert sorted(rows.ravel()) == list(range(n))
        assert sorted(cols.ravel()) == list(range(n))
        assert np.array_equal(r, torus_distance(g, (3, n - 2))[box])


class TestInvariants:
    @pytest.mark.parametrize("amp_v", [0.0, 0.15])
    def test_adjointness(self, amp_v):
        n = 64
        g = build_grid(n, cos_x_field(n, amp_v))
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_band_limited(g, rng)
            w = random_band_limited(g, rng)
            lhs = l2_inner(laplacian(u, g), w, g)
            rhs = oneform_inner(exterior_derivative(u, g),
                                exterior_derivative(w, g), g)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_laplacian_integrates_to_zero(self):
        n = 64
        g = build_grid(n, cos_x_field(n, 0.1))
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = random_band_limited(g, rng, amplitude=3.0)
            assert abs(integrate(laplacian(u, g), g)) < 1e-10

    def test_shift_equivariance(self, grid64):
        rng = np.random.default_rng(13)
        u = random_band_limited(grid64, rng)
        shifted = ScalarField(np.roll(u.values, 1, axis=0))
        for op in (lambda f: laplacian(f, grid64).values,
                   lambda f: exterior_derivative(f, grid64).c1,
                   lambda f: exterior_derivative(f, grid64).c2):
            assert np.max(np.abs(op(shifted) - np.roll(op(u), 1, axis=0))) < 1e-11


def fft_uses(tree: ast.Module):
    """(top-level definition or None, line) of every reference to an FFT
    module: an attribute named fft, or an import of one."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                hit = True
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                hit = mod.endswith(".fft") or any(a.name == "fft" for a in node.names)
            elif isinstance(node, ast.Import):
                hit = any(a.name.endswith(".fft") for a in node.names)
            else:
                hit = False
            if hit:
                yield owner, node.lineno


def imported_names(tree: ast.Module):
    """(dotted name, line) of every import anywhere in tree, nested ones too:
    `from m import a` yields m.a, and relative imports resolve against the
    bundlemf package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                mod = "bundlemf." + mod if mod else "bundlemf"
            for alias in node.names:
                yield f"{mod}.{alias.name}", node.lineno


def read_names(tree: ast.Module):
    """Every name tree reads, bare or as an attribute; not the names its
    imports, defs and assignments bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def package_sources():
    return sorted(Path(bundlemf.__file__).parent.glob("*.py"))


def printed_by(code: str) -> str:
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLayering:
    def test_only_geometry_calls_fft(self):
        """geometry alone knows the rfft2 layout and the Nyquist mask; the one
        exception is sweep.window_profile, which evaluates the full-FFT
        trigonometric interpolant at off-grid points."""
        allowed = {("sweep", "window_profile")}
        offenders = []
        for path in package_sources():
            if path.stem == "geometry":
                continue
            for owner, line in fft_uses(ast.parse(path.read_text())):
                if (path.stem, owner) not in allowed:
                    offenders.append(f"{path.name}:{line} ({owner})")
        assert not offenders, "FFT outside geometry: " + ", ".join(offenders)

    def test_fft_uses_finds_each_form(self):
        src = ("import numpy.fft\nfrom numpy import fft\nfrom scipy.fft import rfft2\n"
               "def f(u):\n    return np.fft.rfft2(u)\n")
        assert list(fft_uses(ast.parse(src))) == [(None, 1), (None, 2), (None, 3), ("f", 5)]

    def test_geometry_imports_no_package_module(self):
        """geometry is the bottom layer: it imports nothing from bundlemf."""
        tree = ast.parse((Path(bundlemf.__file__).parent / "geometry.py").read_text())
        upward = [f"{name} (line {line})" for name, line in imported_names(tree)
                  if name == "bundlemf" or name.startswith("bundlemf.")]
        assert not upward, "geometry imports " + ", ".join(upward)

    def test_no_module_imports_scipy(self):
        """The runtime is numpy-only; scipy is a test dependency."""
        offenders = [f"{path.name}:{line} ({name})"
                     for path in package_sources()
                     for name, line in imported_names(ast.parse(path.read_text()))
                     if name == "scipy" or name.startswith("scipy.")]
        assert not offenders, "scipy imported: " + ", ".join(offenders)

    def test_import_loads_no_scipy(self):
        """A fresh `import bundlemf, bundlemf.cli` leaves scipy out of sys.modules."""
        loaded = printed_by(
            "import sys, bundlemf, bundlemf.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        assert loaded == "[]"

    def test_solve_imports_nothing(self):
        """After the import and the problem build, a timed solve (here the
        eigen-solve at n = 32) loads no module lazily."""
        added = printed_by(
            "import sys, bundlemf, bundlemf.cli\n"
            "spec = bundlemf.cli.build_problem(bundlemf.cli.load_config(None, {'n': 32}))\n"
            "before = set(sys.modules)\n"
            "bundlemf.bundle.poincare_constant(spec.conn, spec.grid)\n"
            "print(sorted(set(sys.modules) - before))")
        assert added == "[]"

    def test_imported_names_finds_each_form(self):
        src = ("import scipy\nfrom scipy.integrate import quad\nfrom . import presets\n"
               "def f():\n    from .presets import make_v_field\n")
        assert list(imported_names(ast.parse(src))) == [
            ("scipy", 1), ("scipy.integrate.quad", 2), ("bundlemf.presets", 3),
            ("bundlemf.presets.make_v_field", 5)]

    def test_public_functions_have_a_caller(self):
        """Every public function of the eight modules is read somewhere in
        the package or exported in bundlemf.__all__: a helper that only
        tests use lives in the tests."""
        read = {name for path in package_sources()
                for name in read_names(ast.parse(path.read_text()))}
        modules = (bundle, cli, functional, geometry, green, presets, sweep, testfunctions)
        idle = [f"{module.__name__}.{name}" for module in modules
                for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")
                and name not in read and name not in bundlemf.__all__]
        assert not idle, "no caller in the package: " + ", ".join(idle)

    def test_one_krylov_routine(self):
        """pcg is read only in bundle (the Poisson solve, which both Green
        backends call) and in functional (the Newton step)."""
        readers = {path.stem for path in package_sources()
                   if "pcg" in set(read_names(ast.parse(path.read_text())))}
        assert readers <= {"bundle", "functional"}, f"pcg read in {sorted(readers)}"

    def test_only_bundle_builds_the_kernel(self):
        """make_connection alone constructs a KernelBasis, so the kernel has
        one owner, the connection."""
        builders = {(path.stem, getattr(top, "name", None))
                    for path in package_sources()
                    for top in ast.parse(path.read_text()).body
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call) and "KernelBasis" in read_names(node.func)}
        assert builders == {("bundle", "make_connection")}

    def test_only_bundle_builds_the_connection(self):
        """make_connection alone constructs a Connection, so every connection
        carries the grid its potential and kernel were computed on."""
        builders = {(path.stem, getattr(top, "name", None))
                    for path in package_sources()
                    for top in ast.parse(path.read_text()).body
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call) and "Connection" in read_names(node.func)}
        assert builders == {("bundle", "make_connection")}

    def test_read_names_finds_each_form(self):
        src = ("from .geometry import curl\nimport numpy as np\n"
               "def f(u):\n    y = g(u)\n    return np.fft.rfft2(y)\n")
        assert set(read_names(ast.parse(src))) == {"g", "u", "y", "np", "fft", "rfft2"}
