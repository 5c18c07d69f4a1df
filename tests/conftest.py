import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import bundlemf
from bundlemf import (
    OneForm,
    ProblemSpec,
    ScalarField,
    build_grid,
    exterior_derivative,
    make_connection,
)

# deterministic property tests: the same examples on every run (no replay of
# stored failures) and no timing deadline, which a loaded 2-core box would trip
settings.register_profile("bundlemf", derandomize=True, deadline=None,
                          max_examples=20, database=None)
settings.load_profile("bundlemf")


def axis(n):
    return np.arange(n) / n


def cos_x_field(n, amp=1.0):
    return ScalarField(amp * np.cos(2 * np.pi * axis(n))[:, None] * np.ones((1, n)))


def zero_form(n):
    z = np.zeros((n, n))
    return OneForm(z, z)


def zero_connection(grid):
    return make_connection(zero_form(grid.n), grid)


def df_connection(grid, amp=0.3):
    f = cos_x_field(grid.n, amp)
    return make_connection(exterior_derivative(f, grid), grid)


def harmonic_connection(grid, a=2 * np.pi, b=0.0):
    n = grid.n
    return make_connection(OneForm(np.full((n, n), a), np.full((n, n), b)), grid)


def ones_field(n):
    return ScalarField(np.ones((n, n)))


FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")


def drop_nyquist(u, grid):
    """u without its Nyquist row and column modes (2 FFTs): the subspace the
    solvers work in, where the discrete energy is definite."""
    return bundlemf.geometry.fourier_multiply(u, grid.mask)


def count_fft_calls(monkeypatch) -> list:
    """A list that records every numpy.fft call made from here on."""
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _fn=fn, **k: calls.append(_fn) or _fn(*a, **k))
    return calls


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call(); an untraced call first
    fills the caches it keeps (tau1's transform), so only its own arrays
    count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_pcg(monkeypatch, module) -> list:
    """A list of the PCGInfo of every pcg call made through `module`."""
    infos, pcg = [], module.pcg

    def spy(*args, **kwargs):
        x, info = pcg(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(module, "pcg", spy)
    return infos


def count_calls(monkeypatch, name, *modules) -> list:
    """A list that records every call of the function `name`, wrapped under
    that name in each of `modules`, which must all bind the same function."""
    calls, fn = [], getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64)


@pytest.fixture(scope="session")
def flat_problem64(grid64):
    conn = zero_connection(grid64)
    return ProblemSpec(conn, ones_field(64), 4 * np.pi)


@pytest.fixture(scope="session")
def df_problem64(grid64):
    conn = df_connection(grid64)
    return ProblemSpec(conn, ones_field(64), 4 * np.pi)


def fresh_python(*args, timeout=120):
    """`python *args` in a new interpreter that imports this bundlemf."""
    src = str(Path(bundlemf.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          timeout=timeout)
