"""Named presets for the conformal factor, connection and weight, plus field I/O.

Preset grammar (all case-sensitive):
  v:          "zero" | "cos-x[:amp]" | "custom-file:<path>"
  connection: "zero" | "harmonic:a,b" | "exact:cos-x:amp" | "file:<path>"
  h weight:   "one" | "exp-cos:amp" | "file:<path>"

Fields serialize to CSV (row-major, two header lines "n,v-preset" / values) and
to a small JSON descriptor pointing at the CSV.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .geometry import OneForm, ScalarField, TorusGrid, exterior_derivative


def _cos_x(amp: float, n: int) -> np.ndarray:
    """amp cos(2 pi x) at the grid nodes, as an (n, 1) column."""
    return amp * np.cos(2.0 * np.pi * (np.arange(n) / n))[:, None]


def _number(preset: str, text: str) -> float:
    """The finite float `text` read from `preset`; a ValueError naming the
    preset otherwise."""
    try:
        x = float(text)
    except ValueError:
        x = np.nan
    if not np.isfinite(x):
        raise ValueError(f"preset {preset!r}: {text!r} is not a finite number")
    return x


def make_v_field(preset: str, n: int) -> ScalarField:
    if preset == "zero":
        return ScalarField(np.zeros((n, n)))
    if preset == "cos-x" or preset.startswith("cos-x:"):
        amp = 0.1 if preset == "cos-x" else _number(preset, preset.split(":", 1)[1])
        return ScalarField(_cos_x(amp, n) * np.ones((1, n)))
    if preset.startswith("custom-file:"):
        return load_scalar_csv(preset.split(":", 1)[1], expected_n=n)
    raise ValueError(f"unknown v preset {preset!r}")


def make_connection_form(preset: str, grid: TorusGrid) -> OneForm:
    n = grid.n
    if preset == "zero":
        z = np.zeros((n, n))
        return OneForm(z, z)
    if preset.startswith("harmonic:"):
        ab = preset.split(":", 1)[1].split(",")
        if len(ab) != 2:
            raise ValueError(f"preset {preset!r}: expected 'harmonic:a,b'")
        a, b = (_number(preset, t) for t in ab)
        return OneForm(np.full((n, n), a), np.full((n, n), b))
    if preset.startswith("exact:cos-x:"):
        amp = _number(preset, preset.split(":", 2)[2])
        return exterior_derivative(ScalarField(_cos_x(amp, n) * np.ones((1, n))), grid)
    if preset.startswith("file:"):
        return load_oneform_csv(preset.split(":", 1)[1], expected_n=n)
    raise ValueError(f"unknown connection preset {preset!r}")


def make_h_field(preset: str, n: int) -> ScalarField:
    if preset == "one":
        return ScalarField(np.ones((n, n)))
    if preset.startswith("exp-cos:"):
        amp = _number(preset, preset.split(":", 1)[1])
        return ScalarField(np.exp(_cos_x(amp, n)) * np.ones((1, n)))
    if preset.startswith("file:"):
        h = load_scalar_csv(preset.split(":", 1)[1], expected_n=n)
        if h.values.min() <= 0.0:
            raise ValueError("h preset must yield a strictly positive field")
        return h
    raise ValueError(f"unknown h preset {preset!r}")


# ---------------------------------------------------------------------------
# CSV / JSON field serialization
# ---------------------------------------------------------------------------

def _save_csv(path: str, n: int, v_preset: str, payload: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"n,v-preset\n{n},{v_preset}\n")
        np.savetxt(fh, payload, delimiter=",", fmt="%.17g")


def _load_csv(path: str, components: int, kind: str, expected_n: int | None) -> np.ndarray:
    """Payload of a field CSV: `components` n x n blocks stacked by rows."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,v-preset":
            raise ValueError(f"{path}: expected header 'n,v-preset', got {header!r}")
        try:
            n = int(fh.readline().split(",")[0])
            vals = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if vals.shape != (components * n, n):
        raise ValueError(f"{path}: payload shape {vals.shape} does not match n={n}")
    if expected_n is not None and n != expected_n:
        raise ValueError(f"{path}: {kind} size {n} does not match grid size {expected_n}")
    return vals


def save_scalar_csv(field: ScalarField, path: str, v_preset: str = "zero") -> None:
    _save_csv(path, field.n, v_preset, field.values)


def load_scalar_csv(path: str, expected_n: int | None = None) -> ScalarField:
    return ScalarField(_load_csv(path, 1, "field", expected_n))


def save_oneform_csv(form: OneForm, path: str, v_preset: str = "zero") -> None:
    _save_csv(path, form.n, v_preset, np.vstack([form.c1, form.c2]))


def load_oneform_csv(path: str, expected_n: int | None = None) -> OneForm:
    return OneForm(*np.split(_load_csv(path, 2, "form", expected_n), 2))


def save_field_json(path_json: str, path_csv: str, kind: str, n: int, v_preset: str) -> None:
    desc = {"kind": kind, "n": n, "v_preset": v_preset, "csv": os.path.basename(path_csv)}
    with open(path_json, "w") as fh:
        json.dump(desc, fh, indent=2, sort_keys=True)
        fh.write("\n")
