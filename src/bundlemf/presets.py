"""Named presets for the conformal factor, connection and weight, plus field I/O.

Preset grammar (all case-sensitive):
  v:          "zero" | "cos-x[:amp]" | "custom-file:<path>"
  connection: "zero" | "harmonic:a,b" | "exact:cos-x:amp" | "file:<path>"
  h weight:   "one" | "exp-cos:amp" | "file:<path>"

Fields are .npy files (NumPy's format, NEP 1) of float64: (n, n) for a scalar
field, (2, n, n), c1 then c2, for a one-form.  A written field has a small
JSON sidecar with its kind, n and v-preset and the name of its .npy file.  The
file presets read the same format, so a saved field reads back bit for bit.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .geometry import OneForm, ScalarField, TorusGrid


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
        return ScalarField(load_field(preset.split(":", 1)[1], n))
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
    if preset.startswith("exact:cos-x:"):   # d(amp cos 2 pi x), in closed form
        amp = _number(preset, preset.split(":", 2)[2])
        c1 = -2.0 * np.pi * amp * np.sin(2.0 * np.pi * grid.x)[:, None] * np.ones((1, n))
        return OneForm(c1, np.zeros((n, n)))
    if preset.startswith("file:"):
        return OneForm(*load_field(preset.split(":", 1)[1], n, oneform=True))
    raise ValueError(f"unknown connection preset {preset!r}")


def make_h_field(preset: str, n: int) -> ScalarField:
    if preset == "one":
        return ScalarField(np.ones((n, n)))
    if preset.startswith("exp-cos:"):
        amp = _number(preset, preset.split(":", 1)[1])
        return ScalarField(np.exp(_cos_x(amp, n)) * np.ones((1, n)))
    if preset.startswith("file:"):
        h = ScalarField(load_field(preset.split(":", 1)[1], n))
        if h.values.min() <= 0.0:
            raise ValueError("h preset must yield a strictly positive field")
        return h
    raise ValueError(f"unknown h preset {preset!r}")


# ---------------------------------------------------------------------------
# field files: .npy arrays beside a JSON sidecar
# ---------------------------------------------------------------------------

def save_field(field: ScalarField, path) -> None:
    """The field's n x n values as a .npy file, written without a copy."""
    np.save(path, field.values)


def load_field(path: str, n: int, oneform: bool = False):
    """The float64 field of a .npy file: an (n, n) array for a scalar field,
    and c1, c2 from a (2, n, n) array for a one-form, each read into an array
    that owns its data, so the field wrapping it keeps it without a copy; a
    ValueError naming the file otherwise."""
    lead, kind, want = (((2,), "one-form", "(2, n, n)") if oneform
                        else ((), "scalar field", "(n, n)"))
    try:   # the .npy format alone, mapped: no .npz archive, no pickle
        a = np.lib.format.open_memmap(path, mode="r")
    except (ValueError, OverflowError) as exc:   # OverflowError: a negative length
        raise ValueError(f"{path}: not a .npy array: {exc}") from exc
    if a.dtype != np.float64:
        raise ValueError(f"{path}: dtype {a.dtype}, expected float64")
    if a.ndim != len(lead) + 2 or a.shape[:-2] != lead or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{path}: shape {a.shape}, expected a {kind} of shape {want}")
    if a.shape[-1] != n:
        raise ValueError(f"{path}: {kind} size {a.shape[-1]} does not match grid size {n}")
    # np.array copies out of the map into a C-ordered ndarray of its own
    return tuple(np.array(c, order="C") for c in a) if oneform else np.array(a, order="C")


def save_field_json(path_json: str, path_file: str, kind: str, n: int, v_preset: str) -> None:
    desc = {"kind": kind, "n": n, "v_preset": v_preset, "file": os.path.basename(path_file)}
    with open(path_json, "w") as fh:
        json.dump(desc, fh, indent=2, sort_keys=True)
        fh.write("\n")
