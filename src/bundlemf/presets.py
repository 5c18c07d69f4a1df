"""Named presets for the conformal factor, connection and weight, plus field I/O.

Preset grammar (all case-sensitive):
  v:          "zero" | "cos-x[:amp]" | "custom-file:<path>"
  connection: "zero" | "harmonic:a,b" | "exact:cos-x:amp" | "file:<path>"
  h weight:   "one" | "exp-cos:amp" | "file:<path>"

Fields serialize to CSV (row-major, two header lines "n,v-preset" / values) and
to a small JSON descriptor pointing at the CSV.  The values are "%.17g" text,
byte for byte what np.savetxt(fmt="%.17g", delimiter=",") writes, formatted a
row chunk at a time in numpy arithmetic.
"""

from __future__ import annotations

import functools
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

# "%.17g" writes x as D 10**(E - 16) with D the 17-digit integer nearest
# |x| 10**(16 - E), ties to even, and E = floor(log10 |x|) after rounding:
# fixed notation for -4 <= E < 17, exponential otherwise, trailing zeros and
# a bare point dropped.  Here D comes from double-double arithmetic (Dekker's
# exact product with Veltkamp's split, 10**k as hi + lo rounded from exact
# integers), which leaves less than 1e-14 of error in its fraction.  Python
# formats a value instead when that fraction lies within _TIE of a half (an
# exact tie must go to even), when |x| lies outside [1e-280, 1e280], where
# the splits stop being exact, and when x is not finite.
#
# Each value becomes a 32-byte slot of four little-endian uint64 words, NUL
# where a character is absent; the NULs are squeezed out at the end:
#   byte 0       '-'
#   bytes 1-5    "0." and up to three zeros, for -4 <= E <= -1
#   bytes 6-23   the 17 digits, d0 at byte 7, d1..d8 in word 1, d9..d16 in
#                word 2, the first P of them moved down a byte to leave
#                byte 6 + P for the point (P = E + 1 in fixed notation with
#                E >= 0, 1 in exponential; for E < 0 the prefix holds the
#                point and P = 17)
#   bytes 24-28  "e+XX" or "e-XXX"
#   byte 29      ',' or '\n'

_SPLIT = 134217729.0       # 2**27 + 1
_TIE = 2.0 ** -30
_K0, _K1 = -270, 300       # the 10**k table, enough for |x| in [1e-280, 1e280]
_CHUNK = 16384             # values per row chunk, and at most 1/32 of the array
_U = np.uint64


def _words(chars: bytes | bytearray) -> list[int]:
    """24 bytes as three little-endian uint64 words."""
    return [int.from_bytes(chars[k:k + 8], "little") for k in (0, 8, 16)]


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo and hi's Veltkamp halves; column k - _K0 has 10**k = hi + lo."""
    hi, lo = [], []
    for k in range(_K0, _K1 + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)
    table = np.array([hi, lo, hh, hi - hh])
    table.flags.writeable = False
    return table


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """By class c = clip(E, -5, 17) + 5: the masks of the digits that move
    down (words 0-2) and of those that stay (words 1-2), and lead, the digits
    kept even when zero.  By column 18 c + keep: the slot's words 0-2 for
    keep digits that are all 0, with the prefix and the point, no sign."""
    shift = np.zeros((6, 23), _U)
    chars = np.zeros((3, 23 * 18), _U)
    for c in range(23):
        e = c - 5
        expo = not -4 <= e < 17
        p = 1 if expo else 17 if e < 0 else e + 1
        shift[:3, c] = _words(bytes(6) + b"\xff" * p + bytes(18 - p))
        shift[3:5, c] = _words(bytes(7 + p) + b"\xff" * (17 - p))[1:]
        shift[5, c] = 1 if e < 0 or expo else p
        for keep in range(18):
            text = bytearray(24)
            if -4 <= e < 0:
                text[1:1 - e] = b"0." + b"0" * (-e - 1)
            for j in range(keep):
                text[6 + j + (j >= p)] = ord("0")
            if keep > p:
                text[6 + p] = ord(".")
            chars[:, 18 * c + keep] = _words(text)
    shift.flags.writeable = chars.flags.writeable = False
    return shift, chars


def _digits(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10**(16 - e) = t + f with t an int64 and 0 <= f < 1.

    a hi = p + (ah hh - p) + ah hl + al hh + al hl exactly, the first
    difference exact in floating point too.  Where a 10**(16 - e) lies in
    [10**16, 10**18), p is an integer and the rest, q with a lo added, is
    below 24, so its roundings cost under 1e-14."""
    hi, lo, hh, hl = np.take(_powers_of_ten(), 16 - e - _K0, axis=1)
    p = a * hi
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    q = ah * hh - p
    q += ah * hl
    q += al * hh
    q += al * hl
    q += a * lo
    fq = np.floor(q)
    q -= fq
    return p.astype(np.int64) + fq.astype(np.int64), q


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D (0 for a zero) and E of each double, and the mask of the values left
    to Python."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    safe = np.where(ok, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    t, f = _digits(safe, e)
    # next to a power of ten log10 can be off by one: E is one less where the
    # unrounded digits fall below 10**16, one more where they reach 10**17
    # (no margin is needed: just either side of 10**16 the text is the same)
    redo = np.flatnonzero((t < 10 ** 16) | (t >= 10 ** 17))
    if redo.size:
        e[redo] += np.where(t[redo] < 10 ** 16, -1, 1)
        t[redo], f[redo] = _digits(safe[redo], e[redo])
    d = t + (f > 0.5)
    fallback = (~ok & (a != 0)) | (np.abs(f - 0.5) < _TIE)
    fallback[redo] |= (d[redo] < 10 ** 16) | (d[redo] > 10 ** 17)
    carry = np.flatnonzero(d == 10 ** 17)     # rounding up to 10**17 carries into E
    d[carry] = 10 ** 16
    e[carry] += 1
    d[a == 0] = 0
    return d, e, fallback


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10**8, one a byte, first at byte 0:
    halves in 32-bit lanes, quarters in 16-bit lanes, then digits, dividing
    by 100 and by 10 as multiply-shifts that are exact below 10**4 and 10**2."""
    x = v // _U(10000)
    x |= (v - x * _U(10000)) << _U(32)
    y = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    x = y | ((x - y * _U(100)) << _U(16))
    y = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return y | ((x - y * _U(10)) << _U(8))


def _nbytes(w: np.ndarray) -> np.ndarray:
    """Bytes up to the highest nonzero one of each w (bytes <= 9 each), from
    the bit length in its float exponent."""
    bits = (w.astype(np.float64).view(np.int64) >> 52) - 1022
    return (np.maximum(bits, 0) + 7) >> 3


def _format_rows(rows: np.ndarray) -> tuple[bytes, int]:
    """The "%.17g" text of a 2-D array, ',' between values and '\n' after
    each row; and the number of values Python formatted."""
    x = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    d, e, fallback = _decimal(x)
    shift, chars = _layouts()
    c = np.clip(e, -5, 17) + 5
    head0, head1, head2, tail1, tail2, lead = np.take(shift, c, axis=1)
    w = np.empty((3, x.size), _U)
    d = d.view(_U)
    w[0] = d // _U(10 ** 16)
    d -= w[0] * _U(10 ** 16)
    w[1] = d // _U(10 ** 8)
    w[2] = d - w[1] * _U(10 ** 8)
    w[1:] = _eight_digits(w[1:])
    nb = _nbytes(w[1:])
    keep = np.maximum(np.where(nb[1] > 0, 9 + nb[1], 1 + nb[0]), lead.view(np.int64))
    w[0] <<= _U(56)
    # the first P digits move down a byte, leaving byte 6 + P for the point
    down = w >> _U(8)
    down[:2] |= w[1:] << _U(56)
    w[0] = down[0] & head0
    w[1] = down[1] & head1 | w[1] & tail1
    w[2] = down[2] & head2 | w[2] & tail2
    w |= np.take(chars, 18 * c + keep, axis=1)
    w[0] |= (x.view(_U) >> _U(63)) * _U(ord("-"))
    out = np.empty((x.size, 4), _U)
    out[:, :3] = w.T
    out[:, 3] = ord(",") << 40
    out.reshape(rows.shape[0], -1, 4)[:, -1, 3] = ord("\n") << 40
    ie = np.flatnonzero((c == 0) | (c == 22))     # exponential notation
    if ie.size:
        exp = np.abs(e[ie]).view(_U)
        hundreds = exp // _U(100)
        tens = exp // _U(10) - hundreds * _U(10)
        units = exp % _U(10)
        out[ie, 3] |= (_U(ord("e")) | np.where(e[ie] < 0, _U(ord("-")), _U(ord("+"))) << _U(8)
                       | np.where(hundreds > 0, hundreds | _U(0x30), _U(0)) << _U(16)
                       | (tens | _U(0x30)) << _U(24) | (units | _U(0x30)) << _U(32))
    text = out.view(np.uint8).reshape(-1, 32)
    fallback = np.flatnonzero(fallback)
    for i in fallback:
        value = ("%.17g" % x[i]).encode()
        text[i, :29] = 0
        text[i, :len(value)] = np.frombuffer(value, np.uint8)
    return text.tobytes().translate(None, b"\0"), fallback.size


def _write_rows(fh, values: np.ndarray) -> int:
    """values (2-D) to the binary file fh as np.savetxt(fh, values,
    delimiter=",", fmt="%.17g") would, a chunk of rows at a time; returns
    the number of values Python formatted."""
    step = max(1, min(_CHUNK, values.size // 32) // values.shape[1])
    fallbacks = 0
    for i in range(0, values.shape[0], step):
        text, n = _format_rows(values[i:i + step])
        fh.write(text)
        fallbacks += n
    return fallbacks


def save_array_csv(values: np.ndarray, path) -> None:
    """A 2-D array as "%.17g" CSV rows without a header."""
    with open(path, "wb") as fh:
        _write_rows(fh, values)


def _save_csv(path: str, n: int, v_preset: str, *blocks: np.ndarray) -> None:
    """The two header lines, then each n x n block's rows."""
    with open(path, "w") as fh:
        fh.write(f"n,v-preset\n{n},{v_preset}\n")
        fh.flush()
        for block in blocks:
            _write_rows(fh.buffer, block)


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
    _save_csv(path, form.n, v_preset, form.c1, form.c2)


def load_oneform_csv(path: str, expected_n: int | None = None) -> OneForm:
    return OneForm(*np.split(_load_csv(path, 2, "form", expected_n), 2))


def save_field_json(path_json: str, path_csv: str, kind: str, n: int, v_preset: str) -> None:
    desc = {"kind": kind, "n": n, "v_preset": v_preset, "csv": os.path.basename(path_csv)}
    with open(path_json, "w") as fh:
        json.dump(desc, fh, indent=2, sort_keys=True)
        fh.write("\n")
