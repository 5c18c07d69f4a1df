import contextlib
import functools
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bundlemf import ScalarField, build_grid, bundle, cli, green
from bundlemf.cli import RunConfig, build_problem, config_hash, load_config, main
from bundlemf.presets import (
    load_field,
    make_connection_form,
    make_h_field,
    make_v_field,
    save_field,
    save_field_json,
)

from conftest import count_fft_calls, fresh_python, traced_peak

VOLATILE = ("wall_time_s", "timestamp")


def run(tmp_path, argv):
    return main(argv + ["--out", str(tmp_path)])


def read_summary(tmp_path, command):
    path = tmp_path / f"{command.replace('-', '_')}_summary.json"
    assert path.exists(), f"missing summary for {command}"
    with open(path) as fh:
        return json.load(fh)


class TestCommands:
    def test_bubble(self, tmp_path):
        assert run(tmp_path, ["bubble"]) == 0
        s = read_summary(tmp_path, "bubble")
        assert s["status"] == "ok"
        assert abs(s["results"]["mass"] - 8 * np.pi) <= 1e-8
        assert (tmp_path / "bubble_energies.csv").exists()

    def test_minimize(self, tmp_path):
        assert run(tmp_path, ["minimize", "--n", "32", "--rho", "6.0"]) == 0
        s = read_summary(tmp_path, "minimize")
        assert s["results"]["converged"]
        assert s["results"]["field_file"] == "minimizer.npy"
        assert load_field(str(tmp_path / "minimizer.npy"), 32).shape == (32, 32)

    def test_minimize_rho_zero(self, tmp_path):
        assert run(tmp_path, ["minimize", "--n", "32", "--rho", "0.0"]) == 0
        s = read_summary(tmp_path, "minimize")
        assert s["results"]["max_u"] == 0.0
        assert s["results"]["r_scale_over_h"] is None
        assert s["results"]["grid_resolved"] is None

    def test_minimize_reports_grid_scale_bubble(self, tmp_path):
        # near 8 pi the cold start converges to a bubble narrower than one
        # grid spacing, which the summary flags with r_scale_over_h < 1
        assert run(tmp_path, ["minimize", "--n", "64", "--rho", repr(8 * np.pi - 1 / 32),
                              "--h-preset", "exp-cos:1.0", "--seed", "0"]) == 0
        s = read_summary(tmp_path, "minimize")
        assert s["results"]["converged"]
        assert s["results"]["r_scale_over_h"] < 1.0
        assert s["results"]["grid_resolved"] is False

    def test_green(self, tmp_path):
        assert run(tmp_path, ["green", "--n", "64", "--p", "3,5"]) == 0
        s = read_summary(tmp_path, "green")
        for key in ("A_p", "lambda1", "meanG", "Lambda", "residual"):
            assert key in s["results"]
        assert (s["results"]["field_file"], s["results"]["eta_file"]) == (
            "green_field.npy", "green_eta.npy")
        for name in ("green_field.npy", "green_eta.npy"):
            assert load_field(str(tmp_path / name), 64).shape == (64, 64)
        assert json.loads((tmp_path / "green_field.json").read_text()) == {
            "kind": "scalar", "n": 64, "v_preset": "zero", "file": "green_field.npy"}

    def test_critmap(self, tmp_path):
        assert run(tmp_path, ["critmap", "--n", "32", "--stride", "16"]) == 0
        s = read_summary(tmp_path, "critmap")
        assert s["results"]["nodes_per_axis"] == 2
        assert (tmp_path / "critmap.csv").exists()

    def test_krylov_counts_in_summaries(self, tmp_path):
        """green and qk report their Green solve's PCG steps, critmap the sum
        over its nodes: one node here, so all three agree."""
        counts = []
        for argv in (["green", "--p", "0,0"], ["critmap", "--stride", "64"],
                     ["qk", "--p", "0,0", "--k", "64"]):
            out = tmp_path / argv[0]
            assert run(out, argv + ["--n", "64", "--connection", "harmonic:1,0.5"]) == 0
            counts.append(read_summary(out, argv[0])["results"]["pcg_iterations"])
        assert counts[0] > 0 and counts == [counts[0]] * 3

    def test_moser(self, tmp_path):
        assert run(tmp_path, ["moser", "--n", "64", "--kmax", "8",
                              "--alpha", str(4.1 * np.pi)]) == 0
        s = read_summary(tmp_path, "moser")
        assert s["results"]["ks"] == [4, 8]
        assert (tmp_path / "moser_probe.csv").exists()

    def test_qk(self, tmp_path):
        assert run(tmp_path, ["qk", "--n", "64", "--k", "64"]) == 0
        s = read_summary(tmp_path, "qk")
        assert np.isfinite(s["results"]["gap"])
        assert s["results"]["field_file"] == "qk_field.npy"
        assert load_field(str(tmp_path / "qk_field.npy"), 64).shape == (64, 64)

    def test_qk_fft_calls(self, monkeypatch, tmp_path):
        """The whole qk command at n = 256 makes 22 numpy FFT calls: 5 to
        build the problem, 14 in the Green solve and 3 for the audit's
        covariant energy."""
        argv = ["qk", "--n", "256", "--k", "64", "--connection", "exact:cos-x:0.3",
                "--p", "3,5", "--out", str(tmp_path)]
        calls = count_fft_calls(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(calls) == 22

    def test_sweep(self, tmp_path):
        assert run(tmp_path, ["sweep", "--n", "32", "--kmax", "4"]) == 0
        s = read_summary(tmp_path, "sweep")
        assert s["results"]["classification"] in ("ATTAINED", "BLOWUP-CANDIDATE")
        lines = (tmp_path / "sweep_records.csv").read_text().splitlines()
        assert lines[0] == ("k,rho,c,x_i,x_j,mu,lambda1,energy,jvalue,r_scale,converged,"
                            "iterations,predicted")
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 4
        assert s["results"]["outer_iterations"] == sum(int(r["iterations"]) for r in rows)
        assert {r["predicted"] for r in rows} <= {"0", "1"}

    def test_reduce_check(self, tmp_path):
        assert run(tmp_path, ["reduce-check", "--n", "32"]) == 0
        s = read_summary(tmp_path, "reduce-check")
        assert s["results"]["max_discrepancy"] <= 1e-12


class TestMemory:
    def test_qk_peak(self, tmp_path):
        """The whole qk command, problem included, at n = 256: the problem
        keeps 8.5 n x n arrays and the audit, the peak, adds tau1's cached
        transform, G, the section and the energy's 4; at most 16.5 arrays
        (16.07 measured)."""
        n = 256
        argv = ["qk", "--n", str(n), "--k", "64", "--connection", "exact:cos-x:0.3",
                "--p", "3,5", "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            peak = traced_peak(lambda: main(argv))
        assert read_summary(tmp_path, "qk")["status"] == "ok"
        assert peak <= 16.5 * 8 * n * n

    def test_file_preset_peaks(self, tmp_path):
        """A file preset reads each component once, into an array the field
        keeps without a copy: at n = 256 a custom-file: v preset peaks at
        1.13 n x n arrays and a file: connection at 2.13, the eighth being
        the finiteness check's boolean mask."""
        n = 256
        x = np.arange(n) / n
        u = np.sin(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)
        np.save(tmp_path / "v.npy", u)
        np.save(tmp_path / "w.npy", np.stack([u, -u]))
        g = build_grid(n)
        v = traced_peak(lambda: make_v_field(f"custom-file:{tmp_path / 'v.npy'}", n))
        w = traced_peak(lambda: make_connection_form(f"file:{tmp_path / 'w.npy'}", g))
        assert v <= 1.2 * 8 * n * n
        assert w <= 2.2 * 8 * n * n

    def test_field_writer_peak(self, tmp_path):
        """save_field writes the read-only field as it lies in memory, without
        a copy: under a tenth of an n x n array at n = 256."""
        n = 256
        x = np.arange(n) / n
        u = ScalarField(np.sin(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x))
        peak = traced_peak(lambda: save_field(u, tmp_path / "u.npy"))
        assert peak <= 0.1 * 8 * n * n


class TestSetup:
    @pytest.mark.parametrize("v", ["zero", "cos-x:0.3"])
    @pytest.mark.parametrize("connection, budget", [("exact:cos-x:0.3", 5), ("zero", 5),
                                                    ("harmonic:1,0.5", 4)])
    def test_build_problem_fft_budget(self, monkeypatch, connection, budget, v):
        """make_connection transforms w's components once (2 FFTs), then
        pays one inverse FFT for the curl, one for the divergence and, for
        an exact w only, one for the primitive; the exact preset's form
        d(amp cos 2 pi x) is sampled in closed form, with no FFT."""
        cfg = load_config(None, {"n": 32, "connection": connection, "v_preset": v})
        calls = count_fft_calls(monkeypatch)
        build_problem(cfg)
        assert len(calls) <= budget

    def test_build_problem_peak(self):
        """At n = 256 on the exact connection the grid, h and w hold 6.5
        n x n arrays, and the curl's inverse FFT beside w's two transforms
        adds 5: at most 11.8 arrays (11.56 measured)."""
        n = 256
        cfg = load_config(None, {"n": n, "connection": "exact:cos-x:0.3"})
        assert traced_peak(lambda: build_problem(cfg)) <= 11.8 * 8 * n * n


class TestExitCodes:
    def test_unknown_command(self, tmp_path):
        assert run(tmp_path, ["nonsense"]) == 2

    def test_bad_p(self, tmp_path):
        assert run(tmp_path, ["green", "--p", "oops"]) == 2

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{ not json")
        code = main(["bubble", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad_key.json"
        cfg.write_text(json.dumps({"grid_size": 32}))
        assert main(["bubble", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["bubble", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_reduce_check_needs_zero_connection(self, tmp_path):
        assert run(tmp_path, ["reduce-check", "--n", "32",
                              "--connection", "harmonic:6.283185307,0"]) == 2

    def test_bad_grid_size(self, tmp_path):
        assert run(tmp_path, ["minimize", "--n", "20"]) == 2

    def test_numerical_failure_writes_diagnostics(self, tmp_path):
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps({"n": 32, "max_iter": 2, "tol": 1e-300,
                                   "rho": 12.0}))
        code = main(["minimize", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        s = read_summary(tmp_path, "minimize")
        assert s["status"] == "error"
        assert "error" in s["results"]

    def test_minimize_overflow_is_numerical_failure(self, tmp_path, capsys):
        # |omega|^2 = 1e300 builds, then the residual's square overflows
        code = run(tmp_path, ["minimize", "--n", "16", "--connection", "harmonic:1e150,0"])
        assert code == 1
        s = read_summary(tmp_path, "minimize")
        assert s["status"] == "error"
        assert "floating-point range" in s["results"]["error"]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err
        assert "Warning" not in err

    def test_supercritical_minimize_under_warnings_as_errors(self, tmp_path):
        # rho >= 8 pi warns; under -W error the warning is recorded, not raised
        proc = fresh_python("-W", "error", "-m", "bundlemf.cli", "minimize",
                            "--n", "16", "--rho", "30", "--out", str(tmp_path))
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        s = read_summary(tmp_path, "minimize")
        assert s["status"] == ("ok" if proc.returncode == 0 else "error")
        assert any("8*pi" in w for w in s["results"]["warnings"])

    @pytest.mark.parametrize("argv", [["green", "--n", "32", "--p", "0,0"],
                                      ["critmap", "--n", "32", "--stride", "16"],
                                      ["qk", "--n", "64", "--k", "16"]])
    def test_overflow_under_warnings_as_errors(self, tmp_path, argv):
        """A potential of 7e307 overflows the Green assembly: under -W error
        the command exits 1 with a summary, not a traceback."""
        proc = fresh_python("-W", "error", "-m", "bundlemf.cli", *argv,
                            "--connection", "harmonic:1.3e153,0", "--out", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        s = read_summary(tmp_path, argv[0])
        assert s["status"] == "error"
        assert "floating-point range" in s["results"]["error"]

    def test_unconverged_pcg_writes_diagnostics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(green, "solve_symmetrized",
                            functools.partial(bundle.solve_symmetrized, max_iter=1))
        code = run(tmp_path, ["green", "--n", "32",
                              "--connection", "harmonic:6.283185307,0"])
        assert code == 1
        s = read_summary(tmp_path, "green")
        assert s["status"] == "error"
        assert "PCG" in s["results"]["error"]

    def test_non_finite_pcg_stops_at_once(self, tmp_path):
        """A potential of 1e200 overflows the Green rhs: the Poisson PCG stops
        on non_finite after at most one step, not after 6000."""
        proc = fresh_python("-m", "bundlemf.cli", "green", "--n", "256", "--p", "0,0",
                            "--connection", "harmonic:1e100,0", "--out", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        s = read_summary(tmp_path, "green")
        assert s["status"] == "error"
        assert "non_finite" in s["results"]["error"]
        assert int(re.search(r"after (\d+) iterations", s["results"]["error"])[1]) <= 1

    @pytest.mark.parametrize("args", [["--rho", "nan"], ["--rho", "inf"],
                                      ["--alpha", "-inf"]])
    def test_non_finite_value(self, tmp_path, args):
        assert run(tmp_path, ["minimize", "--n", "32"] + args) == 2

    @pytest.mark.parametrize("argv, config", [
        (["qk", "--n", "64", "--k", "4"], None),
        (["qk", "--n", "64", "--k", "10000"], None),
        (["sweep", "--n", "16", "--kmax", "0"], None),
        (["moser"], {"delta": 0.3}),
        (["moser", "--n", "32"], {"delta": 0.0}),
        (["moser", "--n", "32"], {"delta": -0.1}),
        (["green", "--n", "16"], {"p": 5}),
        (["green", "--n", "16"], {"p": [1]}),
        (["green", "--n", "16"], {"p": [1, 2, 3]}),
        (["green", "--n", "16"], {"p": [1.5, 2]}),
        (["green", "--n", "16"], {"connection": 5}),
        (["green", "--n", "16"], {"backend": "gpu"}),
        (["minimize", "--n", "16"], {"seed": -1}),
        (["minimize", "--n", "16", "--seed", "-1"], None),
        (["green", "--n", "16", "--p", "1,2,3"], None),
        (["minimize"], {"n": 16.0}),
        (["minimize", "--n", "16"], {"max_iter": True}),
        (["minimize", "--n", "16"], {"v_preset": None}),
        (["minimize", "--n", "16", "--h-preset", "exp-cos:-1000"], None),
        (["minimize", "--n", "16", "--v-preset", "cos-x:400"], None),
        (["minimize", "--n", "16", "--v-preset", "cos-x:-400"], None),
        (["minimize", "--n", "16", "--connection", "harmonic:1e200,0"], None),
        (["minimize", "--n", "16", "--connection", "exact:cos-x:1e200"], None),
        (["minimize", "--n", "16", "--connection", "bogus"], None),
        (["minimize", "--n", "16", "--h-preset", "bogus"], None),
        (["minimize", "--n", "16", "--v-preset", "bogus"], None),
        (["minimize", "--n", "16", "--v-preset", "cos-x:1e400"], None),
        (["minimize", "--n", "16", "--connection", "exact:cos-x:nan"], None),
        (["minimize", "--n", "16", "--v-preset", "cos-x:abc"], None),
        (["minimize", "--n", "16", "--h-preset", "exp-cos:abc"], None),
        (["minimize", "--n", "16", "--v-preset", "cos-xy"], None),
    ], ids=["qk-k4", "qk-k10000", "sweep-kmax0", "moser-delta0.3",
            "moser-delta0", "moser-delta-negative", "p-int", "p-short",
            "p-long", "p-float", "connection-int", "backend-gpu", "seed-negative",
            "cli-seed-negative", "cli-p-long", "n-float", "max_iter-bool", "v_preset-null",
            "h-overflow", "v-overflow", "v-overflow-negative", "harmonic-overflow",
            "exact-overflow", "connection-unknown", "h-unknown", "v-unknown",
            "v-inf", "exact-nan", "v-unparsable", "h-unparsable", "v-suffix"])
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "range.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert run(tmp_path, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "Warning" not in err
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--v-preset", "--connection", "--h-preset"):
                assert repr(value) in err          # the message names the preset

    def test_non_finite_config_value(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"n": 32, "tol": NaN, "delta": Infinity}')
        assert main(["minimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def not_power_of_two_grid(n):
    return n < 16 or n & (n - 1) != 0


NOT_INT = st.one_of(st.floats(allow_nan=False), st.text(max_size=4), st.booleans(),
                    st.none(), st.lists(st.integers(), max_size=2))
NOT_STR = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
                    st.lists(st.text(max_size=3), max_size=2))
NOT_NUMBER = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                       st.lists(st.floats(), max_size=2),
                       st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]))
# a value that load_config or the problem build must refuse, per config key;
# `out` is left out because --out overrides it
BAD_VALUES = {
    "n": st.one_of(NOT_INT, st.integers(-64, 4096).filter(not_power_of_two_grid)),
    **dict.fromkeys(("max_iter", "kmax", "stride", "k"), NOT_INT),
    "seed": st.one_of(NOT_INT, st.integers(max_value=-1)),
    **dict.fromkeys(("v_preset", "connection", "h_preset"), NOT_STR),
    **dict.fromkeys(("rho", "alpha", "delta"), NOT_NUMBER),
    "tol": NOT_NUMBER.filter(lambda x: x is not None),
    "backend": st.text(max_size=8).filter(lambda x: x not in ("spectral", "fd")),
    "p": st.one_of(st.integers(), st.text(max_size=4),
                   st.lists(st.integers(), max_size=4).filter(lambda x: len(x) != 2),
                   st.tuples(st.integers(), st.floats()).map(list)),
}
def run_quietly(argv):
    """main(argv) and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


PROBLEM_COMMANDS = ("minimize", "sweep", "green", "critmap", "moser", "qk", "reduce-check")


class TestRandomConfigs:
    """The exit-code contract on random configs: a bad value is a usage error
    (exit 2, a one-line message, no summary); a valid minimize exits 0 or 1
    and writes its summary either way."""

    @given(command=st.sampled_from(PROBLEM_COMMANDS),
           bad=st.sampled_from(sorted(BAD_VALUES)).flatmap(
               lambda key: st.tuples(st.just(key), BAD_VALUES[key])))
    def test_bad_value_is_usage_error(self, command, bad):
        key, value = bad
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.json"
            path.write_text(json.dumps({"n": 16, key: value}))
            code, err = run_quietly([command, "--config", str(path), "--out", tmp])
            written = list(Path(tmp).glob("*_summary.json"))
        assert code == 2, (key, value, err)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not written

    @given(rho=st.floats(-20.0, 8 * np.pi, exclude_max=True),
           max_iter=st.integers(1, 4),
           tol=st.sampled_from([None, 1e-300, 1e-6]),
           connection=st.sampled_from(["zero", "exact:cos-x:0.3", "harmonic:1,2",
                                       "harmonic:1e150,0"]),
           v_preset=st.sampled_from(["zero", "cos-x:0.3"]),
           h_preset=st.sampled_from(["one", "exp-cos:0.5"]),
           seed=st.integers(0, 2**31))
    def test_valid_minimize_exits_zero_or_one(self, rho, max_iter, tol, connection,
                                              v_preset, h_preset, seed):
        config = {"n": 16, "rho": rho, "max_iter": max_iter, "tol": tol,
                  "connection": connection, "v_preset": v_preset,
                  "h_preset": h_preset, "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            code, err = run_quietly(["minimize", "--config", str(path), "--out", tmp])
            summary = json.loads((Path(tmp) / "minimize_summary.json").read_text())
        assert code in (0, 1)
        assert summary["status"] == ("ok" if code == 0 else "error")
        assert err.startswith("numerical failure: ") == (code == 1)
        assert "Traceback" not in err


def npy_bytes(a, **kwargs):
    """The bytes np.save writes for a."""
    fh = io.BytesIO()
    np.save(fh, a, **kwargs)
    return fh.getvalue()


def header_bytes(shape):
    """A float64 .npy header that claims `shape`, over 256 doubles."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return fh.getvalue() + np.ones(256).tobytes()


def npz_bytes(a):
    fh = io.BytesIO()
    np.savez(fh, a=a)
    return fh.getvalue()


# a file that a preset expecting an array of `shape` must refuse, by case
BAD_FILES = {
    "empty": lambda shape: b"",
    "truncated": lambda shape: npy_bytes(np.ones(shape))[:-8],
    "csv": lambda shape: b"n,v-preset\n16,zero\n" + b"1,1\n" * 16,
    "object": lambda shape: npy_bytes(np.full(shape, None), allow_pickle=True),
    "pickled": lambda shape: pickle.dumps(np.ones(shape)),
    "npz": lambda shape: npz_bytes(np.ones(shape)),
    "float32": lambda shape: npy_bytes(np.ones(shape, np.float32)),
    "int64": lambda shape: npy_bytes(np.ones(shape, np.int64)),
    "ndim": lambda shape: npy_bytes(np.ones(shape[1:])),
    "not-square": lambda shape: npy_bytes(np.ones(shape[:-1] + (8,))),
    "other-n": lambda shape: npy_bytes(np.ones(shape[:-2] + (32, 32))),
    "negative-n": lambda shape: header_bytes(shape[:-1] + (-shape[-1],)),
}


class TestFilePresets:
    def test_file_presets_match_builtins(self, tmp_path):
        # the .npy round trip is exact, so fields read back from files must
        # give the built-in presets' results bit for bit
        n = 32
        v = make_v_field("cos-x:0.05", n)
        save_field(v, tmp_path / "v.npy")
        w = make_connection_form("exact:cos-x:0.3", build_grid(n, v))
        np.save(tmp_path / "w.npy", np.stack([w.c1, w.c2]))
        save_field(make_h_field("exp-cos:1.0", n), tmp_path / "h.npy")
        results = []
        for name, presets in (("builtin", ("cos-x:0.05", "exact:cos-x:0.3", "exp-cos:1.0")),
                              ("file", (f"custom-file:{tmp_path / 'v.npy'}",
                                        f"file:{tmp_path / 'w.npy'}",
                                        f"file:{tmp_path / 'h.npy'}"))):
            out = tmp_path / name
            argv = ["minimize", "--n", str(n), "--v-preset", presets[0],
                    "--connection", presets[1], "--h-preset", presets[2]]
            assert run(out, argv) == 0
            results.append(read_summary(out, "minimize")["results"])
        assert results[0] == results[1]

    def test_h_file_with_zero_is_usage_error(self, tmp_path, capsys):
        h = np.ones((16, 16))
        h[3, 5] = 0.0
        save_field(ScalarField(h), tmp_path / "h.npy")
        assert run(tmp_path, ["minimize", "--n", "16",
                              "--h-preset", f"file:{tmp_path / 'h.npy'}"]) == 2
        assert "strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_FILES)
    @pytest.mark.parametrize("flag, prefix, shape", [
        ("--v-preset", "custom-file:", (16, 16)),
        ("--connection", "file:", (2, 16, 16)),
        ("--h-preset", "file:", (16, 16))], ids=["v", "connection", "h"])
    def test_bad_file_names_it(self, tmp_path, capsys, flag, prefix, shape, case):
        """A file that is not a float64 .npy array of the preset's shape, at
        --n, is a usage error (exit 2) naming the file."""
        path = tmp_path / "field.npy"
        path.write_bytes(BAD_FILES[case](shape))
        assert run(tmp_path, ["minimize", "--n", "16", flag, f"{prefix}{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = load_config(None, {"n": 128, "rho": 1.0})
        assert cfg.n == 128
        assert cfg.rho == 1.0
        assert cfg.h_preset == "one"

    def test_file_plus_cli_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 32, "rho": 2.0}))
        cfg = load_config(str(path), {"rho": 3.0})
        assert cfg.n == 32
        assert cfg.rho == 3.0

    def test_hash_depends_on_config(self):
        a = config_hash(RunConfig(n=32))
        b = config_hash(RunConfig(n=64))
        assert a != b
        assert a == config_hash(RunConfig(n=32))

    def test_presets_parse(self, tmp_path):
        assert run(tmp_path, ["minimize", "--n", "32",
                              "--connection", "exact:cos-x:0.3",
                              "--h-preset", "exp-cos:1.0",
                              "--v-preset", "cos-x:0.05"]) == 0


class TestDeterminism:
    def test_identical_runs_identical_summaries(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["minimize", "--n", "32", "--seed", "7",
                         "--out", str(out)]) == 0
        s1 = json.loads((out1 / "minimize_summary.json").read_text())
        s2 = json.loads((out2 / "minimize_summary.json").read_text())
        for key in VOLATILE:
            s1.pop(key), s2.pop(key)
        s1["config"].pop("out"), s2["config"].pop("out")
        assert s1 == s2

    def test_seed_changes_init(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["minimize", "--n", "32", "--seed", "1", "--out", str(out1)])
        main(["minimize", "--n", "32", "--seed", "2", "--out", str(out2)])
        s1 = json.loads((out1 / "minimize_summary.json").read_text())
        s2 = json.loads((out2 / "minimize_summary.json").read_text())
        assert s1["config_hash"] != s2["config_hash"]


def stacked_fields(components):
    """(components, n, n) arrays of any finite doubles, n in {16, 32}."""
    return st.sampled_from([16, 32]).flatmap(lambda n: hnp.arrays(
        np.float64, (components, n, n),
        elements=st.floats(allow_nan=False, allow_infinity=False)))


def extremes(components):
    """Largest, smallest and subnormal doubles of both signs and -0.0, tiled."""
    vals = np.array([np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324,
                     np.finfo(float).tiny, -1e300, 0.1, -2.0 / 3.0, -0.0])
    return np.resize(vals, (components, 16, 16))


# tmp_path is shared by the examples; each one overwrites the same file
roundtrip = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCsvText:
    def test_non_finite_as_before(self, tmp_path, monkeypatch):
        """critmap's values are not validated: its CSV holds the bytes of
        np.savetxt(fmt="%.17g", delimiter=","), nan and inf included."""
        a = np.array([[np.nan, 1.5, -np.inf], [np.inf, -0.0, -np.nan]])
        monkeypatch.setattr(cli, "critical_value_map", lambda spec, stride, backend: {
            "values": a})
        assert run(tmp_path, ["critmap", "--n", "16"]) == 0
        np.savetxt(tmp_path / "ref.csv", a, delimiter=",", fmt="%.17g")
        assert (tmp_path / "critmap.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFieldIO:
    """Fields round-trip bit for bit (-0.0 included) through .npy and the
    file presets."""

    @roundtrip
    @given(a=stacked_fields(1))
    @example(a=extremes(1))
    def test_scalar_roundtrip(self, tmp_path, a):
        u = ScalarField(a[0])
        path = tmp_path / "field.npy"
        save_field(u, path)
        back = make_v_field(f"custom-file:{path}", u.n)
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    @roundtrip
    @given(a=stacked_fields(2))
    @example(a=extremes(2))
    def test_oneform_roundtrip(self, tmp_path, a):
        path = tmp_path / "form.npy"
        np.save(path, a)
        back = make_connection_form(f"file:{path}", build_grid(a.shape[-1]))
        assert np.array_equal(back.c1.view(np.int64), a[0].view(np.int64))
        assert np.array_equal(back.c2.view(np.int64), a[1].view(np.int64))

    def test_json_descriptor(self, tmp_path):
        save_field_json(str(tmp_path / "d.json"), str(tmp_path / "f.npy"),
                        "scalar", 32, "zero")
        desc = json.loads((tmp_path / "d.json").read_text())
        assert desc == {"kind": "scalar", "n": 32, "v_preset": "zero",
                        "file": "f.npy"}
