import functools
import json

import numpy as np
import pytest

from bundlemf import bundle, green
from bundlemf.cli import RunConfig, config_hash, load_config, main

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
        assert (tmp_path / "minimizer.csv").exists()

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
        assert (tmp_path / "green_field.csv").exists()

    def test_critmap(self, tmp_path):
        assert run(tmp_path, ["critmap", "--n", "32", "--stride", "16"]) == 0
        s = read_summary(tmp_path, "critmap")
        assert s["results"]["nodes_per_axis"] == 2
        assert (tmp_path / "critmap.csv").exists()

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
        assert (tmp_path / "qk_field.csv").exists()

    def test_sweep(self, tmp_path):
        assert run(tmp_path, ["sweep", "--n", "32", "--kmax", "4"]) == 0
        s = read_summary(tmp_path, "sweep")
        assert s["results"]["classification"] in ("ATTAINED", "BLOWUP-CANDIDATE")
        assert (tmp_path / "sweep_records.csv").exists()

    def test_reduce_check(self, tmp_path):
        assert run(tmp_path, ["reduce-check", "--n", "32"]) == 0
        s = read_summary(tmp_path, "reduce-check")
        assert s["results"]["max_discrepancy"] <= 1e-12


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

    def test_unconverged_pcg_writes_diagnostics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(green, "solve_symmetrized",
                            functools.partial(bundle.solve_symmetrized, max_iter=1))
        code = run(tmp_path, ["green", "--n", "32",
                              "--connection", "harmonic:6.283185307,0"])
        assert code == 1
        s = read_summary(tmp_path, "green")
        assert s["status"] == "error"
        assert "PCG" in s["results"]["error"]

    @pytest.mark.parametrize("args", [["--rho", "nan"], ["--rho", "inf"],
                                      ["--alpha", "-inf"]])
    def test_non_finite_value(self, tmp_path, args):
        assert run(tmp_path, ["minimize", "--n", "32"] + args) == 2

    def test_non_finite_config_value(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"n": 32, "tol": NaN, "delta": Infinity}')
        assert main(["minimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2


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


class TestFieldIO:
    def test_scalar_roundtrip(self, tmp_path):
        from bundlemf import ScalarField
        from bundlemf.presets import load_scalar_csv, save_scalar_csv

        rng = np.random.default_rng(5)
        u = ScalarField(rng.standard_normal((32, 32)))
        path = tmp_path / "field.csv"
        save_scalar_csv(u, str(path), "zero")
        back = load_scalar_csv(str(path))
        assert np.array_equal(back.values, u.values)

    def test_oneform_roundtrip(self, tmp_path):
        from bundlemf import OneForm
        from bundlemf.presets import load_oneform_csv, save_oneform_csv

        rng = np.random.default_rng(6)
        w = OneForm(rng.standard_normal((32, 32)), rng.standard_normal((32, 32)))
        path = tmp_path / "form.csv"
        save_oneform_csv(w, str(path))
        back = load_oneform_csv(str(path))
        assert np.array_equal(back.c1, w.c1)
        assert np.array_equal(back.c2, w.c2)

    def test_header_validated(self, tmp_path):
        from bundlemf.presets import load_scalar_csv

        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n32,zero\n")
        with pytest.raises(ValueError):
            load_scalar_csv(str(path))

    def test_json_descriptor(self, tmp_path):
        from bundlemf.presets import save_field_json

        save_field_json(str(tmp_path / "d.json"), str(tmp_path / "f.csv"),
                        "scalar", 32, "zero")
        desc = json.loads((tmp_path / "d.json").read_text())
        assert desc == {"kind": "scalar", "n": 32, "v_preset": "zero",
                        "csv": "f.csv"}
