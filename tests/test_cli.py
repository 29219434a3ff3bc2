import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kerrcat import analytic_q, cli, trap_params
from kerrcat.errors import InvariantViolation


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def dimensionless_doc(alpha0=(2.0, 0.0), gamma=0.01, extent=5.0, res=41, **extra):
    doc = {
        "schema_version": 1,
        "mode": "dimensionless",
        "dimensionless": {"alpha0": list(alpha0), "gamma_over_mu": gamma},
        "grid": {"center": [0.0, 0.0], "half_extent": extent, "resolution": res},
        "seed": 3,
    }
    doc.update(extra)
    return doc


def physical_doc(gamma=1.0):
    return {
        "schema_version": 1,
        "mode": "physical",
        "physical": {
            "b_field": trap_params.b_field_for_cyclotron(160e9),
            "v0": 10.0,
            "d": 3.3e-3,
            "temperature": 4.0,
            "gamma": gamma,
            "alpha0_override": [2.0, 0.0],
        },
        "seed": 0,
    }


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("# kerrcat ")
        return list(csv.DictReader(fh))


class TestParams:
    def test_physical_reproduces_paper_regime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, physical_doc())
        assert cli.main(["params", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "params.json").read_text())
        params = doc["params"]
        assert abs(params["cyclotron_frequency_hz"] - 160e9) / 160e9 < 1e-12
        assert abs(params["axial_frequency_hz"] - 64e6) / 64e6 < 0.02
        assert abs(params["mu"] - 6.5e2) / 6.5e2 < 0.05
        assert 1e2 <= params["ratio"] <= 1e3
        assert doc["constants"] == "CODATA-2018"

    def test_dimensionless_params_keys(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        assert cli.main(["params", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "params.json").read_text())
        assert set(doc["params"]) == {"alpha0", "gamma_over_mu", "t_cat_mu"}
        assert doc["params"]["t_cat_mu"] == math.pi / 2

    def test_gamma_zero_renders_inf(self, tmp_path):
        cfg = write_config(tmp_path, physical_doc(gamma=0.0))
        assert cli.main(["params", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "params.json").read_text())
        assert doc["params"]["t_dec"] == "inf"
        assert doc["params"]["ratio"] == "inf"


class TestQSurface:
    def test_t0_both_backends_are_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=21))
        for backend in ("analytic", "numeric"):
            out = tmp_path / backend
            code = cli.main(
                ["qsurface", "--config", cfg, "--out", str(out), "--time", "0",
                 "--backend", backend]
            )
            assert code == 0
            for row in read_csv(out / "qsurface.csv"):
                a = float(row["re_alpha"]) + 1j * float(row["im_alpha"])
                assert abs(float(row["q"]) - math.exp(-abs(a - 2.0) ** 2)) < 1e-10

    def test_backends_agree_at_t_cat(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=21))
        vals = {}
        for backend in ("analytic", "numeric"):
            out = tmp_path / backend
            cli.main(
                ["qsurface", "--config", cfg, "--out", str(out), "--time",
                 repr(math.pi / 2), "--backend", backend]
            )
            vals[backend] = [float(r["q"]) for r in read_csv(out / "qsurface.csv")]
        diff = max(abs(a - b) for a, b in zip(vals["analytic"], vals["numeric"]))
        assert diff <= 1e-6

    def test_row_order_im_outer_ascending(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=3, extent=1.0))
        cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "0"])
        rows = read_csv(tmp_path / "qsurface.csv")
        ims = [float(r["im_alpha"]) for r in rows]
        res = [float(r["re_alpha"]) for r in rows]
        assert ims == sorted(ims)
        assert res[:3] == sorted(res[:3]) and ims[0] == ims[1] == ims[2]

    def test_degenerate_grid_single_row(self, tmp_path):
        doc = dimensionless_doc()
        doc["grid"] = {"center": [2.0, 0.0], "half_extent": 1.0, "resolution": 1}
        cfg = write_config(tmp_path, doc)
        cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "0"])
        rows = read_csv(tmp_path / "qsurface.csv")
        assert len(rows) == 1
        assert float(rows[0]["re_alpha"]) == 2.0
        assert abs(float(rows[0]["q"]) - 1.0) < 1e-10

    def test_gnuplot_emitted(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=3, extent=1.0))
        cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "0", "--gnuplot"])
        script = (tmp_path / "qsurface.gp").read_text()
        assert "qsurface.csv" in script


class TestEvolve:
    def test_mean_decay_column(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(gamma=0.1))
        code = cli.main(
            ["evolve", "--config", cfg, "--out", str(tmp_path), "--t-final", "2.0",
             "--samples", "5"]
        )
        assert code == 0
        for row in read_csv(tmp_path / "evolve.csv"):
            t = float(row["t"])
            assert abs(float(row["mean_n"]) - 4.0 * math.exp(-0.1 * t)) < 1e-8

    def test_gamma_zero_cat_fidelity(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(gamma=0.0))
        cli.main(
            ["evolve", "--config", cfg, "--out", str(tmp_path), "--t-final",
             repr(math.pi / 2), "--samples", "2"]
        )
        rows = read_csv(tmp_path / "evolve.csv")
        assert float(rows[-1]["cat_fidelity"]) >= 1.0 - 1e-10

    def test_t_final_zero_single_row(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        cli.main(["evolve", "--config", cfg, "--out", str(tmp_path), "--t-final", "0"])
        rows = read_csv(tmp_path / "evolve.csv")
        assert len(rows) == 1
        assert float(rows[0]["mean_n"]) == pytest.approx(4.0, abs=1e-12)


class TestValidate:
    def test_default_config_passes(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        assert report["pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "dual_path_t_cat" in names
        assert "revival" not in names  # damped config: no revival check

    def test_gamma_zero_adds_revival_and_parity(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(gamma=0.0, res=31))
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["revival"]["pass"] and by_name["parity"]["pass"]

    def test_tiny_cutoff_fails_with_cutoff_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["validate", "--config", cfg, "--out", str(tmp_path), "--cutoff", "12"]
        )
        assert code == cli.EXIT_NUMERICAL
        assert "Cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["evolve", "--t-final", "1"],
         ["qsurface", "--time", "1", "--backend", "numeric"],
         ["validate"]],
        ids=["evolve", "qsurface_numeric", "validate"],
    )
    def test_cutoff_below_rule_exits_3(self, tmp_path, capsys, argv):
        # 27 levels hold |2> to 1e-12, but the rule asks for 30
        cfg = write_config(tmp_path, dimensionless_doc(res=11))
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path), "--cutoff", "27"])
        assert code == cli.EXIT_NUMERICAL
        assert "CutoffTooSmall" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_wrong_schema_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 99, "mode": "dimensionless"})
        assert cli.main(["validate", "--config", cfg]) == cli.EXIT_CONFIG

    def test_series_divergence_exits_4(self, tmp_path, capsys):
        # far outside the validated domain the series tail bound blows up
        doc = dimensionless_doc(alpha0=(40.0, 0.0), gamma=0.5, extent=45.0, res=3)
        cfg = write_config(tmp_path, doc)
        code = cli.main(
            ["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "2.0",
             "--backend", "analytic"]
        )
        assert code == cli.EXIT_CONVERGENCE
        assert "convergence" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize(
        "fields, argv",
        [
            ({"dimensionless.gamma_over_mu": math.nan}, ["qsurface", "--time", "1.0"]),
            ({"dimensionless.alpha0": [math.inf, 0.0]}, ["qsurface", "--time", "1.0"]),
            ({}, ["qsurface", "--time", "-1"]),
            ({}, ["evolve", "--t-final", "-1"]),
            ({}, ["qsurface", "--time", "-1", "--backend", "numeric"]),
            ({}, ["evolve", "--t-final", "nan"]),
            ({"dimensionless.gamma_over_mu": "x"}, ["params"]),
            ({"dimensionless.detuning_over_mu": "x"}, ["params"]),
            ({"cutoff": "abc"}, ["params"]),
            ({"grid.resolution": "x"}, ["params"]),
            ({"seed": "x"}, ["params"]),
            ({"physical.b_field": "x"}, ["params"]),
            ({"grid": "x"}, ["params"]),
            ({"grid.resolution": 3.9, "cutoff": 40}, ["qsurface", "--time", "0"]),
            ({"cutoff": 40.7}, ["qsurface", "--time", "0"]),
            ({"seed": 2.5}, ["params"]),
            ({"grid.resolution": True}, ["params"]),
            ({"cutoff": True}, ["params"]),
            ({"seed": False}, ["params"]),
            ({"physical.b_field": 1e160}, ["params"]),
            ({"physical.b_field": 1e-170}, ["params"]),
            ({"physical.b_field": 1e-300}, ["evolve", "--t-final", "1"]),
        ],
        ids=["nan_gamma", "inf_alpha0", "negative_time", "negative_t_final",
             "negative_time_numeric", "nan_t_final", "text_gamma", "text_detuning",
             "text_cutoff", "text_resolution", "text_seed", "text_b_field", "text_grid",
             "fractional_resolution", "fractional_cutoff", "fractional_seed",
             "bool_resolution", "bool_cutoff", "bool_seed", "overflowing_b_field",
             "mu_underflow_b_field", "underflowing_b_field"],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, fields, argv):
        # keys are dotted paths into the config; a physical.* key edits the physical one
        physical = any(key.startswith("physical.") for key in fields)
        doc = physical_doc() if physical else dimensionless_doc(res=11)
        for path, value in fields.items():
            *parents, key = path.split(".")
            section = doc
            for name in parents:
                section = section[name]
            section[key] = value
        cfg = write_config(tmp_path, doc)
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    @pytest.mark.parametrize(
        "extent, argv",
        [(38.0, ["qsurface", "--time", "0"]),
         (38.0, ["qsurface", "--time", "0", "--backend", "numeric"]),
         (1e200, ["qsurface", "--time", "0.5"]),
         (1e200, ["qsurface", "--time", "0.5", "--backend", "numeric"]),
         (1e200, ["validate"]),
         (1e308, ["qsurface", "--time", "0.5"]),
         (1e308, ["qsurface", "--time", "0", "--backend", "numeric"]),
         (1e308, ["validate"])],
        ids=["analytic", "numeric", "analytic_huge_extent", "numeric_huge_extent",
             "validate_huge_extent", "analytic_overflowing_extent",
             "numeric_overflowing_extent", "validate_overflowing_extent"],
    )
    def test_probe_underflow_exits_4(self, tmp_path, capsys, extent, argv):
        # grid corners at |alpha| = extent sqrt(2): e^{-|alpha|^2/2} is not a
        # normal double, from 1.3e154 up |alpha|^2 overflows a Python float,
        # and at 1e308 the axis spacing 2 extent would overflow
        cfg = write_config(tmp_path, dimensionless_doc(extent=extent, res=3))
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("convergence failure:") and "underflows" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    @pytest.mark.parametrize(
        "argv",
        [["params"], ["evolve", "--t-final", "1", "--samples", "3"],
         ["sweep", "--alpha0", "1", "--gamma", "0"]],
        ids=["params", "evolve", "sweep"],
    )
    def test_overflowing_extent_unused_without_grid(self, tmp_path, argv):
        cfg = write_config(tmp_path, dimensionless_doc(extent=1e308, res=3))
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "mode, alpha0, argv",
        [("dimensionless", 38.0, ["qsurface", "--time", "0"]),
         ("dimensionless", 38.0, ["qsurface", "--time", "0", "--backend", "numeric"]),
         ("dimensionless", 38.0, ["evolve", "--t-final", "1", "--samples", "2"]),
         ("dimensionless", 40.0, ["params"]),
         ("dimensionless", 1e200, ["params"]),
         ("dimensionless", 1e200, ["evolve", "--cutoff", "50", "--t-final", "1"]),
         ("dimensionless", 2.0, ["sweep", "--alpha0", "1e200", "--gamma", "0.01"]),
         ("dimensionless", 2.0, ["sweep", "--alpha0", "1e200", "--gamma", "0"]),
         ("dimensionless", 1.7e308 + 1.7e308j, ["params"]),
         ("physical", 1e200, ["params"]),
         ("physical", 1.7e308 + 1.7e308j, ["params"]),
         ("physical", 38.0, ["evolve", "--t-final", "1", "--samples", "2"])],
        ids=["analytic", "numeric", "evolve", "params", "params_huge", "evolve_huge_cutoff",
             "sweep_huge_damped", "sweep_huge_undamped", "params_modulus_overflow",
             "physical_params_huge", "physical_modulus_overflow", "physical_evolve"],
    )
    def test_alpha0_underflow_exits_4(self, tmp_path, capsys, mode, alpha0, argv):
        # e^{-38^2/2} is subnormal: no command can build |alpha0>, so all exit
        # alike, also where |alpha0|^2 or even |alpha0| would overflow a Python
        # float (in physical mode, alpha0_override is checked before derive
        # squares it)
        pair = [complex(alpha0).real, complex(alpha0).imag]
        if mode == "physical":
            doc = physical_doc()
            doc["physical"]["alpha0_override"] = pair
        else:
            doc = dimensionless_doc(alpha0=pair, res=3, cutoff=40)
        cfg = write_config(tmp_path, doc)
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("convergence failure:") and "underflows" in err
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    def test_integral_float_accepted(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=3.0, cutoff=30.0, seed=1.0))
        config = cli.load_config(cfg)
        assert (config.grid.resolution, config.cutoff, config.seed) == (3, 30, 1)

    def test_broken_series_symmetry_exits_3(self, tmp_path, capsys, monkeypatch):
        def skewed(order, t, sys):
            return 1j * np.triu(np.ones((order + 1, order + 1)))

        monkeypatch.setattr(analytic_q, "_z_matrix", skewed)
        sys_ = analytic_q.KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
        with pytest.raises(InvariantViolation):
            analytic_q.q_surface(analytic_q.PhaseGrid(resolution=1), 1.0, sys_)
        cfg = write_config(tmp_path, dimensionless_doc(res=11))
        code = cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "1.0"])
        assert code == cli.EXIT_NUMERICAL
        assert "InvariantViolation" in capsys.readouterr().err


class TestSweep:
    def test_empty_lists_header_only(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "", "--gamma", ""]
        )
        assert code == 0
        assert read_csv(tmp_path / "sweep.csv") == []

    def test_alpha0_scaling(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "1,2",
             "--gamma", "0.01"]
        )
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["alpha0"]) for r in rows] == [1.0, 2.0]
        taus = [float(r["t_dec_fitted"]) for r in rows]
        assert abs(taus[0] / taus[1] - 4.0) / 4.0 < 0.10
        for row in rows:
            assert row["fit_status"] == "ok"
            assert float(row["t_dec_formula"]) == 1.0 / (0.01 * float(row["alpha0"]) ** 2)

    def test_gamma_scaling(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "1.5",
             "--gamma", "0.01,0.02"]
        )
        rows = read_csv(tmp_path / "sweep.csv")
        taus = [float(r["t_dec_fitted"]) for r in rows]
        assert abs(taus[0] / taus[1] - 2.0) / 2.0 < 0.10

    def test_no_damping_row(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "1",
             "--gamma", "0"]
        )
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0]["fit_status"] == "no_damping"
        assert float(rows[0]["fidelity_at_tcat"]) >= 1.0 - 1e-8

    @pytest.mark.parametrize(
        "alpha0,gamma",
        [("0", "0.01"), ("1", "-0.1"), ("1", "inf"), ("nan", "0.01"),
         ("1e-200", "0.01"), ("1", "1e-320")],
        ids=["zero_alpha0_damped", "negative_gamma", "infinite_gamma", "nan_alpha0",
             "window_underflow_alpha0", "window_underflow_gamma"],
    )
    def test_bad_list_exits_2(self, tmp_path, capsys, alpha0, gamma):
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", alpha0,
             "--gamma", gamma]
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["dimensionless", "physical"])
    def test_detuned_config_rejected(self, tmp_path, capsys, mode):
        if mode == "dimensionless":
            doc = dimensionless_doc()
            doc["dimensionless"]["detuning_over_mu"] = 0.7
        else:
            doc = physical_doc()
            doc["physical"]["detuning"] = 5.0
        cfg = write_config(tmp_path, doc)
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "1",
             "--gamma", "0.01"]
        )
        assert code == cli.EXIT_CONFIG
        assert "resonance" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestDeterminism:
    def test_qsurface_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=11))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cli.main(["qsurface", "--config", cfg, "--out", str(out), "--time", "0.4"])
            outs.append((out / "qsurface.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_validate_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=21))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cli.main(["validate", "--config", cfg, "--out", str(out)])
            outs.append((out / "validate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_header_has_version_and_digest(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=3, extent=1.0))
        cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "0"])
        first = (tmp_path / "qsurface.csv").read_text().splitlines()[0]
        from kerrcat import __version__

        assert first.startswith(f"# kerrcat {__version__} config=")
        assert len(first.split("config=")[1]) == 16


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_cli_import_loads_no_scipy():
    # SciPy is a test-only oracle; importing it would more than double the CLI start-up
    code = (
        "import kerrcat.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code).stdout.strip() == "[]"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes any import of scipy, however late, raise ImportError
    cfg = write_config(tmp_path, dimensionless_doc(res=5, extent=4.0))
    runs = [
        ["params"],
        ["qsurface", "--time", "0.5"],
        ["qsurface", "--time", "0.5", "--backend", "numeric"],
        ["evolve", "--t-final", "1", "--samples", "3"],
        ["validate"],
        ["sweep", "--alpha0", "1", "--gamma", "0.05"],
    ]
    code = (
        "import json, sys; sys.modules['scipy'] = None\n"
        "from kerrcat import cli\n"
        "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))"
    )
    argvs = [argv + ["--config", cfg, "--out", str(tmp_path / argv[0])] for argv in runs]
    out = _run_python(code, json.dumps(argvs))
    assert json.loads(out.stdout.splitlines()[-1]) == [0] * len(runs)
    for argv in runs:
        assert list((tmp_path / argv[0]).iterdir())
