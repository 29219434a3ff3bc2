import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrcat import __version__, analysis, analytic_q, cli, csvtext, fock, lindblad
from kerrcat.errors import InvariantViolation

import oracles


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
            "b_field": oracles.b_field_for_cyclotron(160e9),
            "v0": 10.0,
            "d": 3.3e-3,
            "temperature": 4.0,
            "gamma": gamma,
            "alpha0_override": [2.0, 0.0],
        },
        "seed": 0,
    }


def set_fields(doc, fields):
    """``doc`` with each dotted path in ``fields`` set to its value."""
    for path, value in fields.items():
        *parents, key = path.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
    return doc


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

    def test_slow_kick_warns_in_one_line(self, tmp_path, capsys):
        # a 1 ms kick against a ~16 ns axial period
        doc = physical_doc()
        del doc["physical"]["alpha0_override"]
        doc["physical"].update(drive_amplitude=1e-3, drive_duration=1e-3)
        cfg = write_config(tmp_path, doc)
        assert cli.main(["params", "--config", cfg, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: kick duration") and err.count("\n") == 1
        assert "cli.py" not in err


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

    def test_damped_large_amplitude_analytic(self, tmp_path):
        # |alpha0|^2 (1 - e^{-gamma t}) = 727 would overflow e^{...} in Z_pq;
        # in the amplitudes of a_t = alpha0 e^{-gamma t/2} nothing does
        cfg = write_config(tmp_path, dimensionless_doc(alpha0=(27.0, 0.0), gamma=0.3, res=3))
        code = cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "20"])
        assert code == cli.EXIT_OK
        assert len(read_csv(tmp_path / "qsurface.csv")) == 9

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


VALIDATE_CHECKS = [
    "initial_condition_analytic", "initial_condition_numeric", "dual_path_t_cat_half",
    "dual_path_t_cat", "energy_decay", "q_normalization", "wigner_bound",
]


class TestValidate:
    def test_default_config_passes(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc())
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        assert report["pass"] is True
        # only checks that compare independent computations, not the
        # invariants DensityOperator and QSurface enforce; no revival when damped
        assert [c["name"] for c in report["checks"]] == VALIDATE_CHECKS

    def test_gamma_zero_adds_revival_and_parity(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(gamma=0.0, res=31))
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        assert [c["name"] for c in report["checks"]] == [*VALIDATE_CHECKS, "revival", "parity"]
        assert report["pass"] is True

    def test_gamma_zero_parity_on_off_center_grid(self, tmp_path):
        # Q(alpha, pi/mu) = Q(-alpha, 0) mirrors through the origin, not the grid center
        doc = dimensionless_doc(alpha0=(1.3, -1.1), gamma=0.0, res=21)
        doc["grid"]["center"] = [0.2, -0.1]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        parity = {c["name"]: c for c in report["checks"]}["parity"]
        assert parity["measured"] <= 1e-12

    def test_wigner_bound_reaches_the_fringes(self, tmp_path):
        # at t_cat the fringes across the branch axis swing to about 0.61 at
        # |alpha0| = 4; the real and imaginary axes alone see only about 0.31
        cfg = write_config(tmp_path, dimensionless_doc(alpha0=(0.0, 4.0), gamma=0.001, res=21))
        assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        bound = {c["name"]: c for c in report["checks"]}["wigner_bound"]
        assert bound["measured"] + 2.0 / math.pi >= 0.6

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


class TestTruncationRule:
    """One rule, fock.series_order, sizes both backends' Fock space."""

    @pytest.mark.parametrize("a0", [0.0, 0.3, 2.0, 6.0, 12.0])
    def test_default_cutoff_is_the_closed_forms(self, tmp_path, monkeypatch, a0):
        cfg = write_config(tmp_path, dimensionless_doc(alpha0=(a0, 0.0), res=3))
        ana = analytic_q.density(0.0, cli.load_config(cfg).sys)
        assert ana.cutoff == fock.series_order(a0)
        bound = 1e-14 * np.max(np.abs(ana.elements))

        class Built(Exception):
            """Carries the rho(0) a command hands the propagator, and ends the run."""

        def built(sys_, rho0, times):
            raise Built(rho0)

        monkeypatch.setattr(lindblad, "evolve", built)
        for argv in (["qsurface", "--time", "1", "--backend", "numeric"],
                     ["evolve", "--t-final", "1", "--samples", "2"], ["validate"]):
            with pytest.raises(Built) as run:
                cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
            num = run.value.args[0]
            # so the backends' initial states are the same matrix, the numeric one
            # divided by the weight its amplitudes keep: 1 to rounding, 1.8e-15 off at 12
            assert num.cutoff == ana.cutoff
            assert np.max(np.abs(num.elements - ana.elements)) <= bound

    @pytest.mark.parametrize("cutoff", [35, 40, "x", 10**13, None])
    @pytest.mark.parametrize(
        "argv",
        [["params"], ["qsurface", "--time", "1", "--backend", "numeric"],
         ["evolve", "--t-final", "1", "--samples", "2"], ["validate"],
         ["sweep", "--alpha0", "1", "--gamma", "0.05"]],
        ids=["params", "qsurface", "evolve", "validate", "sweep"],
    )
    def test_cutoff_field_is_rejected(self, tmp_path, capsys, cutoff, argv):
        # the number of levels is derived: a set cutoff, even the rule's own 35
        # at |alpha0| = 2, would put in the digest an N the run need not use
        cfg = write_config(tmp_path, dimensionless_doc(res=3, cutoff=cutoff))
        out = tmp_path / "out"
        code = cli.main(argv + ["--config", cfg, "--out", str(out)])
        if cutoff is None:
            assert code == cli.EXIT_OK
            return
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cutoff") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("a0", [0.0, 1e-11])
    @pytest.mark.parametrize(
        "argv",
        [["qsurface", "--time", "1", "--backend", "numeric"],
         ["evolve", "--t-final", "1", "--samples", "3"],
         ["validate"]],
        ids=["qsurface_numeric", "evolve", "validate"],
    )
    def test_vacuum_kick_runs(self, tmp_path, a0, argv):
        # |0> on series_order's two levels, through each command that propagates it
        cfg = write_config(tmp_path, dimensionless_doc(alpha0=(a0, 0.0), res=11))
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK


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
            ({"grid.resolution": 3.9}, ["qsurface", "--time", "0"]),
            ({"cutoff": 40.7}, ["qsurface", "--time", "0"]),
            ({"seed": 2.5}, ["params"]),
            ({"grid.resolution": True}, ["params"]),
            ({"cutoff": True}, ["params"]),
            ({"seed": False}, ["params"]),
            ({"physical.b_field": 1e160}, ["params"]),
            ({"physical.b_field": 1e-170}, ["params"]),
            ({"physical.b_field": 1e-300}, ["evolve", "--t-final", "1"]),
            # mu ~ 2e-309 is subnormal, and 2 pi / mu overflows without raising
            ({"physical.b_field": 1e-155}, ["params"]),
            ({"physical.b_field": 1e-155}, ["validate"]),
            # a number is a JSON int or float, never text or a bool
            ({"dimensionless.gamma_over_mu": "0.5"}, ["params"]),
            ({"dimensionless.gamma_over_mu": " 0.5 "}, ["params"]),
            ({"dimensionless.gamma_over_mu": "1e-2"}, ["params"]),
            ({"dimensionless.gamma_over_mu": True}, ["params"]),
            ({"physical.b_field": "5.7"}, ["params"]),
            ({"dimensionless.alpha0": True}, ["params"]),
            ({"dimensionless.gamma_over_mu": 10**400}, ["params"]),
            ({"dimensionless.alpha0": [10**400, 0]}, ["params"]),
            # output_dir is a string or null, whatever --out says
            ({"output_dir": 5}, ["params"]),
            ({"output_dir": ["a"]}, ["params"]),
            ({"output_dir": {}}, ["params"]),
            ({"output_dir": True}, ["params"]),
            # grid is an object or null; a falsy value is not the default grid
            ({"grid": []}, ["params"]),
            ({"grid": 0}, ["params"]),
            ({"grid": ""}, ["params"]),
            # sizes past 2^53 - 1, or too large to allocate, fail before any work;
            # so does a cutoff of any value (test_cutoff_field_is_rejected)
            ({"cutoff": 10**13}, ["evolve", "--t-final", "1"]),
            ({"grid.resolution": 10**7 + 1}, ["qsurface", "--time", "0"]),
            ({"cutoff": 1e300}, ["evolve", "--t-final", "1"]),
            ({"grid.resolution": 2**63 - 1}, ["qsurface", "--time", "0"]),
            ({"grid.resolution": 2**62 + 1}, ["qsurface", "--time", "0"]),
            ({}, ["evolve", "--t-final", "1", "--samples", str(2**63 - 1)]),
            ({"seed": 2**53}, ["params"]),
            # every key is one the schema names, at every level
            ({"grids": {"half_extent": 3.0}}, ["params"]),
            ({"dimensionless.gamma_over_nu": 0.5}, ["params"]),
            ({"physical.temprature": 300.0}, ["params"]),
            ({"grid.resolutoin": 11}, ["qsurface", "--time", "0"]),
            ({"schema_version": True}, ["params"]),
            # the integer range is symmetric
            ({"seed": -2**53}, ["params"]),
            ({"seed": -1e300}, ["params"]),
            # every derived rate is finite: omega_m is -inf, then omega_z is inf
            ({"physical.temperature": 1e308}, ["params"]),
            ({"physical.v0": 1.7e308, "physical.d": 1e-10}, ["params"]),
        ],
        ids=["nan_gamma", "inf_alpha0", "negative_time", "negative_t_final",
             "negative_time_numeric", "nan_t_final", "text_gamma", "text_detuning",
             "text_cutoff", "text_resolution", "text_seed", "text_b_field", "text_grid",
             "fractional_resolution", "fractional_cutoff", "fractional_seed",
             "bool_resolution", "bool_cutoff", "bool_seed", "overflowing_b_field",
             "mu_underflow_b_field", "underflowing_b_field", "subnormal_mu_params",
             "subnormal_mu_validate",
             "numeric_text_gamma", "padded_text_gamma", "exponent_text_gamma", "bool_gamma",
             "numeric_text_b_field", "bool_alpha0", "overflowing_int_gamma",
             "overflowing_int_alpha0", "int_output_dir", "list_output_dir", "object_output_dir",
             "bool_output_dir", "empty_list_grid", "zero_grid", "empty_text_grid",
             "unallocatable_cutoff", "unallocatable_resolution", "huge_cutoff",
             "int64_max_resolution", "too_big_resolution", "int64_max_samples",
             "seed_past_2_53", "unknown_top_level_key", "unknown_dimensionless_key",
             "unknown_physical_key", "unknown_grid_key", "bool_schema_version",
             "seed_below_minus_2_53", "huge_negative_seed", "infinite_omega_m",
             "infinite_omega_z"],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, fields, argv):
        # keys are dotted paths into the config; a physical.* key edits the physical one
        physical = any(key.startswith("physical.") for key in fields)
        doc = set_fields(physical_doc() if physical else dimensionless_doc(res=11), fields)
        cfg = write_config(tmp_path, doc)
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    @pytest.mark.parametrize("field", ["b_field", "v0", "d"])
    @pytest.mark.parametrize("null", [False, True], ids=["absent", "null"])
    def test_missing_physical_field_is_named(self, tmp_path, capsys, field, null):
        doc = physical_doc()
        if null:
            doc["physical"][field] = None
        else:
            del doc["physical"][field]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["params", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: physical section missing field '{field}'\n"
        assert "__init__" not in err

    @pytest.mark.parametrize(
        "path",
        ["grid", "output_dir", "cutoff", "seed", "dimensionless.alpha0",
         "dimensionless.gamma_over_mu", "dimensionless.detuning_over_mu", "grid.center",
         "grid.half_extent", "grid.resolution", "physical.temperature",
         "physical.drive_amplitude", "physical.drive_duration", "physical.pump_frequency",
         "physical.detuning", "physical.gamma", "physical.alpha0_override"],
    )
    def test_null_is_absent(self, tmp_path, path):
        # a null field reads as the default its key has when left out; only
        # the digest, taken over the document as written, tells them apart
        def doc():
            return physical_doc() if path.startswith("physical.") else dimensionless_doc(res=11)

        *parents, key = path.split(".")
        absent = doc()
        section = absent
        for name in parents:
            section = section[name]
        section.pop(key, None)
        loaded = cli.load_config(write_config(tmp_path, absent, "absent.json"))
        null = cli.load_config(write_config(tmp_path, set_fields(doc(), {path: None})))
        assert null.digest != loaded.digest
        assert replace(null, digest=loaded.digest) == loaded

    @pytest.mark.parametrize(
        "fields, argv",
        [
            ({"dimensionless.gamma_over_mu": 1e308}, ["evolve", "--t-final", "1"]),
            ({"dimensionless.gamma_over_mu": 1e308}, ["qsurface", "--time", "1",
                                                       "--backend", "numeric"]),
            ({"dimensionless.detuning_over_mu": 1e308}, ["evolve", "--t-final", "1"]),
            ({"dimensionless.detuning_over_mu": 1e308}, ["qsurface", "--time", "1",
                                                         "--backend", "numeric"]),
            ({"dimensionless.detuning_over_mu": 1e18}, ["validate"]),
            ({"dimensionless.gamma_over_mu": 1e308}, ["validate"]),
            ({"dimensionless.detuning_over_mu": 1e308}, ["validate"]),
        ],
        ids=["gamma_evolve", "gamma_qsurface", "detuning_evolve", "detuning_qsurface",
             "detuning_validate", "gamma_validate", "detuning_overflow_validate"],
    )
    def test_extreme_rates_exit_3(self, tmp_path, capsys, fields, argv):
        # rates of 1e308 overflow the propagator's sum, or the closed form's
        # exponent, to a non-finite state; at 1e18 mu (m^2 - n^2) is lost
        # next to delta (m - n) and the state is not positive: all are
        # numerical failures, without a warning or a traceback
        doc = set_fields(dimensionless_doc(alpha0=(1.0, 0.0), res=11), fields)
        cfg = write_config(tmp_path, doc)
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: InvariantViolation:")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    def test_overflowing_damping_decays_to_vacuum(self, tmp_path):
        # at gamma = 1e308 the closed form's exponent overflows to -inf, whose
        # e^{-inf} = 0 is the exact limit: the state has decayed to |0>
        doc = dimensionless_doc(alpha0=(1.0, 0.0), gamma=1e308, res=11)
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["qsurface", "--time", "1", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "qsurface.csv")
        alpha = np.array([complex(float(r["re_alpha"]), float(r["im_alpha"])) for r in rows])
        q = np.array([float(r["q"]) for r in rows])
        assert np.max(np.abs(q - np.exp(-np.abs(alpha) ** 2))) < 1e-10

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    def test_overflowing_damping_leaves_t0_gaussian(self, tmp_path, backend):
        # Z_pq(0) = 1 exactly: the overflowing exponent (p + q) lam is never
        # multiplied by t = 0, which would give NaN
        doc = dimensionless_doc(alpha0=(1.0, 0.0), gamma=1e308, res=11)
        cfg = write_config(tmp_path, doc)
        argv = ["qsurface", "--time", "0", "--backend", backend]
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        rows = read_csv(tmp_path / "qsurface.csv")
        alpha = np.array([complex(float(r["re_alpha"]), float(r["im_alpha"])) for r in rows])
        q = np.array([float(r["q"]) for r in rows])
        assert np.max(np.abs(q - np.exp(-np.abs(alpha - 1.0) ** 2))) < 1e-10

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
         ("dimensionless", 1e200, ["evolve", "--t-final", "1"]),
         ("dimensionless", 2.0, ["sweep", "--alpha0", "1e200", "--gamma", "0.01"]),
         ("dimensionless", 2.0, ["sweep", "--alpha0", "1e200", "--gamma", "0"]),
         ("dimensionless", 1.7e308 + 1.7e308j, ["params"]),
         ("physical", 1e200, ["params"]),
         ("physical", 1.7e308 + 1.7e308j, ["params"]),
         ("physical", 38.0, ["evolve", "--t-final", "1", "--samples", "2"]),
         ("kick", 1e150, ["params"]),
         ("kick", 1e300, ["params"]),
         ("kick", 1.7e308, ["params"]),
         ("kick", 1.7e308, ["qsurface", "--time", "0"])],
        ids=["analytic", "numeric", "evolve", "params", "params_huge", "evolve_huge_cutoff",
             "sweep_huge_damped", "sweep_huge_undamped", "params_modulus_overflow",
             "physical_params_huge", "physical_modulus_overflow", "physical_evolve",
             "kick_huge", "kick_squares_past_float", "kick_inf", "kick_inf_qsurface"],
    )
    def test_alpha0_underflow_exits_4(self, tmp_path, capsys, mode, alpha0, argv):
        # e^{-38^2/2} is subnormal: no command can build |alpha0>, so all exit
        # alike, also where |alpha0|^2 or even |alpha0| would overflow a Python
        # float (derive's decoherence time catches that overflow, and the one
        # range check runs after derive, before KerrSystem; a kick, here
        # drive_amplitude in V/m for 1 ps, gives |alpha0| ~ 1e145 and 1e295,
        # and at 1.7e308 V/m it overflows to inf)
        pair = [complex(alpha0).real, complex(alpha0).imag]
        if mode == "physical":
            doc = physical_doc()
            doc["physical"]["alpha0_override"] = pair
        elif mode == "kick":
            doc = physical_doc()
            del doc["physical"]["alpha0_override"]
            doc["physical"].update(drive_amplitude=alpha0, drive_duration=1e-12)
        else:
            doc = dimensionless_doc(alpha0=pair, res=3)
        cfg = write_config(tmp_path, doc)
        code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("convergence failure:") and "underflows" in err
        assert not list(tmp_path.glob(f"{argv[0]}.*"))

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(dimensionless_doc(seed="?")).encode().replace(b"?", b"\xff"))
        code = cli.main(["params", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: 'utf-8' codec")
        assert not (tmp_path / "params.json").exists()

    def test_integral_float_accepted(self, tmp_path):
        cfg = write_config(tmp_path, dimensionless_doc(res=3.0, seed=1.0))
        assert cli.load_config(cfg).grid.resolution == 3

    def test_broken_series_symmetry_exits_3(self, tmp_path, capsys, monkeypatch):
        def skewed(order, t, sys):
            return 1j * np.triu(np.ones((order + 1, order + 1)))

        monkeypatch.setattr(analytic_q, "_kernel", skewed)
        sys_ = analytic_q.KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
        with pytest.raises(InvariantViolation):
            analytic_q.density(1.0, sys_)
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

    def test_subnormal_gamma_row(self, tmp_path):
        # the damping-only leg runs to t ~ 1e305, where 1 / gamma overflows
        # NumPy's complex divide; the fit still sees C decay from 1
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "2",
             "--gamma", "2.225073858507203e-309"]
        )
        assert code == 0
        row = read_csv(tmp_path / "sweep.csv")[0]
        assert row["fit_status"] == "ok"
        # the initial 1/e time 1/(2 gamma |alpha0|^2), multiplied out in range
        assert abs(float(row["t_dec_fitted"]) * 2.225073858507203e-309 * 8.0 - 1.0) < 0.05

    def test_fast_damping_row(self, tmp_path):
        # the fit window is ~3e-14 long, shorter than a fit in unscaled times resolves
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "2",
             "--gamma", "1e11"]
        )
        assert code == 0
        row = read_csv(tmp_path / "sweep.csv")[0]
        assert row["fit_status"] == "ok"
        assert abs(float(row["t_dec_fitted"]) * 1e11 * 8.0 - 1.0) < 0.05

    def test_unresolvable_rate_is_a_lower_bound(self, tmp_path):
        # at alpha0 = 1 the fitted 1/e time 1/(2 gamma) is past the float
        # range, so the row gives the window end as a lower bound, not an inf "ok"
        gamma = 2.225073858507203e-309
        cfg = write_config(tmp_path, dimensionless_doc())
        code = cli.main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--alpha0", "1",
             "--gamma", repr(gamma)]
        )
        assert code == 0
        row = read_csv(tmp_path / "sweep.csv")[0]
        assert row["fit_status"] == "lower_bound"
        assert float(row["t_dec_fitted"]) == 2.0 * analysis.WINDOW_DEPTH / gamma < math.inf

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


def expected_csv(doc, columns, rows) -> bytes:
    """The bytes of an export of ``doc``: header line, column line, one line per row."""
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    lines = [f"# kerrcat {__version__} config={digest.hexdigest()[:16]}", columns]
    lines += [",".join(cells) for cells in rows]
    return "".join(line + "\n" for line in lines).encode()


def evolve_rows(sys_, rho0, times):
    """evolve.csv's cells: t, <n>, purity, |tr rho - 1|, cat fidelity and coherence per state."""
    cat = fock.cat_state(sys_.alpha0)
    return [
        [repr(float(x)) for x in
         (t, fock.expectation_n(rho), fock.purity(rho),
          abs(float(np.trace(rho.elements).real) - 1.0), fock.fidelity(rho, cat),
          analysis.coherence_metric(rho, sys_.alpha0, t, sys_.gamma))]
        for t, rho in zip(times, lindblad.evolve(sys_, rho0, times))
    ]


class TestCsvExport:
    """The exact bytes of each CSV, and what a run that fails leaves behind.

    The rows are written one at a time, so no single string holds a file's
    text; these oracles format library values with ``repr`` themselves.
    """

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    def test_qsurface_bytes(self, tmp_path, backend):
        doc = dimensionless_doc(res=41)
        cfg = write_config(tmp_path, doc)
        argv = ["qsurface", "--time", "0.7", "--backend", backend]
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 0
        sys_ = analytic_q.KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
        grid = analytic_q.PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        if backend == "analytic":
            rho = analytic_q.density(0.7, sys_)
        else:
            rho0 = fock.density_from_pure(fock.coherent_state(2.0))
            rho = lindblad.evolve(sys_, rho0, (0.7,))[-1]
        q = analytic_q.q_surface(grid, rho).values
        re_axis, im_axis = grid.axes()
        rows = [
            [repr(float(re)), repr(float(im)), repr(float(q[i, j]))]
            for i, im in enumerate(im_axis)
            for j, re in enumerate(re_axis)
        ]
        expected = expected_csv(doc, "re_alpha,im_alpha,q", rows)
        assert (tmp_path / "qsurface.csv").read_bytes() == expected

    def test_evolve_bytes(self, tmp_path):
        doc = dimensionless_doc(gamma=0.1)
        cfg = write_config(tmp_path, doc)
        argv = ["evolve", "--t-final", "2.0", "--samples", "5"]
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 0
        sys_ = analytic_q.KerrSystem(alpha0=2.0, mu=1.0, gamma=0.1)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        rows = evolve_rows(sys_, rho0, np.linspace(0.0, 2.0, 5))
        columns = "t,mean_n,purity,trace_err,cat_fidelity,coherence"
        assert (tmp_path / "evolve.csv").read_bytes() == expected_csv(doc, columns, rows)

    def test_sweep_bytes(self, tmp_path):
        doc = dimensionless_doc()
        cfg = write_config(tmp_path, doc)
        argv = ["sweep", "--alpha0", "1,1.5", "--gamma", "0"]
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 0
        rows = []
        for a0 in (1.0, 1.5):
            rho0 = fock.density_from_pure(fock.coherent_state(a0))
            sys_ = analytic_q.KerrSystem(alpha0=a0, mu=1.0, gamma=0.0)
            rho = lindblad.evolve(sys_, rho0, (math.pi / 2,))[-1]
            values = (a0, 0.0, math.pi / 2, fock.fidelity(rho, fock.cat_state(a0)),
                      fock.wigner(rho, 0.0), analysis.coherence_metric(rho, a0, math.pi / 2, 0.0),
                      math.inf, math.inf)
            rows.append([repr(float(x)) for x in values] + ["no_damping"])
        columns = ("alpha0,gamma,t_cat,fidelity_at_tcat,wigner_origin,coherence,"
                   "t_dec_fitted,t_dec_formula,fit_status")
        assert (tmp_path / "sweep.csv").read_bytes() == expected_csv(doc, columns, rows)

    @pytest.mark.parametrize(
        "doc, argv, code",
        [(dimensionless_doc(extent=38.0, res=3), ["qsurface", "--time", "0"],
          cli.EXIT_CONVERGENCE),
         (dimensionless_doc(alpha0=(1.0, 0.0), gamma=1e308, res=11),
          ["qsurface", "--time", "1", "--backend", "numeric"], cli.EXIT_NUMERICAL)],
        ids=["probe_underflow", "overflowing_damping"],
    )
    def test_failed_run_writes_nothing(self, tmp_path, doc, argv, code):
        # the CSV is opened only once every row is computed
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", cfg, "--out", str(out), "--gnuplot"]) == code
        assert not out.exists()

    def test_qsurface_memory_per_grid_point(self, tmp_path):
        # the peak is the Q kernel's arrays, about 40 bytes a point; holding
        # the CSV text (56 bytes a point here) at once took about 180
        res = 501
        cfg = write_config(tmp_path, dimensionless_doc(extent=7.0, res=res))
        tracemalloc.start()
        try:
            code = cli.main(["qsurface", "--config", cfg, "--out", str(tmp_path), "--time", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * res**2

    def test_formatter_failure_leaves_old_file(self, tmp_path, monkeypatch):
        # qsurface.csv at 101^2 is written in two blocks of grid rows; a failure
        # in the second leaves the file of the run before, and no temporary
        cfg = write_config(tmp_path, dimensionless_doc(res=101))
        out = tmp_path / "out"
        argv = ["qsurface", "--config", cfg, "--out", str(out)]
        assert cli.main(argv + ["--time", "0"]) == 0
        before = (out / "qsurface.csv").read_bytes()
        lines = csvtext.lines
        calls = []

        def failing(*columns):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return lines(*columns)

        monkeypatch.setattr(csvtext, "lines", failing)
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli.main(argv + ["--time", "0.5"])
        assert len(calls) == 2
        assert [p.name for p in out.iterdir()] == ["qsurface.csv"]
        assert (out / "qsurface.csv").read_bytes() == before

    def test_write_error_midway_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, dimensionless_doc(res=101))
        out = tmp_path / "out"
        lines = csvtext.lines
        calls = []

        def disk_full(*columns):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return lines(*columns)

        monkeypatch.setattr(csvtext, "lines", disk_full)
        code = cli.main(["qsurface", "--config", cfg, "--out", str(out), "--time", "0"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / 'qsurface.csv'}: ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["params"], ["qsurface", "--time", "0.3", "--gnuplot"], ["evolve", "--t-final", "1"],
         ["validate"], ["sweep", "--alpha0", "1", "--gamma", "0"]],
        ids=["params", "qsurface", "evolve", "validate", "sweep"],
    )
    def test_out_is_a_file_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, dimensionless_doc(res=11))
        taken = tmp_path / "taken"
        taken.write_bytes(b"keep")
        assert cli.main(argv + ["--config", cfg, "--out", str(taken)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {taken}/")
        assert captured.err.count("\n") == 1
        assert taken.read_bytes() == b"keep"


def assert_repr_cells(path: Path, text_columns: int = 0) -> None:
    """Every number cell s of the CSV's data lines is repr(float(s))."""
    for line in path.read_text().splitlines()[2:]:
        cells = line.split(",")
        for cell in cells[: len(cells) - text_columns]:
            assert repr(float(cell)) == cell


@settings(derandomize=True, deadline=None, database=None, max_examples=8)
@given(
    alpha0=st.complex_numbers(max_magnitude=3.0),
    gamma=st.floats(0.0, 1.0),
    res=st.sampled_from([1, 3, 5, 7, 9]),
    extent=st.floats(0.5, 6.0),
    t=st.floats(0.0, 3.0),
    samples=st.integers(1, 6),
)
def test_random_configs_write_repr_cells(tmp_path_factory, alpha0, gamma, res, extent, t, samples):
    tmp_path = tmp_path_factory.mktemp("csv")
    doc = dimensionless_doc(alpha0=(alpha0.real, alpha0.imag), gamma=gamma, extent=extent, res=res)
    cfg = write_config(tmp_path, doc)
    sys_ = analytic_q.KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma)
    grid = analytic_q.PhaseGrid(center=0j, half_extent=extent, resolution=res)
    rho0 = fock.density_from_pure(fock.coherent_state(alpha0))

    def run(*argv, code=0):
        out = tmp_path / "_".join(argv)
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == code
        return out / f"{argv[0]}.csv"

    for backend in ("analytic", "numeric"):
        path = run("qsurface", "--time", repr(t), "--backend", backend)
        if backend == "analytic":
            rho = analytic_q.density(t, sys_)
        else:
            rho = lindblad.evolve(sys_, rho0, (t,))[-1] if t > 0 else rho0
        q = analytic_q.q_surface(grid, rho).values
        re_axis, im_axis = grid.axes()
        rows = [[repr(float(re)), repr(float(im)), repr(float(q[i, j]))]
                for i, im in enumerate(im_axis) for j, re in enumerate(re_axis)]
        assert_repr_cells(path)
        assert path.read_bytes() == expected_csv(doc, "re_alpha,im_alpha,q", rows)

    path = run("evolve", "--t-final", repr(t), "--samples", str(samples))
    times = np.linspace(0.0, t, samples) if t > 0 else (0.0,)
    rows = evolve_rows(sys_, rho0, times)
    assert_repr_cells(path)
    columns = "t,mean_n,purity,trace_err,cat_fidelity,coherence"
    assert path.read_bytes() == expected_csv(doc, columns, rows)

    # sweep rows are real |alpha0| at resonance; a damped row needs alpha0 != 0,
    # and a subnormal alpha0^2 gamma, whose window 2 WINDOW_DEPTH / (alpha0^2 gamma)
    # is not finite, is a config error
    a0 = max(abs(alpha0), 0.1)
    rate = a0**2 * gamma
    if gamma > 0 and (rate == 0 or 2.0 * analysis.WINDOW_DEPTH / rate == math.inf):
        run("sweep", "--alpha0", repr(a0), "--gamma", repr(gamma), code=2)
        return
    path = run("sweep", "--alpha0", repr(a0), "--gamma", repr(gamma))
    *values, status = cli._one_cat_report(a0, gamma)
    assert_repr_cells(path, text_columns=1)
    columns = ("alpha0,gamma,t_cat,fidelity_at_tcat,wigner_origin,coherence,"
               "t_dec_fitted,t_dec_formula,fit_status")
    expected = expected_csv(doc, columns, [[repr(float(x)) for x in values] + [status]])
    assert path.read_bytes() == expected


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


# JSON values for fields that want a number: tiny, huge and signed numbers,
# text, booleans, null, lists and objects. A grid resolution sets an
# allocation, so it draws only small or rejected values; every cutoff but
# null is rejected before any is made.
extreme = st.sampled_from([0, -0.0, 5e-324, 1e-300, -1e-12, 1e12, 1e300, 1.7e308, -1e308, 2**70])
wrong = st.sampled_from(["x", "1.0", True, False, None, [], [1.0], {}, {"re": 1.0}])
numbers = st.one_of(extreme, st.floats(allow_nan=False, allow_infinity=False), wrong)
fuzz_fields = {
    # |alpha0| <= 3 propagates in well under a second; past 37.6 no command
    # builds |alpha0> at all
    "dimensionless.alpha0": st.one_of(
        st.complex_numbers(max_magnitude=3.0).map(lambda z: [z.real, z.imag]),
        st.floats(-3.0, 3.0), extreme, wrong,
        st.sampled_from([[0.0, -1e300], [1.0, "x"], [1.0, 2.0, 3.0]]),
    ),
    "dimensionless.gamma_over_mu": numbers,
    "dimensionless.detuning_over_mu": numbers,
    "grid.center": st.one_of(numbers, st.lists(numbers, max_size=3)),
    "grid.half_extent": numbers,
    "grid.resolution": st.one_of(st.integers(-1, 11), st.sampled_from([3.0, 2.5, 1e300]), wrong),
    "cutoff": st.one_of(st.integers(-3, 60), st.sampled_from([40.0, 40.5]), wrong),
    "seed": numbers,
}


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    doc=st.fixed_dictionaries({}, optional=fuzz_fields),
    t=st.sampled_from(["0", "0.5", repr(math.pi / 2), "1e300"]),
    backend=st.sampled_from(["analytic", "numeric"]),
    sweep=st.sampled_from([("", ""), ("1", "0"), ("0,1.5", "0.1"), ("2", "1e308")]),
)
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path_factory, doc, t, backend, sweep):
    # every run ends in 0, 2, 3 or 4 with at most a one-line message: an
    # exception cli.main does not map, or a RuntimeWarning, fails the test
    tmp_path = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(tmp_path, set_fields(dimensionless_doc(res=3), doc))
    commands = [["params"], ["qsurface", "--time", t, "--backend", backend],
                ["evolve", "--t-final", t, "--samples", "3"], ["validate"],
                ["sweep", "--alpha0", sweep[0], "--gamma", sweep[1]]]
    for argv in commands:
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path / argv[0])])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_CONVERGENCE)
        assert err.getvalue().count("\n") <= 1
