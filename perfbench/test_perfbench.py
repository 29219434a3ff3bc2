"""Tests of the benchmark itself, on reduced problem sizes.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload  # noqa: E402

from kerrcat import cli  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {m["name"] for m in DECLARED[kind]}


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workload.WORKLOADS)


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_small_run_emits_every_declared_metric(name):
    plain = workload.run(name, seed=5, seconds=0, trace=False, scale=workload.SMALL)
    traced = workload.run(name, seed=5, seconds=0, trace=True, scale=workload.SMALL)

    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        metrics = result["metrics"]
        assert set(metrics) == _names(kind)
        assert {k: v["unit"] for k, v in metrics.items()} == _units(kind)
        assert result["correct"] is True
        assert result["attempted"] >= 1
    for value in plain["metrics"].values():
        assert value["value"] > 0

    ops = plain["details"]["operations"]
    failing = {op for op, r in ops.items() if r["failures"]}
    # the detuned dual-path probe is the only failure, and in every pass
    if name == "crosscheck":
        assert failing == {"detuned_dual_path"}
        assert plain["failed"] == ops["detuned_dual_path"]["passes"]
        assert ops["detuned_dual_path"]["notes"]["max_abs_dq"] > 1e-6
    else:
        assert failing == set() and plain["failed"] == 0

    layers = traced["metrics"]
    self_sum = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(layers["trace.wall_s"]["value"], rel=1e-9)
    if name == "evolve":
        assert layers["analytic_q.q_surface.calls"]["value"] == 0
    if name == "surface":
        assert layers["lindblad.evolve.calls"]["value"] == 0
        assert layers["analytic_q.series_order"]["value"] > 0


def _corrupting_writer(monkeypatch, corrupt):
    """Route every qsurface.csv the CLI writes through ``corrupt(n, text)``."""
    write = cli._write_text
    seen = []

    def writer(path, text):
        if path.name == "qsurface.csv":
            seen.append(path)
            text = corrupt(len(seen), text)
        write(path, text)

    monkeypatch.setattr(cli, "_write_text", writer)


def test_wrong_output_counts_as_failed(monkeypatch):
    def q_out_of_range(_, text):
        head, last = text.rstrip("\n").rsplit("\n", 1)
        re, im, _q = last.split(",")
        return f"{head}\n{re},{im},1.5\n"

    _corrupting_writer(monkeypatch, q_out_of_range)
    result = workload.run("surface", seed=5, seconds=0, trace=False, scale=workload.SMALL)
    ops = result["details"]["operations"]
    q_ops = [op for op in ops if op.startswith("qsurface")]
    assert result["correct"] is False
    assert result["failed"] == sum(ops[op]["passes"] for op in q_ops)
    assert all(f["kind"] == "check" for op in q_ops for f in ops[op]["failures"])


def test_output_changing_between_passes_counts_as_failed(monkeypatch):
    per_pass = 4  # qsurface.csv files the surface workload writes in one pass

    def trailing_newline_after_first_pass(n, text):
        return text + "\n" if n > per_pass else text

    _corrupting_writer(monkeypatch, trailing_newline_after_first_pass)
    result = workload.run("surface", seed=5, seconds=0, trace=False, scale=workload.SMALL)
    failures = [f for r in result["details"]["operations"].values() for f in r["failures"]]
    assert result["correct"] is False
    assert result["failed"] == 3  # the three qsurface operations, second pass
    assert {f["kind"] for f in failures} == {"digest"}
    assert {f["pass"] for f in failures} == {1}


def test_setup_time_is_scaled_by_the_references_around_each_probe():
    refs = [workload.REFERENCE_S] * 4
    base = workload.calibrated_setup_seconds([1.0, 1.2, 1.1], refs)
    assert base == pytest.approx(1.1)
    # a machine twice as slow slows probes and references alike
    slow = workload.calibrated_setup_seconds([2.0, 2.4, 2.2], [2 * r for r in refs])
    assert slow == pytest.approx(base)
    # set-up work the program adds shows in full
    assert workload.calibrated_setup_seconds([1.5, 1.7, 1.6], refs) == pytest.approx(1.6)
