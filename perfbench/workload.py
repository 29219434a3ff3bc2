"""One benchmark workload, run in this process through ``kerrcat.cli.main``.

Usage (normally started by ``run.py``, which fixes the BLAS thread count
before NumPy loads)::

    python3 perfbench/workload.py --workload surface --seed 1 --seconds 20 --trace 0

The workload's operation list is run in passes until ``--seconds`` have
elapsed. Every operation's outputs are checked once per distinct content
and digested with SHA-256 after every pass; an operation fails on a
non-zero exit code, a failed output check, or a digest that differs from
its first pass. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from kerrcat import cli  # noqa: E402

import tracing  # noqa: E402
from run import Terminated, _terminate  # noqa: E402

T_CAT = math.pi / 2.0  # dimensionless mode: mu = 1

WORKLOADS = ("surface", "evolve", "crosscheck")

# Failures that the program is known to produce at the commit this
# benchmark was written against. They count in ``failed`` like any other,
# but do not make a run incorrect, so that their fix shows as a lower
# failed_frac. Only a failed output check matches; a crash or a digest
# mismatch of the same operation is a new failure.
KNOWN_DEFECTS = {
    "detuned_dual_path": (
        "ROADMAP item 2: analytic_q rotates alpha0 by e^{+i delta t}, "
        "lindblad by e^{-i delta t}"
    ),
}


def is_known_defect(op_name: str, failure: dict) -> bool:
    return op_name in KNOWN_DEFECTS and failure["kind"] == "check"


README_PHYSICAL = {
    "b_field": 5.715818804605135,
    "v0": 10.0,
    "d": 3.3e-3,
    "temperature": 4.0,
    "gamma": 1.0,
}


@dataclass(frozen=True)
class Scale:
    """Problem sizes. ``FULL`` is the benchmark; ``SMALL`` is for its test."""

    abs_alpha0: float = 2.0
    surface_res: int = 401
    surface_extent: float = 7.0
    probe_res: int = 41
    evolve_samples: int = 101
    sweep_alpha0: str = "1,2"
    setup_probes: int = 3


FULL = Scale()
SMALL = Scale(
    abs_alpha0=1.0,
    surface_res=21,
    surface_extent=5.0,
    probe_res=11,
    evolve_samples=11,
    sweep_alpha0="1",
    setup_probes=1,
)


class CheckFailed(Exception):
    """An output is present but wrong."""


@dataclass(frozen=True)
class Op:
    """Named group of CLI calls whose outputs are checked together.

    Each call is a kerrcat argv without ``--config`` and ``--out``; call i
    writes to its own directory, and ``check`` receives those directories.
    ``check`` raises CheckFailed and may return notes (measured margins).
    """

    name: str
    config: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[Path]], dict]


@dataclass
class OpResult:
    name: str
    passes: int = 0
    failures: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------- checks


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


# Q lies in [0, 1]; round-off may take it past either end by this much, the
# slack of the program's own q_range checks (validate, acceptance suite).
Q_SLACK = 1e-9


def _read_q(out: Path, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and Q of one qsurface.csv: res^2 rows, Q in [0, 1]."""
    data = _read_csv(out / "qsurface.csv")
    if data.shape != (res * res, 3):
        raise CheckFailed(f"qsurface.csv has shape {data.shape}, expected {(res * res, 3)}")
    q = data[:, 2]
    lo, hi = float(q.min()), float(q.max())
    if not (lo >= -Q_SLACK and hi <= 1.0 + Q_SLACK):
        raise CheckFailed(f"Q outside [0, 1] beyond {Q_SLACK}: min {lo!r}, max {hi!r}")
    return data[:, 0] + 1j * data[:, 1], q


def _require(name: str, measured: float, tolerance: float) -> None:
    if not measured <= tolerance:
        raise CheckFailed(f"{name}: {measured!r} > {tolerance!r}")


def _gaussian_error(points: np.ndarray, q: np.ndarray, alpha0: complex) -> float:
    return float(np.max(np.abs(q - np.exp(-np.abs(points - alpha0) ** 2))))


def check_params(alpha0: complex):
    def check(dirs):
        doc = json.loads((dirs[0] / "params.json").read_text())
        p = doc["params"]
        values = [v for v in p.values() if isinstance(v, (int, float))]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite derived parameter in {p}")
        echoed = complex(*p["alpha0"])
        _require("alpha0 echo", abs(echoed - alpha0), 1e-12)
        _require("t_cat = pi/(2 mu)", abs(p["t_cat"] * p["mu"] - T_CAT), 1e-12)
        return {}

    return check


def check_q_dual_t0(alpha0: complex, res: int):
    """Analytic and numeric Q at t = 0: the Gaussian, and each other."""

    def check(dirs):
        pts_a, q_a = _read_q(dirs[0], res)
        pts_n, q_n = _read_q(dirs[1], res)
        err_a = _gaussian_error(pts_a, q_a, alpha0)
        err_n = _gaussian_error(pts_n, q_n, alpha0)
        diff = float(np.max(np.abs(q_a - q_n)))
        _require("analytic Q vs exp(-|alpha - alpha0|^2)", err_a, 1e-10)
        _require("numeric Q vs exp(-|alpha - alpha0|^2)", err_n, 1e-10)
        _require("analytic vs numeric Q", diff, 1e-6)
        return {"gauss_err_analytic": err_a, "gauss_err_numeric": err_n, "max_abs_dq": diff}

    return check


def check_q(res: int):
    def check(dirs):
        _read_q(dirs[0], res)
        return {}

    return check


def check_evolve(alpha0: complex, gamma: float, samples: int):
    def check(dirs):
        data = _read_csv(dirs[0] / "evolve.csv")
        if data.shape != (samples, 6):
            raise CheckFailed(f"evolve.csv has shape {data.shape}, expected {(samples, 6)}")
        t, mean_n, fid = data[:, 0], data[:, 1], data[:, 4]
        _require("final time vs t_cat", abs(t[-1] - T_CAT), 1e-12)
        decay = float(np.max(np.abs(mean_n - abs(alpha0) ** 2 * np.exp(-gamma * t))))
        _require("mean_n vs |alpha0|^2 e^{-gamma t}", decay, 1e-8)
        _require("1 - cat_fidelity at t_cat", 1.0 - fid[-1], 1e-6)
        return {"mean_n_err": decay, "cat_fidelity_tcat": float(fid[-1])}

    return check


def check_validate(dirs):
    doc = json.loads((dirs[0] / "validate.json").read_text())
    if doc.get("pass") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
        raise CheckFailed(f"validate.json pass is {doc.get('pass')!r}; failed {failed}")
    return {}


def check_sweep(n_rows: int):
    def check(dirs):
        lines = (dirs[0] / "sweep.csv").read_text().splitlines()[2:]
        if len(lines) != n_rows:
            raise CheckFailed(f"sweep.csv has {len(lines)} rows, expected {n_rows}")
        statuses = [line.rsplit(",", 1)[-1] for line in lines]
        if any(s != "ok" for s in statuses):
            raise CheckFailed(f"fit_status {statuses}, expected all 'ok'")
        return {}

    return check


def check_detuned_probe(res: int):
    """Analytic vs numeric Q with detuning; records |dQ| either way."""

    def check(dirs):
        _, q_a = _read_q(dirs[0], res)
        _, q_n = _read_q(dirs[1], res)
        diff = float(np.max(np.abs(q_a - q_n)))
        notes = {"max_abs_dq": diff, "tolerance": 1e-6}
        if not diff <= 1e-6:
            raise CheckFailed(f"detuned analytic vs numeric Q: max |dQ| {diff!r} > 1e-06", notes)
        return notes

    return check


# ------------------------------------------------------------- workloads


def alpha0_for(seed: int, scale: Scale) -> complex:
    """The seed sets only the phase of alpha0; |alpha0| is fixed."""
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return scale.abs_alpha0 * complex(math.cos(phase), math.sin(phase))


def build(name: str, seed: int, scale: Scale) -> tuple[dict[str, dict], list[Op]]:
    """Config documents (file name -> JSON) and the operation list."""
    a0 = alpha0_for(seed, scale)
    a0_json = [a0.real, a0.imag]

    def dimensionless(gamma, grid_extent, grid_res, detuning=0.0):
        sec = {"alpha0": a0_json, "gamma_over_mu": gamma}
        if detuning:
            sec["detuning_over_mu"] = detuning
        return {
            "schema_version": 1,
            "mode": "dimensionless",
            "dimensionless": sec,
            "grid": {"center": [0.0, 0.0], "half_extent": grid_extent, "resolution": grid_res},
            "seed": seed,
        }

    if name == "surface":
        res = scale.surface_res
        configs = {
            "physical.json": {
                "schema_version": 1,
                "mode": "physical",
                "physical": {**README_PHYSICAL, "alpha0_override": a0_json},
                "seed": seed,
            },
            "surface.json": dimensionless(0.01, scale.surface_extent, res),
        }
        ops = [
            Op("params_physical", "physical.json", (("params",),), check_params(a0)),
            Op(
                "qsurface_t0_dual",
                "surface.json",
                (("qsurface", "--time", "0.0"), ("qsurface", "--time", "0.0", "--backend", "numeric")),
                check_q_dual_t0(a0, res),
            ),
            Op(
                "qsurface_tcat_half",
                "surface.json",
                (("qsurface", "--time", repr(T_CAT / 2.0)),),
                check_q(res),
            ),
            Op("qsurface_tcat", "surface.json", (("qsurface", "--time", repr(T_CAT)),), check_q(res)),
        ]
    elif name == "evolve":
        # undamped, so that the state at t_cat is the cat (fidelity check)
        configs = {"evolve.json": dimensionless(0.0, 5.0, 101)}
        samples = scale.evolve_samples
        ops = [
            Op(
                "evolve_tcat",
                "evolve.json",
                (("evolve", "--t-final", repr(T_CAT), "--samples", str(samples)),),
                check_evolve(a0, 0.0, samples),
            )
        ]
    elif name == "crosscheck":
        configs = {
            "readme.json": dimensionless(0.01, 5.0, 101),
            "detuned.json": dimensionless(0.01, 5.0, scale.probe_res, detuning=0.3),
        }
        n_rows = len(scale.sweep_alpha0.split(","))
        ops = [
            Op("validate_readme", "readme.json", (("validate",),), check_validate),
            Op(
                "sweep",
                "readme.json",
                (("sweep", "--alpha0", scale.sweep_alpha0, "--gamma", "0.01"),),
                check_sweep(n_rows),
            ),
            Op(
                "detuned_dual_path",
                "detuned.json",
                (
                    ("qsurface", "--time", "0.5"),
                    ("qsurface", "--time", "0.5", "--backend", "numeric"),
                ),
                check_detuned_probe(scale.probe_res),
            ),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return configs, ops


# ------------------------------------------------------------- measuring


def _call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Exit code, seconds and captured output of one in-process CLI call."""
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback would exit 1; record it and go on
            code = 1
            sink.write(f"{type(exc).__name__}: {exc}")
    return code, perf_counter() - start, sink.getvalue()


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Runner:
    """Runs passes of an operation list and keeps the per-operation verdicts."""

    def __init__(self, ops: list[Op], config_dir: Path, work_dir: Path):
        self.ops = ops
        self.config_dir = config_dir
        self.work_dir = work_dir
        self.results = {op.name: OpResult(op.name) for op in ops}
        self.first_digests: dict[str, dict[str, str]] = {}
        self.checked: dict[tuple, tuple[str | None, dict]] = {}
        self.bytes_per_pass: list[int] = []

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None) -> dict[str, float]:
        """One pass over the operation list; returns each operation's CLI seconds."""
        op_seconds = {}
        bytes_out = 0
        for op in self.ops:
            op_dir = self.work_dir / f"pass{index}" / op.name
            dirs = [op_dir / f"call{i}" for i in range(len(op.calls))]
            failure = None
            op_seconds[op.name] = 0.0
            for argv, out in zip(op.calls, dirs):
                full = [argv[0], "--config", str(self.config_dir / op.config), "--out", str(out)]
                full += argv[1:]
                if tracer is not None:
                    tracer.run_id = f"pass{index}/{op.name}"
                code, seconds, text = _call_cli(full)
                op_seconds[op.name] += seconds
                if code != 0 and failure is None:
                    failure = {"kind": "exit", "detail": f"{argv[0]} exited {code}: {text[-300:]}"}
            digests = _digests(op_dir)
            bytes_out += sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())
            result = self.results[op.name]
            first = self.first_digests.setdefault(op.name, digests)
            if failure is None:
                failure = self._check(op, dirs, digests)
            if failure is None and digests != first:
                failure = {"kind": "digest", "detail": "outputs differ from the first pass"}
            result.passes += 1
            if failure is not None:
                failure["pass"] = index
                result.failures.append(failure)
            shutil.rmtree(op_dir)
        self.bytes_per_pass.append(bytes_out)
        return op_seconds

    def _check(self, op: Op, dirs: list[Path], digests: dict[str, str]) -> dict | None:
        key = (op.name, tuple(sorted(digests.items())))
        if key not in self.checked:
            try:
                self.checked[key] = (None, op.check(dirs))
            except CheckFailed as exc:
                notes = exc.args[1] if len(exc.args) > 1 else {}
                self.checked[key] = (str(exc.args[0]), notes)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.checked[key] = (f"unreadable output: {type(exc).__name__}: {exc}", {})
        message, notes = self.checked[key]
        self.results[op.name].notes = notes
        if message is None:
            return None
        return {"kind": "check", "detail": message}

    def counts(self) -> tuple[int, int, bool]:
        """attempted, failed, and whether every failure is a known defect."""
        attempted = sum(r.passes for r in self.results.values())
        failed = sum(len(r.failures) for r in self.results.values())
        known = all(
            is_known_defect(r.name, f) for r in self.results.values() for f in r.failures
        )
        return attempted, failed, known


_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import kerrcat.cli
for path in sys.argv[2:]:
    kerrcat.cli.load_config(path)
print(time.monotonic())
"""


# A fixed, program-independent piece of the same kind of work: a fresh
# isolated interpreter importing a set of standard-library modules, several of
# them C extensions. It measures how fast the machine does start-up work
# at the moment of a set-up probe.
_REFERENCE_PROBE = """
import time
import argparse, asyncio, ctypes, dataclasses, decimal, difflib, email.mime.multipart
import fractions, http.server, inspect, json, logging.handlers, pydoc, sqlite3
import statistics, tarfile, typing, unittest, xml.etree.ElementTree, zipfile
print(time.monotonic())
"""

# Seconds the reference process takes on the 2-core machine this benchmark
# was written on (Python 3.11.7). setup_s is expressed at that speed.
REFERENCE_S = 0.2


def _process_seconds(args: list[str]) -> float:
    """Start of a fresh interpreter until it prints its finishing time."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.split()[-1]) - start


def setup_samples(config_paths: list[Path], probes: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``probes`` fresh interpreters, each until kerrcat.cli
    is imported and the configs loaded, and reference seconds around them.

    Reference and set-up processes alternate, starting and ending with a
    reference, so that each set-up probe has one just before and one just
    after it.
    """
    setup_args = ["-c", _SETUP_PROBE, str(SRC), *map(str, config_paths)]
    references = [_process_seconds(["-I", "-c", _REFERENCE_PROBE])]
    setups = []
    for _ in range(probes):
        setups.append(_process_seconds(setup_args))
        references.append(_process_seconds(["-I", "-c", _REFERENCE_PROBE]))
    return setups, references


def calibrated_setup_seconds(setups: list[float], references: list[float]) -> float:
    """Median set-up time at the reference machine's speed.

    On a shared host the speed of start-up work drifts by 25 % and more
    over minutes, beyond any bound the benchmark may set. Each set-up
    probe is scaled by REFERENCE_S over the mean of the reference runs on
    either side of it, which drift with it; the scaled values spread less
    than half as much as the raw ones. Work the program adds to its import
    or config loading still shows in full, because the reference does not
    run it.
    """
    return statistics.median(
        s * REFERENCE_S / ((before + after) / 2.0)
        for s, before, after in zip(setups, references, references[1:])
    )


# Never start a pass that would end past this many seconds of measuring,
# whatever --seconds asks, so that a run stays inside its time limit.
MEASURE_CAP_S = 120.0


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Measure one workload; returns the result object plus run details."""
    configs, ops = build(name, seed, scale)
    alpha0 = alpha0_for(seed, scale)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        config_dir = work / "configs"
        config_dir.mkdir()
        for file_name, doc in configs.items():
            (config_dir / file_name).write_text(json.dumps(doc, indent=2) + "\n")
        runner = Runner(ops, config_dir, work)

        setups: list[float] = []
        references: list[float] = []
        if not trace:
            setups, references = setup_samples(sorted(config_dir.iterdir()), scale.setup_probes)

        plain: list[dict[str, float]] = []  # per untraced pass: op -> seconds
        traced_walls: list[float] = []
        tracer = tracing.Tracer()
        started = perf_counter()
        longest = 0.0
        index = 0
        # at least two passes, so that every digest is compared once; after
        # that, no pass that would end past the measuring time
        while index < 2 or perf_counter() - started + longest <= min(seconds, MEASURE_CAP_S):
            pass_start = perf_counter()
            plain.append(runner.run_pass(index))
            index += 1
            if trace:
                with tracer:
                    mark = tracer.root_seconds()
                    runner.run_pass(index, tracer)
                    traced_walls.append(tracer.root_seconds() - mark)
                index += 1
            longest = max(longest, perf_counter() - pass_start)

        attempted, failed, known_only = runner.counts()
        if trace:
            plain_mean = statistics.fmean(sum(p.values()) for p in plain)
            metrics = _layer_metrics(tracer, runner, plain_mean, traced_walls, attempted, failed)
        else:
            metrics = {
                "setup_s": (calibrated_setup_seconds(setups, references), "s"),
                "wall_s": (_wall_seconds(plain), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        return {
            "correct": known_only,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "details": {
                "workload": name,
                "seed": seed,
                "alpha0": [alpha0.real, alpha0.imag],
                "passes": len(plain) + len(traced_walls),
                "op_s_passes": plain,
                "traced_wall_s_passes": traced_walls,
                "setup_raw_s_samples": setups,
                "reference_s_samples": references,
                "operations": {
                    r.name: {"passes": r.passes, "failures": r.failures, "notes": r.notes}
                    for r in runner.results.values()
                },
                "known_defects": {
                    k: v for k, v in KNOWN_DEFECTS.items() if k in runner.results
                },
            },
            "spans": tracer.dump(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _wall_seconds(passes: list[dict[str, float]]) -> float:
    """Sum over operations of each one's median seconds across passes.

    A stall on a shared machine then spoils one operation's sample, not a
    whole pass.
    """
    return sum(statistics.median(p[op] for p in passes) for op in passes[0])


def _layer_metrics(tracer, runner, plain_mean, traced_walls, attempted, failed) -> dict:
    """Per-pass means of every span's calls, total and self time, plus counts."""
    n = len(traced_walls)
    metrics = {}
    for span, totals in tracer.layer_totals().items():
        metrics[f"{span}.calls"] = (totals["calls"] / n, "count")
        metrics[f"{span}.s"] = (totals["s"] / n, "s")
        metrics[f"{span}.self_s"] = (totals["self_s"] / n, "s")
    traced = statistics.fmean(traced_walls)
    metrics["analytic_q.series_order"] = (tracer.max_series_order, "count")
    metrics["analytic_q.points"] = (tracer.q_points / n, "count")
    metrics["cli.bytes_out"] = (statistics.fmean(runner.bytes_per_pass), "B")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain_mean, "s")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    return metrics


def environment(blas_threads: str | None) -> dict:
    """Versions and machine facts recorded with every result."""
    git_sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "kerrcat").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated is not caught around CLI calls; subprocess.run kills a
    # running probe on the way out, and run() removes its work directory.
    signal.signal(signal.SIGTERM, _terminate)

    env = environment(os.environ.get("OPENBLAS_NUM_THREADS"))
    env["seed"] = args.seed
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    spans = result.pop("spans")

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, **result, "details": details, "spans": spans}))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {details['passes']} op_s {json.dumps(details['op_s_passes'])}")
    if details["setup_raw_s_samples"]:
        print(
            f"setup raw_s {json.dumps(details['setup_raw_s_samples'])} "
            f"reference_s {json.dumps(details['reference_s_samples'])}"
        )
    for name, op in details["operations"].items():
        for failure in op["failures"][:1]:
            label = "known defect" if is_known_defect(name, failure) else "FAILED"
            print(f"{label} {name} ({len(op['failures'])}/{op['passes']}): {failure['detail']}")
        if name in KNOWN_DEFECTS:
            print(f"{name} notes {json.dumps(op['notes'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Terminated:
        raise SystemExit(128 + signal.SIGTERM)
