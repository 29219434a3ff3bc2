"""Command-line front end: params, qsurface, evolve, validate, sweep.

Configuration is a single JSON document (schema below); every output file
embeds the artifact version and a digest of that document (--out, a path,
is left out), so repeated runs are byte-identical. One writer stamps both
into params.json and validate.json, keys sorted, and returns the text that
is printed. Every CSV cell is Python's repr of the value, made by csvtext's
array kernel once every value in the file is computed; qsurface.csv is
formatted a block of grid rows at a time, so its whole text is never in
memory. Each file is written under a temporary name beside it and renamed
into place when complete, so a failed run leaves no file. Exit codes: 0
success, 2 configuration error: any ValueError, OSError or MemoryError
(including a key the schema does not name, wrong-typed or non-finite
numbers, an integer of magnitude past 2^53 - 1, a config that is not
UTF-8, a grid too large to allocate, a cutoff that is not null, physical
inputs whose derived rates are not finite or underflow, and an output
that cannot be written), 3 numerical failure
(failed check, broken invariant, a state that is not finite or not
positive, a Q outside [-1e-9, 1 + 1e-9]), 4 convergence failure (a grid
point or alpha0 beyond |alpha| = 37.6, where e^{-|alpha|^2/2} underflows).
A warning raised while the config is read is printed as one "warning:" line.

Each command computes the observables it writes from the validated states
that lindblad.evolve and analytic_q.density return, both at the derived
fock.series_order(alpha0) levels. validate compares independent
computations: each backend's initial Q with the Gaussian, the backends at
t_cat/2 and t_cat, <n>'s decay, Q's norm, the Wigner bound and, undamped,
revival and parity; not the types' invariants.

Config schema (schema_version 1)::

    {
      "schema_version": 1,
      "mode": "dimensionless" | "physical",
      "dimensionless": {"alpha0": [re, im] | number,
                        "gamma_over_mu": number,
                        "detuning_over_mu": number},
      "physical": {"b_field": tesla, "v0": volt, "d": meter,
                   "temperature": kelvin, "drive_amplitude": volt/meter,
                   "drive_duration": second, "pump_frequency": rad/s,
                   "detuning": rad/s, "gamma": 1/s,
                   "alpha0_override": [re, im] | number},
      "grid": {"center": [re, im] | number, "half_extent": number,
               "resolution": odd int},
      "cutoff": null,
      "output_dir": str,
      "seed": int
    }

Only the section that ``mode`` names may appear, and a key the schema does
not name, at any level, is a configuration error. Every field but
schema_version, mode, that section and the physical b_field, v0 and d has
a default (the physical ones are trap_params.TrapConfig's) and may be left
out or set to null, which means that default.

In dimensionless mode mu = 1 and all times are in units of 1/mu. ``sweep``
always works in those units at resonance, in either mode, and rejects a
detuned config. Its ``--alpha0`` and ``--gamma`` lists must hold finite
numbers and every gamma must be non-negative. A row with gamma > 0 also
needs a finite decoherence window 2 * 0.02 / (alpha0^2 gamma), so alpha0 = 0
(no branches, no decoherence time to fit) is rejected when any gamma is
positive. Each of these is a configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys as _sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, csvtext, fock, lindblad, trap_params
from .analytic_q import KerrSystem, PhaseGrid, density, grid_normalization, q_surface
from .errors import InsufficientDecay, InvariantViolation, SeriesNotConverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4

SCHEMA_VERSION = 1

#: the largest config or flag integer: RFC 8259's interoperable range, exact as a linspace count
_MAX_INTEGER = 2**53 - 1

#: Q values per block of qsurface.csv text, whose arrays (about 400 bytes a value) stay this small
_CSV_BLOCK = 8192


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration shared by all subcommands."""

    mode: str
    sys: KerrSystem
    derived: trap_params.DerivedParams | None
    grid: PhaseGrid
    output_dir: Path
    digest: str


def _is_number(value) -> bool:
    """A JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """A finite JSON number as a float; text, a bool, NaN, an infinity or 1e400: ValueError."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"config numbers must be finite, got {name} = {value}")
    return number


def _integer(value, name: str) -> int:
    """An integral JSON number (3, 3.0) of magnitude up to 2^53 - 1; 3.9, -1e300: ValueError."""
    number = _number(value, name)
    if number != int(number) or abs(value) > _MAX_INTEGER:
        raise ValueError(f"{name} must be an integer of magnitude up to {_MAX_INTEGER}, "
                         f"got {value!r}")
    return int(value)


def _as_complex_field(value, name: str) -> complex:
    if _is_number(value):
        return complex(_number(value, name))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    raise ValueError(f"{name} must be a number or [re, im] pair, got {value!r}")


def _fields(value, name: str, keys) -> dict:
    """The non-null fields of the JSON object ``value``; a key not in ``keys`` is a ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = value.keys() - set(keys)
    if unknown:
        raise ValueError(f"{name} has unknown keys {sorted(unknown)}; it takes {list(keys)}")
    return {key: field for key, field in value.items() if field is not None}


def load_config(path: str, out: str | None = None) -> RunConfig:
    """Parse and validate the JSON config; ``out``, when given, replaces its output_dir."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    if _integer(doc.get("schema_version"), "schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {doc['schema_version']!r}; expected {SCHEMA_VERSION}"
        )
    mode = doc.get("mode")
    if mode not in ("dimensionless", "physical"):
        raise ValueError(f"mode must be 'dimensionless' or 'physical', got {mode!r}")
    raw = _fields(doc, "config", ("schema_version", "mode", mode, "grid", "cutoff",
                                  "output_dir", "seed"))
    if mode not in raw:
        raise ValueError(f"{mode} mode requires a '{mode}' section")

    derived = None
    if mode == "dimensionless":
        sec = _fields(raw[mode], mode, ("alpha0", "gamma_over_mu", "detuning_over_mu"))
        rates = {
            "alpha0": _as_complex_field(sec.get("alpha0", 2.0), "alpha0"),
            "mu": 1.0,
            "gamma": _number(sec.get("gamma_over_mu", 0.0), "gamma_over_mu"),
            "detuning": _number(sec.get("detuning_over_mu", 0.0), "detuning_over_mu"),
        }
    else:  # every default is TrapConfig's
        trap_fields = fields(trap_params.TrapConfig)
        sec = _fields(raw[mode], mode, [field.name for field in trap_fields])
        for field in trap_fields:
            if field.default is MISSING and field.name not in sec:
                raise ValueError(f"physical section missing field {field.name!r}")
        trap = trap_params.TrapConfig(**{
            key: (_as_complex_field if key == "alpha0_override" else _number)(
                value, f"physical.{key}")
            for key, value in sec.items()
        })
        try:
            derived = trap_params.derive(trap)
        except (OverflowError, ZeroDivisionError) as exc:  # e.g. omega_c^2 overflows, mu is 0
            raise ValueError(f"physical inputs out of range: {exc}") from exc
        rates = {
            "alpha0": derived.alpha0,
            "mu": derived.mu,
            "gamma": trap.gamma,
            "detuning": derived.detuning,
        }
    # before anything squares |alpha0|: a Python float overflows past 1.3e154,
    # and abs() of a complex raises where hypot() gives inf (or nan, from a kick inf * 0)
    z = rates["alpha0"]
    fock.check_probe_range(math.hypot(z.real, z.imag))
    sys_ = KerrSystem(**rates)

    gsec = _fields(raw.get("grid", {}), "grid", ("center", "half_extent", "resolution"))
    half_extent = _number(gsec.get("half_extent", abs(sys_.alpha0) + 5.0), "grid.half_extent")
    resolution = _integer(gsec.get("resolution", 101), "grid.resolution")
    center = _as_complex_field(gsec.get("center", 0.0), "grid.center")
    grid = PhaseGrid(center=center, half_extent=half_extent, resolution=resolution)

    if "cutoff" in raw:  # the digest would record an N the run does not use
        raise ValueError(f"cutoff is derived from alpha0 and must be null, got {raw['cutoff']!r}")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ValueError(f"output_dir must be a string or null, got {output_dir!r}")
    if out is None:  # --out is a path, so not in the digest
        out = output_dir
    _integer(raw.get("seed", 0), "seed")  # read by no command, but in schema v1 and the digest

    digest_src = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(digest_src.encode()).hexdigest()[:16]
    return RunConfig(
        mode=mode,
        sys=sys_,
        derived=derived,
        grid=grid,
        output_dir=Path(out),
        digest=digest,
    )


def _json_ready(value):
    """Map floats/complex to JSON-safe values; inf becomes the string 'inf'."""
    if isinstance(value, complex):
        return [_json_ready(value.real), _json_ready(value.imag)]
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_file(path: Path, chunks) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path``, then rename it to ``path``.

    A run that fails, in computing a chunk or in writing it, leaves neither
    file; an OSError is raised again naming the path.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_text(path: Path, text: str) -> None:
    _write_file(path, [text.encode()])


def _write_csv(config: RunConfig, kind: str, columns: str, blocks) -> None:
    """Write ``<kind>.csv``: the version/digest header, ``columns``, then each block of lines."""
    header = f"# kerrcat {__version__} config={config.digest}\n{columns}\n"
    _write_file(config.output_dir / f"{kind}.csv", itertools.chain([header.encode()], blocks))


def _write_json(config: RunConfig, kind: str, doc: dict) -> str:
    """Write ``<kind>.json``: ``doc`` with the version and config digest. Returns the text."""
    doc = {**doc, "version": __version__, "config_digest": config.digest}
    text = json.dumps(_json_ready(doc), sort_keys=True, indent=2) + "\n"
    _write_text(config.output_dir / f"{kind}.json", text)
    return text


def cmd_params(config: RunConfig) -> dict:
    """DerivedParams (physical) or the dimensionless parameter set, as a dict."""
    if config.mode == "dimensionless":
        params = {
            "alpha0": config.sys.alpha0,
            "gamma_over_mu": config.sys.gamma / config.sys.mu,
            "t_cat_mu": math.pi / 2.0,
        }
    else:
        d = config.derived
        params = {
            **asdict(d),
            "cyclotron_frequency_hz": d.omega_c / (2.0 * math.pi),
            "axial_frequency_hz": d.omega_z / (2.0 * math.pi),
        }
    return {"constants": trap_params.CONSTANTS_VERSION, "mode": config.mode, "params": params}


def _check_time(t: float, flag: str) -> None:
    if not 0 <= t < math.inf:
        raise ValueError(f"{flag} must be finite and non-negative, got {t!r}")


def cmd_qsurface(config: RunConfig, t: float, backend: str) -> None:
    """Write qsurface.csv, Q over the configured grid at time ``t``, in blocks of grid rows."""
    _check_time(t, "--time")
    if backend == "analytic":
        rho = density(t, config.sys)
    else:  # "numeric", the one other choice the parser allows
        rho = fock.density_from_pure(fock.coherent_state(config.sys.alpha0))
        if t > 0:
            rho = lindblad.evolve(config.sys, rho, (t,))[-1]
    values = q_surface(config.grid, rho).values
    re, im = config.grid.axes()
    re_cells = csvtext.packed(csvtext.cells(re))
    im_cells = csvtext.packed(csvtext.cells(im))[:, np.newaxis]
    step = max(1, _CSV_BLOCK // values.shape[1])
    blocks = (
        csvtext.lines(re_cells, im_cells[i : i + step], csvtext.cells(values[i : i + step]))
        for i in range(0, len(values), step)
    )
    _write_csv(config, "qsurface", "re_alpha,im_alpha,q", blocks)


def cmd_evolve(config: RunConfig, t_final: float, samples: int) -> None:
    """Write evolve.csv, the timeseries of the numeric observables."""
    _check_time(t_final, "--t-final")
    samples = _integer(samples, "--samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    times = np.linspace(0.0, t_final, samples) if t_final > 0 else (0.0,)
    sys_ = config.sys
    rho0 = fock.density_from_pure(fock.coherent_state(sys_.alpha0))
    cat = fock.cat_state(sys_.alpha0)
    states = lindblad.evolve(sys_, rho0, times)
    table = np.array([
        (t, fock.expectation_n(rho), fock.purity(rho),
         abs(float(np.trace(rho.elements).real) - 1.0), fock.fidelity(rho, cat),
         analysis.coherence_metric(rho, sys_.alpha0, t, sys_.gamma))
        for t, rho in zip(times, states)
    ])
    _write_csv(config, "evolve", "t,mean_n,purity,trace_err,cat_fidelity,coherence",
               [csvtext.lines(*csvtext.cells(table.T))])


def _check(name: str, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "tolerance": tolerance,
        "measured": measured,
        "pass": bool(measured <= tolerance),
    }


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def cmd_validate(config: RunConfig) -> dict:
    """Checks that compare independent computations (see the module docstring)."""
    sys_ = config.sys
    checks = []
    t_cat = math.pi / (2.0 * sys_.mu)

    # the surface checks the grid's probe range before the Gaussian squares it
    surf0 = q_surface(config.grid, density(0.0, sys_))
    points = config.grid.points()

    def coherent_q(beta: complex) -> np.ndarray:
        """Q of the coherent state |beta> on the grid: exactly exp(-|alpha - beta|^2)."""
        return np.exp(-np.abs(points - beta) ** 2)

    gaussian = coherent_q(sys_.alpha0)
    checks.append(_check("initial_condition_analytic", _max_diff(surf0.values, gaussian), 1e-10))
    rho0 = fock.density_from_pure(fock.coherent_state(sys_.alpha0))
    surf0n = q_surface(config.grid, rho0)
    checks.append(_check("initial_condition_numeric", _max_diff(surf0n.values, gaussian), 1e-10))

    sample_times = (0.5 * t_cat, t_cat)
    states = lindblad.evolve(sys_, rho0, sample_times)
    for label, t, rho in zip(("t_cat_half", "t_cat"), sample_times, states):
        closed = density(t, sys_)  # density(t_cat, sys_) after the loop, for q_normalization
        ana = q_surface(config.grid, closed)
        num = q_surface(config.grid, rho)
        checks.append(_check(f"dual_path_{label}", _max_diff(ana.values, num.values), 1e-6))

    decay_err = max(
        abs(fock.expectation_n(rho) - abs(sys_.alpha0) ** 2 * math.exp(-sys_.gamma * t))
        for t, rho in zip(sample_times, states)
    )
    checks.append(_check("energy_decay", float(decay_err), 1e-8))

    norm_grid = PhaseGrid(center=0j, half_extent=abs(sys_.alpha0) + 5.0, resolution=201)
    norm = grid_normalization(q_surface(norm_grid, closed))
    checks.append(_check("q_normalization", abs(norm - 1.0), 1e-3))

    # the imaginary and real axes, then the fringes across the branch axis: two
    # periods pi / (2 |alpha0|) a side at 16 samples a period
    a0 = abs(sys_.alpha0)
    line = np.linspace(-(a0 + 3.0), a0 + 3.0, 41)
    reach = math.pi / max(a0, 1.0)
    across = (1j * sys_.alpha0 / a0 if a0 else 1j) * np.linspace(-reach, reach, 65)
    w_vals = fock.wigner(states[-1], np.concatenate([1j * line, line, across]))
    checks.append(_check("wigner_bound", float(np.max(np.abs(w_vals))) - 2.0 / math.pi, 1e-9))

    # undamped, the state is |alpha0> again at 2 pi/mu and |-alpha0> at pi/mu,
    # each turned by the detuning's e^{-i delta t}
    if sys_.gamma == 0:
        for name, turns, sign in (("revival", 2.0, 1), ("parity", 1.0, -1)):
            t = turns * math.pi / sys_.mu
            beta = sign * sys_.alpha0 * np.exp(-1j * sys_.detuning * t)
            surf = q_surface(config.grid, density(t, sys_))
            checks.append(_check(name, _max_diff(surf.values, coherent_q(beta)), 1e-8))

    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def cmd_sweep(config: RunConfig, alpha0_values, gamma_values) -> None:
    """Write sweep.csv, cat reports for every (alpha0, gamma) pair, alpha0 outer, gamma inner.

    Rows run at resonance in units of mu (mu = 1) in either mode, so a detuned
    config, whose cat target and branch probes differ, is rejected. So is a
    damped row without a finite decoherence window (_damping_window).
    """
    if config.sys.detuning != 0:
        raise ValueError(
            f"sweep runs at resonance in units of mu; detuning {config.sys.detuning!r} must be 0"
        )
    for a0 in alpha0_values:
        fock.check_probe_range(abs(a0))
        for g in gamma_values:
            if g > 0:
                _damping_window(a0, g)
    rows = [_one_cat_report(float(a0), float(g)) for a0 in alpha0_values for g in gamma_values]
    table = np.array([row[:-1] for row in rows], dtype=float).reshape(-1, 8)
    status = np.array([row[-1] for row in rows], dtype=bytes)[:, np.newaxis].view(np.uint8)
    _write_csv(config, "sweep", "alpha0,gamma,t_cat,fidelity_at_tcat,wigner_origin,"
               "coherence,t_dec_fitted,t_dec_formula,fit_status",
               [csvtext.lines(*csvtext.cells(table.T), status)])


def _damping_window(a0: float, gamma: float) -> float:
    """End 2 WINDOW_DEPTH / (alpha0^2 gamma) of the damping-only run behind the fit.

    alpha0 = 0 has no branches and so no decoherence time; an alpha0^2 gamma
    that underflows or overflows leaves no finite window either.
    """
    rate = a0**2 * gamma
    t_fin = 2.0 * analysis.WINDOW_DEPTH / rate if rate > 0 else math.inf
    if not 0 < t_fin < math.inf:
        raise ValueError(
            f"alpha0 = {a0!r}, gamma = {gamma!r}: no finite decoherence window to fit"
        )
    return t_fin


def _one_cat_report(a0: float, gamma: float) -> tuple:
    """One sweep.csv row: a Kerr run to t_cat plus a damping-only decoherence fit (mu = 1 units).

    Returns |alpha0|, gamma, t_cat, the cat fidelity, W at the origin and the
    coherence at t_cat, the fitted and formula decoherence times, and the fit status.
    """
    t_cat = math.pi / 2.0
    sys_kerr = KerrSystem(alpha0=a0, mu=1.0, gamma=gamma)
    rho0 = fock.density_from_pure(fock.coherent_state(a0))
    cat = fock.cat_state(a0)
    rho = lindblad.evolve(sys_kerr, rho0, (t_cat,))[-1]

    t_dec_formula = 1.0 / (gamma * a0**2) if gamma > 0 and a0 != 0 else math.inf
    if gamma > 0:
        sys_damp = KerrSystem(alpha0=a0, mu=0.0, gamma=gamma)  # damping only
        times = np.linspace(0.0, _damping_window(a0, gamma), 161)
        damped = lindblad.evolve(sys_damp, fock.density_from_pure(cat), times)
        coherences = [analysis.coherence_metric(r, a0, t, gamma) for t, r in zip(times, damped)]
        try:
            t_dec_fitted = analysis.decoherence_fit(times, coherences).time
            status = "ok"
        except InsufficientDecay as exc:
            t_dec_fitted = exc.lower_bound
            status = "lower_bound"
    else:
        t_dec_fitted = math.inf
        status = "no_damping"

    return (abs(a0), gamma, t_cat, fock.fidelity(rho, cat), fock.wigner(rho, 0.0),
            analysis.coherence_metric(rho, a0, t_cat, gamma), t_dec_fitted, t_dec_formula, status)


_GNUPLOT_TEMPLATES = {
    "qsurface": (
        "set datafile separator ','\n"
        "set view map\n"
        "set xlabel 're alpha'\n"
        "set ylabel 'im alpha'\n"
        "splot '{csv}' every ::1 using 1:2:3 with points pt 5 ps 0.5 palette\n"
    ),
    "evolve": (
        "set datafile separator ','\n"
        "set xlabel 't'\n"
        "plot '{csv}' every ::1 using 1:2 with lines title 'mean n', \\\n"
        "     '{csv}' every ::1 using 1:6 with lines title 'coherence'\n"
    ),
    "sweep": (
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set xlabel '|alpha0|^2'\n"
        "set ylabel 'decoherence time'\n"
        "plot '{csv}' every ::1 using ($1*$1):7 with points title 'fitted', \\\n"
        "     '{csv}' every ::1 using ($1*$1):8 with lines title 'formula'\n"
    ),
}


def _parse_float_list(text: str) -> list[float]:
    if text.strip() == "":
        return []
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse float list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"list values must be finite, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcat",
        description="Damped Kerr dynamics of a trapped electron's cyclotron mode",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[common], help="print derived parameters as JSON")
    p_q = sub.add_parser("qsurface", parents=[common], help="export a Q surface as CSV")
    p_q.add_argument("--time", type=float, default=0.0)
    p_q.add_argument("--backend", choices=("analytic", "numeric"), default="analytic")
    p_e = sub.add_parser("evolve", parents=[common], help="export an observable timeseries")
    p_e.add_argument("--t-final", type=float, required=True)
    p_e.add_argument("--samples", type=int, default=51)
    sub.add_parser("validate", parents=[common], help="run the dual-path check suite")
    p_s = sub.add_parser("sweep", parents=[common], help="cat reports over parameter lists")
    p_s.add_argument("--alpha0", default="", help="comma-separated kick amplitudes")
    p_s.add_argument("--gamma", default="", help="comma-separated damping rates (units of mu)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # a warning (the slow kick's) as one stderr line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=_sys.stderr)
            config = load_config(args.config, out=args.out)
        if args.command == "params":
            print(_write_json(config, "params", cmd_params(config)), end="")
        elif args.command == "qsurface":
            cmd_qsurface(config, args.time, args.backend)
        elif args.command == "evolve":
            cmd_evolve(config, args.t_final, args.samples)
        elif args.command == "validate":
            report = cmd_validate(config)
            print(_write_json(config, "validate", report), end="")
            if not report["pass"]:
                return EXIT_NUMERICAL
        elif args.command == "sweep":
            cmd_sweep(config, _parse_float_list(args.alpha0), _parse_float_list(args.gamma))
        if args.gnuplot and args.command in _GNUPLOT_TEMPLATES:
            script = _GNUPLOT_TEMPLATES[args.command].format(csv=f"{args.command}.csv")
            _write_text(config.output_dir / f"{args.command}.gp", script)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a grid too large
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except SeriesNotConverged as exc:
        print(f"convergence failure: {exc}", file=_sys.stderr)
        return EXIT_CONVERGENCE
    except InvariantViolation as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
