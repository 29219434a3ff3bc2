"""Command-line front end: params, qsurface, evolve, validate, sweep.

Configuration is a single JSON document (schema below); every output file
embeds the artifact version and a digest of the resolved configuration so
repeated runs are byte-identical. Exit codes: 0 success, 2 configuration
error (including wrong-typed or non-finite numbers, and physical inputs
whose derived rates overflow or underflow), 3 numerical failure (cutoff
below the default_cutoff rule, cutoff leak, failed check, broken
invariant), 4 convergence failure (a grid point or alpha0 beyond
|alpha| = 37.6, where e^{-|alpha|^2/2} underflows).

Config schema (schema_version 1)::

    {
      "schema_version": 1,
      "mode": "dimensionless" | "physical",
      "dimensionless": {"alpha0": [re, im] | number,
                        "gamma_over_mu": number,
                        "detuning_over_mu": number (optional)},
      "physical": {"b_field": tesla, "v0": volt, "d": meter,
                   "temperature": kelvin, "drive_amplitude": volt/meter,
                   "drive_duration": second,
                   "pump_frequency": rad/s | null,
                   "detuning": rad/s | null,
                   "gamma": 1/s, "alpha0_override": [re, im] | null},
      "grid": {"center": [re, im] | number, "half_extent": number,
               "resolution": odd int},
      "cutoff": int | null,
      "output_dir": str | null,
      "seed": int
    }

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
import json
import math
import sys as _sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, fock, lindblad, trap_params
from .analytic_q import KerrSystem, PhaseGrid, q_surface, grid_normalization
from .errors import (
    ConfigError,
    CutoffLeak,
    CutoffTooSmall,
    InsufficientDecay,
    InvariantViolation,
    KerrcatError,
    SeriesNotConverged,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration shared by all subcommands."""

    mode: str
    sys: KerrSystem
    derived: trap_params.DerivedParams | None
    grid: PhaseGrid
    cutoff: int
    output_dir: Path
    seed: int
    digest: str


def _number(value, name: str) -> float:
    """``float(value)``; a value of the wrong type is a ConfigError."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be of type float, got {value!r}") from exc


def _integer(value, name: str) -> int:
    """An integral JSON number (3 or 3.0); 3.9, booleans and text are a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_complex_field(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    raise ConfigError(f"{name} must be a number or [re, im] pair, got {value!r}")


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {token}")
    return value


def load_config(path: str, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Parse and validate the JSON config, applying CLI overrides."""
    try:
        raw = json.loads(
            Path(path).read_text(), parse_float=_finite_number, parse_constant=_finite_number
        )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw.get('schema_version')!r}; expected {SCHEMA_VERSION}"
        )
    mode = raw.get("mode")
    if mode not in ("dimensionless", "physical"):
        raise ConfigError(f"mode must be 'dimensionless' or 'physical', got {mode!r}")
    if mode == "dimensionless" and "physical" in raw:
        raise ConfigError("dimensionless mode must not carry a 'physical' section")
    if mode == "physical" and "dimensionless" in raw:
        raise ConfigError("physical mode must not carry a 'dimensionless' section")

    derived = None
    if mode == "dimensionless":
        sec = raw.get("dimensionless")
        if not isinstance(sec, dict):
            raise ConfigError("dimensionless mode requires a 'dimensionless' section")
        rates = {
            "alpha0": _as_complex_field(sec.get("alpha0", 2.0), "alpha0"),
            "mu": 1.0,
            "gamma": _number(sec.get("gamma_over_mu", 0.0), "gamma_over_mu"),
            "detuning": _number(sec.get("detuning_over_mu", 0.0), "detuning_over_mu"),
        }
    else:
        sec = raw.get("physical")
        if not isinstance(sec, dict):
            raise ConfigError("physical mode requires a 'physical' section")

        def number(key, default=None):
            value = sec[key] if default is None else sec.get(key, default)
            return _number(value, f"physical.{key}")

        def optional(key):
            return number(key) if sec.get(key) is not None else None

        try:
            trap = trap_params.TrapConfig(
                b_field=number("b_field"),
                v0=number("v0"),
                d=number("d"),
                temperature=number("temperature", 4.0),
                drive_amplitude=number("drive_amplitude", 0.0),
                drive_duration=number("drive_duration", 0.0),
                pump_frequency=optional("pump_frequency"),
                detuning=optional("detuning"),
                gamma=number("gamma", 1.0),
                alpha0_override=(
                    _as_complex_field(sec["alpha0_override"], "alpha0_override")
                    if sec.get("alpha0_override") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise ConfigError(f"physical section missing field {exc}") from exc
        except KerrcatError as exc:
            raise ConfigError(str(exc)) from exc
        if trap.alpha0_override is not None:  # before derive squares it
            z = trap.alpha0_override
            fock.check_probe_range(math.hypot(z.real, z.imag))
        try:
            derived = trap_params.derive(trap)
        except (OverflowError, ZeroDivisionError) as exc:  # e.g. omega_c^2 overflows, mu is 0
            raise ConfigError(f"physical inputs out of range: {exc}") from exc
        rates = {
            "alpha0": derived.alpha0,
            "mu": derived.mu,
            "gamma": trap.gamma,
            "detuning": derived.detuning,
        }
    try:
        sys_ = KerrSystem(**rates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # before anything squares |alpha0|: a Python float overflows past 1.3e154,
    # and abs() of a complex raises where hypot() gives inf
    fock.check_probe_range(math.hypot(sys_.alpha0.real, sys_.alpha0.imag))

    gsec = raw.get("grid") or {}
    if not isinstance(gsec, dict):
        raise ConfigError(f"grid must be an object, got {gsec!r}")
    half_extent = _number(gsec.get("half_extent", abs(sys_.alpha0) + 5.0), "grid.half_extent")
    resolution = _integer(gsec.get("resolution", 101), "grid.resolution")
    center = _as_complex_field(gsec.get("center", 0.0), "grid.center")
    if overrides is not None:
        if getattr(overrides, "grid_extent", None) is not None:
            half_extent = overrides.grid_extent
        if getattr(overrides, "grid_res", None) is not None:
            resolution = overrides.grid_res
    try:
        grid = PhaseGrid(center=center, half_extent=half_extent, resolution=resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cutoff = raw.get("cutoff")
    if overrides is not None and getattr(overrides, "cutoff", None) is not None:
        cutoff = overrides.cutoff
    if cutoff is not None:
        cutoff = _integer(cutoff, "cutoff")
    else:
        # ten levels of headroom over the state-validity rule so far grid
        # probes reach machine precision, not just the 1e-12 state tolerance
        cutoff = fock.default_cutoff(sys_.alpha0) + 10
    if cutoff < 1:
        raise ConfigError(f"cutoff must be positive, got {cutoff}")

    out = raw.get("output_dir") or "."
    if overrides is not None and getattr(overrides, "out", None) is not None:
        out = overrides.out
    seed = _integer(raw.get("seed", 0), "seed")

    digest_src = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(digest_src.encode()).hexdigest()[:16]
    return RunConfig(
        mode=mode,
        sys=sys_,
        derived=derived,
        grid=grid,
        cutoff=cutoff,
        output_dir=Path(out),
        seed=seed,
        digest=digest,
    )


def _fmt(x: float) -> str:
    """Shortest round-trip decimal, capped at 17 significant digits."""
    return repr(float(x))


def _json_ready(value):
    """Map floats/complex to JSON-safe values; inf becomes the string 'inf'."""
    if isinstance(value, complex):
        return [_json_ready(value.real), _json_ready(value.imag)]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return value
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv_header(config: RunConfig) -> str:
    return f"# kerrcat {__version__} config={config.digest}\n"


def _coherent_density(alpha0: complex, cutoff: int) -> fock.DensityOperator:
    """|alpha0><alpha0|; an alpha0 whose vacuum weight underflows is SeriesNotConverged."""
    return fock.density_from_pure(fock.coherent_state(alpha0, cutoff))


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
            "omega_c": d.omega_c,
            "cyclotron_frequency_hz": d.omega_c / (2.0 * math.pi),
            "omega_z": d.omega_z,
            "axial_frequency_hz": d.omega_z / (2.0 * math.pi),
            "omega_m": d.omega_m,
            "mu": d.mu,
            "k": d.k,
            "alpha0": d.alpha0,
            "detuning": d.detuning,
            "t_cat": d.t_cat,
            "t_revival": d.t_revival,
            "t_dec": d.t_dec,
            "ratio": d.ratio,
        }
    return {
        "version": __version__,
        "config_digest": config.digest,
        "constants": trap_params.CONSTANTS_VERSION,
        "mode": config.mode,
        "params": params,
    }


def _check_time(t: float, flag: str) -> None:
    if not 0 <= t < math.inf:
        raise ConfigError(f"{flag} must be finite and non-negative, got {t!r}")


def cmd_qsurface(config: RunConfig, t: float, backend: str) -> str:
    """CSV text of Q over the configured grid at time ``t``."""
    _check_time(t, "--time")
    if backend == "analytic":
        surface = q_surface(config.grid, t, config.sys)
    elif backend == "numeric":
        rho = _coherent_density(config.sys.alpha0, config.cutoff)
        if t > 0:
            rho = lindblad.evolve(config.sys, rho, (t,))[-1].rho
        surface = lindblad.q_from_rho(rho, config.grid)
    else:
        raise ConfigError(f"backend must be 'analytic' or 'numeric', got {backend!r}")
    lines = [_csv_header(config), "re_alpha,im_alpha,q\n"]
    re_txt = [_fmt(re) for re in surface.grid.re_axis()]
    im_txt = [_fmt(im) for im in surface.grid.im_axis()]
    for im, row in zip(im_txt, surface.values.tolist()):
        lines.extend(f"{re},{im},{q!r}\n" for re, q in zip(re_txt, row))
    return "".join(lines)


def cmd_evolve(config: RunConfig, t_final: float, samples: int) -> str:
    """CSV timeseries of the numeric observables."""
    _check_time(t_final, "--t-final")
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    times = np.linspace(0.0, t_final, samples) if t_final > 0 else (0.0,)
    rho0 = _coherent_density(config.sys.alpha0, config.cutoff)
    records = lindblad.evolve(config.sys, rho0, times)
    lines = [_csv_header(config), "t,mean_n,purity,trace_err,cat_fidelity,coherence\n"]
    for r in records:
        lines.append(
            f"{_fmt(r.time)},{_fmt(r.mean_n)},{_fmt(r.purity)},"
            f"{_fmt(r.trace_error)},{_fmt(r.cat_fidelity)},{_fmt(r.coherence)}\n"
        )
    return "".join(lines)


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
    """Dual-path and invariant suite. The report lists every check."""
    sys_ = config.sys
    checks = []
    t_cat = math.pi / (2.0 * sys_.mu) if sys_.mu > 0 else 1.0
    # the surface checks the grid's probe range before the Gaussian squares it
    surf0 = q_surface(config.grid, 0.0, sys_)
    gaussian = np.exp(-np.abs(config.grid.points() - sys_.alpha0) ** 2)
    checks.append(_check("initial_condition_analytic", _max_diff(surf0.values, gaussian), 1e-10))
    rho0 = _coherent_density(config.sys.alpha0, config.cutoff)
    surf0n = lindblad.q_from_rho(rho0, config.grid)
    checks.append(_check("initial_condition_numeric", _max_diff(surf0n.values, gaussian), 1e-10))

    sample_times = (0.5 * t_cat, t_cat)
    records = lindblad.evolve(sys_, rho0, sample_times)
    for label, rec in zip(("t_cat_half", "t_cat"), records):
        ana = q_surface(config.grid, rec.time, sys_)
        num = lindblad.q_from_rho(rec.rho, config.grid)
        checks.append(_check(f"dual_path_{label}", _max_diff(ana.values, num.values), 1e-6))

    decay_err = max(
        abs(r.mean_n - abs(sys_.alpha0) ** 2 * math.exp(-sys_.gamma * r.time))
        for r in records
    )
    checks.append(_check("energy_decay", float(decay_err), 1e-8))
    checks.append(_check("trace_conservation", float(max(r.trace_error for r in records)), 1e-8))
    herm = max(_max_diff(r.rho.elements, r.rho.elements.conj().T) for r in records)
    checks.append(_check("hermiticity", herm, 1e-10))
    neg = max(-float(np.linalg.eigvalsh(r.rho.elements).min()) for r in records)
    checks.append(_check("positivity", neg, 1e-9))

    final = records[-1]
    q_min = min(float(surf0.values.min()), float(surf0n.values.min()))
    q_max = max(float(surf0.values.max()), float(surf0n.values.max()))
    checks.append(_check("q_range_low", -q_min, 1e-9))
    checks.append(_check("q_range_high", q_max - 1.0, 1e-9))

    norm_grid = PhaseGrid(center=0j, half_extent=abs(sys_.alpha0) + 5.0, resolution=201)
    norm = grid_normalization(q_surface(norm_grid, t_cat, sys_))
    checks.append(_check("q_normalization", abs(norm - 1.0), 1e-3))

    w_extent = abs(sys_.alpha0) + 3.0
    w_vals = [w for _, w in analysis.wigner_slice(final.rho, "imaginary", w_extent, 41)]
    w_vals += [w for _, w in analysis.wigner_slice(final.rho, "real", w_extent, 41)]
    checks.append(_check("wigner_bound", max(abs(w) for w in w_vals) - 2.0 / math.pi, 1e-9))

    rng = np.random.default_rng(config.seed)
    n_small = 8
    raw = rng.normal(size=(n_small, n_small)) + 1j * rng.normal(size=(n_small, n_small))
    on_band = np.eye(n_small, k=2, dtype=bool)  # single anti-diagonal m - n = -2
    masked = np.where(on_band, raw, 0.0)
    propagated = lindblad.integrate_matrix(
        masked, KerrSystem(alpha0=0.0, mu=sys_.mu, gamma=max(sys_.gamma, 0.1)), 0.1
    )
    off_band = np.where(on_band, 0.0, propagated)
    checks.append(_check("band_structure_preserved", float(np.max(np.abs(off_band))), 0.0))

    if sys_.gamma == 0:
        t_rev = 2.0 * math.pi / sys_.mu
        rev = q_surface(config.grid, t_rev, sys_)
        checks.append(_check("revival", _max_diff(rev.values, surf0.values), 1e-8))
        half = q_surface(config.grid, math.pi / sys_.mu, sys_)
        checks.append(_check("parity", _max_diff(half.values, surf0.values[::-1, ::-1]), 1e-8))

    return {
        "version": __version__,
        "config_digest": config.digest,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def cmd_sweep(config: RunConfig, alpha0_values, gamma_values) -> str:
    """Cat reports for every (alpha0, gamma) pair, alpha0 outer, gamma inner.

    Rows run at resonance in units of mu (mu = 1) in either mode, so a detuned
    config, whose cat target and branch probes differ, is rejected. So is a
    damped row without a finite decoherence window (_damping_window).
    """
    if config.sys.detuning != 0:
        raise ConfigError(
            f"sweep runs at resonance in units of mu; detuning {config.sys.detuning!r} must be 0"
        )
    for a0 in alpha0_values:
        fock.check_probe_range(abs(a0))
        for g in gamma_values:
            if g > 0:
                _damping_window(a0, g)
    lines = [
        _csv_header(config),
        "alpha0,gamma,t_cat,fidelity_at_tcat,wigner_origin,coherence,"
        "t_dec_fitted,t_dec_formula,fit_status\n",
    ]
    for a0 in alpha0_values:
        for g in gamma_values:
            report, status = _one_cat_report(float(a0), float(g))
            lines.append(
                f"{_fmt(abs(report.alpha0))},{_fmt(g)},{_fmt(report.t_cat)},"
                f"{_fmt(report.fidelity_at_tcat)},{_fmt(report.wigner_origin)},"
                f"{_fmt(report.coherence)},{_fmt(report.t_dec_fitted)},"
                f"{_fmt(report.t_dec_formula)},{status}\n"
            )
    return "".join(lines)


def _damping_window(a0: float, gamma: float) -> float:
    """End 2 WINDOW_DEPTH / (alpha0^2 gamma) of the damping-only run behind the fit.

    alpha0 = 0 has no branches and so no decoherence time; an alpha0^2 gamma
    that underflows or overflows leaves no finite window either.
    """
    rate = a0**2 * gamma
    t_fin = 2.0 * analysis.WINDOW_DEPTH / rate if rate > 0 else math.inf
    if not 0 < t_fin < math.inf:
        raise ConfigError(
            f"alpha0 = {a0!r}, gamma = {gamma!r}: no finite decoherence window to fit"
        )
    return t_fin


def _one_cat_report(a0: float, gamma: float) -> tuple[analysis.CatReport, str]:
    """Kerr run to t_cat plus a damping-only decoherence fit (mu = 1 units)."""
    cutoff = fock.default_cutoff(a0)
    t_cat = math.pi / 2.0
    try:
        sys_kerr = KerrSystem(alpha0=a0, mu=1.0, gamma=gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rec = lindblad.evolve(sys_kerr, _coherent_density(a0, cutoff), (t_cat,))[-1]

    t_dec_formula = 1.0 / (gamma * a0**2) if gamma > 0 and a0 != 0 else math.inf
    if gamma > 0:
        sys_damp = KerrSystem(alpha0=a0, mu=0.0, gamma=gamma)  # damping only
        times = np.linspace(0.0, _damping_window(a0, gamma), 161)
        damp_records = lindblad.evolve(
            sys_damp, fock.density_from_pure(fock.cat_state(a0, cutoff)), times
        )
        try:
            t_dec_fitted = analysis.fit_decoherence_time(
                times, [r.coherence for r in damp_records]
            )
            status = "ok"
        except InsufficientDecay as exc:
            t_dec_fitted = exc.lower_bound if exc.lower_bound is not None else math.inf
            status = "lower_bound"
    else:
        t_dec_fitted = math.inf
        status = "no_damping"

    report = analysis.CatReport(
        alpha0=complex(a0),
        t_cat=t_cat,
        fidelity_at_tcat=rec.cat_fidelity,
        wigner_origin=fock.wigner(rec.rho, 0.0),
        coherence=rec.coherence,
        t_dec_fitted=t_dec_fitted,
        t_dec_formula=t_dec_formula,
    )
    return report, status


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


def _emit_gnuplot(kind: str, out_dir: Path, csv_name: str) -> None:
    script = _GNUPLOT_TEMPLATES[kind].format(csv=csv_name)
    _write_text(out_dir / f"{kind}.gp", script)


def _parse_float_list(text: str) -> list[float]:
    if text.strip() == "":
        return []
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"list values must be finite, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcat",
        description="Damped Kerr dynamics of a trapped electron's cyclotron mode",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--grid-extent", type=float, default=None)
    common.add_argument("--grid-res", type=int, default=None)
    common.add_argument("--cutoff", type=int, default=None)
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
        config = load_config(args.config, overrides=args)
        out = config.output_dir
        if args.command == "params":
            doc = cmd_params(config)
            text = json.dumps(_json_ready(doc), sort_keys=True, indent=2) + "\n"
            _write_text(out / "params.json", text)
            print(text, end="")
        elif args.command == "qsurface":
            text = cmd_qsurface(config, args.time, args.backend)
            _write_text(out / "qsurface.csv", text)
            if args.gnuplot:
                _emit_gnuplot("qsurface", out, "qsurface.csv")
        elif args.command == "evolve":
            text = cmd_evolve(config, args.t_final, args.samples)
            _write_text(out / "evolve.csv", text)
            if args.gnuplot:
                _emit_gnuplot("evolve", out, "evolve.csv")
        elif args.command == "validate":
            report = cmd_validate(config)
            text = json.dumps(_json_ready(report), sort_keys=True, indent=2) + "\n"
            _write_text(out / "validate.json", text)
            print(text, end="")
            if not report["pass"]:
                return EXIT_NUMERICAL
        elif args.command == "sweep":
            text = cmd_sweep(
                config, _parse_float_list(args.alpha0), _parse_float_list(args.gamma)
            )
            _write_text(out / "sweep.csv", text)
            if args.gnuplot:
                _emit_gnuplot("sweep", out, "sweep.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except SeriesNotConverged as exc:
        print(f"convergence failure: {exc}", file=_sys.stderr)
        return EXIT_CONVERGENCE
    except (CutoffLeak, CutoffTooSmall, InvariantViolation) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
