"""Physical parameters of the trapped-electron cyclotron mode.

All inputs are SI (tesla, volt, meter, kelvin, volt/meter, second). The
derived formulas are the SI equivalents of the trap relations:

    omega_c = e B / m                       cyclotron angular frequency
    omega_z^2 = e V0 / (m d^2)              axial angular frequency
    mu = hbar omega_c^2 / (2 m c^2)         relativistic anharmonicity
    omega_M = omega_c [1 - k_B T/(2 m c^2) - hbar omega_c/(2 m c^2)]
    k = (e / (hbar omega_p)) sqrt(hbar omega_c / (2 m))
    alpha0 = k * eps * tau                  kick amplitude (dimensionless)

The drive coupling k is fixed by requiring alpha0 dimensionless with the
drive amplitude eps in volt/meter; k itself carries units (V s/m)^-1.
Physical constants are pinned (CODATA 2018) so every derived value is
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

CONSTANTS_VERSION = "CODATA-2018"

ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg
HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m/s (exact)
BOLTZMANN = 1.380649e-23  # J/K (exact)

#: warn when the kick duration exceeds this fraction of the axial period
KICK_VALIDITY_FRACTION = 0.1


@dataclass(frozen=True)
class TrapConfig:
    """Raw hardware and physics inputs.

    ``pump_frequency`` and ``detuning`` are alternative ways to place the
    drive; give at most one (default: resonant, omega_p = omega_M).
    ``alpha0_override`` bypasses the k*eps*tau kick estimate, which is the
    practical input path since the drive amplitude is rarely calibrated.
    """

    b_field: float  # tesla
    v0: float  # volt
    d: float  # meter
    temperature: float = 4.0  # kelvin
    drive_amplitude: float = 0.0  # volt/meter
    drive_duration: float = 0.0  # second
    pump_frequency: float | None = None  # rad/s
    detuning: float | None = None  # rad/s, omega_M - omega_p
    gamma: float = 1.0  # 1/s
    alpha0_override: complex | None = None

    def __post_init__(self):
        if self.b_field <= 0:
            raise ValueError(f"magnetic field must be positive, got {self.b_field}")
        if self.v0 <= 0:
            raise ValueError(f"electrode potential must be positive, got {self.v0}")
        if self.d <= 0:
            raise ValueError(f"trap dimension must be positive, got {self.d}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature}")
        if self.gamma < 0:
            raise ValueError(f"relaxation rate must be non-negative, got {self.gamma}")
        if self.drive_duration < 0:
            raise ValueError(f"kick duration must be non-negative, got {self.drive_duration}")
        if self.pump_frequency is not None and self.detuning is not None:
            raise ValueError("give pump_frequency or detuning, not both")


@dataclass(frozen=True)
class DerivedParams:
    """Every scalar the dynamics modules consume, all SI."""

    omega_c: float  # rad/s
    omega_z: float  # rad/s
    omega_m: float  # rad/s
    mu: float  # rad/s
    k: float  # (V s/m)^-1
    alpha0: complex
    detuning: float  # rad/s
    t_cat: float  # s, pi/(2 mu)
    t_revival: float  # s, 2 pi/mu
    t_dec: float  # s, 1/(gamma |alpha0|^2); inf when undamped
    ratio: float  # mu/gamma; inf when gamma = 0


def derive(config: TrapConfig) -> DerivedParams:
    """Evaluate all trap formulas for one configuration.

    OverflowError if a derived rate, k or 2 pi/mu is not finite; a kick
    alpha0 past the float range is left for the caller's probe-range check.
    """
    e, m = ELEMENTARY_CHARGE, ELECTRON_MASS
    rest_energy_2 = 2.0 * m * SPEED_OF_LIGHT**2

    omega_c = e * config.b_field / m
    omega_z = math.sqrt(e * config.v0 / (m * config.d**2))
    mu = HBAR * omega_c**2 / rest_energy_2
    omega_m = omega_c * (
        1.0
        - BOLTZMANN * config.temperature / rest_energy_2
        - HBAR * omega_c / rest_energy_2
    )

    if config.pump_frequency is not None:
        delta = omega_m - config.pump_frequency
        omega_p = config.pump_frequency
    elif config.detuning is not None:
        delta = config.detuning
        omega_p = omega_m - delta
    else:
        delta = 0.0
        omega_p = omega_m

    k = (e / (HBAR * omega_p)) * math.sqrt(HBAR * omega_c / (2.0 * m))
    t_revival = 2.0 * math.pi / mu  # inf at a subnormal mu; a finite one keeps t_cat finite
    rates = {"omega_c": omega_c, "omega_z": omega_z, "omega_m": omega_m, "mu": mu, "k": k,
             "detuning": delta, "t_revival": t_revival}
    for name, value in rates.items():
        if not math.isfinite(value):
            raise OverflowError(f"{name} = {value!r} is not finite")

    alpha0 = _kick(config, omega_z, k)
    t_cat = math.pi / (2.0 * mu)
    if config.gamma > 0 and alpha0 != 0:
        try:
            t_dec = 1.0 / (config.gamma * abs(alpha0) ** 2)
        except OverflowError:  # abs() or its square of a finite oversized kick, which cli rejects
            t_dec = 0.0
    else:
        t_dec = math.inf  # no damping (or no excitation): nothing to decohere
    ratio = mu / config.gamma if config.gamma > 0 else math.inf

    return DerivedParams(
        omega_c=omega_c,
        omega_z=omega_z,
        omega_m=omega_m,
        mu=mu,
        k=k,
        alpha0=alpha0,
        detuning=delta,
        t_cat=t_cat,
        t_revival=t_revival,
        t_dec=t_dec,
        ratio=ratio,
    )


def _kick(config: TrapConfig, omega_z: float, k: float) -> complex:
    if config.alpha0_override is not None:
        return complex(config.alpha0_override)
    axial_period = 2.0 * math.pi / omega_z
    if config.drive_duration > KICK_VALIDITY_FRACTION * axial_period:
        warnings.warn(
            f"kick duration {config.drive_duration} s is not short against the "
            f"axial period {axial_period:.3e} s; the kick approximation degrades",
            stacklevel=3,
        )
    return complex(k * config.drive_amplitude * config.drive_duration)

