import math

import numpy as np
import pytest

from kerrcat import trap_params

import oracles

# frozen 40-digit evaluations of the SI formulas with the pinned constants
B_FOR_160GHZ = 5.715818804605135  # tesla giving omega_c = 2 pi x 160 GHz
MU_AT_160GHZ = 650.9017897393376  # rad/s
OMEGA_Z_10V_33MM = 401880338.3037873  # rad/s for V0 = 10 V, d = 3.3 mm
THERMAL_SHIFT_4K = 3.372740105321103e-10  # k_B T / (2 m c^2) at 4 K
QUANTUM_SHIFT_160GHZ = 6.474639831523568e-10  # hbar omega_c / (2 m c^2)


def paper_config(**kwargs):
    defaults = dict(
        b_field=B_FOR_160GHZ,
        v0=10.0,
        d=3.3e-3,
        temperature=4.0,
        gamma=1.0,
        alpha0_override=2.0,
    )
    defaults.update(kwargs)
    return trap_params.TrapConfig(**defaults)


class TestDerive:
    def test_cyclotron_frequency_roundtrip(self):
        b = oracles.b_field_for_cyclotron(160e9)
        d = trap_params.derive(paper_config(b_field=b))
        assert abs(d.omega_c / (2 * math.pi * 160e9) - 1.0) < 1e-12

    def test_cyclotron_regime(self):
        d = trap_params.derive(paper_config(b_field=5.71))
        assert abs(d.omega_c / (2 * math.pi) - 160e9) / 160e9 < 0.01

    def test_axial_frequency(self):
        d = trap_params.derive(paper_config())
        assert abs(d.omega_z - OMEGA_Z_10V_33MM) < 1e-3
        assert abs(d.omega_z / (2 * math.pi) - 64e6) / 64e6 < 0.02

    def test_anharmonicity(self):
        d = trap_params.derive(paper_config(b_field=oracles.b_field_for_cyclotron(160e9)))
        assert abs(d.mu - MU_AT_160GHZ) < 1e-9
        assert abs(d.mu - 6.5e2) / 6.5e2 < 0.05

    def test_nonlinearity_to_damping_ratio(self):
        d = trap_params.derive(paper_config(gamma=1.0))
        assert 1e2 <= d.ratio <= 1e3

    def test_thermal_frequency_shift(self):
        d = trap_params.derive(
            paper_config(b_field=oracles.b_field_for_cyclotron(160e9), temperature=4.0)
        )
        frac = (d.omega_c - d.omega_m) / d.omega_c
        # the subtraction leaves ~7 good digits of the 1e-9 shift
        assert abs(frac - (THERMAL_SHIFT_4K + QUANTUM_SHIFT_160GHZ)) < 1e-13
        assert abs(frac - 9.8e-10) / 9.8e-10 < 0.01

    def test_cat_time(self):
        d = trap_params.derive(paper_config(b_field=oracles.b_field_for_cyclotron(160e9)))
        assert abs(d.t_cat - 2.41e-3) / 2.41e-3 < 0.01
        assert d.t_cat * d.mu == pytest.approx(math.pi / 2, rel=1e-15)
        assert d.t_revival * d.mu == pytest.approx(2 * math.pi, rel=1e-15)

    def test_decoherence_time(self):
        d = trap_params.derive(paper_config(gamma=1.0, alpha0_override=2.0))
        assert d.t_dec == 0.25
        assert trap_params.derive(paper_config(gamma=0.0)).t_dec == math.inf

    def test_ratio_exact(self):
        d = trap_params.derive(paper_config(gamma=2.5))
        assert d.ratio == d.mu / 2.5
        assert trap_params.derive(paper_config(gamma=0.0)).ratio == math.inf


class TestScaling:
    def test_omega_c_linear_in_b(self):
        d1 = trap_params.derive(paper_config(b_field=2.0))
        d2 = trap_params.derive(paper_config(b_field=4.0))
        assert abs(d2.omega_c / d1.omega_c - 2.0) < 1e-12

    def test_omega_z_scales_sqrt_v0_inverse_d(self):
        base = trap_params.derive(paper_config())
        v4 = trap_params.derive(paper_config(v0=40.0))
        assert abs(v4.omega_z / base.omega_z - 2.0) < 1e-12
        d2 = trap_params.derive(paper_config(d=6.6e-3))
        assert abs(d2.omega_z / base.omega_z - 0.5) < 1e-12

    def test_mu_scales_b_squared(self):
        d1 = trap_params.derive(paper_config(b_field=1.0))
        d3 = trap_params.derive(paper_config(b_field=3.0))
        assert abs(d3.mu / d1.mu - 9.0) < 1e-12

    def test_omega_m_below_omega_c(self):
        d = trap_params.derive(paper_config(temperature=4.0))
        assert d.omega_m < d.omega_c

    def test_deterministic(self):
        a = trap_params.derive(paper_config())
        b = trap_params.derive(paper_config())
        assert a == b
        for value in (a.omega_c, a.omega_z, a.mu, a.k, a.t_cat):
            assert math.isfinite(value)


class TestKick:
    def test_zero_drive(self):
        cfg = paper_config(alpha0_override=None, drive_amplitude=0.0, drive_duration=1e-9)
        assert trap_params.derive(cfg).alpha0 == 0.0

    def test_override_wins(self):
        cfg = paper_config(alpha0_override=3.0, drive_amplitude=100.0, drive_duration=1e-9)
        assert trap_params.derive(cfg).alpha0 == 3.0 + 0.0j

    def test_linear_in_drive(self):
        c1 = paper_config(alpha0_override=None, drive_amplitude=50.0, drive_duration=1e-9)
        c2 = paper_config(alpha0_override=None, drive_amplitude=100.0, drive_duration=1e-9)
        a1 = trap_params.derive(c1).alpha0
        a2 = trap_params.derive(c2).alpha0
        assert abs(a2 / a1 - 2.0) < 1e-12
        assert abs(a1) > 0

    def test_dimensionless_magnitude(self):
        # ~170 V/m for a nanosecond should kick |alpha0| to order one
        cfg = paper_config(alpha0_override=None, drive_amplitude=173.0, drive_duration=1e-9)
        assert 0.5 < abs(trap_params.derive(cfg).alpha0) < 5.0

    def test_oversized_override_decoheres_at_once(self):
        # |alpha0| overflows a float, so 1 / (gamma |alpha0|^2) is 0; the
        # probe-range check in cli.load_config rejects the kick afterwards
        cfg = paper_config(alpha0_override=complex(1.7e308, 1.7e308), gamma=1.0)
        assert trap_params.derive(cfg).t_dec == 0.0

    def test_slow_kick_warns(self):
        cfg = paper_config(alpha0_override=None, drive_amplitude=10.0, drive_duration=1e-7)
        with pytest.warns(UserWarning):
            trap_params.derive(cfg)

    def test_fast_kick_quiet(self):
        import warnings

        cfg = paper_config(alpha0_override=None, drive_amplitude=10.0, drive_duration=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trap_params.derive(cfg)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [("b_field", -1.0), ("b_field", 0.0), ("v0", 0.0), ("d", 0.0),
         ("temperature", -0.1), ("gamma", -1.0), ("drive_duration", -1e-9)],
    )
    def test_non_positive_inputs(self, field, value):
        with pytest.raises(ValueError):
            paper_config(**{field: value})

    def test_pump_and_detuning_exclusive(self):
        with pytest.raises(ValueError):
            paper_config(pump_frequency=1e12, detuning=0.0)

    def test_detuning_forwarded(self):
        d = trap_params.derive(paper_config(detuning=1234.5))
        assert d.detuning == 1234.5
