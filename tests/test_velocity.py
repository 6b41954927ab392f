"""Darcy velocity and pressure multipliers.

The exactly-known velocity and pressure identities (cross-stream mode,
hydrostatic balance, uniform drift, the L2 bound, curl-curl, the buoyancy
mode's pressure, reconstruction from the pressure) are cases of the
identity table, verify._cases(), which tests/test_identities.py runs.
"""

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, forward_transform, inverse_transform,
                     pressure_from_temperature, velocity_from_temperature)
from dpmflow.velocity import darcy_multipliers
from fft_reference import FullLayout, half, real_velocity


def phys(domain, values):
    return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))


@pytest.fixture(scope="module")
def d2():
    return Domain((32, 32))


@pytest.fixture(scope="module")
def d3():
    return Domain((16, 16, 16))


class TestVelocity:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_divergence_free(self, dim, d2, d3):
        # a real field has no solenoidal velocity on the unpaired Nyquist
        # slabs, where +-n/2 are one wavenumber: there the velocity is the
        # real part of the complex one
        domain = d2 if dim == 2 else d3
        slabs = half(FullLayout(domain).nyquist_slabs)
        rng = np.random.default_rng(dim)
        for _ in range(10):
            values = rng.standard_normal(domain.n)
            c = forward_transform(phys(domain, values))
            v = velocity_from_temperature(c)
            scale = np.abs(c.coeffs).max()
            div = np.abs(v.spectral_divergence()[~slabs]).max()
            assert div <= 1e-13 * scale
            for comp, ref in zip(v.components, real_velocity(domain, values)):
                assert np.abs(comp.coeffs - ref)[slabs].max() <= 1e-13 * scale

    def test_multiplier_magnitudes_at_most_one(self, d3):
        for m in darcy_multipliers(d3.wavenumbers, d3.n):
            assert np.abs(m).max() <= 1.0 + 1e-15


class TestPressure:
    def test_cross_stream_mode_has_no_pressure(self, d2):
        x = d2.grid
        p = pressure_from_temperature(forward_transform(phys(d2, np.sin(x[0]))))
        assert np.abs(p.coeffs).max() < 1e-14

    def test_constant_temperature_has_no_pressure(self, d2):
        p = pressure_from_temperature(forward_transform(phys(d2, np.full(d2.n, 3.0))))
        assert np.abs(p.coeffs).max() < 1e-14

    def test_pressure_of_raw_data_is_a_real_field(self, d2):
        # every mode carries energy, the Nyquist plane of the buoyancy axis
        # included, where an odd multiplier must vanish
        c = forward_transform(phys(d2, np.random.default_rng(2).standard_normal(d2.n)))
        p = pressure_from_temperature(c).coeffs
        back = forward_transform(inverse_transform(pressure_from_temperature(c))).coeffs
        assert np.abs(back - p).max() <= 1e-13 * np.abs(p).max()
