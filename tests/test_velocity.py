"""Darcy velocity and pressure multipliers."""

import math

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, forward_transform, inverse_transform,
                     lp_norm, partial_derivative, pressure_from_temperature,
                     random_field, velocity_from_temperature)
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
    def test_cross_stream_mode(self, d2):
        # T = sin(x1) with buoyancy along x2 drives v = (0, -sin(x1))
        x = d2.grid
        v = velocity_from_temperature(forward_transform(phys(d2, np.sin(x[0]))))
        v1 = inverse_transform(v.components[0]).values
        v2 = inverse_transform(v.components[1]).values
        assert np.abs(v1).max() < 1e-13
        assert np.abs(v2 + np.sin(x[0])).max() < 1e-13

    def test_hydrostatic_balance(self, d2):
        x = d2.grid
        v = velocity_from_temperature(forward_transform(phys(d2, np.sin(x[1]))))
        for comp in v.components:
            assert np.abs(comp.coeffs).max() < 1e-14

    def test_constant_temperature_drifts_down(self, d2):
        v = velocity_from_temperature(forward_transform(phys(d2, np.full(d2.n, 2.0))))
        v1 = inverse_transform(v.components[0]).values
        v2 = inverse_transform(v.components[1]).values
        assert np.abs(v1).max() < 1e-14
        assert np.abs(v2 + 2.0).max() < 1e-14

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
        for m in d3.velocity_multipliers:
            assert np.abs(m).max() <= 1.0 + 1e-15

    def test_component_l2_bounded_by_temperature(self, d2):
        u = random_field(d2, seed=8)
        tn = lp_norm(u, 2)
        v = velocity_from_temperature(forward_transform(u))
        for comp in v.components:
            assert lp_norm(inverse_transform(comp), 2) <= tn * (1 + 1e-13)

    def test_curl_curl_identity_3d(self, d3):
        u = random_field(d3, seed=7, cutoff=3.0)
        c = forward_transform(u)
        v = velocity_from_temperature(c)
        k = d3.wavenumbers
        k2 = d3.k_squared
        rhs = [(-k[0] * k[2]) * c.coeffs,
               (-k[1] * k[2]) * c.coeffs,
               (k[0] ** 2 + k[1] ** 2) * c.coeffs]
        scale = np.abs(c.coeffs).max()
        for comp, r in zip(v.components, rhs):
            assert np.abs(-k2 * comp.coeffs - r).max() <= 1e-12 * scale


class TestPressure:
    def test_buoyancy_mode_pressure(self, d2):
        # T = sin(x_N) is balanced by p = cos(x_N)
        x = d2.grid
        t_hat = forward_transform(phys(d2, np.sin(x[1])))
        p = inverse_transform(pressure_from_temperature(t_hat))
        assert np.abs(p.values - np.cos(x[1])).max() < 1e-13

    def test_cross_stream_mode_has_no_pressure(self, d2):
        x = d2.grid
        p = pressure_from_temperature(forward_transform(phys(d2, np.sin(x[0]))))
        assert np.abs(p.coeffs).max() < 1e-14

    def test_constant_temperature_has_no_pressure(self, d2):
        p = pressure_from_temperature(forward_transform(phys(d2, np.full(d2.n, 3.0))))
        assert np.abs(p.coeffs).max() < 1e-14

    def test_velocity_reconstruction(self, d2):
        u = random_field(d2, seed=6)
        c = forward_transform(u)
        p = pressure_from_temperature(c)
        v = velocity_from_temperature(c)
        scale = np.abs(c.coeffs).max()
        for j in range(2):
            rec = -(partial_derivative(p, j).coeffs
                    + (c.coeffs if j == d2.buoyancy_axis else 0.0))
            assert np.abs(rec - v.components[j].coeffs).max() <= 1e-13 * scale
