"""Divergence-free Darcy velocity and pressure from the temperature field.

Eliminating the pressure from Darcy's law v = -(grad p + gamma T) with
div v = 0 gives, mode by mode,

    v_hat_j(k) = (k_j k_N / |k|^2 - delta_{jN}) T_hat(k),   k != 0,

with N the buoyancy axis, and v_hat(0) = -gamma T_hat(0).  The multiplier
form is exact and O(n log n); the singular-kernel representation of the same
operator is exercised only through the curl-curl identity in the tests.
Every multiplier has magnitude at most one, so each velocity component is
bounded by the temperature in L^2.  Like every spectrum in the package the
velocity is a half spectrum (see Domain.velocity_multipliers for the
unpaired Nyquist modes, where a real velocity is not solenoidal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Domain, SpectralField


@dataclass(frozen=True)
class VelocityField:
    """Spectral components of the Darcy velocity; kept as velocity_from_temperature's result."""

    components: tuple

    @property
    def domain(self) -> Domain:
        return self.components[0].domain

    def spectral_divergence(self) -> np.ndarray:
        """sum_j i k_j v_hat_j(k), k_j read as deriv_wavenumbers (an odd multiplier).

        Zero up to rounding off the unpaired Nyquist slabs (see
        Domain.velocity_multipliers).
        """
        d = self.domain
        out = np.zeros(d.spectral_shape, dtype=np.complex128)
        for j, comp in enumerate(self.components):
            out += 1j * d.deriv_wavenumbers[j] * comp.coeffs
        return out


def velocity_coefficients(domain: Domain, t_coeffs: np.ndarray) -> list:
    """The Darcy multipliers applied to a raw half-spectrum coefficient array."""
    return [m * t_coeffs for m in domain.velocity_multipliers]


def velocity_from_temperature(t_hat: SpectralField) -> VelocityField:
    """Darcy velocity of a temperature field; divergence-free by construction."""
    d = t_hat.domain
    comps = tuple(SpectralField(d, c) for c in velocity_coefficients(d, t_hat.coeffs))
    return VelocityField(comps)


def pressure_from_temperature(t_hat: SpectralField) -> SpectralField:
    """Periodic pressure with Delta p = -d_N T, mean zero.

    Reconstructing -(grad p + gamma T) recovers velocity_from_temperature coefficientwise
    on mean-zero input.  No run calls it; it stays as the library's Darcy pressure.
    """
    d = t_hat.domain
    return SpectralField(d, d.pressure_multiplier * t_hat.coeffs)
