"""Divergence-free Darcy velocity and pressure from the temperature field.

Eliminating the pressure from Darcy's law v = -(grad p + gamma T) with
div v = 0 gives, mode by mode,

    v_hat_j(k) = (k_j k_N / |k|^2 - delta_{jN}) T_hat(k),   k != 0,

with N the buoyancy axis, and v_hat(0) = -gamma T_hat(0).  As in the paper,
gamma = (0, ..., 0, 1): N is the last axis, fixed in darcy_multipliers, and
any other choice would only relabel the grid.  The multiplier form is exact
and O(n log n); the singular-kernel representation of the same operator is
exercised only through the curl-curl identity in the tests.
Every multiplier has magnitude at most one, so each velocity component is
bounded by the temperature in L^2.  Like every spectrum in the package the
velocity is a half spectrum (the spectral module docstring covers the
unpaired Nyquist modes, where a real velocity is not solenoidal).  The
multipliers are written once, in darcy_multipliers, which the functions
here call on the half spectrum and the solver on its 2/3 box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Domain, SpectralField


def darcy_multipliers(k, n):
    """Darcy multipliers m_j(k) = k_j k_N / |k|^2 - delta_{jN}, m_j(0) = -delta_{jN}.

    k are open wavenumber meshes and n the grid sizes; N, the buoyancy
    axis, is the last one.  Obtained by eliminating the pressure from
    Darcy's law with div v = 0; the zero mode encodes the uniform drift
    -gamma * mean(T) induced by a constant temperature with periodic
    pressure.  Where exactly one of k_j and k_N (j != N) is an unpaired
    Nyquist wavenumber -n_j/2, which the mirror -k keeps, k_j k_N changes
    sign between k and -k: m_j is its even part there, 0, which the real
    part of the velocity carries.
    """
    N = len(k) - 1
    kN = k[N]
    k_squared = sum(kj ** 2 for kj in k)
    safe = np.where(k_squared > 0, k_squared, 1.0)
    nyquist = [kj == -m // 2 for kj, m in zip(k, n)]
    mults = []
    for j, kj in enumerate(k):
        if j == N:
            m = kj * kN / safe - 1.0
        else:
            m = np.where(nyquist[j] != nyquist[N], 0.0, kj * kN / safe)
        m[(0,) * len(k)] = -1.0 if j == N else 0.0
        mults.append(m)
    return tuple(mults)


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
        darcy_multipliers).
        """
        d = self.domain
        out = np.zeros(d.spectral_shape, dtype=np.complex128)
        for j, comp in enumerate(self.components):
            out += 1j * d.deriv_wavenumbers[j] * comp.coeffs
        return out


def velocity_coefficients(domain: Domain, t_coeffs: np.ndarray) -> list:
    """The Darcy multipliers applied to a raw half-spectrum coefficient array."""
    return [m * t_coeffs for m in darcy_multipliers(domain.wavenumbers, domain.n)]


def velocity_from_temperature(t_hat: SpectralField) -> VelocityField:
    """Darcy velocity of a temperature field; divergence-free by construction."""
    d = t_hat.domain
    comps = tuple(SpectralField(d, c) for c in velocity_coefficients(d, t_hat.coeffs))
    return VelocityField(comps)


def pressure_from_temperature(t_hat: SpectralField) -> SpectralField:
    """Periodic pressure with Delta p = -d_N T, mean zero: p_hat = i k_N T_hat / |k|^2.

    Odd in k, so, like every odd multiplier, zero on the unpaired Nyquist
    plane of the buoyancy axis (Domain.deriv_wavenumbers).  Reconstructing
    -(grad p + gamma T) recovers velocity_from_temperature coefficientwise
    on mean-zero input.  No run calls it; it stays as the library's Darcy
    pressure.
    """
    d = t_hat.domain
    safe = np.where(d.k_squared > 0, d.k_squared, 1.0)
    m = 1j * d.deriv_wavenumbers[-1] / safe
    m[(0,) * d.dim] = 0.0
    return SpectralField(d, m * t_hat.coeffs)
