"""Periodic scalar fields on the torus and their Fourier-multiplier calculus.

Fields live on [0, 2*pi)^N sampled at the uniform grid x_j = 2*pi*j/n.
Spectral coefficients are indexed by integer wave vectors k with
|k_j| <= n_j/2 and normalized so that coeff(0) is the mean of the field
(forward FFT divided by the number of grid points).  With period 2*pi the
first positive eigenvalue of the half-Laplacian is lambda1 = 1, which keeps
every decay rate used by the diagnostics concrete.

All operators here are diagonal in Fourier space.  The mean mode is
annihilated by the half-Laplacian powers, the Riesz transforms and the Riesz
potentials, which are defined on mean-zero fields.  Odd (imaginary)
multipliers also annihilate the unpaired Nyquist mode so that real fields
stay real.

The public fields use the full fftn layout.  The solver's hot paths carry
the rfftn half spectrum instead (last axis n//2 + 1, see Domain.half):
multipliers are sliced to it, sums over it are weighted by
Domain.parseval_weights, and complete_spectrum mirrors it back to the full
layout without a transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Periodic box descriptor: per-axis mode counts and the buoyancy axis.

    The period is fixed at 2*pi per axis, so wavenumbers are integers and
    lambda1 = min |k| over nonzero modes = 1.  The buoyancy direction gamma
    is the last axis by convention.
    """

    n: tuple
    buoyancy_axis: int = -1

    def __post_init__(self):
        n = tuple(int(m) for m in self.n)
        object.__setattr__(self, "n", n)
        if not 1 <= len(n) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(n)}")
        for m in n:
            if m < 8 or m % 2:
                raise ValueError(f"grid sizes must be even and >= 8, got {n}")
        ax = self.buoyancy_axis % len(n)
        object.__setattr__(self, "buoyancy_axis", ax)

    @property
    def dim(self):
        return len(self.n)

    @property
    def lambda1(self):
        return 1.0

    @property
    def num_points(self):
        return int(np.prod(self.n))

    @property
    def volume(self):
        return TWO_PI ** self.dim

    def half(self, a):
        """The rfftn half of a full-layout (or sparse open-mesh) array, as a view."""
        return a[..., :self.n[-1] // 2 + 1]

    @cached_property
    def parseval_weights(self):
        """Half-spectrum weights: sum(w * x) over the half equals the full sum.

        1 on the k_last = 0 and n/2 planes, which have no mirror in the
        half, and 2 elsewhere, where a mode stands for its conjugate pair.
        Exact for x even in k, such as |c|^2 of a real field's spectrum.
        """
        w = np.full(self.n[-1] // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    @cached_property
    def grid(self):
        """Open-mesh coordinate arrays, x_j = 2*pi*j/n per axis."""
        axes = [TWO_PI * np.arange(m) / m for m in self.n]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def wavenumbers(self):
        """Open-mesh integer wavenumber arrays (fftfreq layout)."""
        axes = [np.fft.fftfreq(m, d=1.0 / m) for m in self.n]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def k_squared(self):
        return sum(k ** 2 for k in self.wavenumbers)

    @cached_property
    def k_abs(self):
        return np.sqrt(self.k_squared)

    @cached_property
    def deriv_wavenumbers(self):
        """Wavenumbers for odd multipliers: unpaired Nyquist modes zeroed."""
        out = []
        for j, k in enumerate(self.wavenumbers):
            kj = k.copy()
            kj[kj == -self.n[j] // 2] = 0.0
            out.append(kj)
        return tuple(out)

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask: True where every |k_j| <= n_j/3."""
        mask = np.ones(self.n, dtype=bool)
        for j, k in enumerate(self.wavenumbers):
            mask &= np.abs(k) <= self.n[j] / 3.0
        return mask

    @cached_property
    def velocity_multipliers(self):
        """Darcy multipliers m_j(k) = k_j k_N / |k|^2 - delta_{jN}, m_j(0) = -delta_{jN}.

        Obtained by eliminating the pressure from Darcy's law with div v = 0;
        the zero mode encodes the uniform drift -gamma * mean(T) induced by a
        constant temperature with periodic pressure.
        """
        kN = self.wavenumbers[self.buoyancy_axis]
        safe = np.where(self.k_squared > 0, self.k_squared, 1.0)
        mults = []
        for j, kj in enumerate(self.wavenumbers):
            m = (kj * kN / safe) - (1.0 if j == self.buoyancy_axis else 0.0)
            m = np.ascontiguousarray(np.broadcast_to(m, self.n)).copy()
            m[(0,) * self.dim] = -1.0 if j == self.buoyancy_axis else 0.0
            mults.append(m)
        return tuple(mults)

    @cached_property
    def half_velocity_multipliers(self):
        """velocity_multipliers on the half spectrum, symmetrized to be even in k.

        On a leading-axis Nyquist slab the fftfreq sign makes k_j k_N odd;
        its even part, which the slicing keeps everywhere else, is what the
        real inverse transform of the full layout applies there.
        """
        return tuple(np.ascontiguousarray(self.half(0.5 * (m + _reflect(m, range(self.dim)))))
                     for m in self.velocity_multipliers)

    @cached_property
    def pressure_multiplier(self):
        """p_hat(k) = i k_N T_hat(k) / |k|^2, zero at k = 0."""
        kN = self.wavenumbers[self.buoyancy_axis]
        safe = np.where(self.k_squared > 0, self.k_squared, 1.0)
        m = np.ascontiguousarray(np.broadcast_to(1j * kN / safe, self.n)).copy()
        m[(0,) * self.dim] = 0.0
        return m


@dataclass(frozen=True)
class PhysicalField:
    """Real samples of a scalar on the uniform grid, row-major."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.domain.n:
            raise ValueError(f"values shape {v.shape} does not match grid {self.domain.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients indexed by integer wave vectors (fftfreq layout).

    For a real scalar the coefficients are Hermitian-symmetric,
    coeff(-k) = conj(coeff(k)), and coeff(0) is the mean of the field.
    """

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.domain.n:
            raise ValueError(f"coeffs shape {c.shape} does not match grid {self.domain.n}")
        object.__setattr__(self, "coeffs", c)

    @property
    def mean(self):
        return self.coeffs[(0,) * self.domain.dim]


def _reflect(a, axes):
    """a(-k) in fftfreq layout along the given axes."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def complete_spectrum(half: np.ndarray, domain: Domain) -> np.ndarray:
    """Full fftn-layout coefficients of a real field from its rfftn half.

    Exact: the missing modes are the conjugate mirror c(-k) = conj c(k),
    so no transform is involved.
    """
    tail = np.conj(half[..., domain.n[-1] // 2 - 1:0:-1])
    return np.concatenate([half, _reflect(tail, range(domain.dim - 1))], axis=-1)


def forward_transform(u: PhysicalField) -> SpectralField:
    """FFT normalized so that coeff(0) = mean(u)."""
    return SpectralField(u.domain, np.fft.fftn(u.values, norm="forward"))


def inverse_transform(u_hat: SpectralField) -> PhysicalField:
    """Inverse FFT back to real samples.

    Rejects coefficient arrays that are not Hermitian-symmetric (the
    inverse would be complex), which signals corrupted state upstream.
    """
    z = np.fft.ifftn(u_hat.coeffs, norm="forward")
    scale = np.abs(z.real).max()
    if np.abs(z.imag).max() > 1e-8 * scale + 1e-13:
        raise ValueError("coefficients are not Hermitian-symmetric; field is not real")
    return PhysicalField(u_hat.domain, z.real)


def fractional_laplacian(u_hat: SpectralField, alpha: float) -> SpectralField:
    """Half-Laplacian power: multiplier |k|^alpha, mean mode annihilated."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    d = u_hat.domain
    mult = np.where(d.k_squared > 0, np.maximum(d.k_abs, 1.0) ** alpha, 0.0)
    return SpectralField(d, mult * u_hat.coeffs)


def partial_derivative(u_hat: SpectralField, axis: int) -> SpectralField:
    """Exact spectral derivative along one axis (multiplier i k_axis)."""
    d = u_hat.domain
    if not 0 <= axis < d.dim:
        raise ValueError(f"axis {axis} out of range for dim {d.dim}")
    return SpectralField(d, 1j * d.deriv_wavenumbers[axis] * u_hat.coeffs)


def riesz_transform(u_hat: SpectralField, axis: int) -> SpectralField:
    """Riesz transform: multiplier i k_axis / |k|, zero on the mean mode."""
    d = u_hat.domain
    if not 0 <= axis < d.dim:
        raise ValueError(f"axis {axis} out of range for dim {d.dim}")
    safe = np.where(d.k_squared > 0, d.k_abs, 1.0)
    mult = 1j * d.deriv_wavenumbers[axis] / safe
    return SpectralField(d, mult * u_hat.coeffs)


def riesz_potential(u_hat: SpectralField, beta: float) -> SpectralField:
    """Smoothing inverse of the half-Laplacian: |k|^(-beta) on mean-zero fields.

    The mean mode is dropped, so composing with fractional_laplacian(.., beta)
    is the identity on mean-zero fields.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    d = u_hat.domain
    safe = np.maximum(d.k_abs, 1.0)
    mult = np.where(d.k_squared > 0, safe ** (-beta), 0.0)
    return SpectralField(d, mult * u_hat.coeffs)


def dealias(u_hat: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with any |k_j| > n_j/3.

    Idempotent orthogonal projection; quadratic products of truncated fields
    are then alias-free on the collocation grid.
    """
    d = u_hat.domain
    return SpectralField(d, np.where(d.dealias_mask, u_hat.coeffs, 0.0))


def lp_norm(u: PhysicalField, p: float) -> float:
    """L^p norm by the rectangle rule on the collocation grid; p = inf is max|u|.

    The rectangle rule is spectrally accurate for smooth fields (exact for
    trigonometric polynomials resolved by the grid).
    """
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(u.values)
    if p == math.inf:
        return float(a.max())
    d = u.domain
    return float((d.volume / d.num_points * np.sum(a ** p)) ** (1.0 / p))


def hs_seminorm(u_hat: SpectralField, s: float) -> float:
    """Homogeneous Sobolev seminorm: (2*pi)^(N/2) * (sum_{k!=0} |k|^(2s) |c_k|^2)^(1/2).

    Equals the L^2 norm of the s-th half-Laplacian power of the field;
    s may be negative (mean mode excluded).
    """
    d = u_hat.domain
    nz = d.k_squared > 0
    w = np.where(nz, np.maximum(d.k_abs, 1.0) ** (2.0 * s), 0.0)
    total = float(np.sum(w * np.abs(u_hat.coeffs) ** 2))
    return math.sqrt(d.volume * total)


def refine(u_hat: SpectralField, factor: int) -> PhysicalField:
    """Evaluate the trigonometric interpolant on a factor-times finer grid.

    Zero-pads the half spectrum of a Hermitian coefficient array and takes
    one real inverse transform; used by the diagnostics to sample sup norms
    between collocation points.  The last-axis Nyquist plane is halved,
    because the real inverse adds its mirror at -n/2.  Assumes no energy on
    the unpaired Nyquist modes of the other axes (always true for dealiased
    fields).
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("refinement factor must be a positive integer")
    if factor == 1:
        return inverse_transform(u_hat)
    d = u_hat.domain
    nbig = tuple(int(factor) * m for m in d.n)
    big = np.zeros(nbig[:-1] + (nbig[-1] // 2 + 1,), dtype=np.complex128)
    idx = [np.fft.fftfreq(m, d=1.0 / m).astype(int) % mb for m, mb in zip(d.n[:-1], nbig)]
    nyq = d.n[-1] // 2
    big[np.ix_(*idx, np.arange(nyq + 1))] = d.half(u_hat.coeffs)
    big[..., nyq] *= 0.5
    vals = np.fft.irfftn(big, s=nbig, axes=range(d.dim), norm="forward")
    return PhysicalField(Domain(nbig, d.buoyancy_axis), vals)


def random_field(domain: Domain, spectrum_decay: float = 3.0, cutoff: float = 5.0,
                 seed: int = 0, l2_norm: float = 1.0) -> PhysicalField:
    """Reproducible smooth random field with a prescribed spectrum.

    Coefficient magnitudes follow |k|^(-spectrum_decay) * exp(-|k|^2/cutoff^2)
    with uniformly random phases (antisymmetrized so the field is real),
    mean zero, dealiased, then scaled to the requested L^2 norm.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=domain.n)
    # antisymmetrize under k -> -k so the coefficients are Hermitian
    theta = 0.5 * (theta - _reflect(theta, range(domain.dim)))
    safe = np.maximum(domain.k_abs, 1.0)
    amp = np.where(domain.k_squared > 0,
                   safe ** (-spectrum_decay) * np.exp(-domain.k_squared / cutoff ** 2),
                   0.0)
    coeffs = amp * np.exp(1j * theta)
    coeffs = np.where(domain.dealias_mask, coeffs, 0.0)
    field = SpectralField(domain, coeffs)
    cur = lp_norm(inverse_transform(field), 2)
    if cur == 0.0:
        raise ValueError("spectrum parameters produced an identically zero field")
    return inverse_transform(SpectralField(domain, coeffs * (l2_norm / cur)))
