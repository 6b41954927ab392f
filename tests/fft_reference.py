"""The full fftn layout, for the tests' complex-to-complex references.

The package keeps only the rfftn half spectrum of a real field.  The
references here work on every mode of the full layout, with arrays of
their own built the plain way, and compare on the half.
"""

import numpy as np

from dpmflow.spectral import _reflect


class FullLayout:
    """A Domain's wavenumber arrays and multipliers on the full fftn layout."""

    def __init__(self, d):
        self.domain = d
        axes = [np.fft.fftfreq(m, d=1.0 / m) for m in d.n]
        self.wavenumbers = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
        self.k_squared = sum(k ** 2 for k in self.wavenumbers)
        self.k_abs = np.sqrt(self.k_squared)
        nyquist = [k == -m // 2 for k, m in zip(self.wavenumbers, d.n)]
        self.deriv_wavenumbers = tuple(np.where(nyq, 0.0, k)
                                       for k, nyq in zip(self.wavenumbers, nyquist))
        mask = np.ones(d.n, dtype=bool)
        slabs = np.zeros(d.n, dtype=bool)
        for k, m, nyq in zip(self.wavenumbers, d.n, nyquist):
            mask &= np.abs(k) <= m / 3.0
            slabs |= nyq
        self.dealias_mask = mask
        self.nyquist_slabs = slabs  # the modes with some k_j = -n_j/2

    @property
    def velocity_multipliers(self):
        """k_j k_N / |k|^2 - delta_{jN} on every mode, -delta_{jN} at k = 0."""
        d = self.domain
        ax = d.dim - 1
        kN = self.wavenumbers[ax]
        safe = np.where(self.k_squared > 0, self.k_squared, 1.0)
        mults = []
        for j, kj in enumerate(self.wavenumbers):
            m = (kj * kN / safe) - (1.0 if j == ax else 0.0)
            m = np.ascontiguousarray(np.broadcast_to(m, d.n)).copy()
            m[(0,) * d.dim] = -1.0 if j == ax else 0.0
            mults.append(m)
        return tuple(mults)


def half(a):
    """The rfftn half of a full-layout array (the last axis cut to n//2 + 1)."""
    return a[..., :a.shape[-1] // 2 + 1]


def hermitian(d, seed, mask=None):
    """Random Hermitian full-layout coefficients, zero outside mask (default: the 2/3 rule)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
    z = 0.5 * (z + np.conj(_reflect(z, range(d.dim))))
    return np.where(FullLayout(d).dealias_mask if mask is None else mask, z, 0.0)


def real_velocity(d, values):
    """Half spectra of the real parts of the c2c Darcy velocity of real grid values."""
    t_hat = np.fft.fftn(values, norm="forward")
    return [np.fft.rfftn(np.fft.ifftn(m * t_hat, norm="forward").real, norm="forward")
            for m in FullLayout(d).velocity_multipliers]
