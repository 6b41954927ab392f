"""The full fftn layout, for the tests' complex-to-complex references.

The package keeps only the rfftn half spectrum of a real field.  The
references here work on every mode of the full layout, with arrays of
their own built the plain way, and compare on the half.
"""

import math

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


def stream_rhs(vh, g, big_g, nu_ql, c0=0.0):
    """Tendency (dvh, dg, dG) of the 1D stream slope w = e^G v, and the grid w and f.

    On the full fft layout of vh, less the symbol -c0 k^2 (and any spectral
    one): e^(-G) (w^2 - f w_x - dg/dt - (coeff - c0) k^2 w), with the
    quasilinear coefficient coeff when nu_ql is not None, then dg/dt =
    ||w||^2 / pi and dG/dt = g.
    """
    n = vh.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    kd = np.where(k == -n // 2, 0.0, k)
    wh = math.exp(big_g) * vh
    w = np.fft.ifft(wh, norm="forward").real
    fh = np.zeros_like(wh)
    fh[kd != 0] = wh[kd != 0] / (1j * kd[kd != 0])
    f = np.fft.ifft(fh, norm="forward").real
    f -= f[n // 2]
    wx = np.fft.ifft(1j * kd * wh, norm="forward").real
    dg = 2.0 * float(np.sum(np.abs(wh) ** 2))
    dwh = np.fft.fft(w * w - f * wx, norm="forward") * (np.abs(k) <= n / 3.0)
    dwh[0] -= dg
    if nu_ql is not None:
        coeff = nu_ql * (2.0 * math.pi * float(np.sum(k ** 2 * np.abs(wh) ** 2)) + g * g)
        dwh = dwh - (coeff - c0) * k ** 2 * wh
    return math.exp(-big_g) * dwh, dg, g, w, f


def stream_advance(wh, g, dt, nu_ql, lam, c0=0.0):
    """One IF-RK4 step of the 1D stream slope from (wh, g), in plain expressions.

    The state is (v, g, G) from v = wh and G = 0, with the symbol lam on v;
    returns the slope's spectrum e^G v and g after the step.
    """
    e_half, e_full = np.exp(lam * (0.5 * dt)), np.exp(lam * dt)
    av, ag, aG, _, _ = stream_rhs(wh, g, 0.0, nu_ql, c0)
    bv, bg, bG, _, _ = stream_rhs(e_half * (wh + (0.5 * dt) * av), g + 0.5 * dt * ag,
                                  0.5 * dt * aG, nu_ql, c0)
    cv, cg, cG, _, _ = stream_rhs(e_half * wh + (0.5 * dt) * bv, g + 0.5 * dt * bg,
                                  0.5 * dt * bG, nu_ql, c0)
    dv, dg, dG, _, _ = stream_rhs(e_full * wh + dt * (e_half * cv), g + dt * cg, dt * cG,
                                  nu_ql, c0)
    v_new = e_full * wh + (dt / 6.0) * (e_full * av + 2.0 * e_half * (bv + cv) + dv)
    v_new[0] = 0.0
    big_g = (dt / 6.0) * (aG + 2.0 * (bG + cG) + dG)
    return math.exp(big_g) * v_new, g + (dt / 6.0) * (ag + 2.0 * (bg + cg) + dg)
