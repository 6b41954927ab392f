"""Periodic scalar fields on the torus and their Fourier-multiplier calculus.

Fields live on [0, 2*pi)^N sampled at the uniform grid x_j = 2*pi*j/n.
Spectral coefficients are indexed by integer wave vectors k with
|k_j| <= n_j/2 and normalized so that coeff(0) is the mean of the field
(forward FFT divided by the number of grid points).  With period 2*pi the
first positive eigenvalue of the half-Laplacian is lambda1 = 1, which keeps
every decay rate used by the diagnostics concrete.

All operators here are diagonal in Fourier space.  The mean mode is
annihilated by the half-Laplacian powers, the Riesz transforms and the Riesz
potentials, which are defined on mean-zero fields.

Every field here is real, so its coefficients are Hermitian,
coeff(-k) = conj(coeff(k)), and only the rfftn half spectrum is stored: the
last axis keeps k_last = 0, ..., n/2 (n//2 + 1 entries), which halves the
transforms and the memory (Frigo & Johnson, "The Design and Implementation
of FFTW3", Proc. IEEE 93, 2005).  Every Domain array is built on that
layout, and a sum over all modes of a quantity even in k is the sum over
the half weighted by Domain.parseval_weights.  The closed forms of |k|^s,
the Darcy multipliers and the Parseval weights are each written once, in
builders that take open wavenumber meshes: Domain calls them on the half
spectrum and the solver on its 2/3 box (_box_runs), which leaves out every
Nyquist mode, so both layouts hold the same bits.

On an unpaired Nyquist slab (some k_j = -n_j/2), +n_j/2 and -n_j/2 are one
wavenumber, so the mirror -k of a mode keeps that coordinate while the
others change sign.  An odd multiplier applied there as it stands would
make a field that is not real.  So the odd multipliers (derivatives, Riesz
transforms, the pressure, VelocityField.spectral_divergence) take
Domain.deriv_wavenumbers, in which an unpaired Nyquist wavenumber reads 0,
and the Darcy cross multiplier is its even part, 0, where exactly one of
k_j and k_N lies on such a slab (darcy_multipliers): the velocity of a real
field is real, and it is not divergence-free on those modes.  None of this
reaches a run, which 2/3-truncates its data, its forcing and every product,
so its state never has energy on the slabs and its transport term stays
skew-symmetric.

Transforms use numpy's pocketfft only.  The steps of both runners call its
planned kernels, the gufuncs that np.fft wraps (imported once below as
pocketfft), as kernel(data, factor, out=...): at n = 256 np.fft's argument
handling costs as much as a transform.  Each call passes the factor np.fft
passes for norm="forward" (1/n forward, 1 inverse), so the results are
np.fft's bits.  The module is private, so tests/test_spectral.py
(TestPocketfftKernels) checks each call against its np.fft twin, and a
numpy that changes it fails there by name.  One-off transforms (the start
of a run, records, refine, inverse_transform) stay on np.fft.  scipy.fft is
not used: importing it adds a resident size and a start-up time to every
process that are most of the footprint of a 1D blow-up run and of a sweep
point's process, which its multithreaded transforms would have to win back
first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# numpy's planned pocketfft kernels; the module docstring says why
from numpy.fft import _pocketfft_umath as pocketfft

TWO_PI = 2.0 * math.pi


# The closed forms of the multipliers, each written once (module docstring).

def k_power(k_squared, s):
    """|k|^s, |k| floored at 1, and 0 on the mean mode: Lambda^s on mean-zero fields."""
    return np.where(k_squared > 0, np.maximum(np.sqrt(k_squared), 1.0) ** s, 0.0)


def darcy_multipliers(k, buoyancy_axis, n):
    """Darcy multipliers m_j(k) = k_j k_N / |k|^2 - delta_{jN}, m_j(0) = -delta_{jN}.

    k are open wavenumber meshes, n the grid sizes and N the buoyancy axis.
    Obtained by eliminating the pressure from Darcy's law with div v = 0;
    the zero mode encodes the uniform drift -gamma * mean(T) induced by a
    constant temperature with periodic pressure.  Where exactly one of
    k_j and k_N (j != N) is an unpaired Nyquist wavenumber -n_j/2, which
    the mirror -k keeps, k_j k_N changes sign between k and -k: m_j is its
    even part there, 0, which the real part of the velocity carries.
    """
    kN = k[buoyancy_axis]
    k_squared = sum(kj ** 2 for kj in k)
    safe = np.where(k_squared > 0, k_squared, 1.0)
    nyquist = [kj == -m // 2 for kj, m in zip(k, n)]
    mults = []
    for j, kj in enumerate(k):
        if j == buoyancy_axis:
            m = kj * kN / safe - 1.0
        else:
            m = np.where(nyquist[j] != nyquist[buoyancy_axis], 0.0, kj * kN / safe)
        m[(0,) * len(k)] = -1.0 if j == buoyancy_axis else 0.0
        mults.append(m)
    return tuple(mults)


def parseval_weights(k_last, n_last):
    """Weights w(k_last) such that sum(w * x) over a half spectrum is the full sum.

    1 on the modes that are their own mirror, k_last = 0 and -n_last/2,
    and 2 elsewhere, where a mode stands for its conjugate pair.  Exact for
    x even in k, such as |c|^2 of a real field's spectrum.
    """
    return np.where((k_last == 0) | (k_last == -(n_last // 2)), 1.0, 2.0)


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
        if not -len(n) <= self.buoyancy_axis < len(n):
            raise ValueError(f"buoyancy axis {self.buoyancy_axis} out of range "
                             f"for dimension {len(n)}")
        object.__setattr__(self, "buoyancy_axis", self.buoyancy_axis % len(n))

    @property
    def dim(self):
        return len(self.n)

    @property
    def num_points(self):
        return int(np.prod(self.n))

    @property
    def volume(self):
        return TWO_PI ** self.dim

    @property
    def spectral_shape(self):
        """Shape of a half spectrum: the grid's, with n//2 + 1 along the last axis."""
        return self.n[:-1] + (self.n[-1] // 2 + 1,)

    @cached_property
    def parseval_weights(self):
        """Half-spectrum weights (parseval_weights), indexed by k_last."""
        return parseval_weights(self.wavenumbers[-1].ravel(), self.n[-1])

    @cached_property
    def interpolant_reach(self):
        """Half-spectrum weights w (sum_j |k_j| pi/n_j)^2, w = parseval_weights.

        For the interpolant p of a real field with half spectrum c,
        1/2 sum(this * |c|) bounds how far p rises above its nearest grid
        sample: at a peak of p the gradient vanishes, and each coordinate of
        the nearest sample is within pi/n_j.
        """
        reach = sum(np.abs(k) * (math.pi / m) for k, m in zip(self.wavenumbers, self.n))
        return reach ** 2 * self.parseval_weights

    @cached_property
    def grid(self):
        """Open-mesh coordinate arrays, x_j = 2*pi*j/n per axis."""
        axes = [TWO_PI * np.arange(m) / m for m in self.n]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def wavenumbers(self):
        """Open-mesh integer wavenumber arrays of the half spectrum.

        fftfreq values along every axis, the last cut to its first n//2 + 1:
        0, ..., n/2 - 1, then the Nyquist at -n/2.
        """
        axes = [np.fft.fftfreq(m, d=1.0 / m) for m in self.n]
        axes[-1] = axes[-1][:self.spectral_shape[-1]]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def k_squared(self):
        return sum(k ** 2 for k in self.wavenumbers)

    @cached_property
    def deriv_wavenumbers(self):
        """Wavenumbers for odd multipliers: unpaired Nyquist modes zeroed."""
        return tuple(np.where(k == -m // 2, 0.0, k) for k, m in zip(self.wavenumbers, self.n))

    @cached_property
    def velocity_multipliers(self):
        """The Darcy multipliers (darcy_multipliers) of the half spectrum."""
        return darcy_multipliers(self.wavenumbers, self.buoyancy_axis, self.n)

    @cached_property
    def pressure_multiplier(self):
        """p_hat(k) = i k_N T_hat(k) / |k|^2, zero at k = 0.

        Odd in k, so, like every odd multiplier, zero on the unpaired Nyquist plane
        of the buoyancy axis (deriv_wavenumbers).  Kept for pressure_from_temperature.
        """
        kN = self.deriv_wavenumbers[self.buoyancy_axis]
        safe = np.where(self.k_squared > 0, self.k_squared, 1.0)
        m = 1j * kN / safe
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
    """Half-spectrum Fourier coefficients of a real scalar.

    coeffs has Domain.spectral_shape and is indexed like Domain.wavenumbers;
    the modes left out are the conjugates coeff(-k) = conj(coeff(k)) of
    those kept.  coeff(0) is the mean of the field.
    """

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.domain.spectral_shape:
            raise ValueError(f"coeffs shape {c.shape} is not the half-spectrum shape "
                             f"{self.domain.spectral_shape} of grid {self.domain.n}")
        object.__setattr__(self, "coeffs", c)

    @property
    def mean(self):
        return self.coeffs[(0,) * self.domain.dim]


def _box_runs(domain: Domain) -> list:
    """Per axis, the (half-spectrum, box) index pair of each run of the 2/3 box.

    The one statement of the 2/3 rule (Orszag, J. Atmos. Sci. 28, 1971):
    the modes with |k| <= n/3 are k = 0..m, m = n//3, and along a leading
    axis also k = -m..-1, at indices n-m..n-1 of the half spectrum; the box
    packs them in that (fftfreq) order.  Every other reader goes through
    box_shape, gather and scatter: dealias and random_field truncate by
    scatter(gather(c)), the solver steps on the box and its pruned passes
    skip the gap between a leading axis' two runs (solver._Integrator), and
    the 1D stream-slope step cuts its spectrum at the box's last-axis
    length.  So no product is truncated after the fact.
    """
    cuts = [m // 3 for m in domain.n]
    runs = [[(slice(0, cut + 1),) * 2, (slice(m - cut, m), slice(cut + 1, None))]
            for m, cut in zip(domain.n[:-1], cuts)]
    return runs + [[(slice(0, cuts[-1] + 1),) * 2]]


def box_shape(domain: Domain) -> tuple:
    """Shape of the 2/3 box: 2 (n//3) + 1 along a leading axis, n//3 + 1 along the last."""
    return tuple(sum(half.stop - half.start for half, _ in runs) for runs in _box_runs(domain))


def _box_blocks(domain: Domain) -> list:
    """(half-spectrum index, box index) of each of the 2^(dim-1) blocks of the 2/3 box.

    Both indices start with an Ellipsis, so they index stacks as well.
    """
    return [tuple((Ellipsis,) + index for index in zip(*pairs))
            for pairs in itertools.product(*_box_runs(domain))]


def gather(c: np.ndarray, domain: Domain) -> np.ndarray:
    """The 2/3 box of half spectrum c, as a new array of box_shape."""
    box = np.empty(box_shape(domain), dtype=c.dtype)
    for half, inner in _box_blocks(domain):
        box[inner] = c[half]
    return box


def scatter(box: np.ndarray, domain: Domain) -> np.ndarray:
    """A new half spectrum that holds box on the 2/3 box and zero elsewhere."""
    c = np.zeros(domain.spectral_shape, dtype=np.complex128)
    for half, inner in _box_blocks(domain):
        c[half] = box[inner]
    return c


def _reflect(a, axes):
    """a(-k) in fftfreq layout along the given axes."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def forward_transform(u: PhysicalField) -> SpectralField:
    """Real FFT normalized so that coeff(0) = mean(u)."""
    return SpectralField(u.domain, np.fft.rfftn(u.values, norm="forward"))


def inverse_transform(u_hat: SpectralField) -> PhysicalField:
    """Real inverse FFT back to the grid samples."""
    d = u_hat.domain
    return PhysicalField(d, np.fft.irfftn(u_hat.coeffs, s=d.n, axes=range(d.dim),
                                          norm="forward"))


def fractional_laplacian(u_hat: SpectralField, alpha: float) -> SpectralField:
    """Half-Laplacian power: multiplier |k|^alpha, mean mode annihilated."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    d = u_hat.domain
    return SpectralField(d, k_power(d.k_squared, alpha) * u_hat.coeffs)


def partial_derivative(u_hat: SpectralField, axis: int) -> SpectralField:
    """Exact spectral derivative along one axis (multiplier i k_axis).  No run calls
    it; it stays as library calculus, which the README names and verify checks."""
    d = u_hat.domain
    if not 0 <= axis < d.dim:
        raise ValueError(f"axis {axis} out of range for dim {d.dim}")
    return SpectralField(d, 1j * d.deriv_wavenumbers[axis] * u_hat.coeffs)


def riesz_transform(u_hat: SpectralField, axis: int) -> SpectralField:
    """Riesz transform: multiplier i k_axis / |k|, zero on the mean mode.  No run calls
    it; it stays as library calculus, which the README names and verify checks."""
    d = u_hat.domain
    if not 0 <= axis < d.dim:
        raise ValueError(f"axis {axis} out of range for dim {d.dim}")
    safe = np.sqrt(np.where(d.k_squared > 0, d.k_squared, 1.0))
    mult = 1j * d.deriv_wavenumbers[axis] / safe
    return SpectralField(d, mult * u_hat.coeffs)


def riesz_potential(u_hat: SpectralField, beta: float) -> SpectralField:
    """Smoothing inverse of the half-Laplacian: |k|^(-beta) on mean-zero fields.

    The mean mode is dropped, so composing with fractional_laplacian(.., beta) is the
    identity on mean-zero fields.  No run calls it; it stays as library calculus.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    d = u_hat.domain
    return SpectralField(d, k_power(d.k_squared, -beta) * u_hat.coeffs)


def dealias(u_hat: SpectralField) -> SpectralField:
    """2/3-rule truncation: keep the 2/3 box (_box_runs), zero every other mode.

    Idempotent orthogonal projection; quadratic products of truncated fields
    are then alias-free on the collocation grid.
    """
    d = u_hat.domain
    return SpectralField(d, scatter(gather(u_hat.coeffs, d), d))


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
    s may be negative (mean mode excluded).  Summed over the half spectrum
    with Domain.parseval_weights, which is exact for a real field.
    """
    d = u_hat.domain
    w = k_power(d.k_squared, 2.0 * s) * d.parseval_weights
    total = float(np.sum(w * np.abs(u_hat.coeffs) ** 2))
    return math.sqrt(d.volume * total)


def refine(u_hat: SpectralField, factor: int) -> PhysicalField:
    """Evaluate the trigonometric interpolant on a factor-times finer grid.

    Zero-pads the half spectrum and takes one real inverse transform, which
    samples the interpolant between collocation points (the reference the
    sup norm is tested against).  The last-axis Nyquist plane is halved,
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
    big[np.ix_(*idx, np.arange(nyq + 1))] = u_hat.coeffs
    big[..., nyq] *= 0.5
    vals = np.fft.irfftn(big, s=nbig, axes=range(d.dim), norm="forward")
    return PhysicalField(Domain(nbig, d.buoyancy_axis), vals)


_NEWTON_STEPS = 40   # iteration cap of sup_norm's polishing
_NEWTON_BATCH = 16   # start points polished together
_NEIGHBOUR_BATCH = 4096  # candidates whose 3^dim neighbours are gathered together


def sup_norm(c: np.ndarray, domain: Domain, values: np.ndarray | None = None) -> float:
    """Sup over the torus of |p|, p the trigonometric interpolant of a real field.

    c is the field's rfftn half spectrum, normalized like forward_transform
    and read as refine reads it; values are its grid samples, computed when
    not given.  With G the grid maximum of |u| and B the bound of
    Domain.interpolant_reach on how far p rises above its nearest grid
    sample, the start points are the grid points with |u| >= G - B that are
    local maxima of |u| over their periodic 3^dim neighbourhood, each moved
    to the vertex of the parabola through it and its two neighbours along
    every axis.  From there batched steps climb s p, s the sign of u at the
    grid point: Newton's step where the Hessian is negative definite, else
    a step along the gradient to the peak of the quadratic model.  Each
    step is clipped to one cell per axis and halved while it lowers s p; a
    point is done when its step is below 1e-12 of a cell or gains less than
    rounding, or after _NEWTON_STEPS.
    Value, gradient and Hessian of p are separable direct sums over the half
    spectrum, O(N) per point.  Returns max(G, every value met): never below
    the grid maximum, and never above the sup but by rounding.
    """
    d = domain
    if values is None:
        values = np.fft.irfftn(c, s=d.n, axes=range(d.dim), norm="forward")
    a = np.abs(values)
    top = float(a.max())
    # einsum, not vdot: BLAS sums in another order, which could move the starts
    # picked below and so linf's last bits
    reach = 0.5 * float(np.einsum("i,i->", np.abs(c).ravel(), d.interpolant_reach.ravel()))
    if reach == 0.0:  # a constant
        return top
    idx = np.flatnonzero(a >= top - reach)
    coords = np.array(np.unravel_index(idx, d.n))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d.dim))).T
    centre = offsets.shape[1] // 2  # offset 0; +-1 along axis j is centre +- 3^(dim-1-j)
    axis_step = 3 ** np.arange(d.dim - 1, -1, -1)
    flat = a.ravel()
    starts, signs = [], []
    for first in range(0, idx.size, _NEIGHBOUR_BATCH):
        rows = slice(first, first + _NEIGHBOUR_BATCH)
        at = coords[:, rows]
        near = flat[np.ravel_multi_index(at[:, None] + offsets[:, :, None], d.n, mode="wrap")]
        peak = np.all(near[centre] >= near, axis=0)
        # each axis' three samples: the start is the vertex of their parabola
        before, mid, after = (near[centre + o * axis_step][:, peak] for o in (-1, 0, 1))
        bend = np.minimum(before - 2.0 * mid + after, -1e-300)
        starts.append((at[:, peak] + np.clip(0.5 * (before - after) / bend, -0.5, 0.5)).T)
        signs.append(np.sign(values.ravel()[idx[rows][peak]]))
    del a, flat
    cell = np.array([TWO_PI / m for m in d.n])
    starts = np.concatenate(starts) * cell
    signs = np.concatenate(signs)
    best = top
    for first in range(0, len(starts), _NEWTON_BATCH):
        x = starts[first:first + _NEWTON_BATCH]
        s = signs[first:first + _NEWTON_BATCH]
        x_prev, f_prev, step = x, np.full(len(x), -np.inf), np.zeros_like(x)
        for _ in range(_NEWTON_STEPS):
            val, grad, hess = _interpolant_derivatives(c, d, x)
            best = max(best, float(np.abs(val).max()))
            f, grad, hess = s * val, s[:, None] * grad, s[:, None, None] * hess
            up = f >= f_prev - 1e-13 * top  # a drop by rounding is no drop
            x_prev = np.where(up[:, None], x, x_prev)
            f_prev = np.where(up, f, f_prev)
            # along the gradient: to the peak of the quadratic model, or up to
            # the clip where the model does not curve down
            ghg = np.einsum("ij,ijk,ik->i", grad, hess, grad)
            length = np.where(ghg < 0, -np.einsum("ij,ij->i", grad, grad)
                              / np.minimum(ghg, -1e-300), 1e300)
            step = np.where(up[:, None], length[:, None] * grad, 0.5 * step)
            eig = np.linalg.eigvalsh(hess)
            newton = up & (eig[:, -1] < -1e-8 * np.abs(eig).max(axis=-1))
            if newton.any():
                step[newton] = -np.linalg.solve(hess[newton], grad[newton][..., None])[..., 0]
            step = np.clip(step, -cell, cell)
            # done: a step below 1e-12 of a cell, or one from an accepted point
            # whose first-order gain is below rounding
            done = np.all(np.abs(step) < 1e-12 * cell, axis=-1)
            done |= up & (np.einsum("ij,ij->i", grad, step) <= 1e-15 * top)
            if done.all():
                break
            x = x_prev + step
    return best


def _interpolant_derivatives(c, d, x):
    """Value, gradient and Hessian of the interpolant of half spectrum c at points x (m, dim).

    The sums separate: the last axis is contracted first, for the whole
    spectrum at once, then one axis at a time per point, each against the
    factors exp(i k_j x_j) times 1, i k_j and -k_j^2 (derivative orders 0-2).
    """
    dim, m = d.dim, len(x)
    for j in reversed(range(dim)):
        if j < dim - 1:
            k = d.wavenumbers[j].ravel()
            e = np.exp(1j * np.outer(k, x[:, j]))
        else:  # the half axis, Nyquist read at +n/2
            k = np.arange(d.n[j] // 2 + 1.0)
            e = d.parseval_weights[:, None] * np.exp(1j * np.outer(k, x[:, j]))
        f = np.stack([e, 1j * k[:, None] * e, -(k * k)[:, None] * e], axis=1)
        if j == dim - 1:  # s: (m, n_0, ..., n_dim-2, 3)
            s = np.moveaxis((c @ f.reshape(len(k), 3 * m)).reshape(c.shape[:-1] + (3, m)), -1, 0)
        else:  # s: (m, n_0, ..., n_j-1, 3 * 3^(dim-1-j)), the new order axis first
            s = np.matmul(f.transpose(2, 1, 0).reshape((m,) + (1,) * j + (3, len(k))), s)
            s = s.reshape(s.shape[:-2] + (-1,))
    s = s.real.reshape((m,) + (3,) * dim)  # s[:, o_0, ..., o_dim-1]: derivative of those orders
    unit = np.eye(dim, dtype=int)
    grad = np.empty((m, dim))
    hess = np.empty((m, dim, dim))
    for j in range(dim):
        grad[:, j] = s[(slice(None),) + tuple(unit[j])]
        for l in range(j, dim):
            hess[:, j, l] = hess[:, l, j] = s[(slice(None),) + tuple(unit[j] + unit[l])]
    return s[(slice(None),) + (0,) * dim], grad, hess


def random_field(domain: Domain, spectrum_decay: float = 3.0, cutoff: float = 5.0,
                 seed: int = 0, l2_norm: float = 1.0) -> PhysicalField:
    """Reproducible smooth random field with a prescribed spectrum.

    Coefficient magnitudes follow |k|^(-spectrum_decay) * exp(-|k|^2/cutoff^2)
    with uniformly random phases (antisymmetrized so the field is real),
    mean zero, dealiased, then scaled to the requested L^2 norm.
    """
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if not 0 < l2_norm < math.inf:
        raise ValueError(f"l2_norm must be positive and finite, got {l2_norm}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=domain.n)
    # phases drawn on the full grid and antisymmetrized under k -> -k, so the
    # coefficients are Hermitian; the half keeps one mode of each pair
    theta = 0.5 * (theta - _reflect(theta, range(domain.dim)))[..., :domain.spectral_shape[-1]]
    amp = k_power(domain.k_squared, -spectrum_decay) * np.exp(-domain.k_squared / cutoff ** 2)
    coeffs = amp * np.exp(1j * theta)
    coeffs = scatter(gather(coeffs, domain), domain)
    field = SpectralField(domain, coeffs)
    cur = lp_norm(inverse_transform(field), 2)
    if cur == 0.0:
        raise ValueError("spectrum parameters produced an identically zero field")
    return inverse_transform(SpectralField(domain, coeffs * (l2_norm / cur)))
