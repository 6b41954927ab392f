"""Property tests: the rfftn half-spectrum hot paths against fftn references.

The solver, the refined sup norm and the 1D stream-slope RHS carry the
rfftn half spectrum.  Each is compared here with a straightforward
complex-to-complex implementation on the full fftn layout, over random
dimensions, grid sizes, orders and Hermitian data, dealiased except where a
case needs energy on the Nyquist planes.  The examples are derandomized so
that the suite stays reproducible.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmflow import Domain, ForcingSpec, SolverParams, SpectralField, refine
from dpmflow.blowup1d import Regularization, _StreamOps
from dpmflow.solver import _Integrator
from dpmflow.spectral import complete_spectrum

RTOL = 1e-12
PROPERTY = settings(deadline=None, max_examples=12, derandomize=True, database=None)

even_n = st.integers(4, 16).map(lambda m: 2 * m)


@st.composite
def grids(draw, dims=(1, 2, 3)):
    dim = draw(st.sampled_from(dims))
    return Domain(tuple(draw(even_n) for _ in range(dim)))


def reflect(a):
    """a(-k) on the full fftn layout."""
    for ax in range(a.ndim):
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def hermitian(d, seed, mask=None):
    """Random Hermitian coefficients, zero outside mask (default: the 2/3 rule)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
    z = 0.5 * (z + np.conj(reflect(z)))
    return np.where(d.dealias_mask if mask is None else mask, z, 0.0)


def assert_close(got, ref, scale=None):
    scale = np.abs(ref).max() if scale is None else scale
    assert np.abs(got - ref).max() <= RTOL * scale + 1e-300


def ref_nonlinear(d, c, f_hat=None, dealias=True):
    """Reference: c2c transforms, real part, conservative form."""
    axes = tuple(range(1, d.dim + 1))
    stack = np.stack([c] + [m * c for m in d.velocity_multipliers])
    phys = np.fft.ifftn(stack, axes=axes, norm="forward").real
    prod = np.fft.fftn(phys[1:] * phys[0], axes=axes, norm="forward")
    if dealias:
        prod *= d.dealias_mask
    out = -sum(1j * d.deriv_wavenumbers[j] * prod[j] for j in range(d.dim))
    return out if f_hat is None else out + f_hat


def ref_k_alpha(d, alpha):
    return np.where(d.k_squared > 0, np.maximum(d.k_abs, 1.0) ** alpha, 0.0)


def ref_advance(d, c, f_hat, nu, alpha, dt):
    lam = -nu * ref_k_alpha(d, alpha)
    e_half, e_full = np.exp(lam * (0.5 * dt)), np.exp(lam * dt)
    a = ref_nonlinear(d, c, f_hat)
    b = ref_nonlinear(d, e_half * (c + (0.5 * dt) * a), f_hat)
    cc = ref_nonlinear(d, e_half * c + (0.5 * dt) * b, f_hat)
    dd = ref_nonlinear(d, e_full * c + dt * (e_half * cc), f_hat)
    return e_full * c + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + cc) + dd)


def integrator(d, f_hat, nu, alpha, dealias=True):
    params = SolverParams(nu=nu, alpha=alpha, dt=0.01, t_end=1.0, dealias=dealias)
    return _Integrator(d, params, ForcingSpec(SpectralField(d, f_hat)))


seeds = st.integers(0, 2 ** 32 - 1)
alphas = st.floats(0.0, 2.0)
nus = st.floats(0.0, 0.5)


@PROPERTY
@given(d=grids(), seed=seeds, alpha=alphas, dealias=st.booleans())
def test_nonlinear_term_matches_fftn(d, seed, alpha, dealias):
    # without dealiasing every mode carries energy, Nyquist planes included
    mask = d.dealias_mask if dealias else np.ones(d.n, dtype=bool)
    c = hermitian(d, seed, mask)
    f_hat = hermitian(d, seed + 1, mask)
    integ = integrator(d, f_hat, 0.1, alpha, dealias)
    got = integ.nonlinear(d.half(c))
    ref = ref_nonlinear(d, c, f_hat, dealias)
    assert_close(got, d.half(ref))
    assert_close(complete_spectrum(got, d), ref)


@PROPERTY
@given(d=grids(), seed=seeds, alpha=alphas, nu=nus, dt=st.floats(1e-3, 0.1))
def test_advance_matches_fftn(d, seed, alpha, nu, dt):
    c = hermitian(d, seed)
    f_hat = hermitian(d, seed + 1)
    integ = integrator(d, f_hat, nu, alpha)
    ch = d.half(c)
    got = integ.advance(ch, integ.nonlinear(ch), dt)
    assert_close(got, d.half(ref_advance(d, c, f_hat, nu, alpha, dt)))


@PROPERTY
@given(d=grids(), seed=seeds, alpha=alphas, nu=nus)
def test_weighted_budget_functionals_match_full_sums(d, seed, alpha, nu):
    # every mode carries energy, so both singly counted planes are exercised
    full = np.ones(d.n, dtype=bool)
    c, rhs, f_hat = (hermitian(d, seed + i, full) for i in range(3))
    k_alpha = ref_k_alpha(d, alpha)
    terms = (nu * k_alpha * np.abs(c) ** 2,
             f_hat * np.conj(c),
             2.0 * nu * k_alpha * np.conj(c) * rhs,
             f_hat * np.conj(rhs))
    got = integrator(d, f_hat, nu, alpha, dealias=False).budget(d.half(c), d.half(rhs))
    for value, term in zip(got, terms):
        ref = d.volume * float(np.sum(term).real)
        assert abs(value - ref) <= RTOL * d.volume * float(np.abs(term).sum()) + 1e-300


def ref_refine(c, d, factor):
    nbig = tuple(factor * m for m in d.n)
    big = np.zeros(nbig, dtype=np.complex128)
    idx = [np.fft.fftfreq(m, d=1.0 / m).astype(int) % mb for m, mb in zip(d.n, nbig)]
    big[np.ix_(*idx)] = c
    return np.fft.ifftn(big, norm="forward").real


@PROPERTY
@given(d=grids(), seed=seeds, factor=st.integers(2, 3), nyquist=st.booleans())
def test_refine_matches_fftn(d, seed, factor, nyquist):
    mask = d.dealias_mask
    if nyquist:
        # energy on the last-axis Nyquist plane, dealiased along the other axes
        lead = np.ones(d.n, dtype=bool)
        for j, k in enumerate(d.wavenumbers[:-1]):
            lead = lead & (np.abs(k) <= d.n[j] / 3.0)
        mask = mask | (lead & (d.wavenumbers[-1] == -d.n[-1] // 2))
    c = hermitian(d, seed, mask)
    if nyquist:
        assert np.abs(c[..., d.n[-1] // 2]).max() > 0
    got = refine(SpectralField(d, c), factor).values
    ref = ref_refine(c, d, factor)
    assert_close(got, ref)


def ref_stream_rhs(ops, wh, g, nu_ql):
    """Reference 1D stream-slope RHS on the full fft layout."""
    n = ops.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    kd = np.where(k == -n // 2, 0.0, k)
    w = np.fft.ifft(wh, norm="forward").real
    fh = np.zeros_like(wh)
    fh[kd != 0] = wh[kd != 0] / (1j * kd[kd != 0])
    f = np.fft.ifft(fh, norm="forward").real
    f -= f[n // 2]
    wx = np.fft.ifft(1j * kd * wh, norm="forward").real
    dg = 2.0 * float(np.sum(np.abs(wh) ** 2))
    prod = np.fft.fft(w * w - f * wx, norm="forward") * (np.abs(k) <= n / 3.0)
    dwh = prod + g * wh
    dwh[0] -= dg
    if nu_ql is not None:
        coeff = nu_ql * (2.0 * math.pi * float(np.sum(k ** 2 * np.abs(wh) ** 2)) + g * g)
        dwh = dwh - coeff * k ** 2 * wh
    return dwh, dg, float(np.abs(w).max()), float(w.max())


@PROPERTY
@given(d=grids(dims=(1,)), seed=seeds, g=st.floats(-2.0, 2.0),
       nu_ql=st.none() | st.floats(0.0, 0.5))
def test_stream_slope_rhs_matches_fft(d, seed, g, nu_ql):
    reg = Regularization() if nu_ql is None else Regularization("quasilinear", nu=nu_ql)
    ops = _StreamOps(d, reg)
    wh = hermitian(d, seed)
    wh[0] = 0.0
    got = ops.rhs(d.half(wh), g)
    ref = ref_stream_rhs(ops, wh, g, nu_ql)
    assert_close(got[0], d.half(ref[0]))
    for value, expected in zip(got[1:], ref[1:]):
        assert abs(value - expected) <= RTOL * max(abs(expected), 1.0)
