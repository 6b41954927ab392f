"""Property tests: the rfftn half-spectrum hot paths against fftn references.

The solver, the refined sup norm and the 1D stream-slope RHS and step
carry the rfftn half spectrum.  Each is compared here with a straightforward
complex-to-complex implementation on the full fftn layout, over random
dimensions, grid sizes, orders and Hermitian data, dealiased except where a
case needs energy on the Nyquist planes.  The examples are derandomized by
the suite's hypothesis profile (conftest.py), so the suite stays reproducible.

The solver's integrator computes in work arrays of its own; the same
properties check that no array handed to a caller is one of them.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmflow import (Domain, ForcingSpec, PhysicalField, SolverParams, SpectralField,
                     compute_record, refine, run)
from dpmflow.blowup1d import Regularization, _StreamOps
from dpmflow.solver import _Integrator
from dpmflow.spectral import complete_spectrum

RTOL = 1e-12

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
    # later calls on the same integrator leave the result alone
    kept = got.copy()
    other = d.half(hermitian(d, seed + 2, mask))
    integ.advance(other, integ.nonlinear(other), 0.01)
    assert np.array_equal(got, kept)
    # written over its own input, the same numbers
    inplace = d.half(c).copy()
    assert np.array_equal(integ.nonlinear(inplace, out=inplace), kept)


@given(d=grids(), seed=seeds, alpha=alphas, nu=nus, dt=st.floats(1e-3, 0.1))
def test_advance_matches_fftn(d, seed, alpha, nu, dt):
    c = hermitian(d, seed)
    f_hat = hermitian(d, seed + 1)
    integ = integrator(d, f_hat, nu, alpha)
    ch = d.half(c)
    nl = integ.nonlinear(ch)
    got = integ.advance(ch, nl, dt)
    assert_close(got, d.half(ref_advance(d, c, f_hat, nu, alpha, dt)))
    # into a given array, the same numbers; the inputs stay as they were
    kept = got.copy(), nl.copy(), ch.copy()
    assert np.array_equal(integ.advance(ch, nl, dt, out=np.empty_like(ch)), kept[0])
    # the step and the tendency survive further steps
    integ.advance(got, integ.nonlinear(got), dt)
    for array, copy in zip((got, nl, ch), kept):
        assert np.array_equal(array, copy)
    # two integrators on one domain share no work array
    other = integrator(d, f_hat, nu, alpha)
    other.nonlinear(ch)
    assert not any(np.may_share_memory(a, b) for a in integ.work() for b in other.work())


@given(d=grids(dims=(2, 3)), seed=seeds, alpha=st.floats(1.0, 2.0), adaptive=st.booleans())
def test_run_keeps_each_state_as_sampled(d, seed, alpha, adaptive):
    values = np.fft.ifftn(hermitian(d, seed), norm="forward").real
    u0 = PhysicalField(d, values / np.abs(values).max())
    params = SolverParams(nu=0.1, alpha=alpha, dt=0.01, t_end=0.03, adaptive=adaptive)
    res = run(u0, params, sample_every=0.01, p_list=(2.0,), keep_states=True)
    assert len(res.states) == len(res.records) == 4
    for rec, state in zip(res.records, res.states):
        # each state still gives the norm recorded when it was sampled
        assert compute_record(state, 0.1, alpha, rec.vmax, p_list=(2.0,)).lp[2.0] == rec.lp[2.0]
    arrays = [state.t_hat.coeffs for state in res.states] + [res.final_state.t_hat.coeffs]
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])
    assert np.array_equal(arrays[-1], arrays[-2])


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


def ref_stream_rhs(ops, wh, g, nu_ql, c0=0.0):
    """Reference 1D stream-slope RHS on the full fft layout, less the symbol -c0 k^2."""
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
        dwh = dwh - (coeff - c0) * k ** 2 * wh
    return dwh, dg, w


@given(d=grids(dims=(1,)), seed=seeds, g=st.floats(-2.0, 2.0),
       nu_ql=st.none() | st.floats(0.0, 0.5))
def test_stream_slope_rhs_matches_fft(d, seed, g, nu_ql):
    reg = Regularization() if nu_ql is None else Regularization("quasilinear", nu=nu_ql)
    ops = _StreamOps(d, reg)
    wh = hermitian(d, seed)
    wh[0] = 0.0
    x = np.append(d.half(wh), g)
    got = ops.nonlinear(x)
    ref = ref_stream_rhs(ops, wh, g, nu_ql)
    assert_close(got[:-1], d.half(ref[0]))
    assert abs(got[-1] - ref[1]) <= RTOL * max(abs(ref[1]), 1.0)
    assert_close(ops.w, ref[2], scale=max(np.abs(ref[2]).max(), 1.0))
    # written over its own input, the same numbers
    assert np.array_equal(ops.nonlinear(x.copy(), out=x), got)


def ref_stream_advance(ops, wh, g, dt, nu_ql, lam, c0=0.0):
    """Reference 1D IF-RK4 step of (wh, g) on the full fft layout, plain expressions."""
    e_half, e_full = np.exp(lam * (0.5 * dt)), np.exp(lam * dt)
    aw, ag, _ = ref_stream_rhs(ops, wh, g, nu_ql, c0)
    bw, bg, _ = ref_stream_rhs(ops, e_half * (wh + (0.5 * dt) * aw), g + 0.5 * dt * ag, nu_ql, c0)
    cw, cg, _ = ref_stream_rhs(ops, e_half * wh + (0.5 * dt) * bw, g + 0.5 * dt * bg, nu_ql, c0)
    dw, dg, _ = ref_stream_rhs(ops, e_full * wh + dt * (e_half * cw), g + dt * cg, nu_ql, c0)
    wh_new = e_full * wh + (dt / 6.0) * (e_full * aw + 2.0 * e_half * (bw + cw) + dw)
    wh_new[0] = 0.0
    return wh_new, g + (dt / 6.0) * (ag + 2.0 * (bg + cg) + dg)


@pytest.mark.parametrize("mode", ["none", "spectral", "quasilinear"])
@given(d=grids(dims=(1,)), seed=seeds, g=st.floats(-2.0, 2.0), dt=st.floats(1e-3, 0.05),
       nu=st.floats(0.0, 0.5), alpha=st.sampled_from([1.0, 2.0]),
       sign=st.sampled_from(["oracle", "dissipative"]))
def test_stream_slope_advance_matches_fft(d, seed, g, dt, mode, nu, alpha, sign):
    reg = Regularization(mode, nu=nu, alpha=alpha, sign=sign)
    ops = _StreamOps(d, reg)
    wh = hermitian(d, seed)
    wh[0] = 0.0
    x = np.append(d.half(wh), g)
    got = ops.advance(x, ops.nonlinear(x), dt)
    lam = np.zeros(d.n)
    if mode == "spectral":
        kabs = np.abs(np.where(d.wavenumbers[0] == -d.n[0] // 2, 0.0, d.wavenumbers[0]))
        lam = (1.0 if sign == "oracle" else -1.0) * nu * np.where(
            kabs > 0, np.maximum(kabs, 1.0) ** alpha, 0.0)
    ref_w, ref_g = ref_stream_advance(ops, wh, g, dt, nu if mode == "quasilinear" else None,
                                      lam)
    assert_close(got[:-1], d.half(ref_w))
    assert abs(got[-1] - ref_g) <= RTOL * max(abs(ref_g), 1.0)


@given(d=grids(dims=(1,)), seed=seeds, g=st.floats(-2.0, 2.0), dt=st.floats(1e-3, 0.05),
       nu=st.floats(0.01, 0.5))
def test_stream_slope_frozen_coefficient_advance_matches_fft(d, seed, g, dt, nu):
    # the coefficient is frozen at other data, so the explicit remainder
    # -(coeff - c0) k^2 wh is non-zero from the first stage on
    ops = _StreamOps(d, Regularization("quasilinear", nu=nu))
    k = d.wavenumbers[0]
    other = hermitian(d, seed + 1)
    other[0] = 0.0
    c0 = nu * (2.0 * math.pi * float(np.sum(k ** 2 * np.abs(other) ** 2)) + 0.25 * g * g)
    ops.freeze(np.append(d.half(other), 0.5 * g))
    assert abs(ops.c0 - c0) <= RTOL * c0
    wh = hermitian(d, seed)
    wh[0] = 0.0
    x = np.append(d.half(wh), g)
    got = ops.advance(x, ops.nonlinear(x), dt)
    ref_w, ref_g = ref_stream_advance(ops, wh, g, dt, nu, -c0 * k ** 2, c0)
    assert_close(got[:-1], d.half(ref_w))
    assert abs(got[-1] - ref_g) <= RTOL * max(abs(ref_g), 1.0)
