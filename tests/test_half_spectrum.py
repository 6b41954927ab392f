"""Property tests on the rfftn half spectrum, over random grids, orders and data.

The operator identities of the spectral calculus and the Darcy velocity are
checked on the half spectrum directly.  The solver, the refined interpolant
and the 1D stream-slope RHS and step are compared with straightforward
complex-to-complex implementations on the full fftn layout (fft_reference),
on Hermitian data, dealiased except where a case needs energy on the
Nyquist planes.  The examples are derandomized by the suite's hypothesis
profile (conftest.py), so the suite stays reproducible.

The solver's integrator steps on the 2/3 box (spectral.gather and scatter
move a half spectrum to it and back) and computes in work arrays of its
own; the same properties check that no array handed to a caller is one of
them.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmflow import (Domain, PhysicalField, SolverParams, SpectralField,
                     compute_record, forward_transform, fractional_laplacian,
                     hs_seminorm, inverse_transform, lp_norm, partial_derivative,
                     pressure_from_temperature, refine, riesz_potential,
                     riesz_transform, run, velocity_from_temperature)
from dpmflow.blowup1d import Regularization, _StreamOps
from dpmflow.solver import _Integrator
from dpmflow.spectral import _reflect, gather, k_power, scatter
from fft_reference import FullLayout, half, hermitian

RTOL = 1e-12

even_n = st.integers(4, 16).map(lambda m: 2 * m)


@st.composite
def grids(draw, dims=(1, 2, 3)):
    dim = draw(st.sampled_from(dims))
    return Domain(tuple(draw(even_n) for _ in range(dim)))


def assert_close(got, ref, scale=None):
    scale = np.abs(ref).max() if scale is None else scale
    assert np.abs(got - ref).max() <= RTOL * scale + 1e-300


def ref_nonlinear(d, c, f_hat=None):
    """Reference: c2c transforms, real part, conservative form, 2/3 rule."""
    full = FullLayout(d)
    axes = tuple(range(1, d.dim + 1))
    stack = np.stack([c] + [m * c for m in full.velocity_multipliers])
    phys = np.fft.ifftn(stack, axes=axes, norm="forward").real
    prod = np.fft.fftn(phys[1:] * phys[0], axes=axes, norm="forward") * full.dealias_mask
    out = -sum(1j * full.deriv_wavenumbers[j] * prod[j] for j in range(d.dim))
    return out if f_hat is None else out + f_hat


def ref_k_alpha(d, alpha):
    full = FullLayout(d)
    return np.where(full.k_squared > 0, np.maximum(full.k_abs, 1.0) ** alpha, 0.0)


def ref_advance(d, c, f_hat, nu, alpha, dt):
    lam = -nu * ref_k_alpha(d, alpha)
    e_half, e_full = np.exp(lam * (0.5 * dt)), np.exp(lam * dt)
    a = ref_nonlinear(d, c, f_hat)
    b = ref_nonlinear(d, e_half * (c + (0.5 * dt) * a), f_hat)
    cc = ref_nonlinear(d, e_half * c + (0.5 * dt) * b, f_hat)
    dd = ref_nonlinear(d, e_full * c + dt * (e_half * cc), f_hat)
    return e_full * c + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + cc) + dd)


def integrator(d, f_hat, nu, alpha):
    params = SolverParams(nu=nu, alpha=alpha, dt=0.01, t_end=1.0)
    return _Integrator(d, params, SpectralField(d, half(f_hat)))


def box(d, a):
    """The 2/3 box of a full-layout array."""
    return gather(half(a), d)


seeds = st.integers(0, 2 ** 32 - 1)
alphas = st.floats(0.0, 2.0)
nus = st.floats(0.0, 0.5)


@st.composite
def buoyant_grids(draw, dims=(1, 2, 3)):
    d = draw(grids(dims))
    return Domain(d.n, draw(st.integers(0, d.dim - 1)))


def real_field(d, seed):
    """Grid samples of a random real field, with energy on every mode."""
    return PhysicalField(d, np.random.default_rng(seed).standard_normal(d.n))


def smooth_spectrum(d, seed):
    """Half spectrum of a random real field, dealiased and mean zero."""
    mask = half(FullLayout(d).dealias_mask)
    c = np.where(mask, forward_transform(real_field(d, seed)).coeffs, 0.0)
    c[(0,) * d.dim] = 0.0
    return SpectralField(d, c)


# operator identities on the half spectrum, at the fixed-grid tolerances

@given(d=grids(), seed=seeds)
def test_round_trip(d, seed):
    u = real_field(d, seed)
    back = inverse_transform(forward_transform(u)).values
    assert np.abs(back - u.values).max() <= RTOL * np.abs(u.values).max()


@given(d=grids(), seed=seeds)
def test_parseval(d, seed):
    values = real_field(d, seed).values
    u = PhysicalField(d, values - values.mean())  # the seminorm leaves out the mean
    assert abs(hs_seminorm(forward_transform(u), 0.0) - lp_norm(u, 2)) <= RTOL * lp_norm(u, 2)


@given(d=grids(), seed=seeds, a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_fractional_laplacian_semigroup(d, seed, a, b):
    c = smooth_spectrum(d, seed)
    one = fractional_laplacian(fractional_laplacian(c, a), b).coeffs
    two = fractional_laplacian(c, a + b).coeffs
    assert np.abs(one - two).max() <= RTOL * np.abs(two).max() + 1e-16


@given(d=grids(), seed=seeds)
def test_riesz_squares_sum_to_minus_identity(d, seed):
    c = smooth_spectrum(d, seed)
    acc = sum(riesz_transform(riesz_transform(c, j), j).coeffs for j in range(d.dim))
    assert np.abs(acc + c.coeffs).max() <= RTOL * np.abs(c.coeffs).max() + 1e-16


@given(d=grids(), seed=seeds, beta=st.floats(0.0, 2.0, exclude_min=True))
def test_riesz_potential_inverts_fractional_laplacian(d, seed, beta):
    c = smooth_spectrum(d, seed)
    out = riesz_potential(fractional_laplacian(c, beta), beta).coeffs
    assert np.abs(out - c.coeffs).max() <= RTOL * np.abs(c.coeffs).max()


@given(d=buoyant_grids(dims=(2, 3)), seed=seeds)
def test_velocity_identities(d, seed):
    c = smooth_spectrum(d, seed)
    v = velocity_from_temperature(c)
    scale = np.abs(c.coeffs).max()
    assert np.abs(v.spectral_divergence()).max() <= 1e-13 * scale
    # curl-curl: -|k|^2 v_j = (-k_j k_N + delta_{jN} |k|^2) T
    k, ax = d.wavenumbers, d.buoyancy_axis
    for j, comp in enumerate(v.components):
        rhs = (-k[j] * k[ax] + (d.k_squared if j == ax else 0.0)) * c.coeffs
        assert np.abs(-d.k_squared * comp.coeffs - rhs).max() <= 1e-12 * scale
    # Darcy's law: v = -(grad p + gamma T)
    p = pressure_from_temperature(c)
    for j, comp in enumerate(v.components):
        rec = -(partial_derivative(p, j).coeffs + (c.coeffs if j == ax else 0.0))
        assert np.abs(rec - comp.coeffs).max() <= 1e-13 * scale
    tn = lp_norm(inverse_transform(c), 2)
    for comp in v.components:
        assert lp_norm(inverse_transform(comp), 2) <= tn * (1 + 1e-13)


@given(d=buoyant_grids())
def test_velocity_multipliers_are_the_even_part_of_the_full_set(d):
    # reference: the full-layout set, symmetrized to be even in k (the part
    # a real inverse transform applies), cut to the half
    for m, full in zip(d.velocity_multipliers, FullLayout(d).velocity_multipliers):
        assert np.array_equal(m, half(0.5 * (full + _reflect(full, range(d.dim)))))


@given(d=grids(), seed=seeds, alpha=alphas)
def test_nonlinear_term_matches_fftn(d, seed, alpha):
    c = hermitian(d, seed)
    f_hat = hermitian(d, seed + 1)
    integ = integrator(d, f_hat, 0.1, alpha)
    got = integ.nonlinear(box(d, c))
    assert_close(scatter(got, d), half(ref_nonlinear(d, c, f_hat)))
    # later calls on the same integrator leave the result alone
    kept = got.copy()
    other = box(d, hermitian(d, seed + 2))
    integ.advance(other, integ.nonlinear(other), 0.01)
    assert np.array_equal(got, kept)
    # written over its own input, the same numbers
    inplace = box(d, c)
    assert np.array_equal(integ.nonlinear(inplace, out=inplace), kept)


@given(d=grids(), seed=seeds, alpha=alphas, nu=nus, dt=st.floats(1e-3, 0.1))
def test_advance_matches_fftn(d, seed, alpha, nu, dt):
    c = hermitian(d, seed)
    f_hat = hermitian(d, seed + 1)
    integ = integrator(d, f_hat, nu, alpha)
    ch = box(d, c)
    nl = integ.nonlinear(ch)
    got = integ.advance(ch, nl, dt)
    assert_close(scatter(got, d), half(ref_advance(d, c, f_hat, nu, alpha, dt)))
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
    assert not any(np.may_share_memory(a, b) for a in work_arrays(integ)
                   for b in work_arrays(other))


def work_arrays(integ):
    w = integ.work()
    return w.spec, w.phys, w.scratch, w.stages


@given(d=grids(), seed=seeds)
def test_box_holds_exactly_the_modes_of_the_two_thirds_rule(d, seed):
    # every n from 8 to 32, multiples of 3 and not, against the reference mask
    mask = half(FullLayout(d).dealias_mask)
    box = gather(mask, d)
    assert box.all() and box.size == np.count_nonzero(mask)
    c = half(hermitian(d, seed))
    assert np.array_equal(scatter(gather(c, d), d), c)


@given(d=grids())
def test_integrator_refuses_arrays_off_the_box(d):
    integ = integrator(d, hermitian(d, 1), 0.1, 1.5)
    c = half(hermitian(d, 2))
    with pytest.raises(ValueError, match="2/3 box"):
        integ.nonlinear(c)
    with pytest.raises(ValueError, match="2/3 box"):
        integ.advance(c, c, 0.01)


@given(d=buoyant_grids(), alpha=alphas)
def test_box_multipliers_are_the_half_spectrum_ones(d, alpha):
    # the builders of spectral serve both layouts, so the box holds the
    # very bits of the half spectrum: its Nyquist branch is all false there
    integ = integrator(d, hermitian(d, 1), 0.1, alpha)
    assert np.array_equal(integ.k_alpha, gather(k_power(d.k_squared, alpha), d))
    for inner, vel, _ in integ.blocks:
        for m, full in zip(vel, d.velocity_multipliers):
            assert np.array_equal(m, gather(full, d)[inner])
    assert np.array_equal(integ.weights, d.parseval_weights[:integ.box_shape[-1]])


@given(d=grids(dims=(2, 3)), seed=seeds, alpha=st.floats(1.0, 2.0), adaptive=st.booleans())
def test_run_keeps_each_state_as_sampled(d, seed, alpha, adaptive):
    values = np.fft.ifftn(hermitian(d, seed), norm="forward").real
    u0 = PhysicalField(d, values / np.abs(values).max())
    params = SolverParams(nu=0.1, alpha=alpha, dt=0.01, t_end=0.03, adaptive=adaptive)
    states = []
    res = run(u0, params, sample_every=0.01, p_list=(2.0,),
              on_sample=lambda state, record: states.append(state))
    assert len(states) == len(res.records) == 4
    for rec, state in zip(res.records, states):
        # each state still gives the norm recorded when it was sampled
        assert compute_record(state, 0.1, alpha, rec.vmax, p_list=(2.0,)).lp[2.0] == rec.lp[2.0]
    arrays = [state.t_hat.coeffs for state in states] + [res.final_state.t_hat.coeffs]
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])
    assert np.array_equal(arrays[-1], arrays[-2])


@given(d=grids(), seed=seeds, alpha=alphas, nu=nus)
def test_weighted_budget_functionals_match_full_sums(d, seed, alpha, nu):
    # every mode of the 2/3 box carries energy in c, rhs and the forcing, so
    # the singly counted k_last = 0 plane is exercised; the other one, the
    # Nyquist plane, lies outside the box
    c, rhs, f_hat = (hermitian(d, seed + i) for i in range(3))
    k_alpha = ref_k_alpha(d, alpha)
    terms = (nu * k_alpha * np.abs(c) ** 2,
             f_hat * np.conj(c),
             2.0 * nu * k_alpha * np.conj(c) * rhs,
             f_hat * np.conj(rhs))
    got = integrator(d, f_hat, nu, alpha).budget(box(d, c), box(d, rhs))
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
    full = FullLayout(d)
    mask = full.dealias_mask
    if nyquist:
        # energy on the last-axis Nyquist plane, dealiased along the other axes
        lead = np.ones(d.n, dtype=bool)
        for j, k in enumerate(full.wavenumbers[:-1]):
            lead = lead & (np.abs(k) <= d.n[j] / 3.0)
        mask = mask | (lead & (full.wavenumbers[-1] == -d.n[-1] // 2))
    c = hermitian(d, seed, mask)
    if nyquist:
        assert np.abs(c[..., d.n[-1] // 2]).max() > 0
    got = refine(SpectralField(d, half(c)), factor).values
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
    x = np.append(half(wh), g)
    got = ops.nonlinear(x)
    ref = ref_stream_rhs(ops, wh, g, nu_ql)
    assert_close(got[:-1], half(ref[0]))
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
    x = np.append(half(wh), g)
    got = ops.advance(x, ops.nonlinear(x), dt)
    lam = np.zeros(d.n)
    if mode == "spectral":
        kabs = np.abs(FullLayout(d).deriv_wavenumbers[0])
        lam = (1.0 if sign == "oracle" else -1.0) * nu * np.where(
            kabs > 0, np.maximum(kabs, 1.0) ** alpha, 0.0)
    ref_w, ref_g = ref_stream_advance(ops, wh, g, dt, nu if mode == "quasilinear" else None,
                                      lam)
    assert_close(got[:-1], half(ref_w))
    assert abs(got[-1] - ref_g) <= RTOL * max(abs(ref_g), 1.0)


@given(d=grids(dims=(1,)), seed=seeds, g=st.floats(-2.0, 2.0), dt=st.floats(1e-3, 0.05),
       nu=st.floats(0.01, 0.5))
def test_stream_slope_frozen_coefficient_advance_matches_fft(d, seed, g, dt, nu):
    # the coefficient is frozen at other data, so the explicit remainder
    # -(coeff - c0) k^2 wh is non-zero from the first stage on
    ops = _StreamOps(d, Regularization("quasilinear", nu=nu))
    k = FullLayout(d).wavenumbers[0]
    other = hermitian(d, seed + 1)
    other[0] = 0.0
    c0 = nu * (2.0 * math.pi * float(np.sum(k ** 2 * np.abs(other) ** 2)) + 0.25 * g * g)
    ops.freeze(np.append(half(other), 0.5 * g))
    assert abs(ops.c0 - c0) <= RTOL * c0
    wh = hermitian(d, seed)
    wh[0] = 0.0
    x = np.append(half(wh), g)
    got = ops.advance(x, ops.nonlinear(x), dt)
    ref_w, ref_g = ref_stream_advance(ops, wh, g, dt, nu, -c0 * k ** 2, c0)
    assert_close(got[:-1], half(ref_w))
    assert abs(got[-1] - ref_g) <= RTOL * max(abs(ref_g), 1.0)
