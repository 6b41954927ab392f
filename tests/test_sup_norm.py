"""The sup norm of the trigonometric interpolant (spectral.sup_norm).

Property tests bracket it by the interpolant sampled on an 8x refined grid
(spectral.refine, which zero-pads the spectrum): from below, and from above
by the curvature bound for that grid's spacing.  3D grids stop at n = 16
there, because the 8x grid of 32^3 is 256^3 (0.4 GB).  A guard bounds the
memory one diagnostics record takes at 32^3, where the refined grid it
replaces took 49 MB.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dpmflow import Domain, SpectralField, compute_record, refine
from dpmflow.solver import SimulationState
from dpmflow.spectral import _reflect, forward_transform, random_field, sup_norm
from fft_reference import FullLayout, half


@st.composite
def band_limited(draw, max_n=32, max_n3=32):
    """(domain, half spectrum): random Hermitian modes with |k_j| <= kmax <= n_j/3."""
    dim = draw(st.integers(1, 3))
    top = max_n3 if dim == 3 else max_n
    d = Domain(tuple(2 * draw(st.integers(4, top // 2)) for _ in range(dim)))
    kmax = draw(st.integers(1, min(d.n) // 3))
    decay = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
    z = 0.5 * (z + np.conj(_reflect(z, range(d.dim))))
    full = FullLayout(d)
    mask = full.dealias_mask
    for k in full.wavenumbers:
        mask = mask & (np.abs(k) <= kmax)
    c = np.where(mask, z * np.maximum(full.k_abs, 1.0) ** -decay, 0.0)
    c[(0,) * d.dim] = rng.standard_normal()
    return d, half(c)


def grid_max(d, c):
    return float(np.abs(np.fft.irfftn(c, s=d.n, axes=range(d.dim), norm="forward")).max())


@given(band_limited(max_n3=16))
def test_sup_norm_is_bracketed_by_the_8x_refined_grid(field):
    d, c = field
    got = sup_norm(c, d)
    top = grid_max(d, c)
    fine = float(np.abs(refine(SpectralField(d, c), 8).values).max())
    # between a sample of the interpolant and its peak: within the bound on
    # how far the interpolant rises above its nearest sample, at spacing h/8
    reach = 0.5 * float(np.vdot(np.abs(c), d.interpolant_reach)) / 64
    assert got >= fine - 1e-13 * top
    assert got - fine <= reach + 1e-13 * top


@given(band_limited())
def test_sup_norm_is_never_below_the_grid_maximum(field):
    d, c = field
    assert sup_norm(c, d) >= grid_max(d, c)


def test_constant_field_is_its_own_sup():
    d = Domain((8, 8))
    c = np.zeros((8, 5), dtype=complex)
    c[0, 0] = -2.5
    assert sup_norm(c, d) == 2.5


def test_record_peak_memory_is_at_most_four_grids():
    d = Domain((32, 32, 32))
    state = SimulationState(0.0, forward_transform(random_field(d, seed=5)))

    def record():
        return compute_record(state, 0.05, 1.5, 1.0, p_list=(1.0, 2.0, 4.0, math.inf),
                              s_list=(0.5, 1.0))

    record()  # fills the domain's caches
    tracemalloc.start()
    try:
        rec = record()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * d.num_points
    assert rec.lp[math.inf] >= grid_max(d, state.t_hat.coeffs)
