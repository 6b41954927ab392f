"""Spectral core: transforms, multiplier operators, norms.

Each identity of verify's table is one test in test_identities.py, and the
operator identities also run over random grids in test_half_spectrum.py.
"""

import math

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, dealias,
                     forward_transform, fractional_laplacian, hs_seminorm,
                     inverse_transform, lp_norm, partial_derivative,
                     random_field, refine, riesz_potential, riesz_transform)
from dpmflow.spectral import box_shape, gather, scatter
from fft_reference import FullLayout, half


def phys(domain, values):
    return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))


@pytest.fixture(scope="module")
def d2():
    return Domain((32, 32))


@pytest.fixture(scope="module")
def d1():
    return Domain((64,))


@pytest.fixture(scope="module")
def smooth2(d2):
    return random_field(d2, seed=5)


class TestDomain:
    def test_defaults(self, d2):
        assert d2.dim == 2
        assert d2.buoyancy_axis == 1  # last axis by convention
        assert d2.volume == pytest.approx((2 * math.pi) ** 2)

    @pytest.mark.parametrize("n", [(7, 8), (8, 9), (6, 8), (4,)])
    def test_rejects_odd_or_small_grids(self, n):
        with pytest.raises(ValueError):
            Domain(n)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Domain((8, 8, 8, 8))

    def test_dealias_mask_cutoff(self, d2):
        # the 2/3 box keeps exactly the modes with every |k_j| <= 32/3
        k = np.fft.fftfreq(32, d=1.0 / 32)
        inside = np.abs(k) <= 32 / 3
        mask = np.outer(inside, inside[:17])
        kept = scatter(gather(np.ones(d2.spectral_shape, dtype=complex), d2), d2) != 0
        assert np.array_equal(kept, mask)
        assert box_shape(d2) == (inside.sum(), inside[:17].sum())

    def test_wavenumbers_are_integers(self, d1):
        k = d1.wavenumbers[0]
        assert k.min() == -32 and k.max() == 31

    def test_half_spectrum_layout(self, d2):
        # the last axis keeps k = 0, ..., n/2 - 1 and the Nyquist at -n/2
        assert d2.spectral_shape == (32, 17)
        assert np.array_equal(d2.wavenumbers[1].ravel(), np.r_[0:16, -16])
        assert d2.k_squared.shape == (32, 17)

    @pytest.mark.parametrize("n, axis", [((32, 32), 2), ((32, 32), 7), ((16, 16, 16), -4),
                                         ((64,), 1)])
    def test_rejects_out_of_range_buoyancy_axis(self, n, axis):
        with pytest.raises(ValueError, match="buoyancy axis"):
            Domain(n, axis)


class TestTransforms:
    def test_roundtrip(self, d2, smooth2):
        back = inverse_transform(forward_transform(smooth2))
        err = np.abs(back.values - smooth2.values).max()
        assert err <= 1e-12 * np.abs(smooth2.values).max()

    def test_roundtrip_3d(self):
        d3 = Domain((16, 16, 16))
        u = random_field(d3, seed=3, cutoff=3.0)
        back = inverse_transform(forward_transform(u))
        assert np.abs(back.values - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_field_validation(self, d2):
        with pytest.raises(ValueError, match="shape"):
            PhysicalField(d2, np.zeros((32, 16)))
        with pytest.raises(ValueError, match="finite"):
            bad = np.zeros(d2.n)
            bad[0, 0] = np.inf
            PhysicalField(d2, bad)


class TestFractionalLaplacian:
    def test_fixes_unit_mode(self, d2):
        x = d2.grid
        for alpha in (0.0, 0.5, 1.0, 1.7, 2.0):
            out = inverse_transform(fractional_laplacian(
                forward_transform(phys(d2, np.cos(x[0]))), alpha))
            assert np.abs(out.values - np.cos(x[0])).max() < 1e-12

    def test_order_two_is_minus_laplacian(self, d1):
        x = d1.grid[0]
        out = inverse_transform(fractional_laplacian(
            forward_transform(phys(d1, np.sin(2 * x))), 2.0))
        assert np.abs(out.values - 4.0 * np.sin(2 * x)).max() < 1e-12

    def test_annihilates_constants(self, d2):
        out = fractional_laplacian(forward_transform(phys(d2, np.full(d2.n, 7.0))), 1.5)
        assert np.abs(out.coeffs).max() < 1e-14

    def test_rejects_out_of_range_order(self, d2, smooth2):
        c = forward_transform(smooth2)
        for alpha in (-0.1, 2.1):
            with pytest.raises(ValueError):
                fractional_laplacian(c, alpha)


class TestDerivativesAndRiesz:
    def test_bad_axis(self, d2, smooth2):
        c = forward_transform(smooth2)
        with pytest.raises(ValueError):
            partial_derivative(c, 2)
        with pytest.raises(ValueError):
            riesz_transform(c, -1)

    def test_riesz_squares_sum_to_minus_identity(self, d2, smooth2):
        c = forward_transform(smooth2)
        acc = sum(riesz_transform(riesz_transform(c, j), j).coeffs for j in range(2))
        assert np.abs(acc + c.coeffs).max() <= 1e-12 * np.abs(c.coeffs).max() + 1e-16

    def test_factorization_derivative_is_laplacian_of_riesz(self, d2, smooth2):
        c = forward_transform(smooth2)
        for j in range(2):
            a = partial_derivative(c, j).coeffs
            b = fractional_laplacian(riesz_transform(c, j), 1.0).coeffs
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max() + 1e-16

    def test_riesz_potential_examples(self, d1):
        x = d1.grid[0]
        got = inverse_transform(riesz_potential(
            forward_transform(phys(d1, np.cos(x))), 1.0))
        assert np.abs(got.values - np.cos(x)).max() < 1e-13
        got = inverse_transform(riesz_potential(
            forward_transform(phys(d1, np.sin(2 * x))), 1.0))
        assert np.abs(got.values - 0.5 * np.sin(2 * x)).max() < 1e-13

    def test_riesz_potential_inverts_fractional_laplacian(self, d2, smooth2):
        c = forward_transform(smooth2)
        out = riesz_potential(fractional_laplacian(c, 0.9), 0.9)
        assert np.abs(out.coeffs - c.coeffs).max() <= 1e-12 * np.abs(c.coeffs).max()

    def test_riesz_potential_rejects_nonpositive_order(self, d2, smooth2):
        with pytest.raises(ValueError):
            riesz_potential(forward_transform(smooth2), 0.0)


class TestDealias:
    def test_idempotent_projection(self, d2):
        # the 2/3 rule on 32^2: the modes with every |k_j| <= 32/3
        k = np.fft.fftfreq(32, d=1.0 / 32)
        inside = np.abs(k) <= 32 / 3
        mask = np.outer(inside, inside[:17])
        rng = np.random.default_rng(0)
        c = forward_transform(phys(d2, rng.standard_normal(d2.n)))
        once = dealias(c)
        assert np.array_equal(once.coeffs, dealias(once).coeffs)
        assert np.array_equal(once.coeffs[mask], c.coeffs[mask])
        assert np.abs(once.coeffs[~mask]).max() == 0.0

    def test_l2_non_increasing(self, d2):
        rng = np.random.default_rng(1)
        u = phys(d2, rng.standard_normal(d2.n))
        c = forward_transform(u)
        assert (lp_norm(inverse_transform(dealias(c)), 2)
                <= lp_norm(u, 2) * (1 + 1e-14))


class TestNorms:
    def test_unit_field_l2_is_two_pi(self, d2):
        assert lp_norm(phys(d2, np.ones(d2.n)), 2) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_sine_l2_is_sqrt_pi(self, d1):
        x = d1.grid[0]
        assert lp_norm(phys(d1, np.sin(x)), 2) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_sine_sup_norm_exact_on_grids_divisible_by_four(self, d1):
        x = d1.grid[0]
        assert lp_norm(phys(d1, np.sin(x)), math.inf) == 1.0

    def test_rejects_p_below_one(self, d1):
        x = d1.grid[0]
        with pytest.raises(ValueError):
            lp_norm(phys(d1, np.sin(x)), 0.5)

    def test_hs_examples(self, d1):
        x = d1.grid[0]
        c = forward_transform(phys(d1, np.sin(x)))
        for s in (-1.0, 0.0, 0.3, 2.0):
            assert hs_seminorm(c, s) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        c2 = forward_transform(phys(d1, np.sin(2 * x)))
        assert hs_seminorm(c2, 1.0) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-13)

    def test_parseval(self, d2):
        for seed in range(5):
            u = random_field(d2, seed=seed)
            c = forward_transform(u)
            assert hs_seminorm(c, 0.0) == pytest.approx(lp_norm(u, 2), rel=1e-12)


class TestRefineAndRandomField:
    def test_refine_reproduces_the_interpolant(self, d1):
        x = d1.grid[0]
        fine = refine(forward_transform(phys(d1, np.sin(3 * x))), 4)
        xf = fine.domain.grid[0]
        assert np.abs(fine.values - np.sin(3 * xf)).max() < 1e-12

    def test_random_field_is_reproducible_and_normalized(self, d2):
        a = random_field(d2, seed=9, l2_norm=2.5)
        b = random_field(d2, seed=9, l2_norm=2.5)
        assert np.array_equal(a.values, b.values)
        assert lp_norm(a, 2) == pytest.approx(2.5, rel=1e-12)
        assert abs(a.values.mean()) < 1e-14

    def test_random_field_spectrum_profile(self, d2):
        u = random_field(d2, spectrum_decay=2.0, cutoff=6.0, seed=4)
        c = forward_transform(u).coeffs
        # amplitude ratio between |k| = 1 and |k| = 2 modes on the same ray
        expect = (1.0 / 2.0) ** -2.0 * math.exp((4 - 1) / 6.0 ** 2)
        assert abs(c[2, 0]) / abs(c[1, 0]) == pytest.approx(1 / expect, rel=1e-10)

    def test_random_field_is_dealiased(self, d2):
        c = forward_transform(random_field(d2, seed=2)).coeffs
        assert np.abs(c[~half(FullLayout(d2).dealias_mask)]).max() < 1e-16
