"""Bound checks against trajectories with known closed forms."""

import io
import math

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, SolverParams,
                     check_absorbing_ball, check_decay_torus,
                     check_dissipation_budget, dealias, forward_transform,
                     lp_norm, random_field, records_to_csv, run)


def phys(domain, values):
    return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))


@pytest.fixture(scope="module")
def d2():
    return Domain((32, 32))


@pytest.fixture(scope="module")
def single_mode_run(d2):
    x = d2.grid
    params = SolverParams(nu=0.05, alpha=1.5, dt=2e-3, t_end=2.0)
    return run(phys(d2, np.sin(x[0])), params, sample_every=0.25)


class TestDecayCheck:
    def test_single_mode_equality(self, d2, single_mode_run):
        res = single_mode_run
        checks = check_decay_torus(res.records, 2.0, 0.05)
        assert all(c.passed for c in checks)
        # with p = 2 the bound rate equals nu, so the single mode saturates it
        for c in checks[1:]:
            assert c.value == pytest.approx(c.bound, rel=1e-9)

    def test_t0_record_reduces_to_norm_comparison(self, d2, single_mode_run):
        res = single_mode_run
        check = check_decay_torus(res.records[:1], 2.0, 0.05)[0]
        assert check.bound == check.value == res.records[0].lp[2.0]
        assert check.bound == pytest.approx(math.sqrt(2) * math.pi, rel=1e-15)
        assert check.passed

    def test_lower_q_uses_the_volume_factor(self, d2, single_mode_run):
        res = single_mode_run
        checks = check_decay_torus(res.records, 2.0, 0.05, q=1.0)
        assert all(c.passed for c in checks)

    def test_lower_q_in_3d_uses_the_3d_volume(self):
        # ||cos x1||_1 / ||cos x1||_2 = 8 sqrt(pi) = 14.2 on the 3D torus: above
        # the 2D volume factor (2 pi)^(2/2) = 6.3, below the 3D one (2 pi)^(3/2) = 15.7
        d3 = Domain((8, 8, 8))
        params = SolverParams(nu=0.05, alpha=1.5, dt=0.01, t_end=0.1)
        res = run(phys(d3, np.cos(d3.grid[0])), params, sample_every=0.05,
                  p_list=(1.0, 2.0))
        checks = check_decay_torus(res.records, 2.0, 0.05, q=1.0)
        assert all(c.passed for c in checks)
        n0 = lp_norm(phys(d3, np.cos(d3.grid[0])), 2)
        assert checks[0].bound == pytest.approx((2 * math.pi) ** 1.5 * n0, rel=1e-12)

    def test_refuses_forced_runs(self, d2, single_mode_run):
        x = d2.grid
        forcing = forward_transform(phys(d2, 0.1 * np.sin(x[0])))
        with pytest.raises(ValueError, match="unforced"):
            check_decay_torus(single_mode_run.records, 2.0, 0.05, forcing=forcing)

    def test_refuses_data_whose_mean_is_not_zero(self, d2):
        params = SolverParams(nu=1.0, alpha=2.0, dt=0.01, t_end=0.1)
        res = run(phys(d2, 0.5 + 0.1 * np.sin(d2.grid[0])), params, sample_every=0.05)
        with pytest.raises(ValueError, match="mean-zero"):
            check_decay_torus(res.records, 2.0, 1.0)

    def test_random_data_decay(self, d2):
        params = SolverParams(nu=0.1, alpha=1.0, dt=5e-3, t_end=1.0)
        res = run(random_field(d2, seed=30), params, sample_every=0.1)
        for p in (2.0, 4.0):
            checks = check_decay_torus(res.records, p, 0.1)
            assert all(c.passed for c in checks)


class TestAbsorbingBallCheck:
    def test_zero_forcing_degenerates_to_decay(self, d2, single_mode_run):
        res = single_mode_run
        checks = check_absorbing_ball(res.records, None, 2.0, 0.05)
        assert all(c.passed for c in checks)
        n0 = res.records[0].lp[2.0]
        for rec, c in zip(res.records, checks):
            # with f = 0 the radius vanishes and the pure decay bound remains
            assert c.bound == pytest.approx(n0 * math.exp(-0.05 / 2 * rec.t), rel=1e-12)

    def test_zero_initial_data_saturates_monotonically(self, d2):
        x = d2.grid
        nu, alpha, p = 0.5, 1.5, 2.0
        forcing = dealias(forward_transform(phys(d2, 0.2 * np.sin(x[0]))))
        params = SolverParams(nu=nu, alpha=alpha, dt=5e-3, t_end=3.0)
        res = run(phys(d2, np.zeros(d2.n)), params, forcing, sample_every=0.25)
        checks = check_absorbing_ball(res.records, forcing, p, nu)
        assert all(c.passed for c in checks)
        radius = p * lp_norm(phys(d2, 0.2 * np.sin(x[0])), p) / nu
        assert all(c.bound <= radius * (1 + 1e-12) for c in checks)

    def test_requires_positive_nu(self, d2, single_mode_run):
        with pytest.raises(ValueError, match="nu"):
            check_absorbing_ball(single_mode_run.records, None, 2.0, 0.0)

    def test_refuses_infinite_p(self, single_mode_run):
        with pytest.raises(ValueError, match="finite p"):
            check_absorbing_ball(single_mode_run.records, None, math.inf, 0.05)


class TestDissipationBudget:
    def test_single_mode_equality(self, single_mode_run):
        checks = check_dissipation_budget(single_mode_run.records, slack=1e-8)
        assert all(c.passed for c in checks)
        assert max(abs(c.value) for c in checks) <= 1e-10

    def test_inviscid_unforced_energy_constant(self, d2):
        params = SolverParams(nu=0.0, alpha=1.0, dt=2e-3, t_end=0.5)
        res = run(random_field(d2, seed=31), params, sample_every=0.1)
        l2s = [rec.lp[2.0] for rec in res.records]
        for val in l2s:
            assert val == pytest.approx(l2s[0], rel=1e-8)
        checks = check_dissipation_budget(res.records)
        assert max(abs(c.value) for c in checks) <= 1e-10

    def test_forced_steady_state_balances(self, d2):
        x = d2.grid
        nu = 0.3
        forcing = dealias(forward_transform(phys(d2, nu * np.sin(x[0]))))
        params = SolverParams(nu=nu, alpha=1.5, dt=5e-3, t_end=1.0)
        res = run(phys(d2, np.sin(x[0])), params, forcing, sample_every=0.2)
        # dissipation equals injection: both nu * ||sin x1||_2^2 = 2 pi^2 nu
        expected = 2 * math.pi ** 2 * nu
        for rec in res.records:
            assert rec.dissipation == pytest.approx(expected, rel=1e-9)
        checks = check_dissipation_budget(res.records)
        assert max(abs(c.value) for c in checks) <= 1e-10


class TestCsv:
    def test_layout_and_format(self, d2):
        x = d2.grid
        params = SolverParams(nu=0.05, alpha=1.5, dt=5e-3, t_end=0.2)
        res = run(phys(d2, np.sin(x[0])), params, sample_every=0.1)
        check_decay_torus(res.records, 2.0, 0.05)
        buf = io.StringIO()
        records_to_csv(res.records, buf)
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["t", "l1", "l2", "l4", "linf", "dissipation"]
        assert header[6:11] == ["mean", "vmax", "diss_integral", "inj_integral",
                                "decay_bound"]
        assert header[11:] == ["decay_value", "decay_pass"]
        assert len(lines) == 1 + len(res.records)
        row = lines[1].split(",")
        # 17 significant digits survive a round trip
        assert float(row[2]) == res.records[0].lp[2.0]
        assert row[-1] == "1"
