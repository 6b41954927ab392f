"""DPM time integration: the IF-RK4 scheme, conservation, mean law, blow-up signal.

Each identity of verify's table is one test in test_identities.py.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, SolverParams, SpectralField, dealias,
                     forward_transform, hs_seminorm, inverse_transform, lp_norm,
                     nonlinear_term, random_field, run)
from dpmflow.blowup1d import Regularization, _StreamOps
from dpmflow.diagnostics import MaxPrincipleCheck, fold
from dpmflow.solver import CFL_SAFETY, _Integrator
from dpmflow.spectral import gather


def phys(domain, values):
    return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))


@pytest.fixture(scope="module")
def d2():
    return Domain((32, 32))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(nu=-1, alpha=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            SolverParams(nu=0.1, alpha=2.5, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            SolverParams(nu=0.1, alpha=1.0, dt=0.0, t_end=1.0)

    @pytest.mark.parametrize("name", ["nu", "dt", "t_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_numbers(self, name, value):
        kwargs = dict(nu=0.1, alpha=1.0, dt=0.1, t_end=1.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverParams(**kwargs)


class TestNonlinearTerm:
    def test_mean_free(self, d2):
        # conservative form: div(vT) integrates to zero exactly
        u = random_field(d2, seed=3)
        out = nonlinear_term(forward_transform(u))
        assert abs(out.coeffs[0, 0]) < 1e-16

    @pytest.mark.parametrize("n", [(32, 32), (16, 16, 16)])
    def test_allocates_no_grid_sized_transients(self, n):
        # the integrator computes in work arrays of its own; allocating a
        # dozen grid-sized transients per call made the allocator map and
        # trim memory, and the page faults cost a third of the run time
        d = Domain(n)
        f_hat = forward_transform(random_field(d, seed=1))
        integ = _Integrator(d, SolverParams(nu=0.1, alpha=1.5, dt=0.01, t_end=1.0), f_hat)
        c = gather(forward_transform(random_field(d, seed=2)).coeffs, d)
        integ.nonlinear(c)  # allocates the work arrays
        half_array = math.prod(d.spectral_shape) * 16
        tracemalloc.start()
        try:
            integ.nonlinear(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result itself, plus numpy's bounded casting buffers
        assert peak <= 4 * half_array


class TestStep:
    """Steps of run: a single step is a run with t_end = dt."""

    def test_keeps_the_propagators_of_the_last_step_size_only(self):
        # an adaptive run rarely repeats a step size, so sets kept for
        # earlier sizes would only hold memory
        d = Domain((64, 64))
        integ = _Integrator(d, SolverParams(nu=0.1, alpha=1.5, dt=0.01, t_end=1.0), None)
        c = gather(forward_transform(random_field(d, seed=2)).coeffs, d)
        nl = integ.nonlinear(c)  # allocates the work arrays
        out = np.empty_like(c)
        held = 0
        tracemalloc.start()
        try:
            for dt in np.linspace(1e-3, 1e-2, 12):
                integ.advance(c, nl, float(dt), out=out)
                held = max(held, tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # one set: exp(lam dt/2), exp(lam dt) and 2 exp(lam dt/2), complex
        assert 3 * c.nbytes <= held <= 3 * c.nbytes + 4096

    @pytest.mark.parametrize("system", ["dpm", "stream"])
    def test_zero_symbol_step_is_the_step_with_unit_propagators(self, system):
        # a zero symbol skips every multiply by its propagators, which are
        # exactly 1: the step is the one with explicit all-ones complex ones
        if system == "dpm":
            d = Domain((32, 32))
            ops = _Integrator(d, SolverParams(nu=0.0, alpha=1.5, dt=0.01, t_end=1.0), None)
            x = gather(forward_transform(random_field(d, seed=2)).coeffs, d)
        else:
            ops = _StreamOps(Domain((256,)), Regularization())
            rng = np.random.default_rng(7)
            x = ops.start(rng.standard_normal(129) + 1j * rng.standard_normal(129), 0.5)
        nl = ops.nonlinear(x)
        assert ops.propagators(0.01)[0] is None
        fast = ops.advance(x, nl, 0.01)
        ones = np.ones(x.shape, dtype=np.complex128)
        ops.propagators = lambda dt: (ones, ones, 2.0 * ones)
        slow = ops.advance(x, nl, 0.01)
        assert np.all(np.isfinite(fast))
        assert np.array_equal(fast, slow)

    def test_single_mode_decay_is_exact(self, d2):
        x = d2.grid
        t0 = phys(d2, np.sin(x[0]))
        params = SolverParams(nu=0.05, alpha=1.3, dt=1e-2, t_end=1.0)
        n0 = hs_seminorm(dealias(forward_transform(t0)), 0.0)
        final = run(t0, params, sample_every=1.0, p_list=(2.0,)).final_state
        expected = n0 * math.exp(-params.nu * final.t)
        assert abs(hs_seminorm(final.t_hat, 0.0) - expected) <= 1e-12 * n0

    def test_inviscid_step_conserves_l2(self, d2):
        t0 = random_field(d2, seed=1)
        params = SolverParams(nu=0.0, alpha=1.0, dt=2e-3, t_end=2e-3)
        before = hs_seminorm(dealias(forward_transform(t0)), 0.0)
        after = hs_seminorm(run(t0, params, sample_every=2e-3).final_state.t_hat, 0.0)
        assert abs(after - before) <= 1e-10 * before

    def test_forced_steady_state(self, d2):
        # f = nu*sin(x1) balances diffusion of T = sin(x1); advection vanishes
        x = d2.grid
        nu = 0.4
        forcing = forward_transform(phys(d2, nu * np.sin(x[0])))
        t0 = phys(d2, np.sin(x[0]))
        params = SolverParams(nu=nu, alpha=1.5, dt=5e-3, t_end=1.0)
        states = []
        run(t0, params, forcing, sample_every=5e-3, p_list=(2.0,),
            on_sample=lambda state, record: states.append(state))
        assert len(states) == 201
        ref = dealias(forward_transform(t0)).coeffs
        drift = max(np.abs(state.t_hat.coeffs - ref).max() for state in states)
        assert drift <= 1e-9

    @pytest.mark.parametrize("n", [(32, 32), (16, 16, 16)])
    def test_ifrk4_converges_at_fourth_order(self, n):
        # self-convergence on the nonlinear system: each halving of dt
        # divides the change of the final state by 2^4
        t0 = random_field(Domain(n), cutoff=4.0, seed=5, l2_norm=3.0)
        finals = [run(t0, SolverParams(nu=0.05, alpha=1.5, dt=dt, t_end=0.4),
                      sample_every=0.4, p_list=(2.0,)).final_state.t_hat.coeffs
                  for dt in (0.04, 0.02, 0.01, 0.005)]
        diffs = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 3.8 <= math.log2(coarse / fine) <= 4.2

    def test_converges_in_n_on_the_box(self):
        # the same data, restricted to each n^2 grid's 2/3 box (found here
        # from fftfreq, not from the package's box), run to t = 0.4 and
        # compared with the 96^2 run on the modes the two share: the error
        # falls spectrally with n.  A box that loses or misplaces modes at
        # some n breaks the fall; an operator that is wrong at every n does
        # not, and is left to the identity table and test_half_spectrum.py
        u = random_field(Domain((96, 96)), cutoff=4, seed=5, l2_norm=3)
        data = forward_transform(u).coeffs
        params = SolverParams(nu=0.05, alpha=1.5, dt=0.01, t_end=0.4)
        ref = run(u, params, sample_every=0.4, p_list=(2.0,)).final_state.t_hat.coeffs
        errs = []
        for n in (16, 24, 32, 48, 64):
            d = Domain((n, n))
            k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
            # per axis: the kept modes' indices on the n grid, then on the 96 grid
            lead = np.flatnonzero(np.abs(k) <= n / 3)
            last = lead[k[lead] >= 0]
            mine, theirs = np.ix_(lead, last), np.ix_(k[lead] % 96, k[last])
            c = np.zeros(d.spectral_shape, dtype=np.complex128)
            c[mine] = data[theirs]
            final = run(inverse_transform(SpectralField(d, c)), params, sample_every=0.4,
                        p_list=(2.0,)).final_state.t_hat.coeffs
            errs.append(np.abs(final[mine] - ref[theirs]).max() / np.abs(ref).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 5
        assert errs[-1] < 1e-12


class TestCfl:
    """The step bound of adaptive runs, at the state of the last nonlinear evaluation."""

    @staticmethod
    def cfl_dt(t0):
        params = SolverParams(nu=0.1, alpha=1.0, dt=1.0, t_end=1.0)
        integ = _Integrator(t0.domain, params, None)
        integ.nonlinear(gather(forward_transform(t0).coeffs, t0.domain))
        return integ.cfl_dt()

    def test_formula(self, d2):
        # constant T = 2 gives uniform |v| = 2
        expected = CFL_SAFETY * (2 * math.pi / 32) / 2.0
        assert self.cfl_dt(phys(d2, np.full(d2.n, 2.0))) == pytest.approx(expected, rel=1e-12)

    def test_floor_for_quiescent_fields(self, d2):
        assert self.cfl_dt(phys(d2, np.zeros(d2.n))) == pytest.approx(
            CFL_SAFETY * (2 * math.pi / 32) / 1e-8)

    @pytest.mark.parametrize("n, product", [((64, 64), 2.62), ((32, 32, 32), 3.06)])
    def test_frozen_coefficient_product_on_the_box(self, n, product):
        # dt max|k.v| at CFL_SAFETY = 0.9: the step at uniform |v| = 1
        # (constant T = 1) times the largest |k| of the 2/3 box, against
        # RK4's imaginary-axis limit 2 sqrt(2) = 2.83 (_Integrator.cfl_dt)
        d = Domain(n)
        k_max = gather(np.sqrt(d.k_squared), d).max()
        assert k_max == pytest.approx((n[0] // 3) * math.sqrt(len(n)), rel=1e-15)
        assert round(self.cfl_dt(phys(d, np.ones(n))) * k_max, 2) == product


class TestMaxPrinciple:
    """||T(t)||_inf <= ||T(t0)||_inf + (t - t0) ||f||_inf, judged as each record arrives."""

    def test_under_resolved_run_warns_at_its_first_breach(self):
        # at alpha = 0.3 and nu = 1e-3 the 32^2 box under-resolves this data:
        # linf climbs past its t = 0 value at t = 1.0 and goes on climbing
        t0 = random_field(Domain((32, 32)), seed=1, cutoff=6, l2_norm=10)
        params = SolverParams(nu=1e-3, alpha=0.3, dt=0.05, t_end=2.0, adaptive=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run(t0, params, sample_every=0.5, p_list=(2.0, math.inf))
        breaches = [w for w in caught if "maximum principle" in str(w.message)]
        assert len(breaches) == 1
        assert str(breaches[0].message).startswith(
            "maximum principle broken at t = 1: linf 4.129222 exceeds the bound "
            "||T(t0)||_inf + (t - t0) ||f||_inf = 4.128005;")
        assert breaches[0].filename == __file__  # reported at run's caller
        assert [round(rec.lp[math.inf], 6) for rec in res.records[:3]] == [
            4.128005, 4.125696, 4.129222]
        assert res.records[-1].lp[math.inf] > 4.6 and not res.blew_up
        # the check the run judges with, folded over its records, fails first there
        fold(MaxPrincipleCheck(None), res.records)
        t, first = next((rec.t, c) for rec in res.records for c in rec.checks if not c.passed)
        assert (t, first.name, round(first.bound, 6), round(first.value, 6)) == (
            1.0, "max_principle", 4.128005, 4.129222)
        # records without linf are not judged
        with pytest.warns(UserWarning, match="supercritical") as caught:
            run(t0, params, sample_every=0.5, p_list=(2.0,))
        assert not any("maximum principle" in str(w.message) for w in caught)

    def test_forced_growth_inside_the_bound(self, d2):
        # f = sin(x1) lifts linf fivefold, below ||T(0)||_inf + t ||f||_inf
        forcing = forward_transform(phys(d2, np.sin(d2.grid[0])))
        params = SolverParams(nu=0.1, alpha=1.5, dt=0.01, t_end=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(random_field(d2, seed=3, l2_norm=0.5), params, forcing,
                      sample_every=0.25, p_list=(2.0, math.inf))
        linf = [rec.lp[math.inf] for rec in res.records]
        assert linf[-1] > 4.9 * linf[0]
        assert all(b > a for a, b in zip(linf, linf[1:]))
        assert all(r.passed for r in fold(MaxPrincipleCheck(forcing), res.records))


class TestRun:
    def test_mean_evolves_linearly(self, d2):
        x = d2.grid
        forcing = forward_transform(phys(d2, 0.5 + 0.2 * np.sin(x[0])))
        t0 = phys(d2, 2.0 + np.cos(x[1]))
        for start in (0.0, 0.5):  # a restart's mean grows from its own start time
            params = SolverParams(nu=0.2, alpha=1.5, dt=0.01, t_end=start + 1.0)
            res = run(t0, params, forcing, sample_every=0.25, p_list=(2.0,), start_time=start)
            for rec in res.records:
                assert (abs(rec.mean - (2.0 + 0.5 * (rec.t - start)))
                        <= 1e-14 * max(1.0, abs(rec.mean)))

    def test_decay_matches_closed_form(self, d2):
        x = d2.grid
        params = SolverParams(nu=0.1, alpha=1.5, dt=1e-3, t_end=1.0)
        res = run(phys(d2, np.sin(x[0])), params, sample_every=0.2, p_list=(2.0,))
        n0 = res.records[0].lp[2.0]
        for rec in res.records:
            assert rec.lp[2.0] == pytest.approx(n0 * math.exp(-0.1 * rec.t), rel=1e-10)

    def test_determinism(self, d2):
        t0 = random_field(d2, seed=12)
        params = SolverParams(nu=0.1, alpha=1.0, dt=0.01, t_end=0.3)
        a = run(t0, params, sample_every=0.1)
        b = run(t0, params, sample_every=0.1)
        assert np.array_equal(a.final_state.t_hat.coeffs, b.final_state.t_hat.coeffs)
        for ra, rb in zip(a.records, b.records):
            assert ra.lp == rb.lp and ra.diss_integral == rb.diss_integral

    def test_restart_continues_the_trajectory(self, d2):
        t0 = random_field(d2, seed=13)
        full = run(t0, SolverParams(nu=0.1, alpha=1.2, dt=0.01, t_end=0.5),
                   sample_every=0.1)
        half = run(t0, SolverParams(nu=0.1, alpha=1.2, dt=0.01, t_end=0.25),
                   sample_every=0.1)
        mid = inverse_transform(half.final_state.t_hat)
        resumed = run(mid, SolverParams(nu=0.1, alpha=1.2, dt=0.01, t_end=0.5),
                      sample_every=0.1, start_time=half.final_state.t)
        err = np.abs(resumed.final_state.t_hat.coeffs
                     - full.final_state.t_hat.coeffs).max()
        assert err <= 1e-12

    def test_fixed_steps_land_on_an_inexact_cadence(self, d2):
        # steps of 0.1 are shortened to land on every multiple of 0.25
        params = SolverParams(nu=0.1, alpha=1.5, dt=0.1, t_end=1.0)
        res = run(random_field(d2, seed=4), params, sample_every=0.25, p_list=(2.0,))
        assert [rec.t for rec in res.records] == pytest.approx([0.25 * k for k in range(5)],
                                                               abs=1e-12)
        assert res.final_state.t == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("start", [0.0, 0.25])
    def test_sample_clock_does_not_drift(self, start, monkeypatch):
        # 1000 steps of 1e-3: accumulating the sample clock would leave the
        # samples and the end off start + k/10 and t_end by rounding
        d = Domain((8, 8))
        calls = []
        advance = _Integrator.advance
        monkeypatch.setattr(_Integrator, "advance",
                            lambda self, *a, **kw: calls.append(1) or advance(self, *a, **kw))
        params = SolverParams(nu=0.1, alpha=1.5, dt=1e-3, t_end=start + 1.0)
        res = run(random_field(d, seed=4), params, sample_every=0.1, p_list=(2.0,),
                  start_time=start)
        assert [rec.t for rec in res.records] == [start + k * 0.1 for k in range(11)]
        assert res.final_state.t == params.t_end
        assert len(calls) == 1000

    @pytest.mark.parametrize("sample_every", [0.0, -0.01, math.nan])
    def test_rejects_a_non_positive_cadence(self, d2, sample_every, deadline):
        for adaptive in (False, True):
            params = SolverParams(nu=0.1, alpha=1.5, dt=0.1, t_end=1.0, adaptive=adaptive)
            with pytest.raises(ValueError, match="sample_every"):
                run(random_field(d2, seed=4), params, sample_every=sample_every)

    def test_rejects_a_nan_start_time(self, d2):
        # no step would be taken, and one record returned for the whole run
        params = SolverParams(nu=0.1, alpha=1.5, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="start time"):
            run(random_field(d2, seed=4), params, start_time=math.nan)

    @pytest.mark.parametrize("sample_every, start_time", [(0.0, 0.0), (0.1, 1.0)])
    def test_checks_its_inputs_before_any_work(self, d2, sample_every, start_time):
        # supercritical: a check made after the set-up would follow its warning
        params = SolverParams(nu=0.1, alpha=0.5, dt=0.1, t_end=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                run(random_field(d2, seed=4), params, sample_every=sample_every,
                    start_time=start_time)

    def test_adaptive_run_reaches_t_end(self, d2, monkeypatch):
        # at L^2 norm 20 the CFL bound, not dt, sets some steps (at norm 1
        # every step is dt)
        steps = []
        advance = _Integrator.advance
        monkeypatch.setattr(_Integrator, "advance",
                            lambda self, c, nl, dt, **kw: steps.append(dt) or
                            advance(self, c, nl, dt, **kw))
        t0 = random_field(d2, seed=14, l2_norm=20.0)
        params = SolverParams(nu=0.1, alpha=1.0, dt=0.05, t_end=0.3, adaptive=True)
        res = run(t0, params, sample_every=0.1, p_list=(2.0,))
        assert res.final_state.t == pytest.approx(0.3, abs=1e-9)
        assert not res.blew_up
        # the first step, which lands on no sample, is cut by the CFL bound
        assert steps[0] < params.dt

    def test_supercritical_warning(self, d2):
        params = SolverParams(nu=0.1, alpha=0.5, dt=0.01, t_end=0.02)
        with pytest.warns(UserWarning, match="supercritical"):
            run(random_field(d2, seed=2), params, sample_every=0.02, p_list=(2.0,))

    def test_marginally_resolved_warning(self, d2):
        rng = np.random.default_rng(0)
        rough = phys(d2, rng.standard_normal(d2.n))
        params = SolverParams(nu=0.5, alpha=2.0, dt=0.01, t_end=0.02)
        with pytest.warns(UserWarning, match="resolved"):
            run(rough, params, sample_every=0.02, p_list=(2.0,))

    @pytest.mark.parametrize("tail, warns", [(1e-8, True), (1e-12, False)])
    def test_marginally_resolved_from_a_tail_of_1e_10(self, d2, tail, warns):
        # cos(x1) and a mode beyond the 2/3 box (15 > 32 // 3) at tail of its size
        x = d2.grid[0]
        data = phys(d2, np.cos(x) + tail * np.cos(15 * x))
        params = SolverParams(nu=0.5, alpha=2.0, dt=0.01, t_end=0.02)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(data, params, sample_every=0.02, p_list=(2.0,))
        assert any("marginally resolved" in str(w.message) for w in caught) == warns

    def test_forcing_with_a_tail_warns_and_names_the_caller(self, d2):
        # a library forcing goes through the same truncation as the data:
        # sin x1 and a mode beyond the 2/3 box (15 > 32 // 3) at 1e-6 of its size
        x = d2.grid[0]
        forcing = forward_transform(phys(d2, np.sin(x) + 1e-6 * np.sin(15 * x)))
        params = SolverParams(nu=0.5, alpha=2.0, dt=0.01, t_end=0.02)
        with pytest.warns(UserWarning, match="forcing is marginally resolved") as caught:
            run(phys(d2, np.cos(x)), params, forcing, sample_every=0.02, p_list=(2.0,))
        assert caught[0].filename == __file__

    def test_run_flags_blowup_and_keeps_last_finite_state(self, d2):
        t0 = random_field(d2, seed=0, l2_norm=50.0)
        params = SolverParams(nu=0.0, alpha=1.0, dt=50.0, t_end=5000.0)
        res = run(t0, params, sample_every=500.0, p_list=(2.0,))
        assert res.blew_up
        assert np.isfinite(np.abs(res.final_state.t_hat.coeffs).sum())

    def test_small_data_supercritical_monitor_non_increasing(self, d2):
        # smallness regime: the monitored L2^2 + Hs^2 energy decays
        nu, s = 0.1, 2.5
        t0 = random_field(d2, seed=21, l2_norm=1.0)
        c = forward_transform(t0)
        hnorm = math.sqrt(lp_norm(t0, 2) ** 2 + hs_seminorm(c, s) ** 2)
        scale = 1e-3 * nu / hnorm
        small = PhysicalField(d2, t0.values * scale)
        params = SolverParams(nu=nu, alpha=0.5, dt=5e-3, t_end=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run(small, params, sample_every=0.05, p_list=(2.0,), s_list=(s,))
        vals = [rec.lp[2.0] ** 2 + rec.hs[s] ** 2 for rec in res.records]
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev * (1 + 1e-6)
