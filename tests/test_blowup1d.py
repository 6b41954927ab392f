"""Stream-slope dynamics, closed-form oracles and blow-up detection.

Each identity of verify's table is one test in test_identities.py.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dpmflow import (Domain, OracleParams, PhysicalField, Regularization,
                     StreamSlopeState, antiderivative, blowup_time,
                     check_max_bound, estimate_blowup_time,
                     integrate_amplitude_ode, oracle_beta, oracle_r,
                     run_stream_slope, stream_rhs)
from dpmflow.blowup1d import _StreamOps

# values frozen from an independent RK4 integration (dt = 1e-6) of
# beta' = beta^2 + 2 nu beta + r0^2 run before the closed forms were written;
# the integration agreed with the formula to ~5e-13
ODE_BETA_R2_NU1_T03 = 1.9725902451426276
ODE_BETA_R15_NU05_T04 = 1.30248633871633


@pytest.fixture(scope="module")
def d1():
    return Domain((256,))


def cos_field(domain, amplitude=1.0):
    return PhysicalField(domain, amplitude * np.cos(domain.grid[0]))


class TestAntiderivative:
    def test_cosine(self, d1):
        x = d1.grid[0]
        f = antiderivative(cos_field(d1))
        assert np.abs(f.values - np.sin(x)).max() < 1e-13

    def test_sine_carries_the_seam_constant(self, d1):
        x = d1.grid[0]
        f = antiderivative(PhysicalField(d1, np.sin(x)))
        assert np.abs(f.values - (-np.cos(x) - 1.0)).max() < 1e-13

    def test_zero(self, d1):
        f = antiderivative(PhysicalField(d1, np.zeros(d1.n)))
        assert np.abs(f.values).max() == 0.0

    def test_rejects_nonzero_mean(self, d1):
        with pytest.raises(ValueError, match="mean"):
            antiderivative(PhysicalField(d1, np.ones(d1.n)))


class TestStreamRhs:
    def test_cos_mode_closure(self, d1):
        x = d1.grid[0]
        r0, g0 = 1.7, 0.33
        state = StreamSlopeState(0.0, cos_field(d1, r0), g0)
        dw, dg = stream_rhs(state, Regularization())
        assert dg == pytest.approx(r0 ** 2, abs=1e-12)
        assert np.abs(dw.values - g0 * r0 * np.cos(x)).max() < 1e-12

    def test_sin_mode_carries_the_seam_constant(self, d1):
        # f = -r cos - r, pinned at the seam: its constant -r transports w,
        # and adds r^2 cos to dw = -dg - f w_x + w^2 + g w
        x = d1.grid[0]
        r0, g0 = 1.7, 0.33
        dw, dg = stream_rhs(StreamSlopeState(0.0, PhysicalField(d1, r0 * np.sin(x)), g0),
                            Regularization())
        assert dg == pytest.approx(r0 ** 2, abs=1e-12)
        assert np.abs(dw.values - (r0 ** 2 * np.cos(x) + g0 * r0 * np.sin(x))).max() < 1e-12

    def test_zero_state(self, d1):
        dw, dg = stream_rhs(StreamSlopeState(0.0, PhysicalField(d1, np.zeros(d1.n)), 0.0),
                            Regularization())
        assert dg == 0.0 and np.abs(dw.values).max() == 0.0

    def test_quasilinear_extra_term(self, d1):
        # on w = r cos x the coefficient is nu*(pi r^2 + g^2) and w_xx = -r cos x
        x = d1.grid[0]
        r0, g0, nu = 1.4, 0.25, 0.3
        state = StreamSlopeState(0.0, cos_field(d1, r0), g0)
        dw, _ = stream_rhs(state, Regularization(mode="quasilinear", nu=nu))
        expected = (g0 * r0 - nu * (math.pi * r0 ** 2 + g0 ** 2) * r0) * np.cos(x)
        assert np.abs(dw.values - expected).max() < 1e-11

    @pytest.mark.parametrize("sign,flip", [("oracle", 1.0), ("dissipative", -1.0)])
    def test_spectral_term_sign_convention(self, d1, sign, flip):
        x = d1.grid[0]
        r0, g0, nu = 1.2, 0.4, 0.2
        state = StreamSlopeState(0.0, cos_field(d1, r0), g0)
        for alpha in (1.0, 2.0):
            dw, _ = stream_rhs(state, Regularization(mode="spectral", nu=nu,
                                                     alpha=alpha, sign=sign))
            expected = (g0 * r0 + flip * nu * r0) * np.cos(x)
            assert np.abs(dw.values - expected).max() < 1e-11

    def test_regularization_validation(self):
        with pytest.raises(ValueError):
            Regularization(mode="smooth")
        with pytest.raises(ValueError):
            Regularization(mode="spectral", alpha=1.5)
        with pytest.raises(ValueError):
            Regularization(nu=-0.1)
        with pytest.raises(ValueError):
            Regularization(sign="plus")


class TestOracles:
    def test_beta_matches_frozen_ode_values(self):
        p = OracleParams(r0=2.0, nu=1.0)
        assert oracle_beta(0.3, p) == pytest.approx(ODE_BETA_R2_NU1_T03, abs=1e-12)
        p = OracleParams(r0=1.5, nu=0.5)
        assert oracle_beta(0.4, p) == pytest.approx(ODE_BETA_R15_NU05_T04, abs=1e-12)

    def test_inviscid_closed_form_is_the_tangent(self):
        p = OracleParams(r0=1.0, nu=0.0)
        for t in (0.0, 0.3, 1.0, 1.4):
            assert oracle_beta(t, p) == pytest.approx(math.tan(t), abs=1e-13)
            assert oracle_r(t, p) == pytest.approx(1.0 / math.cos(t), rel=1e-13, abs=0)

    def test_initial_conditions(self):
        p = OracleParams(r0=2.0, nu=1.0)
        assert oracle_beta(0.0, p) == pytest.approx(0.0, abs=1e-15)
        assert oracle_r(0.0, p) == pytest.approx(2.0, rel=1e-15, abs=0)

    def test_blowup_times(self):
        assert blowup_time(OracleParams(1.0, 0.0)) == pytest.approx(math.pi / 2, rel=1e-15,
                                                                    abs=0)
        assert blowup_time(OracleParams(2.0, 1.0)) == pytest.approx(
            math.pi / (3 * math.sqrt(3.0)), rel=1e-15, abs=0)

    def test_beta_rejects_times_at_or_past_blowup(self):
        p = OracleParams(r0=1.0, nu=0.0)
        with pytest.raises(ValueError):
            oracle_beta(math.pi / 2, p)

    def test_params_require_r0_above_nu(self):
        with pytest.raises(ValueError):
            OracleParams(r0=1.0, nu=1.0)
        with pytest.raises(ValueError):
            OracleParams(r0=0.5, nu=1.0)

    # unrefused, a NaN gives a NaN t* and an infinite r0 gives t* = 0
    @pytest.mark.parametrize("r0, nu", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0)])
    def test_params_must_be_finite(self, r0, nu):
        with pytest.raises(ValueError, match="must be finite"):
            OracleParams(r0=r0, nu=nu)

    def test_ode_twin_matches_closed_form(self):
        p = OracleParams(r0=2.0, nu=1.0)
        ts, betas, t_div = integrate_amplitude_ode(2.0, 1.0, 1e-4, 0.55)
        assert t_div is None
        for t, b in zip(ts[::500], betas[::500]):
            assert b == pytest.approx(oracle_beta(t, p), abs=1e-8)

    def test_ode_twin_divergence_time(self):
        t_star = blowup_time(OracleParams(2.0, 1.0))
        _, _, t_div = integrate_amplitude_ode(2.0, 1.0, 1e-4, 1.0)
        assert t_div is not None
        assert abs(t_div - t_star) / t_star < 0.02


class TestTrajectories:
    def test_inviscid_ansatz_matches_tangent(self, d1):
        res = run_stream_slope(cos_field(d1), Regularization(), dt=2e-4, t_end=1.0,
                               sample_every=0.1)
        assert not res.blew_up
        p = OracleParams(1.0, 0.0)
        for rec in res.records:
            assert rec.g == pytest.approx(oracle_beta(rec.t, p), abs=2e-9)
            assert rec.linf == pytest.approx(oracle_r(rec.t, p), rel=1e-8)

    def test_ansatz_stays_single_mode(self, d1):
        for reg in (Regularization(),
                    Regularization(mode="spectral", nu=0.3, alpha=1.0, sign="dissipative"),
                    Regularization(mode="spectral", nu=0.3, alpha=2.0, sign="dissipative")):
            res = run_stream_slope(cos_field(d1), reg, dt=1e-3, t_end=0.5,
                                   sample_every=0.5)
            w_hat = np.fft.fft(res.final_state.w.values, norm="forward")
            amp = abs(w_hat[1])
            others = np.abs(w_hat[2:-1]).max()
            assert others <= 1e-10 * amp

    def test_oracle_sign_amplitude_matches_closed_form(self, d1):
        # short run: the amplifying convention grows rounding noise at high k
        reg = Regularization(mode="spectral", nu=1.0, alpha=1.0, sign="oracle")
        res = run_stream_slope(cos_field(d1, 2.0), reg, dt=1e-4, t_end=0.15,
                               sample_every=0.05)
        p = OracleParams(2.0, 1.0)
        for rec in res.records:
            assert rec.linf == pytest.approx(oracle_r(rec.t, p), rel=1e-7)
            assert rec.g == pytest.approx(oracle_beta(rec.t, p), abs=1e-7)

    def test_data_with_a_tail_warns_and_names_the_caller(self):
        # cos x and a mode beyond the 2/3 box (30 > 64 // 3) at 1e-6 of its size
        d = Domain((64,))
        x = d.grid[0]
        w0 = PhysicalField(d, np.cos(x) + 1e-6 * np.cos(30 * x))
        with pytest.warns(UserWarning, match="initial data is marginally resolved") as caught:
            run_stream_slope(w0, Regularization(), dt=1e-3, t_end=0.01, sample_every=0.01)
        assert caught[0].filename == __file__

    def test_mean_zero_is_conserved(self, d1):
        from dpmflow import random_field
        w0 = random_field(d1, seed=5, cutoff=8.0)
        res = run_stream_slope(w0, Regularization(mode="quasilinear", nu=0.2),
                               dt=1e-3, t_end=0.2, sample_every=0.05)
        mean = abs(float(res.final_state.w.values.mean()))
        assert mean <= 1e-12

    def test_records_hold_the_norms_of_their_states(self, d1):
        # on data of many modes, where the order of the l2 seminorm matters
        from dpmflow import forward_transform, hs_seminorm, lp_norm, random_field
        samples = []
        run_stream_slope(random_field(d1, seed=5, cutoff=8.0),
                         Regularization(mode="quasilinear", nu=0.2), dt=1e-3, t_end=0.1,
                         sample_every=0.05, on_sample=lambda *sample: samples.append(sample))
        assert len(samples) == 3
        for state, rec in samples:
            w = state.w.values
            assert rec.l2 == pytest.approx(lp_norm(state.w, 2), rel=1e-12)
            assert (rec.linf, rec.max_w, rec.g) == (np.abs(w).max(), w.max(), state.g)
            assert rec.h2 == pytest.approx(hs_seminorm(forward_transform(state.w), 2.0),
                                           rel=1e-12)

    def test_g_equals_quadrature_of_l2(self, d1):
        res = run_stream_slope(cos_field(d1, 1.2),
                               Regularization(mode="spectral", nu=0.1, alpha=2.0,
                                              sign="dissipative"),
                               dt=5e-4, t_end=0.8, sample_every=0.01)
        ts = np.array([rec.t for rec in res.records])
        vals = np.array([rec.l2 ** 2 / math.pi for rec in res.records])
        quad = np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (vals[1:] + vals[:-1]))])
        gs = np.array([rec.g for rec in res.records])
        assert np.abs(gs - quad).max() <= 1e-4 * max(1.0, gs.max())

    def test_blowup_detection_and_estimate(self, d1):
        # the fit pairs each t with the sup norm of the state at t; paired
        # with that of the state before, it is 4e-9 off
        res = run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=3.0,
                               sample_every=0.1, threshold=1e6)
        assert res.blew_up
        assert abs(res.t_star_estimate - math.pi / 2) <= 1e-11 * (math.pi / 2)

    def test_no_step_follows_the_first_state_past_the_threshold(self, stream_steps):
        # fixed steps, each state sampled: the records hold every sup norm
        threshold = 100.0
        res = run_stream_slope(cos_field(Domain((64,))), Regularization(), dt=1e-3,
                               t_end=3.0, sample_every=1e-3, threshold=threshold,
                               adaptive=False)
        assert res.blew_up
        assert res.records[-1].linf > threshold
        assert all(rec.linf <= threshold for rec in res.records[:-1])
        assert len(stream_steps) == len(res.records) - 1

    def test_late_steps_grow_within_the_oracle_tolerance(self, d1, stream_steps):
        # amplitude 1.005 at dt = 6e-4 to |w| = 1e8: the steps grow like
        # |w|^0.15 from the start (17,190 steps if they never do), while g
        # stays within the CLI's 1e-5 of the closed form, and within 4.23e-6,
        # the worst error of the x^(1/5) rule that took 10,139 steps (3.1e-6
        # here; 5.0e-6 with the exponent 0.2)
        amplitude = 1.005
        p = OracleParams(amplitude, 0.0)
        t_star = blowup_time(p)
        res = run_stream_slope(cos_field(d1, amplitude), Regularization(), dt=6e-4,
                               t_end=2.0 / amplitude, sample_every=0.05, threshold=1e8)
        assert res.blew_up
        assert len(stream_steps) <= 7500
        for rec in res.records:
            if rec.t < t_star * (1 - 1e-12):
                beta = oracle_beta(rec.t, p)
                assert abs(rec.g - beta) <= 4.23e-6 * max(abs(beta), 1.0), rec.t
        assert abs(res.t_star_estimate - t_star) <= 1e-2 * t_star

    @pytest.mark.parametrize("amplitude", [1.0, 1.0099])
    def test_g_error_at_blowup_over_the_benchmark_amplitudes(self, d1, amplitude):
        # the ends of the benchmark's amplitude range, on its config (the
        # middle, 1.005, is the test above): with the growth factor carried
        # exactly, the worst g error is at most 4.23e-6, as there (1.5e-6
        # and 2.6e-6 here)
        p = OracleParams(amplitude, 0.0)
        t_star = blowup_time(p)
        res = run_stream_slope(cos_field(d1, amplitude), Regularization(), dt=6e-4,
                               t_end=2.0 / amplitude, sample_every=0.05, threshold=1e8)
        assert res.blew_up
        errors = [abs(rec.g - oracle_beta(rec.t, p)) / max(abs(oracle_beta(rec.t, p)), 1.0)
                  for rec in res.records if rec.t < t_star * (1 - 1e-12)]
        assert max(errors) <= 4.23e-6

    def test_steps_keep_to_the_advective_bound(self):
        # at n = 1024 the rule alone takes h k_cut |w| to about 5.9 at the
        # last steps, past RK4's 2 sqrt(2), and g ends 0.59 off the closed
        # form (0.33 under the x^(1/5) rule); capped at CFL_SAFETY (2 pi / n)
        # / max|f|, 3.4e-6
        amplitude = 1.005
        p = OracleParams(amplitude, 0.0)
        t_star = blowup_time(p)
        res = run_stream_slope(cos_field(Domain((1024,)), amplitude), Regularization(),
                               dt=6e-4, t_end=2.0 / amplitude, sample_every=0.05,
                               threshold=1e8)
        assert res.blew_up
        for rec in res.records:
            if rec.t < t_star * (1 - 1e-12):
                beta = oracle_beta(rec.t, p)
                assert abs(rec.g - beta) <= 1e-5 * max(abs(beta), 1.0), rec.t
        assert abs(res.t_star_estimate - t_star) <= 1e-2 * t_star

    def test_overflow_is_flagged_as_blowup_without_a_warning(self, d1):
        # the amplifying sign at nu = 2 grows rounding noise like
        # exp(2 k^2 t) and overflows within a few steps; warnings are errors
        res = run_stream_slope(cos_field(d1), Regularization("spectral", nu=2.0), dt=1e-3,
                               t_end=2.0)
        assert res.blew_up
        assert res.final_state.t < 0.1

    def test_quasilinear_is_globally_regular(self, d1):
        res = run_stream_slope(cos_field(d1, 5.0), Regularization(mode="quasilinear", nu=0.1),
                               dt=1e-3, t_end=1.0, sample_every=0.02)
        assert not res.blew_up
        assert all(math.isfinite(rec.h2) for rec in res.records)

    def test_long_regular_runs_keep_the_growth_factor_in_range(self):
        # quasilinear nu = 1e-3 from g = 1000 (a checkpoint restart may start
        # there): w = r cos(x) stays one mode, r' = (g - nu (pi r^2 + g^2)) r
        # and g' = r^2, so r decays slowly while G, the integral of g, passes
        # 709.8, where e^G leaves the float range, at t = 0.71.  Unless G is
        # folded into v, the run is flagged as blow-up there.
        nu, r, g = 1e-3, 1.0, 1000.0
        res = run_stream_slope(cos_field(Domain((64,)), r), Regularization("quasilinear", nu=nu),
                               dt=1e-3, t_end=1.0, start_g=g)
        assert not res.blew_up
        rec = res.records[-1]
        assert rec.t == 1.0
        # the amplitude ODE by RK4 at h = 5e-5
        h = 5e-5

        def rate(r, g):
            return (g - nu * (math.pi * r * r + g * g)) * r, r * r

        for _ in range(20000):
            k1 = rate(r, g)
            k2 = rate(r + 0.5 * h * k1[0], g + 0.5 * h * k1[1])
            k3 = rate(r + 0.5 * h * k2[0], g + 0.5 * h * k2[1])
            k4 = rate(r + h * k3[0], g + h * k3[1])
            r += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            g += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        assert rec.g == pytest.approx(g, rel=1e-12)
        assert rec.linf == pytest.approx(r, rel=1e-9)

    def test_quasilinear_l2_controlled_by_max_plus_g(self, d1):
        res = run_stream_slope(cos_field(d1, 2.0), Regularization(mode="quasilinear", nu=0.05),
                               dt=1e-3, t_end=0.4, sample_every=0.01)
        ts = np.array([rec.t for rec in res.records])
        mg = np.array([rec.max_w + rec.g for rec in res.records])
        integral = np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (mg[1:] + mg[:-1]))])
        l2_0 = res.records[0].l2
        for rec, quad in zip(res.records, integral):
            assert rec.l2 <= l2_0 * math.exp(quad) * (1 + 1e-5)

    @pytest.mark.parametrize("start", [0.0, 0.25])
    def test_sample_clock_does_not_drift(self, start, stream_steps):
        res = run_stream_slope(cos_field(Domain((16,)), 0.2), Regularization(), dt=1e-3,
                               t_end=start + 1.0, sample_every=0.1, adaptive=False,
                               start_time=start)
        assert [rec.t for rec in res.records] == [start + k * 0.1 for k in range(11)]
        assert res.final_state.t == start + 1.0
        assert len(stream_steps) == 1000

    def test_quasilinear_converges_at_the_base_step(self, d1, stream_steps):
        # the frozen-coefficient integrating factor takes the diffusion
        # exactly, so the steps need no stability cap: criterion 8 data at
        # dt = 1e-3 agree with a ten times finer run
        w0 = cos_field(d1, 5.0)
        reg = Regularization(mode="quasilinear", nu=0.1)
        coarse = run_stream_slope(w0, reg, dt=1e-3, t_end=0.5, sample_every=0.05)
        assert len(stream_steps) <= 500  # t_end / dt: the steps grow as the maximum decays
        fine = run_stream_slope(w0, reg, dt=1e-4, t_end=0.5, sample_every=0.05)
        assert len(coarse.records) == len(fine.records) == 11
        for a, b in zip(coarse.records, fine.records):
            assert a.t == b.t
            assert abs(a.l2 - b.l2) <= 1e-6 * b.l2
            assert abs(a.g - b.g) <= 1e-6 * abs(b.g)

    @pytest.mark.parametrize("sample_every", [0.0, -0.01, math.nan])
    def test_rejects_a_non_positive_cadence(self, d1, sample_every, deadline):
        with pytest.raises(ValueError, match="sample_every"):
            run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=0.1,
                             sample_every=sample_every)

    def test_rejects_a_nan_start_time(self, d1):
        with pytest.raises(ValueError, match="start time"):
            run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=0.1,
                             start_time=math.nan)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(self, d1, threshold):
        # at NaN no step flags blow-up; at 0 or -1 the first one does
        with pytest.raises(ValueError, match="threshold"):
            run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=0.1,
                             threshold=threshold)

    @pytest.mark.parametrize("reg", [
        Regularization("quasilinear", nu=0.1),
        Regularization("spectral", nu=0.1, alpha=2.0, sign="dissipative"),
        Regularization()])
    def test_ifrk4_converges_at_fourth_order(self, reg):
        # self-convergence on fixed steps: each halving of dt divides the
        # change of the final slope by 2^4
        d = Domain((64,))
        x = d.grid[0]
        w0 = PhysicalField(d, np.cos(x) + 0.3 * np.sin(2 * x))
        finals = [run_stream_slope(w0, reg, dt, t_end=0.4, sample_every=0.4,
                                   adaptive=False).final_state.w.values
                  for dt in (0.04, 0.02, 0.01, 0.005)]
        diffs = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 3.8 <= math.log2(coarse / fine) <= 4.2


@pytest.mark.parametrize("reg", [Regularization(),
                                 Regularization("spectral", nu=0.1, sign="dissipative")])
def test_step_allocates_nothing_of_state_size(reg):
    # a step at these sizes costs numpy's per-call overhead; the operator
    # computes in arrays of its own and steps into the ones it is handed,
    # and an adaptive step of a new size writes its propagators into the
    # arrays of the last size.  (Quasilinear steps compute the change of
    # their diffusion coefficient in new arrays, so they allocate.)  The
    # damping sign keeps the data bounded: the amplifying one grows the
    # rounding at k = 512 by e^26 a step, and overflows within three.
    d = Domain((1024,))
    ops = _StreamOps(d, reg)
    x = ops.start(np.fft.rfft(0.5 * np.cos(d.grid[0]) + 0.3 * np.sin(3 * d.grid[0]),
                              norm="forward"), 0.2)
    nl, spare = np.empty_like(x), np.empty_like(x)

    def step(x, spare, dt):
        return ops.advance(x, ops.nonlinear(x, out=nl), dt, out=spare), x

    x, spare = step(x, spare, 1e-3)  # allocates the propagators
    for dt in (1e-3, 7e-4):  # the same size, then a new one
        tracemalloc.start()
        try:
            x, spare = step(x, spare, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes, dt


class TestMaxBound:
    def test_bound_on_quasilinear_run(self, d1):
        res = run_stream_slope(cos_field(d1, 5.0), Regularization(mode="quasilinear", nu=0.1),
                               dt=1e-3, t_end=0.3, sample_every=0.01)
        checks = check_max_bound(res.records)
        covered = [rec for rec in res.records if rec.t < 0.2]
        assert len(checks) == len(covered)
        assert all(c.passed for c in checks)

    def test_bound_is_the_closed_form_from_the_first_record(self, d1):
        # inviscid cos data, whose Q = max w + g grows towards the bound
        res = run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=0.9,
                               sample_every=0.1)
        checks = check_max_bound(res.records)
        first = res.records[0]
        q0 = first.max_w + first.g
        assert len(checks) == len(res.records) == 10
        for rec, check in zip(res.records, checks):
            assert check.bound == pytest.approx(q0 / (1.0 - q0 * (rec.t - first.t)),
                                                rel=1e-14, abs=0)

    def test_requires_positive_initial_max(self, d1):
        # a restart whose g outweighs max w starts at Q = 1 - 2 < 0
        res = run_stream_slope(cos_field(d1), Regularization(), dt=1e-3, t_end=0.1,
                               sample_every=0.05, start_g=-2.0)
        with pytest.raises(ValueError):
            check_max_bound(res.records)


class TestEstimator:
    def test_exact_reciprocal_growth(self):
        t_star = 1.3
        ts = np.linspace(1.0, 1.299, 400)
        ms = 1.0 / (t_star - ts)
        est = estimate_blowup_time(ts, ms, threshold=float(ms.max()))
        assert est == pytest.approx(t_star, abs=1e-12)

    def test_too_few_points_falls_back_to_last_time(self):
        est = estimate_blowup_time([0.5], [10.0], threshold=1e6)
        assert est == 0.5
