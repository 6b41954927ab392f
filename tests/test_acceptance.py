"""Acceptance suite: each numbered criterion at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion (add -s for the measured numbers).  The exact-oracle criteria
compare against closed forms; the property criteria assert the analytic
bounds along freshly integrated trajectories.
"""

import math
import warnings

import numpy as np
import pytest

from dpmflow import (Domain, OracleParams, PhysicalField,
                     Regularization, SolverParams, blowup_time,
                     check_absorbing_ball, check_dissipation_budget,
                     check_max_bound, dealias, forward_transform,
                     integrate_amplitude_ode, inverse_transform, lp_norm, oracle_beta,
                     random_field, read_snapshot, run, run_stream_slope,
                     velocity_from_temperature)
from dpmflow.blowup1d import _StreamOps
from dpmflow.cli import main as cli_main
from fft_reference import FullLayout, half, real_velocity


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture
def stream_steps(monkeypatch):
    """A list that gains an entry per 1D stream-slope step."""
    calls = []
    advance = _StreamOps.advance
    monkeypatch.setattr(_StreamOps, "advance",
                        lambda self, *a, **kw: calls.append(1) or advance(self, *a, **kw))
    return calls


@pytest.fixture(scope="module")
def run1():
    """2D single-mode decay run shared by criteria 1 and 7."""
    d = Domain((64, 64))
    t0 = PhysicalField(d, np.ascontiguousarray(np.broadcast_to(np.sin(d.grid[0]), d.n)))
    params = SolverParams(nu=0.01, alpha=1.5, dt=1e-3, t_end=10.0)
    return run(t0, params, sample_every=0.25, p_list=(2.0,))


@pytest.fixture(scope="module")
def run6():
    """Forced absorbing-ball run shared by criteria 6 and 7."""
    d = Domain((64, 64))
    x = d.grid
    f_field = PhysicalField(d, 0.1 * np.sin(x[0] + x[1]))
    forcing = dealias(forward_transform(f_field))
    t0 = random_field(d, seed=123, l2_norm=5.0)
    params = SolverParams(nu=0.5, alpha=1.5, dt=0.02, t_end=200.0)
    result = run(t0, params, forcing, sample_every=0.1, p_list=(2.0,))
    return result, forcing


def test_criterion_1_exact_single_mode_decay(run1):
    n0 = run1.records[0].lp[2.0]
    err = max(abs(rec.lp[2.0] - n0 * math.exp(-0.01 * rec.t)) / n0
              for rec in run1.records)
    report(1, err <= 1e-8,
           f"single-mode decay max relative error {err:.3e} (tol 1e-8)")


def test_criterion_2_inviscid_blowup_matches_tangent(stream_steps):
    d = Domain((256,))
    w0 = PhysicalField(d, np.cos(d.grid[0]))
    res = run_stream_slope(w0, Regularization(), dt=1e-4, t_end=2.0,
                           sample_every=0.05, threshold=1e8)
    rec = min(res.records, key=lambda r: abs(r.t - 1.3))
    assert abs(rec.t - 1.3) < 1e-9
    g_err = abs(rec.g - math.tan(rec.t)) / math.tan(rec.t)
    t_star = math.pi / 2
    ok = res.blew_up and res.t_star_estimate is not None
    t_err = abs(res.t_star_estimate - t_star) / t_star if ok else math.inf
    report(2, ok and g_err <= 1e-6 and t_err <= 0.01,
           f"g(1.3) relative error {g_err:.3e} (tol 1e-6); blow-up time "
           f"estimate off by {t_err:.3e} relative (tol 1e-2); {len(stream_steps)} steps")


def test_criterion_3_amplitude_ode_against_closed_form():
    params = OracleParams(r0=2.0, nu=1.0)
    t_star = blowup_time(params)  # pi/(3 sqrt 3)
    ts, betas, t_div = integrate_amplitude_ode(2.0, 1.0, dt=1e-5, t_max=1.0)
    div_err = abs(t_div - t_star) / t_star if t_div is not None else math.inf
    keep = ts <= 0.55
    point_err = max(abs(b - oracle_beta(t, params))
                    for t, b in zip(ts[keep], betas[keep]))
    report(3, div_err <= 0.005 and point_err <= 1e-7,
           f"divergence time off by {div_err:.3e} relative (tol 5e-3); "
           f"max pointwise error {point_err:.3e} for t <= 0.55 (tol 1e-7)")


def test_criterion_4_maximum_principle_suite():
    d = Domain((64, 64))
    alphas = (0.5, 1.0, 1.5, 2.0)
    slack = 1e-6
    worst = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha < 1 runs emit the supercritical note
        for seed in range(20):
            alpha = alphas[seed % 4]
            t0 = random_field(d, seed=seed, l2_norm=1.0)
            params = SolverParams(nu=0.1, alpha=alpha, dt=0.01, t_end=2.0)
            res = run(t0, params, sample_every=0.1, p_list=(2.0, 4.0, math.inf))
            assert not res.blew_up
            for prev, rec in zip(res.records, res.records[1:]):
                for p in (2.0, 4.0, math.inf):
                    worst = max(worst, (rec.lp[p] - prev.lp[p]) / prev.lp[p])
    report(4, worst <= slack,
           f"20 seeded runs, alpha in {alphas}: worst relative norm increase "
           f"{worst:.3e} for p in {{2, 4, inf}} (slack 1e-6)")


def test_criterion_5_velocity_identities():
    # A real field has no solenoidal velocity on the unpaired Nyquist slabs,
    # where +-n/2 are one wavenumber and the cross multiplier, odd there, has
    # even part 0: the identities hold off them, and on them the velocity is
    # the real part of the complex (c2c) one.
    worst_div = 0.0
    worst_slab = 0.0
    for domain in (Domain((32, 32)), Domain((16, 16, 16))):
        slabs = half(FullLayout(domain).nyquist_slabs)
        rng = np.random.default_rng(domain.dim)
        for _ in range(50):
            values = rng.standard_normal(domain.n)
            t_hat = forward_transform(PhysicalField(domain, values))
            v = velocity_from_temperature(t_hat)
            scale = np.abs(t_hat.coeffs).max()
            div = np.abs(v.spectral_divergence()[~slabs]).max()
            worst_div = max(worst_div, div / scale)
            for comp, ref in zip(v.components, real_velocity(domain, values)):
                worst_slab = max(worst_slab, np.abs(comp.coeffs - ref)[slabs].max() / scale)

    d3 = Domain((16, 16, 16))
    slabs = half(FullLayout(d3).nyquist_slabs)
    rng = np.random.default_rng(99)
    worst_cc = 0.0
    k = d3.wavenumbers
    for _ in range(50):
        t_hat = forward_transform(PhysicalField(d3, rng.standard_normal(d3.n)))
        v = velocity_from_temperature(t_hat)
        rhs = [(-k[0] * k[2]) * t_hat.coeffs,
               (-k[1] * k[2]) * t_hat.coeffs,
               (k[0] ** 2 + k[1] ** 2) * t_hat.coeffs]
        scale = np.abs(t_hat.coeffs).max()
        for comp, r in zip(v.components, rhs):
            err = np.abs(-d3.k_squared * comp.coeffs - r)[~slabs].max()
            worst_cc = max(worst_cc, err / scale)

    worst_hydro = 0.0
    for domain in (Domain((32, 32)), Domain((16, 16, 16))):
        profile = np.sin(domain.grid[domain.buoyancy_axis])
        t_hat = forward_transform(PhysicalField(
            domain, np.ascontiguousarray(np.broadcast_to(profile, domain.n))))
        v = velocity_from_temperature(t_hat)
        vmax = max(np.abs(inverse_transform(c).values).max() for c in v.components)
        worst_hydro = max(worst_hydro, vmax)

    report(5, worst_div <= 1e-13 and worst_slab <= 1e-13 and worst_cc <= 1e-12
           and worst_hydro <= 1e-13,
           f"divergence {worst_div:.3e} off the Nyquist slabs (tol 1e-13); velocity "
           f"on them off the real part of the c2c velocity by {worst_slab:.3e} (tol 1e-13); "
           f"curl-curl {worst_cc:.3e} off the slabs (tol 1e-12); hydrostatic velocity "
           f"{worst_hydro:.3e} (tol 1e-13)")


def test_criterion_6_absorbing_ball(run6):
    result, forcing = run6
    nu, alpha, p = 0.5, 1.5, 2.0
    assert not result.blew_up
    checks = check_absorbing_ball(result.records, forcing, p, nu, slack=1e-6)
    radius = p * lp_norm(inverse_transform(forcing), p) / nu
    terminal = result.records[-1].lp[p]
    ok = all(c.passed for c in checks) and terminal <= radius * (1 + 1e-6)
    report(6, ok,
           f"bound holds at all {len(checks)} samples to t=200 (slack 1e-6); "
           f"terminal L2 {terminal:.4f} <= ball radius {radius:.4f}")


def test_criterion_7_energy_budget(run1, run6):
    res1 = check_dissipation_budget(run1.records, slack=1e-8)
    worst1 = max(abs(c.value) for c in res1)
    res6 = check_dissipation_budget(run6[0].records, slack=1e-6)
    worst6 = max(c.value for c in res6)
    report(7, worst1 <= 1e-8 and worst6 <= 1e-6 and all(c.passed for c in res6),
           f"budget residuals: single-mode run {worst1:.3e} (tol 1e-8), "
           f"forced run {worst6:.3e} (tol 1e-6)")


def test_criterion_8_quasilinear_global_run(stream_steps):
    d = Domain((256,))
    w0 = PhysicalField(d, 5.0 * np.cos(d.grid[0]))
    res = run_stream_slope(w0, Regularization(mode="quasilinear", nu=0.1),
                           dt=1e-3, t_end=2.0, sample_every=0.01)
    h2_ok = all(math.isfinite(rec.h2) for rec in res.records)
    checks = check_max_bound(res.records, slack=1e-6)
    horizon = 0.2 * (1 - 1e-6)
    covered = [rec for rec in res.records if rec.t < horizon]
    # the diffusion is integrated exactly, so no stability cap shrinks the
    # steps below dt (61,843 steps when it did)
    steps_ok = len(stream_steps) <= 2500
    ok = (not res.blew_up) and h2_ok and len(checks) >= len(covered) \
        and all(c.passed for c in checks) and steps_ok
    report(8, ok,
           f"no blow-up to t=2; H^2 finite (max {max(r.h2 for r in res.records):.3f}); "
           f"maximum bound holds at {len(checks)} samples before t=1/M(0); "
           f"{len(stream_steps)} steps (at most 2500)")


RESTART_CFG = """\
domain.dim = 2
domain.n = 32, 32
solver.nu = 0.1
solver.alpha = 1.2
solver.dt = 0.002
solver.t_end = {t_end}
initial.kind = {kind}
{detail}
diagnostics.p_list = 2
diagnostics.sample_every = 0.1
output.dir = {outdir}
output.checkpoint = final.dpmf
"""


def test_criterion_9_determinism_and_restart(tmp_path):
    def cfg(name, **kw):
        path = tmp_path / name
        path.write_text(RESTART_CFG.format(**kw))
        return str(path)

    a = cfg("a.cfg", t_end=1.0, kind="random", detail="initial.seed = 5",
            outdir=tmp_path / "a")
    b = cfg("b.cfg", t_end=1.0, kind="random", detail="initial.seed = 5",
            outdir=tmp_path / "b")
    assert cli_main(["run", a]) == 0
    assert cli_main(["run", b]) == 0
    bytes_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    identical = bytes_a == bytes_b

    first = cfg("first.cfg", t_end=0.5, kind="random", detail="initial.seed = 5",
                outdir=tmp_path / "p1")
    assert cli_main(["run", first]) == 0
    resumed = cfg("resumed.cfg", t_end=1.0, kind="file",
                  detail=f"initial.path = {tmp_path / 'p1' / 'final.dpmf'}",
                  outdir=tmp_path / "p2")
    assert cli_main(["run", resumed]) == 0
    _, f_resumed, _ = read_snapshot(tmp_path / "p2" / "final.dpmf")
    _, f_straight, _ = read_snapshot(tmp_path / "a" / "final.dpmf")
    c_resumed = forward_transform(f_resumed).coeffs
    c_straight = forward_transform(f_straight).coeffs
    coeff_err = np.abs(c_resumed - c_straight).max()
    report(9, identical and coeff_err <= 1e-12,
           f"rerun CSVs byte-identical: {identical}; restart coefficient "
           f"disagreement {coeff_err:.3e} (tol 1e-12)")
