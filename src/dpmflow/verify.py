"""Built-in identity suite behind the `verify` CLI command.

Each case exercises one exactly-known identity of the spectral calculus,
the Darcy velocity, the solver conservation laws or the 1D closed forms,
on small grids; the whole suite runs in a couple of seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import blowup1d, solver, spectral, velocity
from .spectral import Domain, PhysicalField


def _cases():
    d2 = Domain((32, 32))
    d3 = Domain((16, 16, 16))
    d1 = Domain((64,))
    x2 = d2.grid
    x1 = d1.grid[0]

    fwd = spectral.forward_transform

    def phys(domain, values):
        return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))

    smooth2 = spectral.random_field(d2, seed=11)
    smooth2_hat = fwd(smooth2)
    smooth3 = spectral.random_field(d3, seed=12, cutoff=3.0)
    smooth3_hat = fwd(smooth3)
    noise = np.random.default_rng(1).standard_normal(d2.n)
    raw2 = phys(d2, noise - noise.mean())  # every mode, the Nyquist planes too

    cases = []

    def case(name):
        def register(fn):
            cases.append((name, fn))
            return fn
        return register

    def maps(name, domain, before, op, after, tol):
        """Register the case that op, or each operator of a list, takes the
        field `before` to `after`, or to zero when after is None, within tol."""
        def check():
            c = fwd(phys(domain, before))
            err = 0.0
            for fn in op if isinstance(op, list) else [op]:
                out = fn(c)
                err = max(err, np.abs(out.coeffs).max() if after is None else
                          np.abs(spectral.inverse_transform(out).values - after).max())
            return err < tol, f"err={err:.2e}"
        case(name)(check)

    # spectral core -------------------------------------------------------
    @case("transform: constant field maps to mean coefficient")
    def _():
        c = fwd(phys(d2, np.full(d2.n, 3.0)))
        err = abs(c.mean - 3.0)
        rest = np.abs(c.coeffs).sum() - abs(c.coeffs[0, 0])
        return err < 1e-14 and rest < 1e-13, f"err={err:.2e}, rest={rest:.2e}"

    @case("transform: cos(x1) has coefficients 1/2 at k = +-e1")
    def _():
        c = fwd(phys(d2, np.cos(x2[0]))).coeffs
        err = max(abs(c[1, 0] - 0.5), abs(c[-1, 0] - 0.5))
        other = np.abs(c).sum() - abs(c[1, 0]) - abs(c[-1, 0])
        return err < 1e-14 and other < 1e-12, f"err={err:.2e}"

    @case("transform: inverse(forward) is the identity")
    def _():
        errs = [np.abs(spectral.inverse_transform(c).values - u.values).max()
                / np.abs(u.values).max() for u, c in ((smooth2, smooth2_hat),
                                                      (smooth3, smooth3_hat))]
        return max(errs) <= 1e-12, "rel errs 2D/3D = " + ", ".join(f"{e:.2e}" for e in errs)

    maps("half-Laplacian power fixes cos(x1) for any order", d2, np.cos(x2[0]),
         [lambda c, a=a: spectral.fractional_laplacian(c, a)
          for a in (0.0, 0.5, 0.7, 1.0, 1.7, 2.0)], np.cos(x2[0]), 1e-12)
    maps("half-Laplacian power with order 2 is minus the Laplacian", d2, np.sin(2 * x2[0]),
         lambda c: spectral.fractional_laplacian(c, 2.0), 4.0 * np.sin(2 * x2[0]), 1e-12)
    maps("half-Laplacian power annihilates constants", d2, 2.5,
         lambda c: spectral.fractional_laplacian(c, 1.3), None, 1e-14)
    maps("derivative: sin(x1) -> cos(x1)", d2, np.sin(x2[0]),
         lambda c: spectral.partial_derivative(c, 0), np.cos(x2[0]), 1e-12)
    maps("derivative: constants -> 0", d2, 1.0,
         lambda c: spectral.partial_derivative(c, 0), None, 1e-15)
    maps("derivative: cos(2 x2) -> -2 sin(2 x2)", d2, np.cos(2 * x2[1]),
         lambda c: spectral.partial_derivative(c, 1), -2.0 * np.sin(2 * x2[1]), 1e-12)
    maps("Riesz transform of sin(x1) along axis 1 is cos(x1)", d2, np.sin(x2[0]),
         lambda c: spectral.riesz_transform(c, 0), np.cos(x2[0]), 1e-12)

    @case("sum of squared Riesz transforms is minus the identity")
    def _():
        acc = np.zeros_like(smooth2_hat.coeffs)
        for j in range(2):
            acc += spectral.riesz_transform(
                spectral.riesz_transform(smooth2_hat, j), j).coeffs
        err = np.abs(acc + smooth2_hat.coeffs).max()
        return err <= 1e-12 * np.abs(smooth2_hat.coeffs).max() + 1e-16, f"err={err:.2e}"

    maps("Riesz transform annihilates constants", d2, 4.0,
         lambda c: spectral.riesz_transform(c, 0), None, 1e-15)
    maps("Riesz potential fixes cos(x1) at order 1", d1, np.cos(x1),
         lambda c: spectral.riesz_potential(c, 1.0), np.cos(x1), 1e-13)
    maps("Riesz potential halves sin(2 x1) at order 1", d1, np.sin(2 * x1),
         lambda c: spectral.riesz_potential(c, 1.0), 0.5 * np.sin(2 * x1), 1e-13)

    @case("Riesz potential inverts the half-Laplacian power on mean-zero fields")
    def _():
        beta = 0.8
        out = spectral.riesz_potential(spectral.fractional_laplacian(smooth2_hat, beta), beta)
        err = np.abs(out.coeffs - smooth2_hat.coeffs).max()
        return err <= 1e-12 * np.abs(smooth2_hat.coeffs).max(), f"err={err:.2e}"

    @case("dealiasing is an idempotent projection and does not grow the L2 norm")
    def _():
        once = spectral.dealias(fwd(raw2))
        twice = spectral.dealias(once)
        idem = np.abs(once.coeffs - twice.coeffs).max()
        n_in = spectral.lp_norm(raw2, 2)
        n_out = spectral.lp_norm(spectral.inverse_transform(once), 2)
        return idem == 0.0 and n_out <= n_in * (1 + 1e-14), f"idem={idem:.2e}"

    @case("rectangle-rule L2 norm of the unit field on the 2-torus is 2 pi")
    def _():
        err = abs(spectral.lp_norm(phys(d2, np.ones(d2.n)), 2) / (2 * math.pi) - 1.0)
        return err <= 1e-13, f"rel err={err:.2e}"

    @case("L2 norm of sin(x) on the circle is sqrt(pi)")
    def _():
        err = abs(spectral.lp_norm(phys(d1, np.sin(x1)), 2) / math.sqrt(math.pi) - 1.0)
        return err <= 1e-13, f"rel err={err:.2e}"

    @case("sup norm of sin(x) is 1 on grids divisible by 4")
    def _():
        sup = spectral.lp_norm(phys(d1, np.sin(x1)), math.inf)
        return sup == 1.0, f"sup={sup!r}"

    for domain, k in ((d1, (3,)), (d2, (2, 3)), (d3, (1, 2, 3))):
        @case(f"sup norm of cos(k.x - phi) with an off-grid peak is 1 ({domain.dim}D)")
        def _(domain=domain, k=k):
            u = np.cos(sum(kj * xj for kj, xj in zip(k, domain.grid)) - 0.3)
            err = abs(spectral.sup_norm(fwd(phys(domain, u)).coeffs, domain) - 1.0)
            return err < 1e-13 and np.abs(u).max() < 1.0 - 1e-6, f"err={err:.2e}"

    @case("Sobolev seminorm of sin(x) is sqrt(pi) for any order")
    def _():
        c = fwd(phys(d1, np.sin(x1)))
        err = max(abs(spectral.hs_seminorm(c, s) - math.sqrt(math.pi))
                  for s in (-1.0, 0.0, 0.3, 0.75, 2.0))
        return err < 1e-12, f"err={err:.2e}"

    @case("Sobolev seminorm scales like |k|^s on a pure mode")
    def _():
        c = fwd(phys(d1, np.sin(2 * x1)))
        err = abs(spectral.hs_seminorm(c, 1.0) - 2.0 * math.sqrt(math.pi))
        return err < 1e-12, f"err={err:.2e}"

    @case("Parseval: spectral order-0 seminorm equals the grid L2 norm")
    def _():
        rel = max(abs(spectral.hs_seminorm(fwd(u), 0.0) / spectral.lp_norm(u, 2) - 1.0)
                  for u in [raw2] + [spectral.random_field(d2, seed=s) for s in range(5)])
        return rel <= 1e-12, f"rel diff={rel:.2e}"

    @case("semigroup: composing half-Laplacian powers adds the orders")
    def _():
        one = spectral.fractional_laplacian(spectral.fractional_laplacian(smooth2_hat, 0.6), 0.9)
        two = spectral.fractional_laplacian(smooth2_hat, 1.5)
        err = np.abs(one.coeffs - two.coeffs).max()
        return err <= 1e-12 * np.abs(two.coeffs).max() + 1e-16, f"err={err:.2e}"

    @case("factorization: derivative equals half-Laplacian of Riesz transform")
    def _():
        for j in range(2):
            a = spectral.partial_derivative(smooth2_hat, j)
            b = spectral.fractional_laplacian(spectral.riesz_transform(smooth2_hat, j), 1.0)
            err = np.abs(a.coeffs - b.coeffs).max()
            if err > 1e-12 * max(np.abs(a.coeffs).max(), 1e-16):
                return False, f"axis {j}: err={err:.2e}"
        return True, ""

    # Darcy velocity -------------------------------------------------------
    @case("velocity of T = sin(x1) in 2D is (0, -sin(x1))")
    def _():
        v = velocity.velocity_from_temperature(fwd(phys(d2, np.sin(x2[0]))))
        v1 = spectral.inverse_transform(v.components[0]).values
        v2 = spectral.inverse_transform(v.components[1]).values
        err = max(np.abs(v1).max(), np.abs(v2 + np.sin(x2[0])).max())
        return err < 1e-13, f"err={err:.2e}"

    @case("hydrostatic balance: T depending only on the buoyancy axis gives v = 0")
    def _():
        v = velocity.velocity_from_temperature(fwd(phys(d2, np.sin(x2[1]))))
        err = max(np.abs(c.coeffs).max() for c in v.components)
        return err < 1e-14, f"err={err:.2e}"

    @case("constant temperature induces the uniform drift -gamma c")
    def _():
        v = velocity.velocity_from_temperature(fwd(phys(d2, np.full(d2.n, 1.5))))
        v1 = spectral.inverse_transform(v.components[0]).values
        v2 = spectral.inverse_transform(v.components[1]).values
        err = max(np.abs(v1).max(), np.abs(v2 + 1.5).max())
        return err < 1e-14, f"err={err:.2e}"

    @case("spectral divergence of the velocity vanishes (2D and 3D)")
    def _():
        worst = 0.0
        for sf in (smooth2_hat, smooth3_hat):
            v = velocity.velocity_from_temperature(sf)
            div = np.abs(v.spectral_divergence()).max()
            worst = max(worst, div / np.abs(sf.coeffs).max())
        return worst <= 1e-13, f"rel={worst:.2e}"

    @case("curl-curl identity ties the multiplier to the second-derivative form")
    def _():
        v = velocity.velocity_from_temperature(smooth3_hat)
        k = smooth3_hat.domain.wavenumbers
        k2 = smooth3_hat.domain.k_squared
        c = smooth3_hat.coeffs
        rhs = [(-k[0] * k[2]) * c, (-k[1] * k[2]) * c, (k[0] ** 2 + k[1] ** 2) * c]
        worst = 0.0
        for comp, r in zip(v.components, rhs):
            err = np.abs(-k2 * comp.coeffs - r).max()
            worst = max(worst, err / max(np.abs(c).max(), 1e-16))
        return worst <= 1e-12, f"rel={worst:.2e}"

    @case("each velocity component is bounded by the temperature in L2")
    def _():
        v = velocity.velocity_from_temperature(smooth2_hat)
        tn = spectral.lp_norm(smooth2, 2)
        ratio = max(spectral.lp_norm(spectral.inverse_transform(c), 2)
                    for c in v.components) / tn
        return ratio <= 1 + 1e-13, f"ratio={ratio:.3f}"

    @case("velocity reconstructs from the pressure gradient and buoyancy")
    def _():
        p = velocity.pressure_from_temperature(smooth2_hat)
        v = velocity.velocity_from_temperature(smooth2_hat)
        worst = 0.0
        for j in range(2):
            rec = -(spectral.partial_derivative(p, j).coeffs
                    + (smooth2_hat.coeffs if j == d2.dim - 1 else 0.0))
            err = np.abs(rec - v.components[j].coeffs).max()
            worst = max(worst, err / max(np.abs(smooth2_hat.coeffs).max(), 1e-16))
        return worst <= 1e-13, f"rel={worst:.2e}"

    maps("pressure of T = sin(x_N) is cos(x_N), restoring hydrostatic balance", d2,
         np.sin(x2[1]), velocity.pressure_from_temperature, np.cos(x2[1]), 1e-13)

    # solver ----------------------------------------------------------------
    maps("advection term vanishes on T = sin(x1) (velocity is cross-stream)", d2,
         np.sin(x2[0]), solver.nonlinear_term, None, 1e-14)
    maps("advection term vanishes in hydrostatic balance", d2, np.sin(x2[1]),
         solver.nonlinear_term, None, 1e-14)
    maps("advection term vanishes on constants", d2, 2.0, solver.nonlinear_term, None, 1e-14)

    for d, name in ((d2, "2D"), (d3, "3D")):  # a term that does not vanish
        x = d.grid
        maps(f"advection term of T = cos(x1) + cos(x_N) is -cos(x1) sin(x_N) in {name}", d,
             np.cos(x[0]) + np.cos(x[-1]), solver.nonlinear_term,
             -np.cos(x[0]) * np.sin(x[-1]), 1e-14)

    @case("inviscid unforced step conserves the L2 norm")
    def _():
        before = spectral.hs_seminorm(smooth2_hat, 0.0)
        drift = 0.0
        for dt in (1e-3, 2e-3):
            params = solver.SolverParams(nu=0.0, alpha=1.0, dt=dt, t_end=dt)
            after = solver.run(smooth2, params, sample_every=dt, p_list=(2.0,)).final_state
            drift = max(drift, abs(spectral.hs_seminorm(after.t_hat, 0.0) - before) / before)
        return drift <= 1e-10, f"drift={drift:.2e}"

    @case("mean mode follows d(mean)/dt = mean forcing exactly")
    def _():
        f = spectral.forward_transform(phys(d2, 0.25 + 0.1 * np.sin(x2[0])))
        t0 = phys(d2, 1.0 + np.cos(x2[0]))
        params = solver.SolverParams(nu=0.3, alpha=1.5, dt=0.01, t_end=0.5)
        result = solver.run(t0, params, f, sample_every=0.1, p_list=(2.0,))
        worst = max(abs(rec.mean - (1.0 + 0.25 * rec.t)) for rec in result.records)
        return worst <= 1e-13, f"err={worst:.2e}"

    # 1D closed forms --------------------------------------------------------
    @case("antiderivative: cos -> sin with the seam pinned at zero")
    def _():
        f = blowup1d.antiderivative(phys(d1, np.cos(x1)))
        err = np.abs(f.values - np.sin(x1)).max()
        return err < 1e-13, f"err={err:.2e}"

    @case("antiderivative: sin -> -cos - 1 (seam value enforced)")
    def _():
        f = blowup1d.antiderivative(phys(d1, np.sin(x1)))
        err = np.abs(f.values - (-np.cos(x1) - 1.0)).max()
        return err < 1e-13, f"err={err:.2e}"

    @case("stream tendency closes on the cos mode: dw = g r cos, dg = r^2")
    def _():
        r0, g0 = 1.7, 0.33
        state = blowup1d.StreamSlopeState(0.0, phys(d1, r0 * np.cos(x1)), g0)
        dw, dg = blowup1d.stream_rhs(state, blowup1d.Regularization())
        err = np.abs(dw.values - g0 * r0 * np.cos(x1)).max()
        return err < 1e-12 and abs(dg - r0 ** 2) < 1e-12, f"err={err:.2e}"

    @case("closed form: beta(0) = 0 and r(0) = r0")
    def _():
        p = blowup1d.OracleParams(r0=2.0, nu=1.0)
        return (abs(blowup1d.oracle_beta(0.0, p)) <= 1e-15
                and abs(blowup1d.oracle_r(0.0, p) / 2.0 - 1.0) <= 1e-15), ""

    @case("closed-form blow-up times: pi/2 and pi/(3 sqrt 3)")
    def _():
        e1 = abs(blowup1d.blowup_time(blowup1d.OracleParams(1.0, 0.0)) / (math.pi / 2) - 1)
        e2 = abs(blowup1d.blowup_time(blowup1d.OracleParams(2.0, 1.0))
                 / (math.pi / (3.0 * math.sqrt(3.0))) - 1)
        return e1 <= 1e-15 and e2 <= 1e-15, f"rel errs={e1:.1e},{e2:.1e}"

    @case("blow-up time limits: diverges as r0 -> 0, tends to 1/nu as r0 -> nu+")
    def _():
        huge = blowup1d.blowup_time(blowup1d.OracleParams(1e-8, 0.0))
        lim = blowup1d.blowup_time(blowup1d.OracleParams(1.0 + 1e-12, 1.0))
        return huge > 1e7 and abs(lim - 1.0) < 1e-5, f"huge={huge:.1e}, lim={lim!r}"

    @case("closed form matches brute-force integration of the amplitude law")
    def _():
        p = blowup1d.OracleParams(r0=2.0, nu=1.0)
        worst = 0.0  # the largest error over the tolerance, at every step
        for dt, t_max, tol in ((1e-5, 0.3, 1e-9), (1e-4, 0.55, 1e-8)):
            ts, betas, t_div = blowup1d.integrate_amplitude_ode(2.0, 1.0, dt, t_max)
            if t_div is not None:
                return False, f"diverged at t={t_div}"
            worst = max(worst, max(abs(b - blowup1d.oracle_beta(t, p))
                                   for t, b in zip(ts, betas)) / tol)
        return worst < 1.0, f"err/tol={worst:.2e}"

    return cases


def run_verify(stream=None) -> int:
    """Run every identity; print one line per case; return the failure count."""
    import sys
    stream = stream or sys.stdout
    failures = 0
    cases = _cases()
    for name, fn in cases:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f"  ({detail})" if detail and not ok else ""
        stream.write(f"{tag}  {name}{suffix}\n")
    stream.write(f"{len(cases) - failures}/{len(cases)} identities passed\n")
    return failures
