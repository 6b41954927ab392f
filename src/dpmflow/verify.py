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
    x3 = d3.grid
    x1 = d1.grid[0]

    def fwd(field):
        return spectral.forward_transform(field)

    def phys(domain, values):
        return PhysicalField(domain, np.ascontiguousarray(np.broadcast_to(values, domain.n)))

    smooth2 = spectral.random_field(d2, seed=11)
    smooth2_hat = fwd(smooth2)
    smooth3 = spectral.random_field(d3, seed=12, cutoff=3.0)
    smooth3_hat = fwd(smooth3)

    cases = []

    def case(name):
        def register(fn):
            cases.append((name, fn))
            return fn
        return register

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

    @case("half-Laplacian power fixes cos(x1) for any order")
    def _():
        out = spectral.inverse_transform(spectral.fractional_laplacian(
            fwd(phys(d2, np.cos(x2[0]))), 0.7))
        err = np.abs(out.values - np.cos(x2[0])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("half-Laplacian power with order 2 is minus the Laplacian")
    def _():
        out = spectral.inverse_transform(spectral.fractional_laplacian(
            fwd(phys(d2, np.sin(2 * x2[0]))), 2.0))
        err = np.abs(out.values - 4.0 * np.sin(2 * x2[0])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("half-Laplacian power annihilates constants")
    def _():
        out = spectral.fractional_laplacian(fwd(phys(d2, np.full(d2.n, 2.5))), 1.3)
        return np.abs(out.coeffs).max() < 1e-14, ""

    @case("derivative: sin(x1) -> cos(x1)")
    def _():
        out = spectral.inverse_transform(spectral.partial_derivative(
            fwd(phys(d2, np.sin(x2[0]))), 0))
        err = np.abs(out.values - np.cos(x2[0])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("derivative: constants -> 0")
    def _():
        out = spectral.partial_derivative(fwd(phys(d2, np.full(d2.n, 1.0))), 0)
        return np.abs(out.coeffs).max() < 1e-15, ""

    @case("derivative: cos(2 x2) -> -2 sin(2 x2)")
    def _():
        out = spectral.inverse_transform(spectral.partial_derivative(
            fwd(phys(d2, np.cos(2 * x2[1]))), 1))
        err = np.abs(out.values + 2.0 * np.sin(2 * x2[1])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("Riesz transform of sin(x1) along axis 1 is cos(x1)")
    def _():
        out = spectral.inverse_transform(spectral.riesz_transform(
            fwd(phys(d2, np.sin(x2[0]))), 0))
        err = np.abs(out.values - np.cos(x2[0])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("sum of squared Riesz transforms is minus the identity")
    def _():
        acc = np.zeros_like(smooth2_hat.coeffs)
        for j in range(2):
            acc += spectral.riesz_transform(
                spectral.riesz_transform(smooth2_hat, j), j).coeffs
        err = np.abs(acc + smooth2_hat.coeffs).max()
        return err <= 1e-12 * np.abs(smooth2_hat.coeffs).max() + 1e-16, f"err={err:.2e}"

    @case("Riesz transform annihilates constants")
    def _():
        out = spectral.riesz_transform(fwd(phys(d2, np.full(d2.n, 4.0))), 0)
        return np.abs(out.coeffs).max() < 1e-15, ""

    @case("Riesz potential fixes cos(x1) at order 1")
    def _():
        out = spectral.inverse_transform(spectral.riesz_potential(
            fwd(phys(d2, np.cos(x2[0]))), 1.0))
        err = np.abs(out.values - np.cos(x2[0])).max()
        return err < 1e-12, f"err={err:.2e}"

    @case("Riesz potential halves sin(2 x1) at order 1")
    def _():
        out = spectral.inverse_transform(spectral.riesz_potential(
            fwd(phys(d1, np.sin(2 * x1))), 1.0))
        err = np.abs(out.values - 0.5 * np.sin(2 * x1)).max()
        return err < 1e-13, f"err={err:.2e}"

    @case("Riesz potential inverts the half-Laplacian power on mean-zero fields")
    def _():
        beta = 0.8
        out = spectral.riesz_potential(spectral.fractional_laplacian(smooth2_hat, beta), beta)
        err = np.abs(out.coeffs - smooth2_hat.coeffs).max()
        return err <= 1e-12 * np.abs(smooth2_hat.coeffs).max(), f"err={err:.2e}"

    @case("dealiasing is an idempotent projection and does not grow the L2 norm")
    def _():
        once = spectral.dealias(smooth2_hat)
        twice = spectral.dealias(once)
        idem = np.abs(once.coeffs - twice.coeffs).max()
        n_in = spectral.lp_norm(spectral.inverse_transform(smooth2_hat), 2)
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
                  for s in (-1.0, 0.0, 0.75, 2.0))
        return err < 1e-12, f"err={err:.2e}"

    @case("Sobolev seminorm scales like |k|^s on a pure mode")
    def _():
        c = fwd(phys(d1, np.sin(2 * x1)))
        err = abs(spectral.hs_seminorm(c, 1.0) - 2.0 * math.sqrt(math.pi))
        return err < 1e-12, f"err={err:.2e}"

    @case("Parseval: spectral order-0 seminorm equals the grid L2 norm")
    def _():
        a = spectral.hs_seminorm(smooth2_hat, 0.0)
        b = spectral.lp_norm(smooth2, 2)
        return abs(a - b) <= 1e-12 * b, f"diff={abs(a - b):.2e}"

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
                    + (smooth2_hat.coeffs if j == d2.buoyancy_axis else 0.0))
            err = np.abs(rec - v.components[j].coeffs).max()
            worst = max(worst, err / max(np.abs(smooth2_hat.coeffs).max(), 1e-16))
        return worst <= 1e-13, f"rel={worst:.2e}"

    @case("pressure of T = sin(x_N) is cos(x_N), restoring hydrostatic balance")
    def _():
        p = spectral.inverse_transform(velocity.pressure_from_temperature(
            fwd(phys(d2, np.sin(x2[1])))))
        err = np.abs(p.values - np.cos(x2[1])).max()
        return err < 1e-13, f"err={err:.2e}"

    # solver ----------------------------------------------------------------
    @case("advection term vanishes on T = sin(x1) (velocity is cross-stream)")
    def _():
        out = solver.nonlinear_term(fwd(phys(d2, np.sin(x2[0]))))
        return np.abs(out.coeffs).max() < 1e-14, ""

    @case("advection term vanishes in hydrostatic balance")
    def _():
        out = solver.nonlinear_term(fwd(phys(d2, np.sin(x2[1]))))
        return np.abs(out.coeffs).max() < 1e-14, ""

    @case("advection term vanishes on constants")
    def _():
        out = solver.nonlinear_term(fwd(phys(d2, np.full(d2.n, 2.0))))
        return np.abs(out.coeffs).max() < 1e-14, ""

    @case("inviscid unforced step conserves the L2 norm")
    def _():
        params = solver.SolverParams(nu=0.0, alpha=1.0, dt=1e-3, t_end=1e-3)
        before = spectral.hs_seminorm(smooth2_hat, 0.0)
        after = solver.run(smooth2, params, sample_every=1e-3, p_list=(2.0,)).final_state
        drift = abs(spectral.hs_seminorm(after.t_hat, 0.0) - before) / before
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
        return (abs(blowup1d.oracle_beta(0.0, p)) < 1e-14
                and abs(blowup1d.oracle_r(0.0, p) - 2.0) < 1e-14), ""

    @case("closed-form blow-up times: pi/2 and pi/(3 sqrt 3)")
    def _():
        e1 = abs(blowup1d.blowup_time(blowup1d.OracleParams(1.0, 0.0)) - math.pi / 2)
        e2 = abs(blowup1d.blowup_time(blowup1d.OracleParams(2.0, 1.0))
                 - math.pi / (3.0 * math.sqrt(3.0)))
        return e1 < 1e-14 and e2 < 1e-14, f"errs={e1:.1e},{e2:.1e}"

    @case("blow-up time limits: diverges as r0 -> 0, tends to 1/nu as r0 -> nu+")
    def _():
        huge = blowup1d.blowup_time(blowup1d.OracleParams(1e-8, 0.0))
        lim = blowup1d.blowup_time(blowup1d.OracleParams(1.0 + 1e-12, 1.0))
        return huge > 1e7 and abs(lim - 1.0) < 1e-5, f"huge={huge:.1e}, lim={lim!r}"

    @case("closed form matches brute-force integration of the amplitude law")
    def _():
        p = blowup1d.OracleParams(r0=2.0, nu=1.0)
        ts, betas, _ = blowup1d.integrate_amplitude_ode(2.0, 1.0, 1e-5, 0.3)
        err = abs(betas[-1] - blowup1d.oracle_beta(ts[-1], p))
        return err < 1e-9, f"err={err:.2e}"

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
