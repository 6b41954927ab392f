"""Time-stamped norms and runtime verification of the analytic bounds.

Each trajectory sample is reduced to a DiagnosticsRecord (norms, dissipation,
mean, velocity maximum, cumulative budget integrals).  The check functions
evaluate the decay, absorbing-ball and energy-budget estimates record by
record and attach pass/fail results; all of them are pure functions of the
record list, so re-running checks on a stored trajectory is deterministic.

Every inequality carries a single relative slack (default 1e-6) that covers
resolution and quadrature error.  The sup norm is that of the trigonometric
interpolant, its grid maxima polished by Newton steps (spectral.sup_norm), so
that an extremum translating between collocation points does not masquerade
as growth at that slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import hs_seminorm, inverse_transform, lp_norm, sup_norm


@dataclass
class CheckResult:
    name: str
    bound: float
    value: float
    passed: bool


@dataclass
class DiagnosticsRecord:
    """Norms and budget state of one trajectory sample."""

    t: float
    lp: dict
    hs: dict
    dissipation: float
    mean: float
    vmax: float
    diss_integral: float = 0.0
    inj_integral: float = 0.0
    checks: list = field(default_factory=list)
    volume: float | None = None  # of the box, for norm comparisons across p


def compute_record(state, nu, alpha, vmax, p_list=(1.0, 2.0, 4.0, math.inf), s_list=(),
                   diss_integral=0.0, inj_integral=0.0):
    """Reduce a simulation state, with its grid maximum vmax of |v|, to a DiagnosticsRecord.

    Works from the half spectrum: one real inverse transform gives the grid
    values behind every norm, and the seminorms are sums over the half.
    """
    t_hat = state.t_hat
    d = t_hat.domain
    hs = {float(s): hs_seminorm(t_hat, float(s)) for s in s_list}
    dissipation = nu * hs_seminorm(t_hat, alpha / 2.0) ** 2
    u = inverse_transform(t_hat)
    lp = {}
    for p in map(float, p_list):
        lp[p] = sup_norm(t_hat.coeffs, d, u.values) if p == math.inf else lp_norm(u, p)
    return DiagnosticsRecord(t=state.t, lp=lp, hs=hs, dissipation=dissipation,
                             mean=float(t_hat.mean.real),
                             vmax=vmax,
                             diss_integral=diss_integral, inj_integral=inj_integral,
                             volume=d.volume)


def _norm_from_record(rec, p):
    try:
        return rec.lp[float(p)]
    except KeyError:
        raise KeyError(f"record at t={rec.t} does not carry the L^{p} norm") from None


def check_decay_torus(records, initial_norms, p, nu, alpha, lambda1=1.0,
                      q=None, slack=1e-6, forcing=None, volume=None):
    """Exponential decay of unforced mean-zero solutions on the torus.

    Verifies ||T(t)||_q <= ||T0||_p * exp(-2 nu lambda1^alpha t / p) per
    record, with q = p by default.  For q < p the comparison needs the
    measure normalization relating L^q and L^p on a box of volume (2 pi)^N;
    the bound is multiplied by volume^(1/q - 1/p), which makes q = p the
    binding case.  The volume is the caller's, else the one the records
    carry.  Forced runs are refused: the bound does not apply.
    """
    if forcing is not None and getattr(forcing, "f_hat", None) is not None:
        if np.abs(forcing.f_hat.coeffs).max() > 0:
            raise ValueError("decay check applies to unforced runs only")
    p = float(p)
    q = p if q is None else float(q)
    if not 1.0 <= q <= p:
        raise ValueError(f"q must lie in [1, p], got q={q}, p={p}")
    n0 = initial_norms[p] if isinstance(initial_norms, dict) else float(initial_norms)
    rate = 2.0 * nu * lambda1 ** alpha / p
    volfac = 1.0
    if q < p and records:
        volume = records[0].volume if volume is None else volume
        if volume is None:
            raise ValueError("q < p needs the box volume; pass volume=")
        volfac = volume ** (1.0 / q - 1.0 / p)
    t_ref = records[0].t if records else 0.0
    results = []
    for rec in records:
        bound = volfac * n0 * math.exp(-rate * (rec.t - t_ref))
        value = _norm_from_record(rec, q)
        ok = value <= bound * (1.0 + slack) + 1e-14 * n0
        res = CheckResult("decay", bound, value, ok)
        rec.checks.append(res)
        results.append(res)
    return results


def check_absorbing_ball(records, t0_field, f_field, p, nu, alpha,
                         lambda1=1.0, slack=1e-6):
    """Forced absorbing-ball estimate in L^p.

    Verifies, per record,
      ||T(t)||_p <= (||T0||_p - R) exp(-nu lambda1^alpha t / p) + R,
    with ball radius R = p ||f||_p / (nu lambda1^alpha).  With f = 0 this
    degenerates to the unforced decay bound at q = p.
    """
    if nu <= 0:
        raise ValueError("absorbing ball requires nu > 0")
    p = float(p)
    n0 = lp_norm(t0_field, p)
    fnorm = 0.0 if f_field is None else lp_norm(f_field, p)
    radius = p * fnorm / (nu * lambda1 ** alpha)
    rate = nu * lambda1 ** alpha / p
    t_ref = records[0].t if records else 0.0
    results = []
    for rec in records:
        bound = (n0 - radius) * math.exp(-rate * (rec.t - t_ref)) + radius
        value = _norm_from_record(rec, p)
        ok = value <= bound * (1.0 + slack) + 1e-14 * max(n0, radius)
        res = CheckResult("absorbing_ball", bound, value, ok)
        rec.checks.append(res)
        results.append(res)
    return results


def check_dissipation_budget(records, slack=1e-6):
    """Discrete energy budget between consecutive samples.

    Verifies the normalized residual of
      ||T(t2)||_2^2 + 2 nu int ||Lambda^(alpha/2) T||_2^2 ds
        <= ||T(t1)||_2^2 + 2 int (f, T) ds
    for every consecutive record pair, with the integrals from the solver's
    own step-resolution accumulation (the diss_integral / inj_integral
    columns).
    """
    results = []
    for prev, rec in zip(records, records[1:]):
        e0 = _norm_from_record(prev, 2.0) ** 2
        e1 = _norm_from_record(rec, 2.0) ** 2
        diss = 2.0 * (rec.diss_integral - prev.diss_integral)
        inj = 2.0 * (rec.inj_integral - prev.inj_integral)
        residual = (e1 - e0 + diss - inj) / max(1.0, e0)
        ok = residual <= slack
        res = CheckResult("dissipation_budget", slack, residual, ok)
        rec.checks.append(res)
        results.append(res)
    return results


def norm_column(p):
    return "linf" if p == math.inf else f"l{p:g}"


def records_to_csv(records, stream):
    """Write records as deterministic CSV (17 significant digits)."""
    if not records:
        stream.write("t\n")
        return
    first = records[0]
    p_cols = sorted(first.lp)
    s_cols = sorted(first.hs)
    header = ["t"] + [norm_column(p) for p in p_cols] + [f"hs_{s:g}" for s in s_cols]
    header += ["dissipation", "mean", "vmax", "diss_integral", "inj_integral"]
    check_names = []
    for rec in records:
        for c in rec.checks:
            if c.name not in check_names:
                check_names.append(c.name)
    header += check_header(check_names)
    stream.write(",".join(header) + "\n")
    for rec in records:
        row = [_fmt(rec.t)]
        row += [_fmt(rec.lp[p]) for p in p_cols]
        row += [_fmt(rec.hs[s]) for s in s_cols]
        row += [_fmt(rec.dissipation), _fmt(rec.mean), _fmt(rec.vmax),
                _fmt(rec.diss_integral), _fmt(rec.inj_integral)]
        row += check_cells(rec.checks, check_names)
        stream.write(",".join(row) + "\n")


def check_header(names):
    return [f"{name}_{col}" for name in names for col in ("bound", "value", "pass")]


def check_cells(checks, names):
    """The bound, value and pass cells of each named check; nan,nan,1 where absent."""
    by_name = {c.name: c for c in checks}
    row = []
    for name in names:
        c = by_name.get(name)
        if c is None:
            row += ["nan", "nan", "1"]
        else:
            row += [_fmt(c.bound), _fmt(c.value), "1" if c.passed else "0"]
    return row


def _fmt(x):
    """17 significant digits; None and NaN print as nan."""
    return "nan" if x is None else f"{x:.17g}"
