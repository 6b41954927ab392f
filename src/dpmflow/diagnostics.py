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
    volume: float  # of the box, for norm comparisons across p
    diss_integral: float = 0.0
    inj_integral: float = 0.0
    checks: list = field(default_factory=list)


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
                             vmax=vmax, volume=d.volume,
                             diss_integral=diss_integral, inj_integral=inj_integral)


def _norm_from_record(rec, p):
    try:
        return rec.lp[float(p)]
    except KeyError:
        raise KeyError(f"record at t={rec.t} does not carry the L^{p} norm") from None


def attach_checks(name, rows, slack, floor):
    """Judge value <= bound * (1 + slack) + floor for each (record, bound,
    value) row, attaching the CheckResult to its record; returns the results."""
    results = []
    for rec, bound, value in rows:
        res = CheckResult(name, bound, value, value <= bound * (1.0 + slack) + floor)
        rec.checks.append(res)
        results.append(res)
    return results


def check_decay_torus(records, p, nu, q=None, slack=1e-6, forcing=None):
    """Exponential decay of unforced mean-zero solutions on the torus.

    Verifies ||T(t)||_q <= ||T(t0)||_p * exp(-2 nu (t - t0) / p) per record,
    with q = p by default and t0 and ||T(t0)||_p from the first record.  For
    q < p the comparison needs the measure normalization relating L^q and
    L^p on the box the records carry: the bound is multiplied by
    volume^(1/q - 1/p), which makes q = p the binding case.  Forced runs (a
    forcing spectrum that is not zero) and data whose mean is not zero are
    refused: the bound does not apply.  The rate is 2 nu lambda1^alpha / p,
    and lambda1 = 1 on the 2 pi box, so no bound here depends on alpha.
    """
    if forcing is not None and np.abs(forcing.coeffs).max() > 0:
        raise ValueError("decay check applies to unforced runs only")
    p = float(p)
    q = p if q is None else float(q)
    if not 1.0 <= q <= p:
        raise ValueError(f"q must lie in [1, p], got q={q}, p={p}")
    first = records[0]
    n0 = _norm_from_record(first, p)
    # the mean part's L^p norm against the data's; at p = inf, _check_mean_zero's test
    if abs(first.mean) * first.volume ** (1.0 / p) > 1e-10 * max(1.0, n0):
        raise ValueError(f"decay check applies to mean-zero data, got mean {first.mean:.3e}")
    rate = 2.0 * nu / p
    volfac = first.volume ** (1.0 / q - 1.0 / p)
    return attach_checks("decay", ((rec, volfac * n0 * math.exp(-rate * (rec.t - first.t)),
                                    _norm_from_record(rec, q)) for rec in records),
                         slack, 1e-14 * n0)


def check_absorbing_ball(records, forcing, p, nu, slack=1e-6):
    """Forced absorbing-ball estimate in L^p.

    Verifies, per record,
      ||T(t)||_p <= (||T(t0)||_p - R) exp(-nu (t - t0) / p) + R,
    with t0 and ||T(t0)||_p from the first record and ball radius
    R = p ||f||_p / nu, f the forcing spectrum (None for no forcing).  With
    f = 0 this degenerates to the unforced decay bound at q = p.  As in
    check_decay_torus, lambda1^alpha = 1 on the 2 pi box.
    """
    if nu <= 0:
        raise ValueError("absorbing ball requires nu > 0")
    p = float(p)
    if p == math.inf:
        raise ValueError("absorbing ball needs a finite p: the radius p ||f||_p / nu is infinite")
    first = records[0]
    n0 = _norm_from_record(first, p)
    radius = 0.0 if forcing is None else p * lp_norm(inverse_transform(forcing), p) / nu
    rate = nu / p
    return attach_checks("absorbing_ball",
                         ((rec, (n0 - radius) * math.exp(-rate * (rec.t - first.t)) + radius,
                           _norm_from_record(rec, p)) for rec in records),
                         slack, 1e-14 * max(n0, radius))


def check_dissipation_budget(records, slack=1e-6):
    """Discrete energy budget between consecutive samples.

    Verifies the normalized residual of
      ||T(t2)||_2^2 + 2 nu int ||Lambda^(alpha/2) T||_2^2 ds
        <= ||T(t1)||_2^2 + 2 int (f, T) ds
    for every consecutive record pair, with the integrals from the solver's
    own step-resolution accumulation (the diss_integral / inj_integral
    columns).  The residual's bound is slack itself.
    """
    def rows():
        for prev, rec in zip(records, records[1:]):
            e0 = _norm_from_record(prev, 2.0) ** 2
            e1 = _norm_from_record(rec, 2.0) ** 2
            diss = 2.0 * (rec.diss_integral - prev.diss_integral)
            inj = 2.0 * (rec.inj_integral - prev.inj_integral)
            yield rec, slack, (e1 - e0 + diss - inj) / max(1.0, e0)

    return attach_checks("dissipation_budget", rows(), 0.0, 0.0)


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
    write_csv(stream, header,
              (([rec.t, *(rec.lp[p] for p in p_cols), *(rec.hs[s] for s in s_cols),
                 rec.dissipation, rec.mean, rec.vmax, rec.diss_integral, rec.inj_integral],
                rec.checks) for rec in records),
              check_names)


def write_csv(stream, header, rows, check_names=()):
    """Write the header, then one line per (numbers, checks) row.

    Numbers print with _fmt; after them come the bound, value and pass cells
    of each named check (columns <name>_bound, <name>_value, <name>_pass),
    nan,nan,1 where the row has no check of that name.  Booleans print as
    1 and 0.
    """
    stream.write(",".join(header + [f"{name}_{col}" for name in check_names
                                    for col in ("bound", "value", "pass")]) + "\n")
    for numbers, checks in rows:
        by_name = {c.name: c for c in checks}
        row = [_fmt(x) for x in numbers]
        for name in check_names:
            c = by_name.get(name)
            row += (["nan", "nan", "1"] if c is None
                    else [_fmt(c.bound), _fmt(c.value), _fmt(c.passed)])
        stream.write(",".join(row) + "\n")


def _fmt(x):
    """17 significant digits; None and NaN print as nan, booleans as 1 and 0."""
    return "nan" if x is None else f"{x:.17g}"
