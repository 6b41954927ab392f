"""Time-stamped norms and runtime verification of the analytic bounds.

Each trajectory sample is reduced to a DiagnosticsRecord (norms, dissipation,
mean, velocity maximum, cumulative budget integrals).  Each check of the
decay, absorbing-ball and energy-budget estimates and of the maximum
principle is an object that judges a run's first record and then each
record against the one before, so a run judges its records as they
arrive; the check functions fold a check over a stored record list and
attach its results, deterministically.

Every inequality carries one relative slack, SLACK (1e-6), that covers
resolution and quadrature error.  The sup norm is that of the trigonometric
interpolant, its grid maxima polished by Newton steps (spectral.sup_norm), so
that an extremum translating between collocation points does not masquerade
as growth at that slack.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import hs_seminorm, inverse_transform, lp_norm, sup_norm

# the relative slack of every check: the module docstring says why
SLACK = 1e-6


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
        raise ValueError(f"record at t={rec.t} does not carry the L^{p:g} norm") from None


def judged(name, bound, value, floor):
    """The CheckResult of value <= bound * (1 + SLACK) + floor."""
    return CheckResult(name, bound, value, value <= bound * (1.0 + SLACK) + floor)


def fold(check, records):
    """Judge a record list as a run judges its records: check.first on the
    first, check.judge on each later one and the one before.  Each result
    (None is no result) is attached to its record, and the results returned."""
    results = [check.first(records[0])] if records else []
    results += [check.judge(prev, rec) for prev, rec in zip(records, records[1:])]
    for rec, res in zip(records, results):
        if res is not None:
            rec.checks.append(res)
    return [res for res in results if res is not None]


class DecayCheck:
    """Exponential decay of unforced mean-zero solutions on the torus.

    Verifies ||T(t)||_q <= ||T(t0)||_p * exp(-2 nu (t - t0) / p) per record,
    with q = p by default and t0 and ||T(t0)||_p from the first record.  For
    q < p the comparison needs the measure normalization relating L^q and
    L^p on the box the records carry: the bound is multiplied by
    volume^(1/q - 1/p), which makes q = p the binding case.  The bound does
    not apply, and is refused, at p < 2 (the paper's proof needs p >= 2,
    and no rate above nu can hold there: a single mode decays at the rate
    nu in every L^p norm, slower than 2 nu / p when p < 2), for forced runs
    (a forcing spectrum that is not zero) and for data whose mean is not
    zero.  The rate is 2 nu lambda1^alpha / p, and lambda1 = 1 on the 2 pi
    box, so no bound here depends on alpha.
    """

    name = "decay"

    def __init__(self, p, nu, q=None, forcing=None):
        self.p = float(p)
        self.q = self.p if q is None else float(q)
        self.nu, self.forcing = nu, forcing

    def first(self, record):
        p, q = self.p, self.q
        if self.forcing is not None and np.abs(self.forcing.coeffs).max() > 0:
            raise ValueError("decay check applies to unforced runs only")
        if not p >= 2.0:
            raise ValueError(f"decay is proved for p >= 2 only, got p={p:g}")
        if not 1.0 <= q <= p:
            raise ValueError(f"q must lie in [1, p], got q={q}, p={p}")
        self.t0, self.n0 = record.t, _norm_from_record(record, p)
        # the mean part's L^p norm against the data's; at p = inf, _check_mean_zero's test
        if abs(record.mean) * record.volume ** (1.0 / p) > 1e-10 * max(1.0, self.n0):
            raise ValueError(f"decay check applies to mean-zero data, got mean {record.mean:.3e}")
        self.rate = 2.0 * self.nu / p
        self.volfac = record.volume ** (1.0 / q - 1.0 / p)
        return self.judge(record, record)

    def judge(self, previous, record):
        bound = self.volfac * self.n0 * math.exp(-self.rate * (record.t - self.t0))
        return judged(self.name, bound, _norm_from_record(record, self.q), 1e-14 * self.n0)


class AbsorbingBallCheck:
    """Forced absorbing-ball estimate in L^p.

    Verifies, per record,
      ||T(t)||_p <= (||T(t0)||_p - R) exp(-nu (t - t0) / p) + R,
    with t0 and ||T(t0)||_p from the first record and ball radius
    R = p ||f||_p / nu, f the forcing spectrum (None for no forcing).  With
    f = 0 this is the unforced decay bound at q = p, but at the rate nu / p,
    half the 2 nu / p of DecayCheck.  As there, lambda1^alpha = 1 on the
    2 pi box, and p < 2, which the proof does not reach, is refused: the
    k = +-1 part of the 1D data sum_{k odd <= 21} exp(-(k/8)^2) cos kx
    outweighs them in L^1, and decays at the p = 1 rate nu, so at nu = 0.1
    diffusion ends 1.25 times above that bound at t = 20.
    """

    name = "absorbing_ball"

    def __init__(self, forcing, p, nu):
        self.forcing, self.p, self.nu = forcing, float(p), nu

    def first(self, record):
        p, nu, forcing = self.p, self.nu, self.forcing
        if nu <= 0:
            raise ValueError("absorbing ball requires nu > 0")
        if not 2.0 <= p < math.inf:
            raise ValueError(f"absorbing ball needs a finite p >= 2, got p={p:g} (proved for "
                             "p >= 2 only; the radius p ||f||_p / nu is infinite at p = inf)")
        self.t0, self.n0 = record.t, _norm_from_record(record, p)
        self.radius = 0.0 if forcing is None else p * lp_norm(inverse_transform(forcing), p) / nu
        self.rate = nu / p
        return self.judge(record, record)

    def judge(self, previous, record):
        bound = (self.n0 - self.radius) * math.exp(-self.rate * (record.t - self.t0)) + self.radius
        return judged(self.name, bound, _norm_from_record(record, self.p),
                      1e-14 * max(self.n0, self.radius))


class DissipationBudgetCheck:
    """Discrete energy budget between consecutive samples.

    Verifies the normalized residual of
      ||T(t2)||_2^2 + 2 nu int ||Lambda^(alpha/2) T||_2^2 ds
        <= ||T(t1)||_2^2 + 2 int (f, T) ds
    for every consecutive record pair, with the integrals from the solver's
    own step-resolution accumulation (the diss_integral / inj_integral
    columns).  The residual's bound is SLACK itself, with no relative
    factor.  The first record, which has no pair and so no result, must
    carry the L^2 norm.
    """

    name = "dissipation_budget"

    def first(self, record):
        _norm_from_record(record, 2.0)

    def judge(self, previous, record):
        e0 = _norm_from_record(previous, 2.0) ** 2
        e1 = _norm_from_record(record, 2.0) ** 2
        diss = 2.0 * (record.diss_integral - previous.diss_integral)
        inj = 2.0 * (record.inj_integral - previous.inj_integral)
        value = (e1 - e0 + diss - inj) / max(1.0, e0)
        return CheckResult(self.name, SLACK, value, value <= SLACK)


class MaxPrincipleCheck:
    """The maximum principle ||T(t)||_inf <= ||T(t0)||_inf + (t - t0) ||f||_inf.

    At a maximum of T the advection term vanishes and Lambda^alpha T >= 0
    (Cordoba & Cordoba, Comm. Math. Phys. 249, 2004), so max T grows no
    faster than ||f||_inf, for every alpha in [0, 2]; likewise min T.  t0
    and ||T(t0)||_inf come from the first record, and ||f||_inf is the sup
    of the forcing spectrum (None for no forcing).  A solution of the PDE
    cannot break it, so a record beyond the relative slack SLACK is a
    numerical failure, most likely under-resolution: solver.run judges its
    records against it and warns at the first that fails.
    """

    name = "max_principle"

    def __init__(self, forcing):
        self.forcing = forcing

    def first(self, record):
        f = self.forcing
        self.t0, self.n0 = record.t, _norm_from_record(record, math.inf)
        self.f_sup = 0.0 if f is None else sup_norm(f.coeffs, f.domain)
        return self.judge(record, record)

    def judge(self, previous, record):
        bound = self.n0 + (record.t - self.t0) * self.f_sup
        return judged(self.name, bound, _norm_from_record(record, math.inf), 0.0)


def check_decay_torus(records, p, nu, q=None, forcing=None):
    """DecayCheck folded over a record list."""
    return fold(DecayCheck(p, nu, q, forcing), records)


def check_absorbing_ball(records, forcing, p, nu):
    """AbsorbingBallCheck folded over a record list."""
    return fold(AbsorbingBallCheck(forcing, p, nu), records)


def check_dissipation_budget(records):
    """DissipationBudgetCheck folded over a record list."""
    return fold(DissipationBudgetCheck(), records)


def record_columns(rec):
    """(column names, cells) of a DiagnosticsRecord's CSV row, before any check's."""
    p_cols = sorted(rec.lp)
    s_cols = sorted(rec.hs)
    names = ["t"] + ["linf" if p == math.inf else f"l{p:g}" for p in p_cols]
    names += [f"hs_{s:g}" for s in s_cols]
    names += ["dissipation", "mean", "vmax", "diss_integral", "inj_integral"]
    return names, [rec.t, *(rec.lp[p] for p in p_cols), *(rec.hs[s] for s in s_cols),
                   rec.dissipation, rec.mean, rec.vmax, rec.diss_integral, rec.inj_integral]


def records_to_csv(records, stream):
    """Write records as deterministic CSV (17 significant digits), with the
    columns of every check attached to any of them."""
    if not records:
        stream.write("t\n")
        return
    check_names = list(dict.fromkeys(c.name for rec in records for c in rec.checks))
    out = RowWriter(stream, record_columns(records[0])[0], check_names)
    for rec in records:
        out.row(record_columns(rec)[1], rec.checks)


class RowWriter:
    """CSV through csv.writer: the header at once, then a line per row, each
    flushed as it is written, so that a killed process leaves every line it
    wrote.

    Cells print with _fmt; after them come the bound, value and pass cells
    of each named check (columns <name>_bound, <name>_value, <name>_pass),
    nan,nan,1 where the row has no check of that name.  Only a text cell
    holding a comma, a quote or a line break is quoted.
    """

    def __init__(self, stream, header, check_names=()):
        self.stream = stream
        self.out = csv.writer(stream, lineterminator="\n")
        self.check_names = list(check_names)
        self.out.writerow(header + [f"{name}_{col}" for name in self.check_names
                                    for col in ("bound", "value", "pass")])

    def row(self, cells, checks):
        by_name = {c.name: c for c in checks}
        row = [_fmt(x) for x in cells]
        for name in self.check_names:
            c = by_name.get(name)
            row += (["nan", "nan", "1"] if c is None
                    else [_fmt(c.bound), _fmt(c.value), _fmt(c.passed)])
        self.out.writerow(row)
        self.stream.flush()


def _fmt(x):
    """Text as it is; 17 significant digits, None and NaN as nan, booleans as 1 and 0."""
    if isinstance(x, str):
        return x
    return "nan" if x is None else f"{x:.17g}"
