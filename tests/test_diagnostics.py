"""Bound checks against trajectories with known closed forms."""

import csv
import io
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmflow import (DiagnosticsRecord, Domain, PhysicalField, RunConfig, RunResult,
                     SolverParams, StreamRecord, check_absorbing_ball, check_decay_torus,
                     check_dissipation_budget, check_max_bound, cli, dealias,
                     forward_transform, lp_norm, random_field, records_to_csv, run)
from dpmflow.blowup1d import MaxBoundCheck
from dpmflow.diagnostics import (AbsorbingBallCheck, CheckResult, DecayCheck,
                                 DissipationBudgetCheck, RowWriter, record_columns)


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
        assert check.bound == pytest.approx(math.sqrt(2) * math.pi, rel=1e-15, abs=0)
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

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_refuses_p_below_2(self, single_mode_run, p):
        # the decay is proved for p >= 2 only: sin x1 decays at rate nu in
        # every norm, which is slower than the 2 nu / p asked for at p < 2
        with pytest.raises(ValueError, match="p >= 2"):
            check_decay_torus(single_mode_run.records, p, 0.05)
        with pytest.raises(ValueError, match="p >= 2"):
            check_decay_torus(single_mode_run.records, p, 0.05, q=1.0)

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

    @pytest.mark.parametrize("p, sin_norm", [
        (2.0, math.pi * math.sqrt(2.0)),             # (int sin^2 x1 over the torus)^(1/2)
        (4.0, (1.5 * math.pi ** 2) ** 0.25),         # (int sin^4 x1 = 3 pi^2 / 2)^(1/4)
    ], ids=("p2", "p4"))
    def test_bound_is_the_closed_form_of_the_radius(self, d2, p, sin_norm):
        # the radius from the closed form of ||a sin x1||_p, not from lp_norm
        x = d2.grid
        nu, a, b = 0.5, 0.2, 1.0
        forcing = dealias(forward_transform(phys(d2, a * np.sin(x[0]))))
        params = SolverParams(nu=nu, alpha=1.5, dt=5e-3, t_end=1.0)
        res = run(phys(d2, b * np.sin(x[0])), params, forcing, sample_every=0.25, p_list=(p,))
        checks = check_absorbing_ball(res.records, forcing, p, nu)
        assert all(c.passed for c in checks)
        n0, radius = b * sin_norm, p * a * sin_norm / nu
        for rec, c in zip(res.records, checks):
            expected = (n0 - radius) * math.exp(-nu * rec.t / p) + radius
            assert c.bound == pytest.approx(expected, rel=1e-12, abs=0)

    def test_requires_positive_nu(self, d2, single_mode_run):
        with pytest.raises(ValueError, match="nu"):
            check_absorbing_ball(single_mode_run.records, None, 2.0, 0.0)

    def test_refuses_infinite_p(self, single_mode_run):
        with pytest.raises(ValueError, match="finite p"):
            check_absorbing_ball(single_mode_run.records, None, math.inf, 0.05)

    def test_refuses_p_below_2(self):
        # pure 1D diffusion, an exact solution, ends 1.25 times above the
        # p = 1 bound at t = 20, and within the p = 2 bound
        d = Domain((64,))
        x = d.grid[0]
        t0 = phys(d, sum(math.exp(-(k / 8) ** 2) * np.cos(k * x) for k in range(1, 22, 2)))
        res = run(t0, SolverParams(nu=0.1, alpha=2.0, dt=0.05, t_end=20.0), sample_every=1.0)
        first, last = res.records[0], res.records[-1]
        assert last.lp[1.0] / (first.lp[1.0] * math.exp(-0.1 * 20.0)) == pytest.approx(
            1.25, abs=0.01)
        assert all(c.passed for c in check_absorbing_ball(res.records, None, 2.0, 0.1))
        with pytest.raises(ValueError, match="p >= 2"):
            check_absorbing_ball(res.records, None, 1.0, 0.1)


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

    def test_text_cells_and_rows_without_a_check(self):
        # a text cell with a comma and a quote is one quoted cell, read back
        # as written; numbers stay unquoted, and a row with no result of a
        # named check gets nan,nan,1 in its columns
        buf = io.StringIO()
        out = RowWriter(buf, ["point", "code", "metrics"], ["decay"])
        out.row(["pt0000", 2, 'error=a, "b"'], [CheckResult("decay", 1.0, 0.5, True)])
        out.row(["pt0001", 0.5, "x=1"], [])
        text = buf.getvalue()
        assert text.splitlines()[1:] == ['pt0000,2,"error=a, ""b""",1,0.5,1',
                                         "pt0001,0.5,x=1,nan,nan,1"]
        assert text.endswith("1\n") and "\r" not in text
        assert list(csv.reader(io.StringIO(text))) == [
            ["point", "code", "metrics", "decay_bound", "decay_value", "decay_pass"],
            ["pt0000", "2", 'error=a, "b"', "1", "0.5", "1"],
            ["pt0001", "0.5", "x=1", "nan", "nan", "1"]]


def draw_records(data, make, min_size=1):
    """A record sequence of 1 to 8 samples at increasing times, each of
    make(t, draw) with t its time."""
    steps = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=min_size - 1, max_size=7))
    t = data.draw(st.floats(0.0, 5.0))
    records = [make(t, data.draw)]
    for step in steps:
        t += step
        records.append(make(t, data.draw))
    return records


def judged_on_arrival(records, checks, columns):
    """The CSV the CLI writes of records, judged by checks as each arrives,
    and its checks_passed verdict."""
    with tempfile.TemporaryDirectory() as outdir:
        def solve(on_sample):
            for rec in records:
                on_sample(None, rec)
            return RunResult(records, None)

        code, metrics = cli._execute(
            RunConfig({"output.dir": outdir}), [(c.name, c) for c in checks], solve, columns,
            lambda result, ok, outdir: (ok, {}), None, "out.csv")
        with open(f"{outdir}/out.csv", encoding="utf-8", newline="") as fh:
            return fh.read(), metrics["checks_passed"]


def folded(records, folds, names, columns):
    """The CSV of records after each public check_* fold, and its verdict."""
    results = [res for fold in folds for res in fold(records)]
    buf = io.StringIO()
    out = RowWriter(buf, columns(records[0])[0], names)
    for rec in records:
        out.row(columns(rec)[1], rec.checks)
    return buf.getvalue(), all(res.passed for res in results)


class TestJudgedOnArrival:
    """The CLI judges each record as it arrives; the public check_* functions
    fold the same check objects over the list.  Both give the same results
    (name, bound, value, passed), read here from their CSV cells, whose 17
    significant digits tell every two floats apart."""

    @given(data=st.data(), forced=st.booleans(), p=st.sampled_from([2.0, 4.0, math.inf]))
    def test_dpm_checks(self, data, forced, p):
        d = Domain((8, 8))
        forcing = forward_transform(phys(d, 0.3 * np.sin(d.grid[0]))) if forced else None
        nu, slack = 0.1, 1e-6
        norm = st.floats(0.1, 10.0)
        integral = st.floats(0.0, 1.0)

        def record(t, draw):
            return DiagnosticsRecord(
                t=t, lp={q: draw(norm) for q in (1.0, 2.0, 4.0, math.inf)}, hs={0.5: draw(norm)},
                dissipation=draw(norm), mean=0.0, vmax=draw(norm), volume=d.volume,
                diss_integral=t * draw(integral), inj_integral=t * draw(integral))

        records = draw_records(data, record)
        checks = [AbsorbingBallCheck(forcing, 2.0, nu, slack), DissipationBudgetCheck(slack)]
        folds = [lambda recs: check_absorbing_ball(recs, forcing, 2.0, nu, slack),
                 lambda recs: check_dissipation_budget(recs, slack)]
        if not forced:
            checks.insert(0, DecayCheck(p, nu, q=2.0, slack=slack))
            folds.insert(0, lambda recs: check_decay_torus(recs, p, nu, q=2.0, slack=slack))
        names = [c.name for c in checks]
        text, ok = judged_on_arrival(records, checks, record_columns)
        assert (text, ok) == folded(records, folds, names, record_columns)
        # the budget has no result at the first record: nan,nan,1 there
        rows = list(csv.DictReader(io.StringIO(text)))
        first = rows[0]
        assert [first[f"dissipation_budget_{col}"] for col in ("bound", "value", "pass")] == [
            "nan", "nan", "1"]
        assert len(rows) == len(records)
        if len(records) > 1:  # a fold attaches a budget result from the second record on
            assert text == records_to_csv_text(records)

    @staticmethod
    def max_bound_csv(records):
        def columns(rec):
            return ["t", "max", "g"], [rec.t, rec.max_w, rec.g]

        text, ok = judged_on_arrival(records, [MaxBoundCheck(1e-6)], columns)
        assert (text, ok) == folded(records, [check_max_bound], ["max_bound"], columns)
        return text

    @given(data=st.data())
    def test_max_bound(self, data):
        value = st.floats(0.1, 3.0)
        self.max_bound_csv(draw_records(data, lambda t, draw: StreamRecord(
            t=t, l2=draw(value), linf=draw(value), max_w=draw(value), g=draw(value),
            h2=draw(value))))

    def test_max_bound_past_its_horizon(self):
        # Q(t0) = 2: the records at t - t0 >= 1/2 have no result
        text = self.max_bound_csv([StreamRecord(t, 1.0, 1.0, 1.0, 1.0, 1.0)
                                   for t in (0.0, 0.25, 0.5, 0.75)])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["max_bound_bound"] for r in rows] == ["2", "4", "nan", "nan"]
        assert [r["max_bound_pass"] for r in rows] == ["1", "1", "1", "1"]


def records_to_csv_text(records):
    buf = io.StringIO()
    records_to_csv(records, buf)
    return buf.getvalue()
