#!/usr/bin/env python3
"""Planted bugs that the test suite must catch: a committed list of mutants.

    python3 tools/mutants.py

Each entry of MUTANTS names one textual edit in one file under src/ and the
tests that must catch it (its killers).  For each entry the repository that
holds this script is copied to a temporary directory, the edit is made
there, and the killers run there with pytest; the mutant is killed when at
least one of them fails or they run longer than TIMEOUT seconds.  One line
is printed per mutant:

    <name> | killed by <first failing test> | <seconds>

or `SURVIVED` in place of the killer.  The exit code is 0 when every mutant
is killed and 1 otherwise.  The copies live in temporary directories, so
the repository's files stay as they are.  The run takes minutes, so it is
not part of the test suite; tests/test_mutants.py only checks, fast, that
each entry's old text still occurs exactly once in its file and that its
killers still exist.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str        # relative to the checkout
    old: str         # must occur exactly once in path
    new: str
    killers: tuple   # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant("2/3 cutoff one mode wider", "src/dpmflow/spectral.py",
           "cuts = [m // 3 for m in domain.n]", "cuts = [m // 3 + 1 for m in domain.n]",
           ("tests/test_half_spectrum.py", "tests/test_spectral.py")),
    Mutant("IF-RK4 weight of the middle stages", "src/dpmflow/solver.py",
           "np.multiply(2.0, e_half, out=two_e_half)", "np.multiply(2.1, e_half, out=two_e_half)",
           ("tests/test_solver.py::TestStep::test_ifrk4_converges_at_fourth_order",
            "tests/test_blowup1d.py::TestTrajectories::test_ifrk4_converges_at_fourth_order")),
    Mutant("zero-symbol RK4 weight of the middle stages", "src/dpmflow/solver.py",
           "return None, None, 2.0", "return None, None, 2.1",
           ("tests/test_solver.py::TestStep"
            "::test_zero_symbol_step_is_the_step_with_unit_propagators",
            "tests/test_blowup1d.py::TestTrajectories::test_ifrk4_converges_at_fourth_order")),
    Mutant("1D forward kernel without its 1/n", "src/dpmflow/blowup1d.py",
           "pocketfft.rfft_n_even(prod, shrink / self.n,", "pocketfft.rfft_n_even(prod, shrink,",
           ("tests/test_identities.py", "tests/test_blowup1d.py::TestStreamRhs")),
    Mutant("DPM forward kernel without its 1/n", "src/dpmflow/solver.py",
           "pocketfft.rfft_n_even(phys[1:], 1.0 / d.n[-1],",
           "pocketfft.rfft_n_even(phys[1:], 1.0,",
           ("tests/test_identities.py",
            "tests/test_half_spectrum.py::test_nonlinear_term_matches_fftn",
            "tests/test_solver.py::TestStep::test_ifrk4_converges_at_fourth_order")),
    Mutant("1D seam at x = 0", "src/dpmflow/blowup1d.py",
           "self.seam = n // 2", "self.seam = 0",
           ("tests/test_identities.py", "tests/test_blowup1d.py::TestAntiderivative",
            "tests/test_blowup1d.py::TestStreamRhs")),
    Mutant("1D antiderivative sign", "src/dpmflow/blowup1d.py",
           "self.inv_ik[kd != 0] = 1.0 / self.ik[kd != 0]",
           "self.inv_ik[kd != 0] = -1.0 / self.ik[kd != 0]",
           ("tests/test_identities.py", "tests/test_blowup1d.py::TestAntiderivative",
            "tests/test_blowup1d.py::TestStreamRhs")),
    Mutant("1D dg factor", "src/dpmflow/blowup1d.py",
           "dg = (2.0 / self.n)", "dg = (1.0 / self.n)",
           ("tests/test_identities.py", "tests/test_blowup1d.py::TestStreamRhs",
            "tests/test_blowup1d.py::TestTrajectories::test_g_equals_quadrature_of_l2")),
    Mutant("1D record l2 of order 1", "src/dpmflow/blowup1d.py",
           "l2=hs_seminorm(wh, 0.0)", "l2=hs_seminorm(wh, 1.0)",
           ("tests/test_blowup1d.py::TestTrajectories"
            "::test_records_hold_the_norms_of_their_states",)),
    Mutant("CSV check cells of a row without the check", "src/dpmflow/diagnostics.py",
           '["nan", "nan", "1"]', '["nan", "nan", "0"]',
           ("tests/test_diagnostics.py::TestCsv",)),
    Mutant("Darcy multiplier sign on the buoyancy axis", "src/dpmflow/velocity.py",
           "m = kj * kN / safe - 1.0", "m = 1.0 - kj * kN / safe",
           ("tests/test_velocity.py",)),
    Mutant("buoyancy on the first axis", "src/dpmflow/velocity.py",
           "N = len(k) - 1", "N = 0",
           ("tests/test_velocity.py",)),
    Mutant("Parseval weight 2 on the last axis' Nyquist mode", "src/dpmflow/spectral.py",
           "(k_last == 0) | (k_last == -(n_last // 2))", "(k_last == 0)",
           ("tests/test_identities.py", "tests/test_half_spectrum.py")),
    Mutant("budget quadrature slope term sign", "src/dpmflow/solver.py",
           "(dt * dt / 12.0) * (df0 - df1)", "(dt * dt / 12.0) * (df1 - df0)",
           ("tests/test_solver.py", "tests/test_diagnostics.py")),
    Mutant("mean pin ignores the start time", "src/dpmflow/solver.py",
           "c[idx0] = mean0 + (t - start_time) * f0", "c[idx0] = mean0 + t * f0",
           ("tests/test_solver.py::TestRun::test_mean_evolves_linearly",)),
    Mutant("1D seam pin dropped from the tendency", "src/dpmflow/blowup1d.py",
           "f -= f[self.seam]", "f -= 0.0",
           ("tests/test_blowup1d.py::TestStreamRhs",)),
    Mutant("1D tendency without its e^(-G)", "src/dpmflow/blowup1d.py",
           "shrink = _exp(-big_g)", "shrink = 1.0",
           ("tests/test_half_spectrum.py::test_stream_slope_advance_matches_fft",)),
    Mutant("1D growth factor G held fixed", "src/dpmflow/blowup1d.py",
           "out[-1] = g", "out[-1] = 0.0",
           ("tests/test_blowup1d.py::TestTrajectories::test_inviscid_ansatz_matches_tangent",
            "tests/test_half_spectrum.py::test_stream_slope_advance_matches_fft")),
    Mutant("1D growth factor raises past the float range", "src/dpmflow/blowup1d.py",
           "return math.inf", "raise",
           ("tests/test_cli.py::TestBlowupCommand::test_nan_t_star_estimate_exits_2",)),
    Mutant("1D step without the advective cap", "src/dpmflow/blowup1d.py",
           "return min(h, max(dt / growth, ops.cfl_dt()))", "return h",
           ("tests/test_blowup1d.py::TestTrajectories::test_steps_keep_to_the_advective_bound",)),
    Mutant("1D step growth x^(1/5)", "src/dpmflow/blowup1d.py",
           "STEP_GROWTH_EXPONENT = 0.15", "STEP_GROWTH_EXPONENT = 0.2",
           ("tests/test_blowup1d.py::TestTrajectories"
            "::test_late_steps_grow_within_the_oracle_tolerance",)),
    Mutant("1D growth factor never folded into v", "src/dpmflow/blowup1d.py",
           "if abs(big_g) > GROWTH_FOLD:", "if False:",
           ("tests/test_blowup1d.py::TestTrajectories"
            "::test_long_regular_runs_keep_the_growth_factor_in_range",)),
    Mutant("1D sup norm read before re-evaluating", "src/dpmflow/blowup1d.py",
           "tendency = evaluate(x)\n        wmax = ops.last_wmax",
           "wmax = ops.last_wmax\n        tendency = evaluate(x)",
           ("tests/test_blowup1d.py::TestTrajectories"
            "::test_no_step_follows_the_first_state_past_the_threshold",
            "tests/test_blowup1d.py::TestTrajectories::test_blowup_detection_and_estimate")),
    Mutant("decay rate 2.2 nu / p", "src/dpmflow/diagnostics.py",
           "self.rate = 2.0 * self.nu / p", "self.rate = 2.2 * self.nu / p",
           ("tests/test_diagnostics.py::TestDecayCheck",)),
    Mutant("decay check accepts p < 2", "src/dpmflow/diagnostics.py",
           "if not p >= 2.0:", "if not p >= 1.0:",
           ("tests/test_diagnostics.py::TestDecayCheck::test_refuses_p_below_2",
            "tests/test_cli.py::test_bad_input_exits_4")),
    Mutant("row writer skips its flush", "src/dpmflow/diagnostics.py",
           "self.stream.flush()", "None",
           ("tests/test_cli.py::TestRunCommand::test_killed_run_keeps_the_rows_it_judged",)),
    Mutant("sample clock without tolerance", "src/dpmflow/solver.py",
           "self.eps = 1e-12 * max(1.0, abs(t_end))", "self.eps = 0.0",
           ("tests/test_solver.py", "tests/test_blowup1d.py::TestTrajectories")),
    Mutant("stride rule tolerance 0.5", "src/dpmflow/cli.py",
           "> 1e-9 * stride", "> 0.5 * stride",
           ("tests/test_cli.py::test_bad_input_exits_4", "tests/test_cli.py::TestRunCommand")),
    Mutant("fixed-step run length unchecked", "src/dpmflow/cli.py",
           '_check_stride("solver.t_end - start time", params.t_end - start_time, "solver.dt",\n'
           '                      params.dt)',
           "None",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("fixed-step 1D run length unchecked", "src/dpmflow/cli.py",
           '_check_stride("blowup.t_end - start time", t_end - start_time, "blowup.dt", dt)',
           "None",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("sweep runs one point more than sweep.workers at once", "src/dpmflow/cli.py",
           "len(running) < workers", "len(running) <= workers",
           ("tests/test_cli.py::TestSweep::test_each_point_runs_in_a_process_of_its_own",)),
    Mutant("interrupted sweep leaves its live points running", "src/dpmflow/cli.py",
           "proc.kill()", "None",
           ("tests/test_cli.py::TestSweep::test_interrupted_sweep_starts_no_further_point",)),
    Mutant("run builds every check before it reads diagnostics.checks", "src/dpmflow/cli.py",
           '    table = {"decay": decay, "absorbing_ball": absorbing_ball,\n'
           '             "dissipation_budget": lambda: ("dissipation_budget", '
           'DissipationBudgetCheck())}',
           '    built = {"decay": decay(), "absorbing_ball": absorbing_ball(),\n'
           '             "dissipation_budget": ("dissipation_budget", DissipationBudgetCheck())}\n'
           "    table = {name: (lambda pair=pair: pair) for name, pair in built.items()}",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("g verdict ignores ORACLE_RTOL", "src/dpmflow/cli.py",
           "if errs and not g_err <= blowup1d.ORACLE_RTOL:", "if errs and not g_err <= 1e-5:",
           ("tests/test_cli.py::TestBlowupCommand::test_unattainable_oracle_tolerance_exits_2",)),
    Mutant("t* verdict ignores TSTAR_RTOL", "src/dpmflow/cli.py",
           "if not tstar_err <= blowup1d.TSTAR_RTOL:", "if not tstar_err <= 0.01:",
           ("tests/test_cli.py::TestBlowupCommand::test_zero_t_star_tolerance_fails_a_blowup",)),
    Mutant("absorbing ball accepts p < 2", "src/dpmflow/diagnostics.py",
           "if not 2.0 <= p < math.inf:", "if not 1.0 <= p < math.inf:",
           ("tests/test_diagnostics.py::TestAbsorbingBallCheck::test_refuses_p_below_2",
            "tests/test_cli.py::test_bad_input_exits_4")),
    Mutant("unread config keys accepted", "src/dpmflow/cli.py",
           "cfg.refuse_unread()", "None",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("sweep point config names the sweep's own output.dir", "src/dpmflow/cli.py",
           'values["output.dir"] = subdir', 'values["output.dir"] = outdir',
           ("tests/test_cli.py::TestSweep::test_a_point_config_reruns_that_point_alone",)),
    Mutant("max_bound denominator 1 - 0.9 q0 (t - t0)", "src/dpmflow/blowup1d.py",
           "q0 / (1.0 - q0 * elapsed)", "q0 / (1.0 - 0.9 * q0 * elapsed)",
           ("tests/test_blowup1d.py::TestMaxBound"
            "::test_bound_is_the_closed_form_from_the_first_record",)),
    Mutant("maximum-principle bound without its forcing term", "src/dpmflow/diagnostics.py",
           "bound = self.n0 + (record.t - self.t0) * self.f_sup", "bound = self.n0",
           ("tests/test_solver.py::TestMaxPrinciple::test_forced_growth_inside_the_bound",)),
    Mutant("maximum-principle bound from the latest record's linf", "src/dpmflow/diagnostics.py",
           "bound = self.n0 + (record.t - self.t0) * self.f_sup",
           "bound = _norm_from_record(record, math.inf) + (record.t - self.t0) * self.f_sup",
           ("tests/test_solver.py::TestMaxPrinciple"
            "::test_under_resolved_run_warns_at_its_first_breach",)),
    Mutant("initial-tail warning at 1e-6 of the peak", "src/dpmflow/spectral.py",
           "TAIL_LEVEL = 1e-10", "TAIL_LEVEL = 1e-6",
           ("tests/test_solver.py::TestRun::test_marginally_resolved_from_a_tail_of_1e_10",)),
    Mutant("absorbing-ball radius 1.2 p ||f||_p / nu", "src/dpmflow/diagnostics.py",
           "else p * lp_norm(inverse_transform(forcing), p) / nu",
           "else 1.2 * p * lp_norm(inverse_transform(forcing), p) / nu",
           ("tests/test_diagnostics.py::TestAbsorbingBallCheck"
            "::test_bound_is_the_closed_form_of_the_radius",)),
    Mutant("check slack 1e-3", "src/dpmflow/diagnostics.py",
           "SLACK = 1e-6", "SLACK = 1e-3",
           ("tests/test_diagnostics.py::TestPassFailBoundary",)),
    Mutant("CFL safety 1.0", "src/dpmflow/solver.py",
           "CFL_SAFETY = 0.9", "CFL_SAFETY = 1.0",
           ("tests/test_solver.py::TestCfl",)),
    Mutant("box rule one mode wider", "src/dpmflow/config.py",
           "cuts = [m // 3 for m in domain.n]", "cuts = [m // 2 for m in domain.n]",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("output path may leave output.dir", "src/dpmflow/cli.py",
           "os.path.isabs(name) or head in (os.curdir, os.pardir)", "os.path.isabs(name)",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("outputs may share a file", "src/dpmflow/cli.py",
           "if owner is not None:", "if False:",
           ("tests/test_cli.py::test_bad_input_exits_4",)),
    Mutant("BLAS thread default dropped", "src/dpmflow/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")', "None",
           ("tests/test_cli.py::TestBlasThreads::test_numpy_loads_with_one_blas_thread",)),
    Mutant("BLAS thread default overrides the user", "src/dpmflow/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
           'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
           ("tests/test_cli.py::TestBlasThreads::test_a_thread_count_the_user_set_wins",)),
)

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600.0  # seconds a mutant's killers may run

# a node id, whose parameter ids may hold spaces, then " - <message>" or nothing
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?\[.*?\]|\S+)(?= - |$)", re.MULTILINE)


def run_mutant(mutant):
    """(killer or None, seconds) of one mutant, run in a copy of CHECKOUT."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(CHECKOUT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        target = os.path.join(copy, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} does not occur exactly once "
                             f"in {mutant.path}")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(copy, "src")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.killers], cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"(timeout after {TIMEOUT:g} s)", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return None, seconds
    if proc.returncode not in (1, 2):  # 2: a module the mutant broke fails to import
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    found = _FAILED.search(proc.stdout)
    return (found.group(1) if found else "(a failing test)"), seconds


def main():
    survivors = 0
    for mutant in MUTANTS:
        killer, seconds = run_mutant(mutant)
        survivors += killer is None
        verdict = "SURVIVED" if killer is None else f"killed by {killer}"
        print(f"{mutant.name} | {verdict} | {seconds:.1f}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
