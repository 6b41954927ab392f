"""Command-line surface: run, blowup1d, sweep, verify.

Exit codes: 0 all enabled checks pass, 1 a sweep point failed with an
unexpected error, 2 a bound or tolerance check failed, 3 blow-up detected
where not expected, 4 malformed configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import math
import os
import sys
import traceback
import warnings
from dataclasses import replace

from . import blowup1d
from .config import (ConfigError, RunConfig, _checked, build_domain, build_forcing,
                     build_initial, build_regularization, build_solver_params,
                     build_stream_initial)
from .diagnostics import (check_absorbing_ball, check_decay_torus,
                          check_dissipation_budget, records_to_csv, write_csv)
from .snapshots import atomic_open, write_snapshot
from .solver import run as run_dpm
from .spectral import inverse_transform

EXIT_OK = 0
EXIT_POINT_FAILED = 1
EXIT_CHECK_FAILED = 2
EXIT_UNEXPECTED_BLOWUP = 3
EXIT_CONFIG_ERROR = 4


def _outdir(cfg):
    path = cfg.get_str("output.dir", default="out")
    os.makedirs(path, exist_ok=True)
    return path


def _in_range(cfg, key, default, positive=False):
    """The number at key: finite, and positive or >= 0 (a tolerance, which at
    NaN would pass or fail every check)."""
    val = cfg.get_float(key, default=default)
    if not (0 < val < math.inf or (val == 0 and not positive)):
        raise ConfigError(f"{key} = {val} must be "
                          + ("positive and finite" if positive else "finite and >= 0"))
    return val


def _execute(cfg, checks, solve, report, save, snapshots=False, allow_blowup=True):
    """Run one command's solver between its checks and its outputs.

    checks are (label, call) pairs, each call judging a record list.  At the
    first record, before the first step, each check's own input rules judge
    a copy of it that keeps no result, and output.dir is made; with
    snapshots, save(path, state) writes each sampled state there.  After
    solve(on_sample) the checks judge the records, report(result, ok, outdir)
    gives the command's verdict, metrics, CSV name and CSV writer, and save
    writes the final state to output.checkpoint.
    """
    outdir = None
    taken = itertools.count()

    def on_sample(state, record):
        nonlocal outdir
        if outdir is None:
            for label, call in checks:
                _checked(label, call, [replace(record, checks=[])])
            outdir = _outdir(cfg)
        if snapshots:
            save(os.path.join(outdir, f"snapshot_{next(taken):05d}.dpmf"), state)

    result = solve(on_sample)
    ok = True
    for _, call in checks:
        ok &= all(r.passed for r in call(result.records))
    ok, metrics, csv_name, write = report(result, ok, outdir)
    with atomic_open(os.path.join(outdir, cfg.get_str("output.csv", default=csv_name)),
                     encoding="utf-8", newline="") as fh:
        write(fh)
    if cfg.values.get("output.checkpoint"):
        save(os.path.join(outdir, cfg.values["output.checkpoint"]), result.final_state)
    metrics.update(blew_up=result.blew_up, checks_passed=ok)
    if result.blew_up and not allow_blowup:
        return EXIT_UNEXPECTED_BLOWUP, metrics
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), metrics


def cmd_run(cfg: RunConfig) -> tuple[int, dict]:
    domain = build_domain(cfg)
    params = build_solver_params(cfg)
    t0_field, start_time = build_initial(cfg, domain)
    forcing = build_forcing(cfg, domain)
    if params.t_end <= start_time:
        raise ConfigError(f"solver.t_end = {params.t_end} must exceed the "
                          f"start time {start_time}")

    p_list = cfg.get_float_list("diagnostics.p_list", default="1, 2, 4, inf")
    s_list = cfg.get_float_list("diagnostics.s_list", default="")
    for p in p_list:
        if not p >= 1:
            raise ConfigError(f"diagnostics.p_list: {p:g} is not an L^p exponent (p >= 1)")
    for s in s_list:
        if not math.isfinite(s):
            raise ConfigError(f"diagnostics.s_list: {s:g} is not a finite Sobolev order")
    sample_every = _in_range(cfg, "diagnostics.sample_every", 0.1, positive=True)
    stride = sample_every / params.dt
    if not params.adaptive and (round(stride) < 1
                                or abs(stride - round(stride)) > 1e-9 * stride):
        # a fixed step shortened to land on each sample would be a step of
        # another size: keep every step at solver.dt
        raise ConfigError(f"diagnostics.sample_every = {sample_every} is not an "
                          f"integer multiple of solver.dt = {params.dt}")
    slack = _in_range(cfg, "diagnostics.slack", 1e-6)
    if "diagnostics.linf_refine" in cfg.values:
        warnings.warn("diagnostics.linf_refine is ignored: the linf column is the sup "
                      "of the trigonometric interpolant", stacklevel=2)
    decay_p = cfg.get_float("diagnostics.decay_p", default=2.0)
    ball_p = cfg.get_float("diagnostics.ball_p", default=2.0)
    # each check by name: its label in messages, and its call on a record list
    table = {
        "decay": (f"decay (diagnostics.decay_p = {decay_p:g})",
                  lambda records: check_decay_torus(records, decay_p, params.nu, slack=slack,
                                                    forcing=forcing)),
        "absorbing_ball": (f"absorbing_ball (diagnostics.ball_p = {ball_p:g})",
                           lambda records: check_absorbing_ball(records, forcing, ball_p,
                                                                params.nu, slack=slack)),
        "dissipation_budget": ("dissipation_budget",
                               lambda records: check_dissipation_budget(records, slack=slack)),
    }
    names = [c.strip() for c in cfg.get_str("diagnostics.checks", default="").split(",")
             if c.strip()]
    for name in names:
        if name not in table:
            raise ConfigError(f"diagnostics.checks: unknown check {name!r} "
                              f"(known: {', '.join(table)})")
    checks = [(f"diagnostics.checks: {label}", call)
              for name, (label, call) in table.items() if name in names]
    allow_blowup = cfg.get_bool("solver.allow_blowup", default=False)

    def report(result, ok, outdir):
        metrics = {"t_final": result.final_state.t,
                   "final_l2": result.records[-1].lp.get(2.0, math.nan)}
        return ok, metrics, "diagnostics.csv", lambda fh: records_to_csv(result.records, fh)

    return _execute(
        cfg, checks,
        lambda on_sample: run_dpm(t0_field, params, forcing, sample_every=sample_every,
                                  p_list=p_list, s_list=s_list, on_sample=on_sample,
                                  start_time=start_time),
        report, lambda path, state: write_snapshot(path, state.t, inverse_transform(state.t_hat)),
        cfg.get_bool("output.snapshots", default=False), allow_blowup)


def cmd_blowup(cfg: RunConfig) -> tuple[int, dict]:
    reg = build_regularization(cfg)
    w0, start_time, start_g = build_stream_initial(cfg)
    dt = _in_range(cfg, "blowup.dt", 1e-4, positive=True)
    t_end = cfg.get_float("blowup.t_end")
    if not start_time < t_end < math.inf:
        raise ConfigError(f"blowup.t_end = {t_end} must be finite and exceed the "
                          f"start time {start_time}")
    sample_every = _in_range(cfg, "blowup.sample_every", 0.01, positive=True)
    threshold = _in_range(cfg, "blowup.threshold", 1e8, positive=True)
    adaptive = cfg.get_bool("blowup.adaptive", default=True)
    oracle_mode = cfg.get_str("blowup.oracle", default="auto",
                              choices=("auto", "on", "off"))
    oracle_rtol = _in_range(cfg, "blowup.oracle_rtol", 1e-5)
    tstar_rtol = _in_range(cfg, "blowup.tstar_rtol", 0.01)
    bound_check = cfg.get_bool("blowup.max_bound_check", default=False)
    slack = _in_range(cfg, "blowup.slack", 1e-6)

    # the closed-form oracle applies to pure-cosine data evolved without
    # regularization, or with the half-Laplacian term under the oracle sign
    ansatz = cfg.values.get("blowup.initial", "cos") == "cos"
    compatible = reg.mode == "none" or (reg.mode == "spectral" and reg.sign == "oracle")
    applicable = ansatz and compatible
    if oracle_mode == "on" and not applicable:
        raise ConfigError("blowup.oracle = on requires cosine initial data and "
                          "mode none or spectral with the oracle sign")
    params = None
    t_star_analytic = math.nan
    if applicable and oracle_mode != "off":
        r0 = cfg.get_float("blowup.amplitude", default=1.0)
        nu_eff = reg.nu if reg.mode == "spectral" else 0.0
        try:
            params = _checked("blowup.oracle", blowup1d.OracleParams, r0=r0, nu=nu_eff)
            t_star_analytic = blowup1d.blowup_time(params)
        except ConfigError:
            if oracle_mode == "on":  # auto goes without an oracle that has no closed form
                raise
    # Q(t0) of the max bound is that of the run's first record: a bad one
    # (a restart whose g outweighs max w) is refused before the first step
    checks = ([("blowup.max_bound_check",
                lambda records: blowup1d.check_max_bound(records, slack=slack))]
              if bound_check else [])

    def report(result, ok, outdir):
        # the oracle columns of each record, nan at and beyond the singular time
        oracle = []
        errs = []
        for rec in result.records:
            beta = r_oracle = math.nan
            if params is not None and rec.t < t_star_analytic * (1 - 1e-12):
                beta = blowup1d.oracle_beta(rec.t, params)
                r_oracle = blowup1d.oracle_r(rec.t, params)
                errs.append(abs(rec.g - beta) / max(abs(beta), 1.0))
            oracle.append((beta, r_oracle))
        g_err = max(errs) if errs else math.nan
        if errs and not g_err <= oracle_rtol:
            ok = False
        # a NaN error (no blow-up, or no estimate of t*) fails its check
        tstar_err = math.nan
        if params is not None:
            if t_star_analytic < t_end:
                if result.blew_up:
                    tstar_err = abs(result.t_star_estimate - t_star_analytic) / t_star_analytic
                if not tstar_err <= tstar_rtol:
                    ok = False
            elif result.blew_up:
                ok = False  # blew up although the closed form says it should not

        with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8",
                         newline="") as fh:
            write_csv(fh, ["blew_up", "t_final", "t_star_est", "t_star_analytic",
                           "t_star_rel_err", "g_oracle_max_rel_err", "checks_passed"],
                      [([result.blew_up, result.final_state.t, result.t_star_estimate,
                         t_star_analytic, tstar_err, g_err, ok], [])])
        return (ok, {"t_star_est": result.t_star_estimate}, "trajectory.csv",
                lambda fh: write_csv(
                    fh, ["t", "l2", "linf", "max", "g", "h2", "oracle_beta", "oracle_r"],
                    (([rec.t, rec.l2, rec.linf, rec.max_w, rec.g, rec.h2, *columns],
                      rec.checks) for rec, columns in zip(result.records, oracle)),
                    ["max_bound"] if bound_check else []))

    return _execute(
        cfg, checks,
        lambda on_sample: blowup1d.run_stream_slope(
            w0, reg, dt, t_end, sample_every=sample_every, threshold=threshold,
            adaptive=adaptive, start_time=start_time, start_g=start_g, on_sample=on_sample),
        report, lambda path, state: write_snapshot(path, state.t, state.w, g=state.g))


def _error_line(exc):
    """The last line of the traceback exc would print."""
    return traceback.format_exception_only(exc)[-1].strip()


def _sweep_worker(args):
    idx, command, text, outdir = args
    try:
        cfg = RunConfig.parse(text)
        cfg.values["output.dir"] = outdir
        code, metrics = (cmd_run if command == "run" else cmd_blowup)(cfg)
    except ConfigError as exc:
        return idx, EXIT_CONFIG_ERROR, {"error": str(exc)}
    except Exception as exc:  # one failing point must not lose the others
        return idx, EXIT_POINT_FAILED, {"error": _error_line(exc)}
    return idx, code, metrics


def cmd_sweep(cfg: RunConfig) -> int:
    command = cfg.get_str("sweep.command", default="run", choices=("run", "blowup1d"))
    workers = cfg.get_int("sweep.workers", default=min(4, os.cpu_count() or 1))
    if workers < 1:
        raise ConfigError(f"sweep.workers = {workers} must be >= 1")
    axes = []
    base = dict(cfg.values)
    for key in sorted(cfg.values):
        if not key.startswith("sweep."):
            continue
        del base[key]
        if key in ("sweep.command", "sweep.workers"):
            continue
        target = key[len("sweep."):]
        options = [v.strip() for v in cfg.values[key].split("|") if v.strip()]
        if not options:
            raise ConfigError(f"{key}: empty sweep axis")
        axes.append((target, options))
    if not axes:
        raise ConfigError("sweep: no sweep.<key> axes given")

    outdir = _outdir(cfg)
    combos = list(itertools.product(*(opts for _, opts in axes)))
    jobs = []
    for idx, combo in enumerate(combos):
        values = dict(base)
        label_parts = []
        for (target, _), val in zip(axes, combo):
            values[target] = val
            label_parts.append(f"{target}={val}")
        label = "__".join(label_parts).replace("/", "_").replace(" ", "")
        subdir = os.path.join(outdir, f"pt{idx:04d}__{label}")
        os.makedirs(subdir, exist_ok=True)
        point = RunConfig(values)
        text = point.serialize()
        with atomic_open(os.path.join(subdir, "config.txt"), encoding="utf-8") as fh:
            fh.write(text)
        jobs.append((idx, command, text, subdir))

    # the summary is rewritten as each point finishes, so that an
    # interrupted sweep keeps the rows of the points it has
    keys = [t for t, _ in axes]
    rows = [["point"] + keys + ["exit_code", "metrics"]]
    codes = []
    # a fork-context pool starts all its workers at the first submit
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(_sweep_worker, job) for job in jobs]
        try:
            for idx, (combo, fut) in enumerate(zip(combos, futures)):
                try:
                    _, code, metrics = fut.result()
                except concurrent.futures.BrokenExecutor as exc:  # a worker process died
                    code, metrics = EXIT_POINT_FAILED, {"error": _error_line(exc)}
                codes.append(code)
                metric_text = ";".join(f"{k}={v}" for k, v in sorted(metrics.items()))
                rows.append([f"pt{idx:04d}", *combo, str(code), metric_text])
                with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8",
                                 newline="") as fh:
                    csv.writer(fh, lineterminator="\n").writerows(rows)
        except BaseException:
            # start no queued point; those the pool has handed on still finish
            pool.shutdown(cancel_futures=True)
            raise

    for severity in (EXIT_POINT_FAILED, EXIT_CONFIG_ERROR, EXIT_UNEXPECTED_BLOWUP,
                     EXIT_CHECK_FAILED):
        if severity in codes:
            return severity
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpmflow",
        description="Pseudo-spectral solver for heat transport in a porous "
                    "medium with fractional diffusion")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("run", "integrate the transport system and write diagnostics"),
            ("blowup1d", "integrate the 1D stream-slope system with oracle columns"),
            ("sweep", "Cartesian parameter sweep, one subdirectory per point")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to a key-value config file")
    sub.add_parser("verify", help="run the built-in identity suite")

    args = parser.parse_args(argv)
    if args.command == "verify":
        from .verify import run_verify
        return EXIT_OK if run_verify() == 0 else EXIT_CHECK_FAILED

    try:
        cfg = RunConfig.load(args.config)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        code, metrics = (cmd_run if args.command == "run" else cmd_blowup)(cfg)
        print(f"exit={code} " + " ".join(f"{k}={v}" for k, v in sorted(metrics.items())))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
