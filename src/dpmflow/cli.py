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

import numpy as np

from . import blowup1d
from .config import (ConfigError, RunConfig, build_domain, build_forcing,
                     build_initial, build_regularization, build_solver_params,
                     build_stream_initial)
from .diagnostics import (_fmt, check_absorbing_ball, check_cells, check_decay_torus,
                          check_dissipation_budget, check_header, records_to_csv)
from .snapshots import atomic_open, read_snapshot, write_snapshot
from .solver import run as run_dpm
from .spectral import inverse_transform, lp_norm

EXIT_OK = 0
EXIT_POINT_FAILED = 1
EXIT_CHECK_FAILED = 2
EXIT_UNEXPECTED_BLOWUP = 3
EXIT_CONFIG_ERROR = 4

KNOWN_CHECKS = ("decay", "absorbing_ball", "dissipation_budget")


def _outdir(cfg):
    path = cfg.get_str("output.dir", default="out")
    os.makedirs(path, exist_ok=True)
    return path


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
    sample_every = cfg.get_float("diagnostics.sample_every", default=0.1)
    if not 0 < sample_every < math.inf:
        raise ConfigError(f"diagnostics.sample_every = {sample_every} must be positive "
                          "and finite")
    stride = sample_every / params.dt
    if not params.adaptive and (round(stride) < 1
                                or abs(stride - round(stride)) > 1e-9 * stride):
        # a fixed step shortened to land on each sample would be a step of
        # another size: keep every step at solver.dt
        raise ConfigError(f"diagnostics.sample_every = {sample_every} is not an "
                          f"integer multiple of solver.dt = {params.dt}")
    slack = cfg.get_float("diagnostics.slack", default=1e-6)
    if "diagnostics.linf_refine" in cfg.values:
        warnings.warn("diagnostics.linf_refine is ignored: the linf column is the sup "
                      "of the trigonometric interpolant", stacklevel=2)
    checks = [c.strip() for c in cfg.get_str("diagnostics.checks", default="").split(",")
              if c.strip()]
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"diagnostics.checks: unknown check {name!r} "
                              f"(known: {', '.join(KNOWN_CHECKS)})")
    allow_blowup = cfg.get_bool("solver.allow_blowup", default=False)
    snapshots = cfg.get_bool("output.snapshots", default=False)

    if "decay" in checks and forcing.f_hat is not None:
        raise ConfigError("diagnostics.checks: the decay bound applies to "
                          "unforced runs only")
    decay_p = cfg.get_float("diagnostics.decay_p", default=2.0)
    if "decay" in checks and decay_p not in p_list:
        raise ConfigError(f"diagnostics.decay_p = {decay_p:g} is not in diagnostics.p_list")
    if "absorbing_ball" in checks and params.nu <= 0:
        raise ConfigError("diagnostics.checks: the absorbing ball needs nu > 0")
    ball_p = cfg.get_float("diagnostics.ball_p", default=2.0)
    if "absorbing_ball" in checks and ball_p not in p_list:
        raise ConfigError(f"diagnostics.ball_p = {ball_p:g} is not in diagnostics.p_list")

    result = run_dpm(t0_field, params, forcing, sample_every=sample_every,
                     p_list=p_list, s_list=s_list,
                     keep_states=snapshots, start_time=start_time)

    all_ok = True
    if "decay" in checks:
        # the linf column is the sup of the interpolant, never below the grid
        # maximum, so the initial sup norm is taken the same way
        n0 = (result.records[0].lp[decay_p] if decay_p == math.inf
              else lp_norm(t0_field, decay_p))
        res = check_decay_torus(result.records, n0, decay_p, params.nu, params.alpha,
                                lambda1=domain.lambda1, slack=slack, forcing=forcing,
                                volume=domain.volume)
        all_ok &= all(r.passed for r in res)
    if "absorbing_ball" in checks:
        f_field = None if forcing.f_hat is None else inverse_transform(forcing.f_hat)
        res = check_absorbing_ball(result.records, t0_field, f_field, ball_p,
                                   params.nu, params.alpha,
                                   lambda1=domain.lambda1, slack=slack)
        all_ok &= all(r.passed for r in res)
    if "dissipation_budget" in checks:
        res = check_dissipation_budget(result.records, slack=slack)
        all_ok &= all(r.passed for r in res)

    outdir = _outdir(cfg)
    csv_name = cfg.get_str("output.csv", default="diagnostics.csv")
    with atomic_open(os.path.join(outdir, csv_name), encoding="utf-8", newline="") as fh:
        records_to_csv(result.records, fh)
    if snapshots and result.states:
        for i, st in enumerate(result.states):
            write_snapshot(os.path.join(outdir, f"snapshot_{i:05d}.dpmf"),
                           st.t, inverse_transform(st.t_hat))
    ckpt = cfg.values.get("output.checkpoint")
    if ckpt:
        write_snapshot(os.path.join(outdir, ckpt), result.final_state.t,
                       inverse_transform(result.final_state.t_hat))

    final_l2 = result.records[-1].lp.get(2.0, math.nan) if result.records else math.nan
    metrics = {"t_final": result.final_state.t, "final_l2": final_l2,
               "blew_up": result.blew_up, "checks_passed": all_ok}
    if result.blew_up and not allow_blowup:
        return EXIT_UNEXPECTED_BLOWUP, metrics
    if not all_ok:
        return EXIT_CHECK_FAILED, metrics
    return EXIT_OK, metrics


def cmd_blowup(cfg: RunConfig) -> tuple[int, dict]:
    reg = build_regularization(cfg)
    initial_kind = cfg.get_str("blowup.initial", default="cos",
                               choices=("cos", "random", "file"))
    start_time = 0.0
    start_g = 0.0
    if initial_kind == "file":
        path = cfg.get_str("blowup.path")
        try:
            start_time, w0, g = read_snapshot(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"blowup.path: {exc}") from exc
        start_g = g or 0.0
        if w0.domain.dim != 1:
            raise ConfigError(f"blowup.path: snapshot is {w0.domain.dim}D, need 1D")
        if abs(float(w0.values.mean())) > 1e-10 * max(1.0, float(np.abs(w0.values).max())):
            raise ConfigError("blowup.path: stream slope must be mean zero")
    else:
        w0 = build_stream_initial(cfg)
    dt = cfg.get_float("blowup.dt", default=1e-4)
    t_end = cfg.get_float("blowup.t_end")
    if not dt > 0:
        raise ConfigError(f"blowup.dt = {dt} must be positive")
    if not t_end > start_time:
        raise ConfigError(f"blowup.t_end = {t_end} must exceed the start time {start_time}")
    sample_every = cfg.get_float("blowup.sample_every", default=0.01)
    if not sample_every > 0:
        raise ConfigError(f"blowup.sample_every = {sample_every} must be positive")
    threshold = cfg.get_float("blowup.threshold", default=1e8)
    adaptive = cfg.get_bool("blowup.adaptive", default=True)
    oracle_mode = cfg.get_str("blowup.oracle", default="auto",
                              choices=("auto", "on", "off"))
    oracle_rtol = cfg.get_float("blowup.oracle_rtol", default=1e-5)
    tstar_rtol = cfg.get_float("blowup.tstar_rtol", default=0.01)
    bound_check = cfg.get_bool("blowup.max_bound_check", default=False)
    slack = cfg.get_float("blowup.slack", default=1e-6)

    result = blowup1d.run_stream_slope(w0, reg, dt, t_end,
                                       sample_every=sample_every,
                                       threshold=threshold, adaptive=adaptive,
                                       start_time=start_time, start_g=start_g)

    # the closed-form oracle applies to pure-cosine data evolved without
    # regularization, or with the half-Laplacian term under the oracle sign
    ansatz = initial_kind == "cos" and start_time == 0.0
    compatible = reg.mode == "none" or (reg.mode == "spectral" and reg.sign == "oracle")
    applicable = ansatz and compatible
    if oracle_mode == "on" and not applicable:
        raise ConfigError("blowup.oracle = on requires cosine initial data and "
                          "mode none or spectral with the oracle sign")
    use_oracle = applicable and oracle_mode != "off"

    params = None
    t_star_analytic = math.nan
    if use_oracle:
        r0 = cfg.get_float("blowup.amplitude", default=1.0)
        nu_eff = reg.nu if reg.mode == "spectral" else 0.0
        try:
            params = blowup1d.OracleParams(r0=r0, nu=nu_eff)
        except ValueError as exc:
            raise ConfigError(f"blowup oracle: {exc}") from exc
        t_star_analytic = blowup1d.blowup_time(params)

    all_ok = True
    g_err = math.nan
    if params is not None:
        errs = []
        for rec in result.records:
            if rec.t < t_star_analytic * (1 - 1e-12):
                beta = blowup1d.oracle_beta(rec.t, params)
                errs.append(abs(rec.g - beta) / max(abs(beta), 1.0))
        g_err = max(errs) if errs else math.nan
        if errs and g_err > oracle_rtol:
            all_ok = False

    tstar_err = math.nan
    if params is not None:
        if t_star_analytic < t_end:
            if not result.blew_up:
                all_ok = False
            elif result.t_star_estimate is not None:
                tstar_err = abs(result.t_star_estimate - t_star_analytic) / t_star_analytic
                if tstar_err > tstar_rtol:
                    all_ok = False
        elif result.blew_up:
            all_ok = False  # blew up although the closed form says it should not

    if bound_check:
        m0 = float(w0.values.max())
        res = blowup1d.check_max_bound(result.records, m0, slack=slack)
        all_ok &= all(r.passed for r in res)

    outdir = _outdir(cfg)
    csv_name = cfg.get_str("output.csv", default="trajectory.csv")
    with atomic_open(os.path.join(outdir, csv_name), encoding="utf-8", newline="") as fh:
        checks = ["max_bound"] if bound_check else []
        header = ["t", "l2", "linf", "max", "g", "h2", "oracle_beta", "oracle_r"]
        fh.write(",".join(header + check_header(checks)) + "\n")
        for rec in result.records:
            beta = r_oracle = math.nan
            if params is not None and rec.t < t_star_analytic * (1 - 1e-12):
                beta = blowup1d.oracle_beta(rec.t, params)
                r_oracle = blowup1d.oracle_r(rec.t, params)
            row = [_fmt(rec.t), _fmt(rec.l2), _fmt(rec.linf), _fmt(rec.max_w),
                   _fmt(rec.g), _fmt(rec.h2), _fmt(beta), _fmt(r_oracle)]
            fh.write(",".join(row + check_cells(rec.checks, checks)) + "\n")
    with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8", newline="") as fh:
        fh.write("blew_up,t_final,t_star_est,t_star_analytic,t_star_rel_err,"
                 "g_oracle_max_rel_err,checks_passed\n")
        fh.write(",".join([
            "1" if result.blew_up else "0",
            _fmt(result.final_state.t),
            _fmt(result.t_star_estimate),
            _fmt(t_star_analytic), _fmt(tstar_err), _fmt(g_err),
            "1" if all_ok else "0"]) + "\n")
    ckpt = cfg.values.get("output.checkpoint")
    if ckpt:
        write_snapshot(os.path.join(outdir, ckpt), result.final_state.t,
                       result.final_state.w, g=result.final_state.g)

    metrics = {"blew_up": result.blew_up, "t_star_est": result.t_star_estimate,
               "checks_passed": all_ok}
    return (EXIT_OK if all_ok else EXIT_CHECK_FAILED), metrics


def _error_line(exc):
    """The last line of the traceback exc would print."""
    return traceback.format_exception_only(exc)[-1].strip()


def _sweep_worker(args):
    idx, command, text, outdir = args
    try:
        cfg = RunConfig.parse(text)
        cfg.values["output.dir"] = outdir
        if command == "run":
            code, metrics = cmd_run(cfg)
        else:
            code, metrics = cmd_blowup(cfg)
    except ConfigError as exc:
        return idx, EXIT_CONFIG_ERROR, {"error": str(exc)}
    except Exception as exc:  # one failing point must not lose the others
        return idx, EXIT_POINT_FAILED, {"error": _error_line(exc)}
    return idx, code, metrics


def cmd_sweep(cfg: RunConfig) -> int:
    command = cfg.get_str("sweep.command", default="run", choices=("run", "blowup1d"))
    workers = cfg.get_int("sweep.workers", default=min(4, os.cpu_count() or 1))
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
    jobs = []
    labels = []
    for idx, combo in enumerate(itertools.product(*(opts for _, opts in axes))):
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
        labels.append((label, dict(zip((t for t, _ in axes), combo))))

    results = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
        for fut in [pool.submit(_sweep_worker, job) for job in jobs]:
            try:
                _, code, metrics = fut.result()
            except concurrent.futures.BrokenExecutor as exc:  # a worker process died
                code, metrics = EXIT_POINT_FAILED, {"error": _error_line(exc)}
            results.append((code, metrics))

    keys = [t for t, _ in axes]
    with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["point"] + keys + ["exit_code", "metrics"])
        for idx in range(len(jobs)):
            code, metrics = results[idx]
            _, combo = labels[idx]
            metric_text = ";".join(f"{k}={v}" for k, v in sorted(metrics.items()))
            writer.writerow([f"pt{idx:04d}"] + [combo[k] for k in keys]
                            + [str(code), metric_text])

    codes = [code for code, _ in results]
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
        if args.command == "run":
            code, metrics = cmd_run(cfg)
            print(f"exit={code} " + " ".join(f"{k}={v}" for k, v in sorted(metrics.items())))
            return code
        if args.command == "blowup1d":
            code, metrics = cmd_blowup(cfg)
            print(f"exit={code} " + " ".join(f"{k}={v}" for k, v in sorted(metrics.items())))
            return code
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
