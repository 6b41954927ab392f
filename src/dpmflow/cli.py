"""Command-line surface: run, blowup1d, sweep, verify.

Exit codes: 0 all enabled checks pass, 1 a sweep point failed with an
unexpected error, 2 a bound or tolerance check failed, 3 blow-up detected
where not expected, 4 malformed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import signal
import sys
import warnings

from . import blowup1d
from .config import (ConfigError, RunConfig, _checked, build_domain, build_forcing,
                     build_initial, build_regularization, build_solver_params,
                     build_stream_initial)
from .diagnostics import (AbsorbingBallCheck, DecayCheck, DissipationBudgetCheck, RowWriter,
                          record_columns)
from .snapshots import atomic_open, write_snapshot
from .solver import run as run_dpm
from .spectral import inverse_transform

EXIT_OK = 0
EXIT_POINT_FAILED = 1
EXIT_CHECK_FAILED = 2
EXIT_UNEXPECTED_BLOWUP = 3
EXIT_CONFIG_ERROR = 4


def _in_range(cfg, key, default):
    """The number at key, which must be positive and finite."""
    val = cfg.get_float(key, default=default)
    if not 0 < val < math.inf:
        raise ConfigError(f"{key} = {val} must be positive and finite")
    return val


def _check_stride(key, length, dt_key, dt):
    """Refuse a sample cadence or a run length of fixed steps that is not an
    integer multiple of the step: a step shortened to land on a sample or on
    t_end would be a step of another size than dt_key asks for."""
    stride = length / dt
    if round(stride) < 1 or abs(stride - round(stride)) > 1e-9 * stride:
        raise ConfigError(f"{key} = {length} is not an integer multiple "
                          f"of {dt_key} = {dt}")


def _execute(cfg, checks, solve, columns, report, save, csv_name, snapshots=False,
             allow_blowup=True):
    """Run one command's solver, judging and writing each record as it arrives.

    The output keys are read first, and then a key that no read has taken
    is refused.  checks are (label, check) pairs of check objects, and
    columns(record) gives the names and cells of a record's CSV row.  At
    the first record, before the first step, each check's first() applies
    its input rules and judges it, and output.dir and the directories of
    output.csv and output.checkpoint are made; each later record is judged
    against the one before.  Each record's row then goes to
    <output.csv>.partial (output.csv is csv_name by default), flushed,
    and with snapshots, save(path, state) writes each sampled state.  After
    solve(on_sample), report(result, ok, outdir) gives the command's verdict
    and metrics, the .partial file becomes output.csv, and save writes the
    final state to output.checkpoint.
    """
    outdir = cfg.get_str("output.dir", default="out")
    csv_path = os.path.join(outdir, cfg.get_str("output.csv", default=csv_name))
    checkpoint = cfg.get_str("output.checkpoint", default=None)
    if checkpoint is not None:
        checkpoint = os.path.join(outdir, checkpoint)
    cfg.refuse_unread()
    taken = itertools.count()
    ok = True
    previous = writer = None

    def on_sample(state, record):
        nonlocal ok, previous, writer
        index = next(taken)
        names, cells = columns(record)
        if index == 0:
            results = [_checked(label, check.first, record) for label, check in checks]
            for directory in {outdir, *(os.path.dirname(p) for p in (csv_path, checkpoint) if p)}:
                os.makedirs(directory, exist_ok=True)
            writer = RowWriter(stack.enter_context(
                open(csv_path + ".partial", "w", encoding="utf-8", newline="")),
                names, [check.name for _, check in checks])
        else:
            results = [check.judge(previous, record) for _, check in checks]
        results = [r for r in results if r is not None]
        ok = ok and all(r.passed for r in results)
        writer.row(cells, results)
        previous = record
        if snapshots:
            save(os.path.join(outdir, f"snapshot_{index:05d}.dpmf"), state)

    with contextlib.ExitStack() as stack:
        result = solve(on_sample)
    ok, metrics = report(result, ok, outdir)
    os.replace(csv_path + ".partial", csv_path)
    if checkpoint is not None:
        save(checkpoint, result.final_state)
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
    sample_every = _in_range(cfg, "diagnostics.sample_every", 0.1)
    if not params.adaptive:
        _check_stride("diagnostics.sample_every", sample_every, "solver.dt", params.dt)
        _check_stride("solver.t_end - start time", params.t_end - start_time, "solver.dt",
                      params.dt)
    if cfg.get_str("diagnostics.linf_refine", default=None) is not None:
        warnings.warn("diagnostics.linf_refine is ignored: the linf column is the sup "
                      "of the trigonometric interpolant", stacklevel=2)

    def decay():
        p = cfg.get_float("diagnostics.decay_p", default=2.0)
        return (f"decay (diagnostics.decay_p = {p:g})",
                DecayCheck(p, params.nu, forcing=forcing))

    def absorbing_ball():
        p = cfg.get_float("diagnostics.ball_p", default=2.0)
        return (f"absorbing_ball (diagnostics.ball_p = {p:g})",
                AbsorbingBallCheck(forcing, p, params.nu))

    # each check's (label in messages, check object), built only when named
    table = {"decay": decay, "absorbing_ball": absorbing_ball,
             "dissipation_budget": lambda: ("dissipation_budget", DissipationBudgetCheck())}
    names = [c.strip() for c in cfg.get_str("diagnostics.checks", default="").split(",")
             if c.strip()]
    for name in names:
        if name not in table:
            raise ConfigError(f"diagnostics.checks: unknown check {name!r} "
                              f"(known: {', '.join(table)})")
    checks = [(f"diagnostics.checks: {label}", check)
              for label, check in (build() for name, build in table.items() if name in names)]
    allow_blowup = cfg.get_bool("solver.allow_blowup", default=False)

    def report(result, ok, outdir):
        return ok, {"t_final": result.final_state.t,
                    "final_l2": result.records[-1].lp.get(2.0, math.nan)}

    return _execute(
        cfg, checks,
        lambda on_sample: run_dpm(t0_field, params, forcing, sample_every=sample_every,
                                  p_list=p_list, s_list=s_list, on_sample=on_sample,
                                  start_time=start_time),
        record_columns, report,
        lambda path, state: write_snapshot(path, state.t, inverse_transform(state.t_hat)),
        "diagnostics.csv", cfg.get_bool("output.snapshots", default=False), allow_blowup)


def cmd_blowup(cfg: RunConfig) -> tuple[int, dict]:
    reg = build_regularization(cfg)
    w0, start_time, start_g, amplitude = build_stream_initial(cfg)
    dt = _in_range(cfg, "blowup.dt", 1e-4)
    t_end = cfg.get_float("blowup.t_end")
    if not start_time < t_end < math.inf:
        raise ConfigError(f"blowup.t_end = {t_end} must be finite and exceed the "
                          f"start time {start_time}")
    sample_every = _in_range(cfg, "blowup.sample_every", 0.01)
    threshold = _in_range(cfg, "blowup.threshold", 1e8)
    adaptive = cfg.get_bool("blowup.adaptive", default=True)
    if not adaptive:
        _check_stride("blowup.sample_every", sample_every, "blowup.dt", dt)
        _check_stride("blowup.t_end - start time", t_end - start_time, "blowup.dt", dt)
    oracle_mode = cfg.get_str("blowup.oracle", default="auto",
                              choices=("auto", "on", "off"))

    # the closed form solves cosine data (those with an amplitude) evolved
    # without regularization, or with the half-Laplacian term under the
    # oracle sign, where r0^2 > nu^2; auto runs without it elsewhere
    params = None
    if amplitude is not None and oracle_mode != "off" and (
            reg.mode == "none" or (reg.mode == "spectral" and reg.sign == "oracle")):
        with contextlib.suppress(ValueError):
            params = blowup1d.OracleParams(r0=amplitude, nu=reg.nu)
    if oracle_mode == "on" and params is None:
        raise ConfigError("blowup.oracle = on requires cosine initial data, mode none or "
                          "spectral with the oracle sign, and r0^2 > nu^2")
    t_star_analytic = math.nan if params is None else blowup1d.blowup_time(params)
    # Q(t0) of the max bound is that of the run's first record: a bad one
    # (a restart whose g outweighs max w) is refused before the first step
    checks = ([("blowup.max_bound_check", blowup1d.MaxBoundCheck())]
              if cfg.get_bool("blowup.max_bound_check", default=False) else [])
    errs = []  # each record's relative g error against the closed form

    def columns(rec):
        """The record's cells and its oracle columns, nan at and beyond the singular time."""
        beta = r_oracle = math.nan
        if params is not None and rec.t < t_star_analytic * (1 - 1e-12):
            beta = blowup1d.oracle_beta(rec.t, params)
            r_oracle = blowup1d.oracle_r(rec.t, params)
            errs.append(abs(rec.g - beta) / max(abs(beta), 1.0))
        return (["t", "l2", "linf", "max", "g", "h2", "oracle_beta", "oracle_r"],
                [rec.t, rec.l2, rec.linf, rec.max_w, rec.g, rec.h2, beta, r_oracle])

    def report(result, ok, outdir):
        g_err = max(errs) if errs else math.nan
        if errs and not g_err <= blowup1d.ORACLE_RTOL:
            ok = False
        # a NaN error (no blow-up, or no estimate of t*) fails its check
        tstar_err = math.nan
        if params is not None:
            if t_star_analytic < t_end:
                if result.blew_up:
                    tstar_err = abs(result.t_star_estimate - t_star_analytic) / t_star_analytic
                if not tstar_err <= blowup1d.TSTAR_RTOL:
                    ok = False
            elif result.blew_up:
                ok = False  # blew up although the closed form says it should not

        with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8",
                         newline="") as fh:
            RowWriter(fh, ["blew_up", "t_final", "t_star_est", "t_star_analytic",
                           "t_star_rel_err", "g_oracle_max_rel_err", "checks_passed"]).row(
                [result.blew_up, result.final_state.t, result.t_star_estimate,
                 t_star_analytic, tstar_err, g_err, ok], [])
        return ok, {"t_star_est": result.t_star_estimate}

    return _execute(
        cfg, checks,
        lambda on_sample: blowup1d.run_stream_slope(
            w0, reg, dt, t_end, sample_every=sample_every, threshold=threshold,
            adaptive=adaptive, start_time=start_time, start_g=start_g, on_sample=on_sample),
        columns, report, lambda path, state: write_snapshot(path, state.t, state.w, g=state.g),
        "trajectory.csv")


def _sweep_point(command, path, conn):
    """Run the sweep point of config file path in this process and send over
    conn its exit code, metrics and warnings, each as 'Category: message'."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg = RunConfig.load(path)
            code, metrics = (cmd_run if command == "run" else cmd_blowup)(cfg)
        except ConfigError as exc:
            code, metrics = EXIT_CONFIG_ERROR, {"error": str(exc)}
        except Exception as exc:  # one failing point must not lose the others
            code, metrics = EXIT_POINT_FAILED, {"error": f"{type(exc).__name__}: {exc}"}
    conn.send((code, metrics, [f"{w.category.__name__}: {w.message}" for w in caught]))


def cmd_sweep(cfg: RunConfig) -> int:
    command = cfg.get_str("sweep.command", default="run", choices=("run", "blowup1d"))
    workers = cfg.get_int("sweep.workers", default=min(4, os.cpu_count() or 1))
    if workers < 1:
        raise ConfigError(f"sweep.workers = {workers} must be >= 1")
    base = {k: v for k, v in cfg.values.items() if not k.startswith("sweep.")}
    axes = []
    for key in sorted(set(cfg.values) - set(base) - {"sweep.command", "sweep.workers"}):
        options = [v.strip() for v in cfg.values[key].split("|") if v.strip()]
        if not options:
            raise ConfigError(f"{key}: empty sweep axis")
        if key == "sweep.output.dir":
            raise ConfigError(f"{key}: not an axis, as each point writes under output.dir")
        axes.append((key[len("sweep."):], options))
    if not axes:
        raise ConfigError("sweep: no sweep.<key> axes given")

    outdir = cfg.get_str("output.dir", default="out")
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
        values["output.dir"] = subdir  # so that the point's config.txt reruns it alone
        os.makedirs(subdir, exist_ok=True)
        path = os.path.join(subdir, "config.txt")
        with atomic_open(path, encoding="utf-8") as fh:
            fh.write(RunConfig(values).serialize())
        jobs.append((command, path))

    import multiprocessing.connection  # here: run and blowup1d need none of it
    # forked, so a point inherits this process's imports and hooks; SIGINT is
    # blocked save in wait(): an interrupt finds every point known, none takes it
    context = multiprocessing.get_context("fork")
    header = ["point"] + [t for t, _ in axes] + ["exit_code", "metrics"]
    done = {}     # point index -> (exit code, summary cells, warning lines)
    running = {}  # receiving end of a point's pipe -> (point index, process)

    def finish(idx, code, metrics, caught):
        metric_text = ";".join(f"{k}={v}" for k, v in sorted(metrics.items()))
        done[idx] = code, [f"pt{idx:04d}", *combos[idx], code, metric_text], caught
        with atomic_open(os.path.join(outdir, "summary.csv"), encoding="utf-8",
                         newline="") as fh:
            out = RowWriter(fh, header)
            for i in sorted(done):
                out.row(done[i][1], [])

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        while len(done) < len(jobs):
            idx = len(done) + len(running)  # the next point to start
            if idx < len(jobs) and len(running) < workers:
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_sweep_point, args=(*jobs[idx], writer))
                proc.start()
                running[reader] = idx, proc
                writer.close()
                continue
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            ready = multiprocessing.connection.wait(list(running))
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            for reader in ready:
                idx, proc = running[reader]
                try:
                    result = reader.recv()
                except EOFError:  # the process ended without sending a result
                    proc.join()  # a negative exit code is the signal that ended it
                    result = (EXIT_POINT_FAILED,
                              {"error": f"no result, exit code {proc.exitcode}"}, [])
                proc.join()
                reader.close()
                finish(idx, *result)
                del running[reader]
    except BaseException:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        for idx, proc in running.values():
            proc.kill()
            proc.join()
            finish(idx, EXIT_POINT_FAILED, {"error": "interrupted"}, [])
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for idx in sorted(done):
            for line in done[idx][2]:
                print(f"pt{idx:04d}: {line}", file=sys.stderr)

    codes = {code for code, _, _ in done.values()}
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
