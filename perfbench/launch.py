"""Run one `dpmflow` CLI command in this process, the way the benchmark times it.

    python3 perfbench/launch.py RESULT.json [--trace] -- <dpmflow arguments>

The command goes through `dpmflow.cli.main`.  Every call into the solver
(`solver.run`, reached from the CLI as `cli.run_dpm`, and
`blowup1d.run_stream_slope`) appends a `time.perf_counter` reading to
RESULT.json + ".solver"; the parent takes the earliest as the end of
set-up.  On Linux that clock is CLOCK_MONOTONIC, shared by every process,
and sweep workers are forked, so they inherit the hook.  RESULT.json gets
the exit code, the reading when `cli.main` returned, and the numpy and
scipy versions (scipy only if the program imported it).

With --trace the per-layer timers of tracer.py are installed first.  Sweep
workers lose their counts when they exit, so after a traced sweep the point
configs are replayed serially in this process through `cli.cmd_run`, and
the per-layer numbers and point times come from that replay.
"""

from __future__ import annotations

import json
import os
import sys
import time


def hook_solver_calls(owner, name, marker):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        with open(marker, "a", encoding="utf-8") as fh:
            fh.write(f"{t!r}\n")
        return fn(*args, **kwargs)

    setattr(owner, name, wrapper)


def replay_sweep(cli, tracer, config_path):
    """The sweep's worker count, and seconds per point rerun serially."""
    cfg = cli.RunConfig.load(config_path)
    out = cfg.get_str("output.dir", default="out")
    tracer.reset()
    times = []
    for sub in sorted(d for d in os.listdir(out) if d.startswith("pt")):
        with open(os.path.join(out, sub, "config.txt"), encoding="utf-8") as fh:
            text = fh.read()
        t = time.perf_counter()
        point = cli.RunConfig.parse(text)
        point.values["output.dir"] = os.path.join("replay", sub)
        cli.cmd_run(point)
        times.append(time.perf_counter() - t)
    return cfg.get_int("sweep.workers"), times


def main(argv):
    split = argv.index("--")
    result_path, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    from dpmflow import blowup1d, cli

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer
        tracer = Tracer().install()
    marker = result_path + ".solver"
    hook_solver_calls(cli, "run_dpm", marker)
    hook_solver_calls(blowup1d, "run_stream_slope", marker)

    code = cli.main(cli_args)
    result = {"exit_code": code, "main_end": time.perf_counter(),
              "numpy": sys.modules["numpy"].__version__}
    if "scipy" in sys.modules:
        result["scipy"] = sys.modules["scipy"].__version__
    if tracer is not None:
        if cli_args[0] == "sweep":
            result["sweep_workers"], result["point_s"] = replay_sweep(
                cli, tracer, cli_args[1])
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
