#!/usr/bin/env python3
"""dpmflow benchmark: times the four CLI workloads end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, both modes

Run from the repository root.  Each operation is a fresh process that runs
one `dpmflow` command through `dpmflow.cli.main` (see launch.py); its
outputs are checked after it exits.  Commands repeat for about S seconds,
at least three of them.  With --trace 0 the end-to-end metrics are the medians over
the timed commands; with --trace 1 traced and untraced commands alternate,
and the per-layer metrics are medians over the traced ones.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(HERE, "launch.py")
MIN_OPS = 3


class Op:
    """One timed command: its process-level numbers and what it left behind."""

    def __init__(self, exit_code, wall_s, setup_s, main_s, cpu_s, peak_rss_mb, info):
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.main_s = main_s  # process start to the return of cli.main
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.info = info


def run_command(argv, workdir, traced):
    """Run one dpmflow command in a child process and time it from outside."""
    result = os.path.join(workdir, "launch.json")
    marker = result + ".solver"
    for path in (result, marker):
        if os.path.exists(path):
            os.remove(path)
    for sub in ("out", "replay"):
        shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, LAUNCH, result] + (["--trace"] if traced else []) + ["--"] + argv
    with open(os.path.join(workdir, "log.txt"), "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            # wait4 gives the child's CPU and peak RSS, its waited children included
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # workers a crashed command left behind
    except ProcessLookupError:
        pass
    info = {}
    if os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            info = json.load(fh)
    starts = []
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as fh:
            starts = [float(line) for line in fh if line.strip()]
    return Op(proc.returncode, t1 - t0,
              min(starts) - t0 if starts else math.nan,
              info.get("main_end", math.nan) - t0,
              usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, info)


def median(values):
    return statistics.median(values) if values else math.nan


class Run:
    """Repeats one workload's command for a while and checks every output."""

    def __init__(self, name, workload, seed, size):
        self.workload = workload
        self.workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.argv = self.workload.prepare(self.workdir, seed, size)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None
        self.extra = {}
        self.versions = {}

    def command(self, traced):
        op = run_command(self.argv, self.workdir, traced)
        checked = self.workload.check(self.workdir)
        if self.reference is None:
            self.reference = checked.digests
        common = []
        if op.exit_code != 0:
            common.append(f"exit code {op.exit_code}")
        if math.isnan(op.setup_s):
            common.append("the solver was never called")
        for name, problems in checked.ops.items():
            if checked.digests.get(name) != self.reference.get(name):
                problems.append(f"{name}: output differs from the first command "
                                "of this seed")
            problems += common
            self.attempted += 1
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        self.errors.extend(f"trace hook missing: {m}" for m in op.info.get("missing", []))
        self.extra.update(checked.extra)
        self.versions = {k: op.info[k] for k in ("numpy", "scipy") if k in op.info}
        return op

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def measure(name, workload, seed, seconds, trace, size):
    """Metrics by name, and the Run that counted operations and errors."""
    run = Run(name, workload, seed, size)
    try:
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            if trace and len(traced) <= len(plain):
                traced.append(run.command(traced=True))
            else:
                plain.append(run.command(traced=False))
            done = len(plain) + len(traced) >= MIN_OPS and (not trace or plain)
            # start another command only if it ends within half a command of
            # the deadline, so a run lasts about `seconds` on average
            typical = median([op.wall_s for op in plain + traced])
            if done and time.perf_counter() - start + typical / 2 > seconds:
                break
    finally:
        run.close()

    if not trace:
        metrics = {
            "wall_s": median([op.wall_s for op in plain]),
            "setup_s": median([op.setup_s for op in plain]),
            "cpu_s": median([op.cpu_s for op in plain]),
            "peak_rss_mb": median([op.peak_rss_mb for op in plain]),
        }
    else:
        layers = [op.info.get("layers", {}) for op in traced]
        metrics = {key: median([lay[key] for lay in layers if key in lay])
                   for key in layers[0]} if layers else {}
        sweeps = [op.info for op in traced if "point_s" in op.info]
        metrics["cli.sweep_points"] = len(sweeps[0]["point_s"]) if sweeps else 0
        metrics["cli.sweep_efficiency"] = (
            median([sum(s["point_s"]) / s["sweep_workers"] for s in sweeps])
            / median([op.wall_s for op in plain]) if sweeps else 0.0)
        metrics["blowup1d.g_oracle_err"] = run.extra.get("g_oracle_err", 0.0)
        metrics["blowup1d.tstar_err"] = run.extra.get("tstar_err", 0.0)
        metrics["trace.overhead_frac"] = (median([op.main_s for op in traced])
                                          / median([op.main_s for op in plain]) - 1.0)
    return metrics, run


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cpu_info():
    """CPU model and cache sizes, from the kernel's read-only views."""
    model = "unknown"
    try:
        for line in read_text("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (read_text(os.path.join(index, f)).strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return model, caches


def git_commit():
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = git.stdout.split()
    # a checkout nested in some other repository must not report that one's commit
    if (git.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(load_at_start, versions):
    model, caches = cpu_info()
    src_lines = sum(read_text(path).count("\n") for path in
                    glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    out = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "git_commit": git_commit(),
        "loadavg_at_start": load_at_start,
        "src_lines": src_lines,
    }
    if "scipy" in versions:
        out["scipy"] = versions["scipy"]
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(name, seed, trace, metrics, run, load_at_start, spec):
    """Print the human summary, then the JSON result as the last line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    ok = run.failed == 0
    values = {}
    for m in listed:
        value = metrics.get(m["name"], math.nan)
        if not math.isfinite(value):
            ok = False
            run.errors.append(f"{m['name']}: no value measured")
            value = 0.0
        values[m["name"]] = {"value": value, "unit": m["unit"]}
    mode = "traced" if trace else "untraced"
    print(f"workload {name} seed {seed} ({mode}): "
          f"{run.attempted} operations, {run.failed} failed")
    for key, v in values.items():
        print(f"  {key:32s} {v['value']:.6g} {v['unit']}")
    print(f"  {'error_rate':32s} {run.failed / max(run.attempted, 1):.6g} ratio")
    print("provenance " + json.dumps(provenance(load_at_start, run.versions)))
    for err in run.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    if len(run.errors) > 20:
        print(f"error: ... and {len(run.errors) - 20} more", file=sys.stderr)
    print(json.dumps({"correct": ok, "attempted": run.attempted,
                      "failed": run.failed, "metrics": values}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end, 1 per-layer (default: both)")
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload on tiny grids (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpmflow", "cli.py")):
        print(f"error: no dpmflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    modes = [args.trace] if args.trace is not None else [0, 1]
    for name in names:
        for trace in modes:
            load_at_start = os.getloadavg()[0]
            metrics, run = measure(name, WORKLOADS[name](), args.seed, seconds,
                                   trace, args.size)
            report(name, args.seed, trace, metrics, run, load_at_start, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
