"""The benchmark's workloads: seeded inputs, CLI configs and output checks.

Each workload writes its inputs into a work directory from a seed, names
the `dpmflow` command that consumes them, and checks the files one command
leaves behind.  Inputs are generated here with numpy alone, so a change to
the program's own random-field code cannot change what the benchmark feeds
it.  Two sizes exist: `full` is what the benchmark times, `toy` is the
smallest grid that still runs every code path (used by the smoke test).
Why each workload exists is written down in README.md.  `WORKLOADS` maps
each name to a factory, so every run prepares a fresh workload object.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import math
import os

import numpy as np

from dpmflow.snapshots import read_snapshot, write_snapshot
from dpmflow.spectral import Domain, PhysicalField


def smooth_field(n, rng, kmax=4, l2_norm=1.0):
    """Mean-zero sum of cosines with |k| <= kmax, random amplitudes and phases.

    Band-limited far below the 2/3 cutoff of every grid used here, so the
    solver's resolution warning never fires.  Scaled to the given discrete
    L^2 norm on [0, 2*pi)^dim.
    """
    axes = [2.0 * math.pi * np.arange(m) / m for m in n]
    grid = np.meshgrid(*axes, indexing="ij", sparse=True)
    values = np.zeros(n)
    for k in itertools.product(range(-kmax, kmax + 1), repeat=len(n)):
        # one of each +-k pair, zero mode excluded
        if k <= tuple(-kj for kj in k) or sum(kj * kj for kj in k) > kmax * kmax:
            continue
        kabs = math.sqrt(sum(kj * kj for kj in k))
        amp = rng.standard_normal() * kabs ** -1.5
        phase = sum(kj * x for kj, x in zip(k, grid)) + rng.uniform(0.0, 2.0 * math.pi)
        values = values + amp * np.cos(phase)
    volume = (2.0 * math.pi) ** len(n)
    norm = math.sqrt(volume * float(np.mean(values ** 2)))
    return values * (l2_norm / norm)


def write_field(path, n, rng):
    write_snapshot(path, 0.0, PhysicalField(Domain(n), smooth_field(n, rng)))


def write_config(workdir, command, values):
    """Write the config file; returns the dpmflow arguments that run it."""
    with open(os.path.join(workdir, "workload.cfg"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
    return [command, "workload.cfg"]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checked:
    """What one command left behind: problems per operation, digests, numbers.

    An operation is the command itself or, for a sweep, one sweep point.
    `digests` maps the same operation names to the sha256 of the output
    that must be byte-identical across repeats of one seed.
    """

    def __init__(self):
        self.ops = {}
        self.digests = {}
        self.extra = {}


def check_diagnostics(path, expected_rows):
    """Problems with one diagnostics CSV: row count and every *_pass column."""
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    pass_cols = [c for c in (rows[0] if rows else {}) if c.endswith("_pass")]
    if not pass_cols:
        problems.append(f"{path}: no *_pass columns")
    for i, row in enumerate(rows):
        bad = [c for c in pass_cols if row[c] != "1"]
        if bad:
            problems.append(f"{path}: row {i} fails {', '.join(bad)}")
    return problems


def check_checkpoint(path, grid, t_end):
    try:
        t, field, _ = read_snapshot(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    if field.domain.n != tuple(grid):
        problems.append(f"{path}: grid {field.domain.n}, expected {tuple(grid)}")
    if abs(t - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"{path}: time {t}, expected {t_end}")
    return problems


class DpmRun:
    """`dpmflow run` on one seeded initial file."""

    command = "run"

    def __init__(self, sizes, settings):
        self.sizes = sizes          # size -> (grid, steps, steps per sample)
        self.settings = settings    # extra config keys

    def prepare(self, workdir, seed, size):
        grid, steps, stride = self.sizes[size]
        rng = np.random.default_rng(seed)
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        write_field(os.path.join(workdir, "in", "initial.dpmf"), grid, rng)
        dt = float(self.settings["solver.dt"])
        self.grid = grid
        self.t_end = steps * dt
        self.records = steps // stride + 1
        values = {
            "domain.dim": len(grid),
            "domain.n": ", ".join(str(m) for m in grid),
            "solver.t_end": repr(self.t_end),
            "initial.kind": "file",
            "initial.path": "in/initial.dpmf",
            "diagnostics.sample_every": repr(stride * dt),
            "output.dir": "out",
            "output.checkpoint": "final.dpmf",
        }
        values.update(self.settings)
        return write_config(workdir, self.command, values)

    def check(self, workdir):
        out = os.path.join(workdir, "out")
        checked = Checked()
        csv_path = os.path.join(out, "diagnostics.csv")
        problems = check_diagnostics(csv_path, self.records)
        problems += check_checkpoint(os.path.join(out, "final.dpmf"), self.grid, self.t_end)
        if self.settings.get("output.snapshots") == "true":
            snaps = [f for f in os.listdir(out) if f.startswith("snapshot_")]
            if len(snaps) != self.records:
                problems.append(f"{len(snaps)} snapshots, expected {self.records}")
        checked.ops[self.command] = problems
        if os.path.isfile(csv_path):
            checked.digests[self.command] = sha256(csv_path)
        return checked


class BlowupRun:
    """`dpmflow blowup1d` on cosine data; the seed sets the amplitude."""

    command = "blowup1d"
    # dt 6e-4 keeps the g error near 3e-6, inside the CLI's 1e-5 tolerance
    sizes = {"full": (256, 6e-4, "1e8"), "toy": (64, 2e-3, "1e3")}

    def prepare(self, workdir, seed, size):
        n, dt, threshold = self.sizes[size]
        amplitude = 1.0 + 0.01 * np.random.default_rng(seed).uniform()
        values = {
            "blowup.n": n,
            "blowup.dt": repr(dt),
            "blowup.t_end": repr(2.0 / amplitude),
            "blowup.amplitude": repr(amplitude),
            "blowup.mode": "none",
            "blowup.oracle": "on",
            "blowup.threshold": threshold,
            "blowup.sample_every": "0.05",
            "output.dir": "out",
        }
        return write_config(workdir, self.command, values)

    def check(self, workdir):
        out = os.path.join(workdir, "out")
        checked = Checked()
        problems = []
        try:
            with open(os.path.join(out, "summary.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            rows = []
            problems.append(str(exc))
        if len(rows) != 1:
            problems.append(f"summary.csv: {len(rows)} rows, expected 1")
        else:
            row = rows[0]
            if row["blew_up"] != "1" or row["checks_passed"] != "1":
                problems.append(f"summary.csv: blew_up={row['blew_up']} "
                                f"checks_passed={row['checks_passed']}")
            checked.extra["g_oracle_err"] = float(row["g_oracle_max_rel_err"])
            checked.extra["tstar_err"] = float(row["t_star_rel_err"])
        traj = os.path.join(out, "trajectory.csv")
        if os.path.isfile(traj):
            checked.digests[self.command] = sha256(traj)
        else:
            problems.append("trajectory.csv: missing")
        checked.ops[self.command] = problems
        return checked


class SweepRun:
    """`dpmflow sweep` over alpha x four seeded initial files (criterion 4)."""

    command = "sweep"
    # size -> (grid, steps, steps per sample, alphas, initial files, workers)
    sizes = {"full": ((64, 64), 100, 10, ("0.5", "1.0", "1.5", "2.0"), 4, 2),
             "toy": ((16, 16), 4, 2, ("1.5", "2.0"), 1, 1)}
    dt = 0.01

    def prepare(self, workdir, seed, size):
        grid, steps, stride, alphas, files, workers = self.sizes[size]
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        paths = []
        for i in range(files):
            path = f"in/initial{i}.dpmf"
            write_field(os.path.join(workdir, path), grid,
                        np.random.default_rng([seed, i]))
            paths.append(path)
        self.grid = grid
        self.t_end = steps * self.dt
        self.records = steps // stride + 1
        self.points = len(alphas) * files
        values = {
            "sweep.command": "run",
            "sweep.workers": workers,
            "sweep.solver.alpha": " | ".join(alphas),
            "sweep.initial.path": " | ".join(paths),
            "domain.dim": 2,
            "domain.n": ", ".join(str(m) for m in grid),
            "solver.nu": "0.1",
            "solver.dt": repr(self.dt),
            "solver.t_end": repr(self.t_end),
            "initial.kind": "file",
            "diagnostics.p_list": "2, 4, inf",
            "diagnostics.sample_every": repr(stride * self.dt),
            "diagnostics.checks": "decay, dissipation_budget",
            "output.dir": "out",
            "output.checkpoint": "final.dpmf",
        }
        return write_config(workdir, self.command, values)

    def check(self, workdir):
        out = os.path.join(workdir, "out")
        checked = Checked()
        names = [f"pt{i:04d}" for i in range(self.points)]
        try:
            with open(os.path.join(out, "summary.csv"), newline="", encoding="utf-8") as fh:
                rows = {row["point"]: row for row in csv.DictReader(fh)}
            dirs = {d[:6]: d for d in os.listdir(out) if d.startswith("pt")}
        except OSError:
            rows, dirs = {}, {}
        if len(rows) != self.points:
            for name in names:
                checked.ops[name] = [f"summary.csv: {len(rows)} rows, "
                                     f"expected {self.points}"]
            return checked
        for name in names:
            row = rows.get(name)
            if row is None or name not in dirs:
                checked.ops[name] = [f"{name}: missing from summary.csv or out/"]
                continue
            pdir = os.path.join(out, dirs[name])
            problems = []
            if row["exit_code"] != "0":
                problems.append(f"{name}: exit_code {row['exit_code']}")
            csv_path = os.path.join(pdir, "diagnostics.csv")
            problems += check_diagnostics(csv_path, self.records)
            problems += check_checkpoint(os.path.join(pdir, "final.dpmf"),
                                         self.grid, self.t_end)
            if os.path.isfile(csv_path):
                checked.digests[name] = sha256(csv_path)
            checked.ops[name] = problems
        return checked


WORKLOADS = {
    "dpm2d-forced": functools.partial(
        DpmRun,
        {"full": ((256, 256), 40, 10), "toy": ((16, 16), 4, 2)},
        {"solver.nu": "0.05", "solver.alpha": "1.5", "solver.dt": "0.01",
         "forcing.kind": "single_mode", "forcing.wavevector": "1, 2",
         "forcing.amplitude": "0.5",
         "diagnostics.p_list": "1, 2, 4",
         "diagnostics.checks": "absorbing_ball, dissipation_budget"}),
    "dpm3d-diag": functools.partial(
        DpmRun,
        {"full": ((32, 32, 32), 16, 2), "toy": ((8, 8, 8), 4, 2)},
        {"solver.nu": "0.05", "solver.alpha": "1.5", "solver.dt": "0.02",
         "solver.adaptive": "true",
         "diagnostics.p_list": "1, 2, 4, inf", "diagnostics.linf_refine": "4",
         "diagnostics.s_list": "0.5, 1",
         "diagnostics.checks": "decay, dissipation_budget",
         "output.snapshots": "true"}),
    "blowup1d-tangent": BlowupRun,
    "sweep-64": SweepRun,
}
