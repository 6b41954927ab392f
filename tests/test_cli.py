"""Command-line surface: exit codes, determinism, restart, sweep."""

import contextlib
import csv
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from dpmflow import (Domain, PhysicalField, RunConfig, blowup1d, cli, read_snapshot, solver,
                     write_snapshot)
from dpmflow.blowup1d import _StreamOps
from dpmflow.cli import main

DECAY_RUN = """\
domain.dim = 2
domain.n = 32, 32
solver.nu = 0.05
solver.alpha = 1.5
solver.dt = 0.002
solver.t_end = {t_end}
initial.kind = single_mode
initial.wavevector = 1, 0
initial.function = sin
diagnostics.p_list = 1, 2, 4, inf
diagnostics.sample_every = 0.1
diagnostics.checks = decay, dissipation_budget
output.dir = {outdir}
output.checkpoint = final.dpmf
"""


def write_config(path, text):
    path.write_text(text)
    return str(path)


BLOWUP_SWEEP = """\
sweep.command = blowup1d
sweep.workers = {workers}
sweep.blowup.dt = {dts}
blowup.n = 32
blowup.t_end = 0.1
blowup.sample_every = 0.05
output.dir = {outdir}
"""


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cli_command(*argv):
    """The command line and environment that run dpmflow from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "dpmflow.cli", *argv], env


def run_cli(*argv):
    """dpmflow in a process of its own, so that a hang fails the test."""
    command, env = cli_command(*argv)
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=30)


def interrupt_sweep_after_a_row(cfg, outdir):
    """Run `dpmflow sweep cfg` in a process group of its own, send SIGINT to
    the whole group once outdir/summary.csv has a row, and check that the
    sweep then fails and leaves no process behind."""
    command, env = cli_command("sweep", cfg)
    proc = subprocess.Popen(command, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 20
        while not (outdir / "summary.csv").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=10) != 0
        with pytest.raises(ProcessLookupError):  # no process of the sweep is left
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


_run_blowup = cli.cmd_blowup


def _blowup_failing_on_dt_2e_3(cfg):
    """cmd_blowup, except that it raises on blowup.dt = 2e-3."""
    if cfg.get_float("blowup.dt") == 2e-3:
        raise RuntimeError("unexpected, at one point")
    return _run_blowup(cfg)


def _blowup_dying_on_dt_2e_3(cfg):
    """cmd_blowup, except that blowup.dt = 2e-3 ends its process."""
    if cfg.get_float("blowup.dt") == 2e-3:
        os._exit(9)
    return _run_blowup(cfg)


def _blowup_noting_its_process(cfg):
    """cmd_blowup, held open 0.2 s, noting its process id and the monotonic
    times it ran between in output.dir/process.txt."""
    start = time.monotonic()
    result = _run_blowup(cfg)
    time.sleep(0.2)
    with open(os.path.join(cfg.get_str("output.dir"), "process.txt"), "w") as fh:
        fh.write(f"{os.getpid()} {start} {time.monotonic()}\n")
    return result


# notes OPENBLAS_NUM_THREADS as numpy is first imported, then prints it and
# the process's thread count (-1 without /proc) once dpmflow.cli has loaded
_BLAS_AT_NUMPY_IMPORT = """\
import os, sys

class NoteBlasThreads:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NoteBlasThreads())
import dpmflow.cli
tasks = "/proc/self/task"
print(NoteBlasThreads.seen[0], len(os.listdir(tasks)) if os.path.isdir(tasks) else -1)
"""


def blas_threads_at_numpy_import(user_setting):
    """OPENBLAS_NUM_THREADS when a fresh `import dpmflow.cli` loads numpy, and
    the thread count after it, with the variable unset or set to user_setting."""
    command, env = cli_command()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if user_setting is not None:
        env["OPENBLAS_NUM_THREADS"] = user_setting
    proc = subprocess.run([command[0], "-c", _BLAS_AT_NUMPY_IMPORT], env=env,
                          capture_output=True, text=True, timeout=30, check=True)
    seen, threads = proc.stdout.split()
    return seen, int(threads)


class TestBlasThreads:
    def test_numpy_loads_with_one_blas_thread(self):
        seen, threads = blas_threads_at_numpy_import(None)
        assert seen == "1"
        if threads != -1:
            assert threads == 1

    def test_a_thread_count_the_user_set_wins(self):
        assert blas_threads_at_numpy_import("3")[0] == "3"


class TestVerify:
    def test_exit_zero_and_reports_enough_identities(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        passes = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(passes) >= 25
        assert "FAIL" not in out


class TestRunCommand:
    def test_decay_run_passes_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg",
                           DECAY_RUN.format(t_end=1.0, outdir=tmp_path / "out"))
        assert main(["run", cfg]) == 0
        csv = (tmp_path / "out" / "diagnostics.csv").read_text()
        lines = csv.splitlines()
        assert lines[0].split(",")[0] == "t"
        pass_col = lines[0].split(",").index("decay_pass")
        assert all(line.split(",")[pass_col] == "1" for line in lines[1:])

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg",
                             DECAY_RUN.format(t_end=0.5, outdir=tmp_path / "a"))
        cfg_b = write_config(tmp_path / "b.cfg",
                             DECAY_RUN.format(t_end=0.5, outdir=tmp_path / "b"))
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b

    def test_checkpoint_restart_agrees_with_straight_run(self, tmp_path):
        random_run = """\
domain.dim = 2
domain.n = 32, 32
solver.nu = 0.1
solver.alpha = 1.2
solver.dt = 0.002
solver.t_end = {t_end}
initial.kind = {kind}
{initial_detail}
diagnostics.p_list = 2
diagnostics.sample_every = 0.1
output.dir = {outdir}
output.checkpoint = final.dpmf
"""
        first = write_config(tmp_path / "first.cfg", random_run.format(
            t_end=0.25, kind="random", initial_detail="initial.seed = 3", outdir=tmp_path / "p1"))
        assert main(["run", first]) == 0
        resumed = write_config(tmp_path / "resumed.cfg", random_run.format(
            t_end=0.5, kind="file",
            initial_detail=f"initial.path = {tmp_path / 'p1' / 'final.dpmf'}",
            outdir=tmp_path / "p2"))
        assert main(["run", resumed]) == 0
        straight = write_config(tmp_path / "straight.cfg", random_run.format(
            t_end=0.5, kind="random", initial_detail="initial.seed = 3", outdir=tmp_path / "p3"))
        assert main(["run", straight]) == 0
        _, f_resumed, _ = read_snapshot(tmp_path / "p2" / "final.dpmf")
        _, f_straight, _ = read_snapshot(tmp_path / "p3" / "final.dpmf")
        assert np.abs(f_resumed.values - f_straight.values).max() <= 1e-12

    def test_malformed_config_exits_4(self, tmp_path, capsys, no_step):
        cfg = write_config(tmp_path / "bad.cfg", "domain.dim: 2\n")
        assert main(["run", cfg]) == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cadence", ["0", "-0.01"])
    def test_non_positive_cadence_exits_4(self, tmp_path, cadence):
        text = """\
domain.dim = 2
domain.n = 16, 16
solver.nu = 0.05
solver.alpha = 1.5
solver.dt = 0.01
solver.t_end = 0.1
solver.adaptive = true
initial.kind = random
initial.seed = 1
diagnostics.p_list = 2
diagnostics.sample_every = {cadence}
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "c.cfg",
                           text.format(cadence=cadence, outdir=tmp_path / "o"))
        proc = run_cli("run", cfg)
        assert proc.returncode == 4
        assert "sample_every" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_truncated_initial_snapshot_exits_4(self, tmp_path, capsys, no_step):
        # 26 bytes of a 2D snapshot, cut inside the header's grid sizes; and
        # a whole one whose time is NaN, from which no step would be taken
        path = tmp_path / "cut.dpmf"
        for time, length in ((0.0, 26), (math.nan, None)):
            write_snapshot(path, time, PhysicalField(Domain((32, 32)), np.zeros((32, 32))))
            path.write_bytes(path.read_bytes()[:length])
            text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "o").replace(
                "initial.kind = single_mode", f"initial.kind = file\ninitial.path = {path}")
            assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 4
            assert "initial.path" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_sup_norm_decay_starts_from_the_refined_sup(self, tmp_path):
        # the linf column is the sup of the interpolant, which peaks above
        # the grid maximum of generic data; a bound started from the grid
        # maximum fails at t = 0
        text = """\
domain.dim = 2
domain.n = 32, 32
solver.nu = 0.05
solver.alpha = 1.5
solver.dt = 0.01
solver.t_end = 0.2
initial.kind = random
initial.seed = 3
diagnostics.p_list = 2, inf
diagnostics.sample_every = 0.1
diagnostics.checks = decay
diagnostics.decay_p = inf
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "linf.cfg", text.format(outdir=tmp_path / "o"))
        assert main(["run", cfg]) == 0
        rows = csv_rows(tmp_path / "o" / "diagnostics.csv")
        assert rows[0]["decay_bound"] == rows[0]["linf"]
        cfg = write_config(tmp_path / "l2.cfg", text.format(outdir=tmp_path / "o")
                           .replace("decay_p = inf", "decay_p = 4"))
        assert main(["run", cfg]) == 4  # not among the sampled norms

    def test_lp_decay_starts_from_the_truncated_data(self, tmp_path):
        # the run starts from the 2/3-truncated square wave, whose L^4 norm
        # (2.5277) exceeds the raw data's (2.5066); a bound started from the
        # raw data fails at t = 0
        d = Domain((32, 32))
        wave = np.where(d.grid[0] < math.pi, 1.0, -1.0) + np.zeros(d.n)
        write_snapshot(tmp_path / "square.dpmf", 0.0, PhysicalField(d, wave))
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "o")
        text = text.replace("initial.kind = single_mode",
                            f"initial.kind = file\ninitial.path = {tmp_path / 'square.dpmf'}")
        text = text.replace("initial.wavevector = 1, 0\ninitial.function = sin\n", "")
        cfg = write_config(tmp_path / "sq.cfg", text + "diagnostics.decay_p = 4\n")
        with pytest.warns(UserWarning, match="marginally resolved"):
            assert main(["run", cfg]) == 0
        rows = csv_rows(tmp_path / "o" / "diagnostics.csv")
        assert rows[0]["decay_bound"] == rows[0]["decay_value"] == rows[0]["l4"]

    def test_decay_on_data_whose_mean_is_not_zero_exits_4(self, tmp_path, capsys, no_step):
        # the decay bound holds for mean-zero data only: 0.5 + 0.1 sin x1
        # decays to its mean and fails it; at 5e-11 the mean's L^2 norm,
        # 5e-11 (2 pi), is past the check's 1e-10 although the mean is not
        d = Domain((16, 16))
        text = f"""\
domain.dim = 2
domain.n = 16, 16
solver.nu = 1
solver.alpha = 2
solver.dt = 0.01
solver.t_end = 3
initial.kind = file
initial.path = {tmp_path / 'offset.dpmf'}
diagnostics.sample_every = 0.1
diagnostics.checks = decay
output.dir = {tmp_path / 'o'}
"""
        for mean in (0.5, 5e-11):
            write_snapshot(tmp_path / "offset.dpmf", 0.0,
                           PhysicalField(d, mean + 0.1 * np.sin(d.grid[0]) + np.zeros(d.n)))
            assert main(["run", write_config(tmp_path / "m.cfg", text)]) == 4
            assert "mean" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_decay_under_a_zero_forcing_runs(self, tmp_path):
        # the decay check's own rule refuses a forcing that is not zero only
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "zero.cfg", text + "forcing.kind = single_mode\n"
                           "forcing.amplitude = 0\n")
        assert main(["run", cfg]) == 0
        rows = csv_rows(tmp_path / "o" / "diagnostics.csv")
        assert rows and all(r["decay_pass"] == "1" for r in rows)

    @staticmethod
    def forced_run(tmp_path, name, forcing):
        """A forced decay-free run of DECAY_RUN's data, its forcing keys given."""
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / name).replace(
            "decay, dissipation_budget", "absorbing_ball, dissipation_budget")
        return write_config(tmp_path / f"{name}.cfg", text + forcing)

    def test_forcing_from_a_file_is_the_forcing_it_holds(self, tmp_path):
        # the single-mode forcing's grid, as the config builds it, in a snapshot
        d = Domain((32, 32))
        phase = sum(k * x for k, x in zip([0, 1], d.grid))
        write_snapshot(tmp_path / "f.dpmf", 0.0,
                       PhysicalField(d, np.ascontiguousarray(np.broadcast_to(
                           0.5 * np.sin(phase), d.n))))
        mode = self.forced_run(tmp_path, "mode", "forcing.kind = single_mode\n"
                               "forcing.wavevector = 0, 1\nforcing.amplitude = 0.5\n")
        from_file = self.forced_run(tmp_path, "file", "forcing.kind = file\n"
                                    f"forcing.path = {tmp_path / 'f.dpmf'}\n")
        assert main(["run", mode]) == 0
        assert main(["run", from_file]) == 0
        csv_mode = (tmp_path / "mode" / "diagnostics.csv").read_bytes()
        assert csv_mode == (tmp_path / "file" / "diagnostics.csv").read_bytes()
        assert b"absorbing_ball_pass" in csv_mode

    def test_forcing_file_beyond_the_box_warns(self, tmp_path):
        # 5 sin(12 x1) on 32^2 lies outside the 2/3 box |k| <= 10, which
        # dealiases it to rounding noise: the run goes on, unforced, and says so
        d = Domain((32, 32))
        write_snapshot(tmp_path / "f.dpmf", 0.0,
                       PhysicalField(d, 5.0 * np.sin(12 * d.grid[0]) + np.zeros(d.n)))
        cfg = self.forced_run(tmp_path, "o", "forcing.kind = file\n"
                              f"forcing.path = {tmp_path / 'f.dpmf'}\n")
        with pytest.warns(UserWarning, match="forcing is marginally resolved: spectral tail"):
            assert main(["run", cfg]) == 0

    def test_forcing_file_on_another_grid_exits_4(self, tmp_path, capsys, no_step):
        d = Domain((16, 16))
        write_snapshot(tmp_path / "f.dpmf", 0.0, PhysicalField(d, np.sin(d.grid[0] + d.grid[1])))
        cfg = self.forced_run(tmp_path, "o", "forcing.kind = file\n"
                              f"forcing.path = {tmp_path / 'f.dpmf'}\n")
        assert main(["run", cfg]) == 4
        assert "forcing.path: snapshot grid (16, 16)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_linf_refine_is_ignored_with_a_warning(self, tmp_path):
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "plain")
        assert main(["run", write_config(tmp_path / "plain.cfg", text)]) == 0
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "refine")
        cfg = write_config(tmp_path / "refine.cfg", text + "diagnostics.linf_refine = 4\n")
        with pytest.warns(UserWarning, match="linf_refine is ignored"):
            assert main(["run", cfg]) == 0
        assert ((tmp_path / "refine" / "diagnostics.csv").read_bytes()
                == (tmp_path / "plain" / "diagnostics.csv").read_bytes())

    def test_adaptive_run_honours_cfl_safety(self, tmp_path, monkeypatch):
        # |v| = 20 bounds each step by 0.9 (2 pi / 32) / 20, below solver.dt
        # and the cadence: 12 steps a sample
        calls = []
        advance = solver._Integrator.advance
        monkeypatch.setattr(solver._Integrator, "advance",
                            lambda self, *a, **kw: calls.append(1) or advance(self, *a, **kw))
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "o")
        text = text.replace("solver.dt = 0.002", "solver.dt = 0.1")
        cfg = write_config(tmp_path / "c.cfg", text + "initial.amplitude = 20\n"
                           "solver.adaptive = true\n")
        assert main(["run", cfg]) == 0
        assert len(calls) == 24

    @pytest.mark.parametrize("key, value", [
        ("output.checkpoint", "sub/final.dpmf"),
        ("output.csv", "sub/d.csv"),
    ])
    def test_output_file_in_a_subdirectory(self, tmp_path, key, value):
        # the directory of each output path is made with output.dir
        text = DECAY_RUN.format(t_end=0.2, outdir=tmp_path / "o")
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith(key))
        assert main(["run", write_config(tmp_path / "c.cfg", text + f"{key} = {value}\n")]) == 0
        assert (tmp_path / "o" / value).is_file()

    def test_snapshot_output(self, tmp_path):
        text = DECAY_RUN.format(t_end=0.3, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "snap.cfg", text + "output.snapshots = true\n")
        assert main(["run", cfg]) == 0
        snaps = sorted((tmp_path / "o").glob("snapshot_*.dpmf"))
        assert len(snaps) >= 3
        t, field, g = read_snapshot(snaps[0])
        assert t == 0.0 and g is None and field.domain.n == (32, 32)

    def test_interrupted_run_keeps_the_snapshots_taken(self, tmp_path, monkeypatch):
        # the 4th record raises: the three samples before it are on disk
        times = []
        record = solver.compute_record

        def failing_on_the_4th(state, *args, **kwargs):
            if len(times) == 3:
                raise RuntimeError("interrupted")
            times.append(state.t)
            return record(state, *args, **kwargs)

        monkeypatch.setattr(solver, "compute_record", failing_on_the_4th)
        text = DECAY_RUN.format(t_end=1.0, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "snap.cfg", text + "output.snapshots = true\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["run", cfg])
        snaps = sorted((tmp_path / "o").glob("snapshot_*.dpmf"))
        assert [p.name for p in snaps] == [f"snapshot_{i:05d}.dpmf" for i in range(3)]
        assert [read_snapshot(p)[0] for p in snaps] == times == pytest.approx([0.0, 0.1, 0.2])

    def test_killed_run_keeps_the_rows_it_judged(self, tmp_path):
        # a row is flushed as its record is judged: SIGKILL after 3 rows
        # leaves them, and no diagnostics.csv, which appears only at the end
        rows = 3
        text = DECAY_RUN.replace("32, 32", "64, 64").replace("sample_every = 0.1",
                                                              "sample_every = 0.2")
        killed = tmp_path / "killed" / "diagnostics.csv.partial"
        command, env = cli_command("run", write_config(
            tmp_path / "k.cfg", text.format(t_end=2.0, outdir=killed.parent)))
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 20
            while not (killed.exists() and killed.read_bytes().count(b"\n") > rows):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.kill()
            assert proc.wait(timeout=10) == -signal.SIGKILL
        finally:
            proc.kill()
            proc.wait()
        kept = killed.read_bytes()
        assert not (killed.parent / "diagnostics.csv").exists()
        assert main(["run", write_config(tmp_path / "u.cfg",
                                         text.format(t_end=2.0, outdir=tmp_path / "u"))]) == 0
        whole = (tmp_path / "u" / "diagnostics.csv").read_bytes()
        assert whole.startswith(kept) and kept.count(b"\n") > rows
        assert kept.endswith(b"\n") and len(kept) < len(whole)

    def test_snapshot_memory_does_not_grow_with_the_samples(self, tmp_path):
        # each snapshot is written when it is sampled, so 36 more samples
        # hold less than one more half spectrum at their peak
        def peak(samples):
            text = DECAY_RUN.format(t_end=0.002 * (samples - 1), outdir=tmp_path / "o")
            text = (text.replace("32, 32", "128, 128").replace("1, 2, 4, inf", "2")
                    .replace("sample_every = 0.1", "sample_every = 0.002"))
            cfg = RunConfig.parse(text + "output.snapshots = true\n")
            tracemalloc.start()
            try:
                assert cli.cmd_run(cfg)[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # fills numpy's and the domain's caches
        assert len(list((tmp_path / "o").glob("snapshot_*.dpmf"))) == 4
        half_spectrum = 128 * 65 * 16
        assert peak(40) - peak(4) < half_spectrum

    def test_failing_bound_check_exits_2(self, tmp_path):
        # inviscid steps of 0.1 on large data are unstable: the L^2 norm, which
        # the exact flow conserves, goes from 20 to 25.7 over the last step
        # without blowing up, so the budget inequality must fail
        text = """\
domain.dim = 2
domain.n = 32, 32
solver.nu = 0
solver.alpha = 1.0
solver.dt = 0.1
solver.t_end = 0.5
initial.kind = random
initial.seed = 1
initial.l2_norm = 20
diagnostics.p_list = 2
diagnostics.sample_every = 0.1
diagnostics.checks = dissipation_budget
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "grow.cfg", text.format(outdir=tmp_path / "o"))
        assert main(["run", cfg]) == 2
        rows = csv_rows(tmp_path / "o" / "diagnostics.csv")
        assert [float(row["l2"]) for row in rows][::5] == pytest.approx([20.0, 25.7], rel=1e-2)

    def test_unexpected_blowup_exits_3(self, tmp_path, capsys):
        unstable = """\
domain.dim = 2
domain.n = 16, 16
solver.nu = 0
solver.alpha = 1.0
solver.dt = 50.0
solver.t_end = 2500.0
initial.kind = random
initial.seed = 0
initial.l2_norm = 50.0
diagnostics.p_list = 2
diagnostics.sample_every = 500
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "u.cfg", unstable.format(outdir=tmp_path / "o"))
        assert main(["run", cfg]) == 3
        cfg2 = write_config(tmp_path / "u2.cfg",
                            unstable.format(outdir=tmp_path / "o2")
                            + "solver.allow_blowup = true\n")
        assert main(["run", cfg2]) == 0


BLOWUP_CFG = """\
blowup.n = 128
blowup.dt = 0.001
blowup.t_end = {t_end}
blowup.amplitude = 1.0
blowup.sample_every = 0.05
blowup.threshold = 1e6
output.dir = {outdir}
"""


class TestBlowupCommand:
    def test_short_oracle_run(self, tmp_path):
        cfg = write_config(tmp_path / "b.cfg",
                           BLOWUP_CFG.format(t_end=0.4, outdir=tmp_path / "o"))
        assert main(["blowup1d", cfg]) == 0
        header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",") == ["t", "l2", "linf", "max", "g", "h2",
                                     "oracle_beta", "oracle_r"]

    def test_blowup_detected_with_accurate_t_star(self, tmp_path):
        cfg = write_config(tmp_path / "b.cfg",
                           BLOWUP_CFG.format(t_end=3.0, outdir=tmp_path / "o"))
        assert main(["blowup1d", cfg]) == 0
        summary = (tmp_path / "o" / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert row["blew_up"] == "1"
        assert abs(float(row["t_star_est"]) - math.pi / 2) / (math.pi / 2) < 0.01
        assert row["checks_passed"] == "1"

    def test_fixed_steps_are_all_blowup_dt(self, tmp_path, monkeypatch):
        # a cadence that is a multiple of blowup.dt shortens no step
        sizes = []
        advance = _StreamOps.advance
        monkeypatch.setattr(_StreamOps, "advance", lambda self, x, nl, dt, out=None:
                            sizes.append(dt) or advance(self, x, nl, dt, out))
        text = BLOWUP_CFG.format(t_end=0.2, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg", text.replace("blowup.n = 128", "blowup.n = 64")
                           + "blowup.adaptive = false\n")
        assert main(["blowup1d", cfg]) == 0
        assert sizes == [0.001] * 200

    def test_blowup_before_a_closed_form_t_star_beyond_t_end_fails(self, tmp_path):
        # |w| = sec t passes 3 at t = 1.23, before t_end = 1.5, while the
        # closed form blows up at pi/2: the oracle check fails
        text = BLOWUP_CFG.format(t_end=1.5, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg", text.replace("blowup.n = 128", "blowup.n = 64")
                           .replace("blowup.threshold = 1e6", "blowup.threshold = 3"))
        assert main(["blowup1d", cfg]) == 2
        row = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert (row["blew_up"], row["checks_passed"], row["t_star_rel_err"]) == ("1", "0", "nan")
        assert float(row["t_final"]) < 1.5

    def test_quasilinear_run_with_max_bound(self, tmp_path):
        text = """\
blowup.n = 128
blowup.dt = 0.001
blowup.t_end = 0.5
blowup.amplitude = 5.0
blowup.mode = quasilinear
blowup.nu = 0.1
blowup.sample_every = 0.02
blowup.max_bound_check = true
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "q.cfg", text.format(outdir=tmp_path / "o"))
        assert main(["blowup1d", cfg]) == 0
        header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
        assert "max_bound_pass" in header

    def test_restart_max_bound_starts_from_the_restart(self, tmp_path):
        # Q(t0) = max w + g of the restart's first record, over t - t0: the
        # restart's M alone, from t = 0, failed at the first record
        text = """\
blowup.n = 128
blowup.dt = 0.001
blowup.mode = quasilinear
blowup.nu = 2.0
blowup.sample_every = 0.02
"""
        first = write_config(tmp_path / "a.cfg", text + "blowup.t_end = 0.1\n"
                             "blowup.amplitude = 5.0\n"
                             f"output.dir = {tmp_path / 'a'}\noutput.checkpoint = ck.dpmf\n")
        assert main(["blowup1d", first]) == 0
        restart = write_config(tmp_path / "b.cfg", text + "blowup.t_end = 0.3\n"
                               "blowup.initial = file\n"
                               f"blowup.path = {tmp_path / 'a' / 'ck.dpmf'}\n"
                               "blowup.max_bound_check = true\n"
                               f"output.dir = {tmp_path / 'b'}\n")
        assert main(["blowup1d", restart]) == 0
        rows = csv_rows(tmp_path / "b" / "trajectory.csv")
        assert float(rows[0]["t"]) == pytest.approx(0.1)
        assert rows[0]["max_bound_bound"] == rows[0]["max_bound_value"]
        assert all(r["max_bound_pass"] == "1" for r in rows)

    def test_restart_with_non_positive_max_bound_start_exits_4(self, tmp_path, capsys,
                                                                monkeypatch, no_step):
        # max w + g = 1 - 2 at the restart: the bound needs a positive start,
        # and the run stops before its first step
        calls = []
        advance = _StreamOps.advance
        monkeypatch.setattr(_StreamOps, "advance",
                            lambda self, *a, **kw: calls.append(1) or advance(self, *a, **kw))
        d = Domain((64,))
        write_snapshot(tmp_path / "neg.dpmf", 0.0, PhysicalField(d, np.cos(d.grid[0])), g=-2.0)
        text = BLOWUP_CFG.format(t_end=0.1, outdir=tmp_path / "o")
        text = (text.replace("blowup.n = 128", "blowup.n = 64")
                .replace("blowup.amplitude = 1.0\n", ""))  # read for cosine data only
        cfg = write_config(tmp_path / "n.cfg", text
                           + f"blowup.initial = file\nblowup.path = {tmp_path / 'neg.dpmf'}\n"
                           "blowup.max_bound_check = true\n")
        assert main(["blowup1d", cfg]) == 4
        assert "max_bound_check" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert not calls

    def test_restart_with_non_finite_g_exits_4(self, tmp_path, capsys, no_step):
        # a NaN g would flag blow-up at once, after no step
        d = Domain((64,))
        write_snapshot(tmp_path / "nan.dpmf", 0.0, PhysicalField(d, np.cos(d.grid[0])),
                       g=math.nan)
        text = BLOWUP_CFG.format(t_end=0.1, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "n.cfg", text.replace("blowup.n = 128", "blowup.n = 64")
                           + f"blowup.initial = file\nblowup.path = {tmp_path / 'nan.dpmf'}\n")
        assert main(["blowup1d", cfg]) == 4
        assert "blowup.path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_restart_on_another_grid_than_blowup_n_exits_4(self, tmp_path, capsys, no_step):
        # a 64-point checkpoint under blowup.n = 128: the key is not ignored
        d = Domain((64,))
        write_snapshot(tmp_path / "ck.dpmf", 0.0, PhysicalField(d, np.cos(d.grid[0])))
        cfg = write_config(tmp_path / "r.cfg",
                           BLOWUP_CFG.format(t_end=0.1, outdir=tmp_path / "o")
                           + f"blowup.initial = file\nblowup.path = {tmp_path / 'ck.dpmf'}\n")
        assert main(["blowup1d", cfg]) == 4
        assert "blowup.n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_t_star_estimate_exits_2(self, tmp_path):
        # the first step overflows, so no history is left to estimate t*
        # from: its NaN error fails the t* check rather than passing it
        text = """\
blowup.n = 64
blowup.amplitude = 1e100
blowup.dt = 1
blowup.t_end = 1
blowup.sample_every = 1
blowup.oracle = on
output.dir = {outdir}
"""
        cfg = write_config(tmp_path / "b.cfg", text.format(outdir=tmp_path / "o"))
        assert main(["blowup1d", cfg]) == 2
        row = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert (row["blew_up"], row["t_star_rel_err"], row["checks_passed"]) == ("1", "nan", "0")

    def test_unattainable_oracle_tolerance_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blowup1d, "ORACLE_RTOL", 1e-18)
        cfg = write_config(tmp_path / "b.cfg",
                           BLOWUP_CFG.format(t_end=0.4, outdir=tmp_path / "o"))
        assert main(["blowup1d", cfg]) == 2
        row = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert 1e-18 < float(row["g_oracle_max_rel_err"]) < 1e-5

    @pytest.mark.parametrize("cadence", ["0", "-0.01"])
    def test_non_positive_cadence_exits_4(self, tmp_path, cadence):
        text = BLOWUP_CFG.format(t_end=0.4, outdir=tmp_path / "o")
        text = text.replace("blowup.n = 128", "blowup.n = 64")
        cfg = write_config(tmp_path / "c.cfg",
                           text.replace("sample_every = 0.05", f"sample_every = {cadence}"))
        proc = run_cli("blowup1d", cfg)
        assert proc.returncode == 4
        assert "sample_every" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_auto_oracle_goes_without_a_closed_form_that_does_not_exist(self, tmp_path):
        # r0 = 1 and nu = 2: the closed form needs r0^2 > nu^2, so auto runs
        # without the oracle (oracle = on is refused: test_bad_input_exits_4)
        text = BLOWUP_CFG.format(t_end=0.2, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg", text.replace("blowup.n = 128", "blowup.n = 64")
                           + "blowup.mode = spectral\nblowup.nu = 2\n")
        assert main(["blowup1d", cfg]) == 0
        rows = csv_rows(tmp_path / "o" / "trajectory.csv")
        assert rows and all(r["oracle_beta"] == r["oracle_r"] == "nan" for r in rows)
        summary = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert summary["t_star_analytic"] == summary["g_oracle_max_rel_err"] == "nan"

    def test_dissipative_sign_runs_without_the_oracle(self, tmp_path):
        # the closed form holds under the oracle sign only: under auto the
        # oracle columns are nan and no oracle check fails (oracle = on is
        # refused: test_bad_input_exits_4)
        text = BLOWUP_CFG.format(t_end=0.2, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg", text.replace("blowup.n = 128", "blowup.n = 64")
                           + "blowup.mode = spectral\nblowup.nu = 0.1\n"
                           "blowup.sign = dissipative\n")
        assert main(["blowup1d", cfg]) == 0
        rows = csv_rows(tmp_path / "o" / "trajectory.csv")
        assert len(rows) == 5 and all(r["oracle_beta"] == r["oracle_r"] == "nan" for r in rows)
        summary = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert (summary["blew_up"], summary["checks_passed"]) == ("0", "1")
        assert summary["t_star_analytic"] == summary["g_oracle_max_rel_err"] == "nan"

    def test_zero_t_star_tolerance_fails_a_blowup(self, tmp_path, monkeypatch):
        # the t* estimate is within 1% of pi/2
        # (test_blowup_detected_with_accurate_t_star), not equal to it
        monkeypatch.setattr(blowup1d, "TSTAR_RTOL", 0.0)
        text = BLOWUP_CFG.format(t_end=3.0, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg", text.replace("blowup.n = 128", "blowup.n = 64"))
        assert main(["blowup1d", cfg]) == 2
        row = csv_rows(tmp_path / "o" / "summary.csv")[0]
        assert (row["blew_up"], row["checks_passed"]) == ("1", "0")
        assert 0 < float(row["t_star_rel_err"]) < 0.01

    def test_oracle_on_with_incompatible_mode_exits_4(self, tmp_path, no_step):
        text = BLOWUP_CFG.format(t_end=0.4, outdir=tmp_path / "o")
        cfg = write_config(tmp_path / "b.cfg",
                           text + "blowup.mode = quasilinear\nblowup.nu = 0.1\n"
                           + "blowup.oracle = on\n")
        assert main(["blowup1d", cfg]) == 4


@pytest.mark.parametrize("command, settings, named", [
    ("run", {"initial.amplitude": "nan"}, "initial"),
    ("run", {"forcing.kind": "single_mode", "forcing.amplitude": "nan"}, "forcing"),
    ("run", {"initial.kind": "random", "initial.l2_norm": "inf"}, "initial"),
    ("run", {"initial.kind": "random", "initial.cutoff": "0"}, "initial"),
    ("run", {"solver.dealias": "false"}, "solver.dealias"),
    ("run", {"diagnostics.slack": "nan"}, "slack"),
    ("blowup1d", {"blowup.amplitude": "nan"}, "blowup"),
    ("blowup1d", {"blowup.initial": "random", "blowup.l2_norm": "inf"}, "blowup"),
    ("blowup1d", {"blowup.t_end": "inf"}, "t_end"),
    ("blowup1d", {"blowup.sample_every": "inf"}, "sample_every"),
    ("blowup1d", {"blowup.threshold": "nan"}, "threshold"),
    ("blowup1d", {"blowup.mode": "quasilinear", "blowup.nu": "nan"}, "nu"),
    ("blowup1d", {"blowup.oracle_rtol": "nan"}, "oracle_rtol"),
    ("run", {"initial.kind": "random", "initial.l2_norm": "-2"}, "initial"),
    ("run", {"forcing.kind": "single_mode", "diagnostics.checks": "absorbing_ball",
             "diagnostics.ball_p": "inf"}, "ball_p"),
    ("blowup1d", {"blowup.initial": "random", "blowup.l2_norm": "0"}, "blowup"),
    ("run", {"diagnostics.checks": "dissipation_budget", "diagnostics.p_list": "4"},
     "dissipation_budget"),
    ("blowup1d", {"blowup.mode": "quasilinear", "blowup.nu": "0.1", "blowup.oracle": "on"},
     "blowup.oracle"),
    ("blowup1d", {"blowup.mode": "spectral", "blowup.nu": "2", "blowup.oracle": "on"},
     "blowup.oracle"),
    ("run", {"diagnostics.s_list": "inf, nan"}, "diagnostics.s_list"),
    ("run", {"solver.scheme": "ifeuler"}, "solver.scheme"),
    ("run", {"diagnostics.chekcs": "decay"}, "diagnostics.chekcs"),
    ("run", {"solver.adaptve": "true"}, "solver.adaptve"),
    # fixed steps of 0.1 cannot land samples every 0.25
    ("run", {"solver.dt": "0.1", "diagnostics.sample_every": "0.25"}, "sample_every"),
    # unrefused, a NaN t_end would take no step, a NaN nu would read as
    # blow-up and an infinite cadence would overflow the stride check
    ("run", {"solver.t_end": "nan"}, "t_end"),
    ("run", {"solver.nu": "nan"}, "nu"),
    ("run", {"solver.dt": "nan"}, "dt"),
    ("run", {"diagnostics.sample_every": "inf"}, "sample_every"),
    # buoyancy acts along the last axis, so no key moves it, not even to
    # the last axis
    ("run", {"domain.buoyancy_axis": "1"}, "domain.buoyancy_axis"),
    ("run", {"diagnostics.checks": "absorbing_ball", "diagnostics.p_list": "2, 4",
             "diagnostics.ball_p": "3"}, "L^3 norm"),
    ("run", {"diagnostics.p_list": "0.5, 2"}, "diagnostics.p_list"),
    ("run", {"diagnostics.checks": "magic"}, "unknown check"),
    ("run", {"forcing.kind": "single_mode", "forcing.wavevector": "0, 1"}, "unforced runs only"),
    # retired keys: IF-RK4 with the 2/3 rule is the one behaviour, so no value is read
    ("run", {"solver.scheme": "ifrk4"}, "solver.scheme"),
    ("run", {"solver.dealias": "true"}, "solver.dealias"),
    # fixed 1D steps cannot land samples every 0.05 either: 6e-4 does not
    # divide it, and 0.1 exceeds it
    ("blowup1d", {"blowup.adaptive": "false", "blowup.dt": "6e-4"}, "blowup.sample_every"),
    ("blowup1d", {"blowup.adaptive": "false", "blowup.dt": "0.1"}, "blowup.sample_every"),
    # a run must end after it starts
    ("run", {"solver.t_end": "0"}, "must exceed the start time"),
    # one domain.n entry serves every axis; any other count but dim is refused
    ("run", {"domain.n": "32, 32, 32"}, "domain.n"),
    # the decay is proved for p >= 2 only; 1.5 is not even sampled
    ("run", {"diagnostics.decay_p": "1"}, "decay_p = 1): decay is proved for p >= 2 only"),
    ("run", {"diagnostics.decay_p": "1.5"}, "decay is proved for p >= 2 only"),
    # fixed steps of 0.01 (1e-3) cannot end at t_end = 0.105 (0.0105) but by
    # a shortened last step
    ("run", {"solver.dt": "0.01", "solver.t_end": "0.105"}, "solver.t_end - start time"),
    ("blowup1d", {"blowup.adaptive": "false", "blowup.t_end": "0.0105"},
     "blowup.t_end - start time"),
    # the closed form holds under the oracle sign only
    ("blowup1d", {"blowup.mode": "spectral", "blowup.nu": "0.1", "blowup.sign": "dissipative",
                  "blowup.oracle": "on"}, "blowup.oracle"),
    ("blowup1d", {"blowup.max_bound_check": "true", "blowup.slack": "nan"}, "blowup.slack"),
    # the regularization keys are read only in the modes where they act
    ("blowup1d", {"blowup.nu": "5"}, "blowup.nu"),
    ("blowup1d", {"blowup.mode": "quasilinear", "blowup.nu": "0.1",
                  "blowup.sign": "dissipative"}, "blowup.sign"),
    # decay_p and ball_p are read only when a named check takes them, and
    # cfl_safety and the slacks never (None: the key is left unset)
    ("run", {"solver.cfl_safety": "0.5"}, "solver.cfl_safety"),
    ("run", {"diagnostics.checks": "dissipation_budget", "diagnostics.decay_p": "4"},
     "diagnostics.decay_p"),
    ("run", {"diagnostics.ball_p": "4"}, "diagnostics.ball_p"),
    ("run", {"diagnostics.checks": None, "diagnostics.slack": "0.1"}, "diagnostics.slack"),
    ("blowup1d", {"blowup.slack": "0.5"}, "blowup.slack"),
    # retired tuning keys, each set where it used to act: the library's
    # defaults are the one behaviour
    ("run", {"solver.adaptive": "true", "solver.cfl_safety": "0.5"}, "solver.cfl_safety"),
    ("run", {"diagnostics.slack": "1e-3"}, "diagnostics.slack"),
    ("blowup1d", {"blowup.max_bound_check": "true", "blowup.slack": "1e-3"}, "blowup.slack"),
    ("blowup1d", {"blowup.oracle_rtol": "1e-3"}, "blowup.oracle_rtol"),
    ("blowup1d", {"blowup.tstar_rtol": "0.5"}, "blowup.tstar_rtol"),
    # the absorbing ball is proved for p >= 2 only
    ("run", {"forcing.kind": "single_mode", "diagnostics.checks": "absorbing_ball",
             "diagnostics.ball_p": "1"}, "ball_p = 1): absorbing ball needs a finite p >= 2"),
    # a single mode is named by its wave vector only, each set where it
    # used to act (None: the key is left unset)
    ("run", {"initial.wavevector": None, "initial.axis": "1"}, "initial.axis"),
    ("run", {"initial.wavevector": None, "initial.wavenumber": "2"}, "initial.wavenumber"),
    ("run", {"diagnostics.checks": "absorbing_ball", "forcing.kind": "single_mode",
             "forcing.axis": "1"}, "forcing.axis"),
    ("run", {"diagnostics.checks": "absorbing_ball", "forcing.kind": "single_mode",
             "forcing.wavenumber": "2"}, "forcing.wavenumber"),
    # a switch is true or false
    ("run", {"solver.adaptive": "yes"}, "solver.adaptive"),
    # a mode outside the 2/3 box |k_j| <= 32 // 3 would be truncated to
    # rounding noise, whether data or forcing
    ("run", {"initial.wavevector": "12, 0"}, "initial.wavevector"),
    ("run", {"diagnostics.checks": "absorbing_ball", "forcing.kind": "single_mode",
             "forcing.wavevector": "12, 0", "forcing.amplitude": "5"}, "forcing.wavevector"),
    # the output files stay inside output.dir, so sweep points cannot share
    # them ({tmp_path} is the test's own directory, which holds output.dir)
    ("run", {"output.csv": "{tmp_path}/d.csv"}, "output.csv"),
    ("run", {"output.csv": "sub/../../d.csv"}, "output.csv"),
    ("run", {"output.checkpoint": "{tmp_path}/final.dpmf"}, "output.checkpoint"),
    ("run", {"output.checkpoint": "../final.dpmf"}, "output.checkpoint"),
    ("run", {"output.csv": "sub/.."}, "output.csv"),  # output.dir itself
    # each file under output.dir comes from one output: the checkpoint would
    # replace the CSV, the trajectory the 1D summary, a point's CSV the
    # config.txt that reruns it, the checkpoint the second snapshot, and a
    # CSV named as the checkpoint's directory could not be moved into place
    ("run", {"output.csv": "d.csv", "output.checkpoint": "sub/../d.csv"},
     "output.checkpoint = sub/../d.csv clashes with output.csv"),
    ("blowup1d", {"output.csv": "summary.csv"},
     "output.csv = summary.csv clashes with the run's summary"),
    ("sweep", {"sweep.solver.nu": "0.05 | 0.1", "sweep.workers": "1", "output.csv": "config.txt"},
     "output.csv = config.txt clashes with the point's config"),
    ("run", {"output.snapshots": "true", "output.checkpoint": "snapshot_00001.dpmf"},
     "output.checkpoint = snapshot_00001.dpmf clashes with output.snapshots"),
    ("run", {"output.csv": "sub", "output.checkpoint": "sub/final.dpmf"},
     "output.checkpoint = sub/final.dpmf clashes with output.csv"),
])
def test_bad_input_exits_4(tmp_path, capsys, command, settings, named, no_step):
    # none of these may end in a traceback, nor in a run of something else
    text = (BLOWUP_CFG if command == "blowup1d" else DECAY_RUN).format(
        t_end=0.2, outdir=tmp_path / "o")
    kept = [line for line in text.splitlines() if line.split(" =")[0] not in settings]
    cfg = write_config(tmp_path / "c.cfg", "\n".join(
        kept + [f"{key} = {value.format(tmp_path=tmp_path)}"
                for key, value in settings.items() if value is not None])
        + "\n")
    assert main([command, cfg]) == 4
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestSweep:
    def test_cartesian_sweep(self, tmp_path):
        text = DECAY_RUN.format(t_end=0.3, outdir=tmp_path / "sweep")
        text = text.replace("diagnostics.checks = decay, dissipation_budget",
                            "diagnostics.checks = decay")
        text += ("sweep.solver.alpha = 1.0 | 2.0\n"
                 "sweep.solver.nu = 0.05 | 0.1\n"
                 "sweep.workers = 2\n")
        cfg = write_config(tmp_path / "s.cfg", text)
        assert main(["sweep", cfg]) == 0
        outdir = tmp_path / "sweep"
        points = sorted(p for p in os.listdir(outdir) if p.startswith("pt"))
        assert len(points) == 4
        for p in points:
            assert (outdir / p / "diagnostics.csv").exists()
            assert (outdir / p / "config.txt").exists()
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0].split(",")[:3] == ["point", "solver.alpha", "solver.nu"]
        assert len(summary) == 5
        assert all(line.split(",")[3] == "0" for line in summary[1:])

    def test_bad_point_is_reported_and_the_rest_kept(self, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=2, dts="1e-3 | -1", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 4
        rows = csv_rows(tmp_path / "o" / "summary.csv")
        assert [r["exit_code"] for r in rows] == ["0", "4"]
        assert "blowup.dt" in rows[1]["metrics"]

    def test_unexpected_error_in_a_point_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cmd_blowup", _blowup_failing_on_dt_2e_3)
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=2, dts="1e-3 | 2e-3 | 3e-3", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 1
        rows = csv_rows(tmp_path / "o" / "summary.csv")
        assert [r["exit_code"] for r in rows] == ["0", "1", "0"]
        assert rows[1]["metrics"] == "error=RuntimeError: unexpected, at one point"

    def test_a_dead_point_process_loses_no_other_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cmd_blowup", _blowup_dying_on_dt_2e_3)
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=2, dts="1e-3 | 2e-3 | 3e-3 | 4e-3", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 1
        rows = csv_rows(tmp_path / "o" / "summary.csv")
        assert [r["exit_code"] for r in rows] == ["0", "1", "0", "0"]
        assert rows[1]["metrics"] == "error=no result, exit code 9"
        kept = sorted(p.parent.name[:6] for p in (tmp_path / "o").glob("pt*/trajectory.csv"))
        assert kept == ["pt0000", "pt0002", "pt0003"]

    def test_a_point_config_reruns_that_point_alone(self, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=1, dts="1e-3 | 2e-3", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 0

        def files():
            return {p: p.read_bytes() for p in (tmp_path / "o").rglob("*") if p.is_file()}

        before = files()
        (point,) = (tmp_path / "o").glob("pt0000*")
        (point / "trajectory.csv").unlink()
        assert main(["blowup1d", str(point / "config.txt")]) == 0
        assert files() == before  # the same point files again, and nothing else

    def test_interrupted_sweep_keeps_the_finished_points(self, tmp_path):
        # one worker runs the points in order: point 0 finishes, and point 1
        # is interrupted, which stops the sweep
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=1, dts="1e-3 | 1e-7 | 1e-7", outdir=tmp_path / "o"))
        interrupt_sweep_after_a_row(cfg, tmp_path / "o")
        rows = csv_rows(tmp_path / "o" / "summary.csv")
        assert [(r["point"], r["exit_code"]) for r in rows] == [("pt0000", "0"), ("pt0001", "1")]
        assert rows[0]["metrics"] and not rows[0]["metrics"].startswith("error=")
        (kept,) = (tmp_path / "o").glob("pt0000*/trajectory.csv")
        assert len(csv_rows(kept)) == 3  # t = 0, 0.05, 0.1

    def test_interrupted_sweep_starts_no_further_point(self, tmp_path):
        # point 0 takes 100 steps and the others 10^6: a SIGINT to the whole
        # process group after point 0's row ends the two points running,
        # gives each a row, and starts no other
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=2, dts="1e-3 | 1e-7 | 1e-7 | 1e-7", outdir=tmp_path / "o"))
        interrupt_sweep_after_a_row(cfg, tmp_path / "o")
        rows = csv_rows(tmp_path / "o" / "summary.csv")
        assert [(r["point"], r["exit_code"]) for r in rows] == [
            ("pt0000", "0"), ("pt0001", "1"), ("pt0002", "1")]
        assert rows[1]["metrics"] == rows[2]["metrics"] == "error=interrupted"
        written = sorted(p.parent.name[:6] for p in (tmp_path / "o").glob("pt*/*.csv"))
        assert written == ["pt0000", "pt0000"]  # its summary and trajectory

    def test_warnings_print_once_per_point_in_point_order(self, tmp_path):
        # one process would warn once for both supercritical points
        errs = []
        for run in ("a", "b"):
            text = DECAY_RUN.format(t_end=0.1, outdir=tmp_path / run)
            cfg = write_config(tmp_path / f"{run}.cfg", text + "sweep.workers = 1\n"
                               "sweep.solver.alpha = 0.5 | 0.8\n")
            proc = run_cli("sweep", cfg)
            assert proc.returncode == 0, proc.stderr
            errs.append(proc.stderr)
        assert errs[0] == errs[1] and errs[0].count("supercritical regime") == 2
        assert [line[:21] for line in errs[0].splitlines()] == [
            "pt0000: UserWarning: ", "pt0001: UserWarning: "]

    def test_each_point_runs_in_a_process_of_its_own(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cmd_blowup", _blowup_noting_its_process)
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=2, dts="1e-3 | 2e-3 | 3e-3 | 4e-3 | 5e-3", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 0
        spans = [[float(v) for v in p.read_text().split()]
                 for p in sorted((tmp_path / "o").glob("pt*/process.txt"))]
        pids = {int(pid) for pid, _, _ in spans}
        assert len(spans) == len(pids) == 5 and os.getpid() not in pids
        # the most points running at one time: at a start, those begun and not ended
        assert max(sum(s <= start < e for _, s, e in spans) for _, start, _ in spans) == 2

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_exit_4(self, tmp_path, capsys, workers, no_step):
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=workers, dts="1e-3 | 2e-3", outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 4
        assert "sweep.workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_output_dir_axis_exits_4(self, tmp_path, capsys, no_step):
        # each point's output.dir is its own subdirectory, never an axis value
        cfg = write_config(tmp_path / "s.cfg", BLOWUP_SWEEP.format(
            workers=1, dts="1e-3", outdir=tmp_path / "o")
            + f"sweep.output.dir = {tmp_path / 'a'} | {tmp_path / 'b'}\n")
        assert main(["sweep", cfg]) == 4
        assert "sweep.output.dir" in capsys.readouterr().err
        assert not list(tmp_path.rglob("pt*"))

    def test_sweep_without_axes_exits_4(self, tmp_path, no_step):
        cfg = write_config(tmp_path / "s.cfg",
                           DECAY_RUN.format(t_end=0.3, outdir=tmp_path / "o"))
        assert main(["sweep", cfg]) == 4
