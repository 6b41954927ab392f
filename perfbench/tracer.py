"""Per-layer timers installed from outside the program.

`Tracer.install()` wraps the public functions of each `dpmflow` module, and
the `numpy.fft` (and, if the program imported it, `scipy.fft`) transform
entry points.  A function is wrapped under every name it is bound to in a
`dpmflow` module, so a call through `from .x import f` is caught in the
namespace of the module that makes it.  Two private methods are hooked
because no public name marks one time step: `solver._Integrator.advance`
and `blowup1d._StreamOps.advance`.  A name that is not there is listed in
`missing`, never skipped silently.

The clocks are `time.perf_counter`; nothing here changes what a wrapped
function computes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
COMPLEX_BYTES = 16


class Stat:
    __slots__ = ("calls", "s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0


class Tracer:
    def __init__(self):
        self.missing = []
        self.stats = {}
        self.reset()

    def reset(self):
        """Zero every count; the installed wrappers stay."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.s = 0.0
        self.fft_points = 0
        self.record_fft_points = 0   # transform points inside compute_record
        self.run_fields = 0.0        # solver.run's own transforms, in fields
        self.dims = set()
        self.record_peak = 0
        self.bytes_written = 0
        self.solver_return = None
        self.output_s = 0.0

    def stat(self, key):
        return self.stats.setdefault(key, Stat())

    # wrapping ------------------------------------------------------------
    def _timed(self, fn, key, before=None, after=None):
        """fn timed under key; before/after see each call's arguments."""
        stat = self.stat(key)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.s += perf() - t
                stat.calls += 1
                if after:
                    after(token, args, kwargs)

        return wrapper

    def _wrap(self, owner, name, key, before=None, after=None):
        """Time owner.name, under every name it is bound to in a dpmflow module."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        wrapper = self._timed(fn, key, before, after)
        for mod in list(sys.modules.values()):
            if mod is owner or getattr(mod, "__name__", "").startswith("dpmflow"):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def _wrap_method(self, module, clsname, name, key):
        cls = getattr(module, clsname, None)
        raw = vars(cls).get(name) if cls is not None else None
        if raw is None:
            self.missing.append(f"{module.__name__}.{clsname}.{name}")
        elif isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self._timed(raw.__func__, key)))
        else:
            setattr(cls, name, self._timed(raw, key))

    def install(self):
        import numpy.fft
        from dpmflow import (blowup1d, cli, config, diagnostics, snapshots,
                             solver, spectral, velocity)

        def fft_before(args, kwargs):
            a = args[0] if args else kwargs.get("a")
            self.fft_points += int(getattr(a, "size", 1))

        fft_modules = [numpy.fft]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        for mod in fft_modules:
            for name in FFT_NAMES:
                if hasattr(mod, name):
                    self._wrap(mod, name, "spectral.fft", before=fft_before)

        self._wrap(spectral, "refine", "spectral.refine")
        for name in ("lp_norm", "hs_seminorm"):
            self._wrap(spectral, name, "spectral.norm")
        self._wrap(velocity, "velocity_coefficients", "velocity.coeff")

        def run_before(args, kwargs):
            return self.fft_points, self.record_fft_points

        def run_after(token, args, kwargs):
            self.solver_return = time.perf_counter()
            domain = args[0].domain
            self.dims.add(domain.dim)
            points = (self.fft_points - token[0]) - (self.record_fft_points - token[1])
            self.run_fields += points / domain.num_points

        self._wrap(solver, "run", "solver.run", run_before, run_after)
        self._wrap_method(solver, "_Integrator", "advance", "solver.step")

        def record_before(args, kwargs):
            tracemalloc.start()
            return self.fft_points

        def record_after(token, args, kwargs):
            self.record_peak = max(self.record_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            self.record_fft_points += self.fft_points - token

        self._wrap(diagnostics, "compute_record", "diagnostics.record",
                   record_before, record_after)
        for name in ("check_decay_torus", "check_absorbing_ball",
                     "check_dissipation_budget"):
            self._wrap(diagnostics, name, "diagnostics.checks")
        self._wrap(diagnostics, "records_to_csv", "diagnostics.csv")

        self._wrap(snapshots, "read_snapshot", "snapshots.read")

        def write_after(token, args, kwargs):
            path = args[0] if args else kwargs["path"]
            if os.path.exists(path):
                self.bytes_written += os.path.getsize(path)

        self._wrap(snapshots, "write_snapshot", "snapshots.write", after=write_after)

        self._wrap_method(config, "RunConfig", "parse", "config.parse")
        for name in ("build_domain", "build_solver_params", "build_initial",
                     "build_forcing", "build_regularization", "build_stream_initial"):
            self._wrap(config, name, "config.build")

        def command_before(args, kwargs):
            self.solver_return = None

        def command_after(token, args, kwargs):
            if self.solver_return is not None:
                self.output_s += time.perf_counter() - self.solver_return

        for name in ("cmd_run", "cmd_blowup"):
            self._wrap(cli, name, "cli.command", command_before, command_after)

        def stream_after(token, args, kwargs):
            self.solver_return = time.perf_counter()

        self._wrap(blowup1d, "run_stream_slope", "blowup1d.run", after=stream_after)
        self._wrap_method(blowup1d, "_StreamOps", "advance", "blowup1d.step")
        return self

    # results -------------------------------------------------------------
    def metrics(self):
        """Per-layer numbers in their reported units (see README.md)."""
        def s(key):
            return self.stat(key).s

        def n(key):
            return self.stat(key).calls

        steps = n("solver.step")
        records = n("diagnostics.record")
        bsteps = n("blowup1d.step")
        fields_per_step = self.run_fields / steps if steps else 0.0
        # floor: 4 nonlinear evaluations x (2*dim + 1) transformed fields
        floor = 4 * (2 * max(self.dims) + 1) if self.dims else 0
        return {
            "spectral.fft_calls": n("spectral.fft"),
            "spectral.fft_s": s("spectral.fft"),
            "spectral.fft_points": self.fft_points,
            "spectral.fft_bytes_computed": self.fft_points * COMPLEX_BYTES,
            "spectral.refine_calls": n("spectral.refine"),
            "spectral.refine_s": s("spectral.refine"),
            "spectral.norm_s": s("spectral.norm"),
            "velocity.coeff_calls": n("velocity.coeff"),
            "velocity.coeff_s": s("velocity.coeff"),
            "solver.steps": steps,
            "solver.run_s": s("solver.run"),
            "solver.step_ms": (1e3 * (s("solver.run") - s("diagnostics.record")) / steps
                               if steps else 0.0),
            "solver.fft_fields_per_step": fields_per_step,
            "solver.fft_floor_ratio": fields_per_step / floor if floor else 0.0,
            "diagnostics.records": records,
            "diagnostics.record_ms": 1e3 * s("diagnostics.record") / records if records else 0.0,
            "diagnostics.record_peak_mb": self.record_peak / 2 ** 20,
            "diagnostics.checks_s": s("diagnostics.checks"),
            "diagnostics.csv_s": s("diagnostics.csv"),
            "snapshots.read_s": s("snapshots.read"),
            "snapshots.write_s": s("snapshots.write"),
            "snapshots.bytes_written": self.bytes_written,
            "config.parse_s": s("config.parse"),
            "config.build_s": s("config.build"),
            "cli.output_s": self.output_s,
            "blowup1d.steps": bsteps,
            "blowup1d.step_us": 1e6 * s("blowup1d.run") / bsteps if bsteps else 0.0,
        }

