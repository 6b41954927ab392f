"""Pseudo-spectral simulation of heat transport in a porous medium (DPM).

Temperature is advected by the divergence-free Darcy velocity it induces and
damped by a fractional Laplacian; the package integrates the system on the
periodic torus in 1 to 3 dimensions, verifies the analytic decay and
absorbing-ball estimates at runtime, and reproduces the closed-form
infinite-energy blow-up solutions of the 1D stream-slope reduction.

Importing the package gives BLAS one thread: it sets OPENBLAS_NUM_THREADS=1
unless the user has set it, before numpy first loads, and the processes it
starts inherit it.  Left to itself, the OpenBLAS that numpy bundles starts a
worker thread at import that busy-waits on a second core, a measurable CPU
cost in every process that does no work: every transform is pocketfft,
every step operation a ufunc, and BLAS only ever sees small products.  A
sweep then also forks its points from a process with one thread.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads; see above

from .blowup1d import (OracleParams, Regularization, StreamRecord,
                       StreamSlopeState, antiderivative,
                       blowup_time, check_max_bound, estimate_blowup_time,
                       integrate_amplitude_ode, oracle_beta, oracle_r,
                       run_stream_slope, stream_rhs)
from .config import ConfigError, RunConfig
from .diagnostics import (CheckResult, DiagnosticsRecord, check_absorbing_ball,
                          check_decay_torus, check_dissipation_budget,
                          compute_record, records_to_csv)
from .snapshots import read_snapshot, write_snapshot
from .solver import RunResult, SimulationState, SolverParams, nonlinear_term, run
from .spectral import (Domain, PhysicalField, SpectralField, dealias,
                       forward_transform, fractional_laplacian, hs_seminorm,
                       inverse_transform, lp_norm, partial_derivative,
                       random_field, refine, riesz_potential, riesz_transform,
                       sup_norm)
from .velocity import (VelocityField, pressure_from_temperature,
                       velocity_from_temperature)

__version__ = "0.1.0"
