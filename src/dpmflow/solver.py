"""Time integration of the DPM system on the torus.

The evolution dT/dt + v.grad T = -nu Lambda^alpha T + f is advanced in
Fourier space with an integrating-factor scheme: the diffusion term is
diagonal there and is propagated exactly by exp(-nu |k|^alpha dt), so
stiffness at alpha near 2 costs nothing; the advection term and forcing are
handled by the explicit Runge-Kutta stages.  The advection is evaluated
pseudo-spectrally in conservative form -div(v T), which together with the
2/3-rule truncation of the state makes the discrete transport term exactly
skew-symmetric, preserving the L^2 norm of the unforced inviscid system to
rounding.

Along a run the energy-budget integrals (dissipation and forcing injection)
are accumulated at step resolution with a derivative-corrected trapezoid
rule, so downstream budget checks are limited by the integrator rather than
by the sampling cadence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import Domain, PhysicalField, SpectralField, complete_spectrum
from .velocity import max_speed, velocity_coefficients

SCHEMES = ("ifrk4", "ifeuler")


class BlowUpError(RuntimeError):
    """Raised when a coefficient becomes non-finite; carries the last finite state."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SolverParams:
    """Evolution parameters: diffusion, fractional order, stepping policy."""

    nu: float
    alpha: float
    dt: float
    t_end: float
    scheme: str = "ifrk4"
    dealias: bool = True
    adaptive: bool = False
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not 0.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [0, 2], got {self.alpha}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")


@dataclass(frozen=True)
class ForcingSpec:
    """Time-independent source term, or None for the unforced system."""

    f_hat: SpectralField | None = None

    @property
    def mean(self):
        return 0.0 if self.f_hat is None else complex(self.f_hat.mean)


@dataclass(frozen=True)
class SimulationState:
    t: float
    t_hat: SpectralField


@dataclass
class RunResult:
    """Trajectory summary: diagnostics records plus the final spectral state."""

    records: list
    final_state: SimulationState
    blew_up: bool = False
    states: list | None = None
    initial: PhysicalField | None = None
    forcing: ForcingSpec | None = None
    params: SolverParams | None = None


class _Integrator:
    """Precomputed multipliers and propagators for one (domain, params, forcing).

    Coefficient arrays here are rfftn half spectra (Domain.half): every
    multiplier is sliced to that layout and every sum over modes carries
    Domain.parseval_weights.
    """

    def __init__(self, domain: Domain, params: SolverParams, forcing: ForcingSpec):
        self.domain = domain
        self.params = params
        self.axes = tuple(range(1, domain.dim + 1))
        half = domain.half
        nz = half(domain.k_squared) > 0
        self.k_alpha = np.where(nz, np.maximum(half(domain.k_abs), 1.0) ** params.alpha, 0.0)
        self.lam = -params.nu * self.k_alpha
        self.weights = domain.parseval_weights
        self.mask = half(domain.dealias_mask)
        self.deriv = [1j * half(k) for k in domain.deriv_wavenumbers]
        self.f_hat = None
        if forcing is not None and forcing.f_hat is not None:
            fh = half(np.asarray(forcing.f_hat.coeffs))
            if params.dealias:
                fh = np.where(self.mask, fh, 0.0)
            self.f_hat = fh
        self._props = {}
        self.last_vmax = 0.0

    def propagators(self, dt):
        cached = self._props.get(dt)
        if cached is None:
            cached = (np.exp(self.lam * (0.5 * dt)), np.exp(self.lam * dt))
            if len(self._props) > 8:
                self._props.clear()
            self._props[dt] = cached
        return cached

    def nonlinear(self, c):
        """-div(v T) in spectral form (dealiased product), plus forcing."""
        d = self.domain
        # overflow on the way to blow-up is expected; detection is explicit
        with np.errstate(over="ignore", invalid="ignore"):
            stack = np.stack([c] + velocity_coefficients(d, c))
            phys = np.fft.irfftn(stack, s=d.n, axes=self.axes, norm="forward")
            t_phys = phys[0]
            self.last_vmax = float(np.sqrt(np.sum(phys[1:] ** 2, axis=0)).max())
            prod_hat = np.fft.rfftn(phys[1:] * t_phys, axes=self.axes, norm="forward")
        if self.params.dealias:
            prod_hat *= self.mask
        out = np.zeros_like(c)
        for j in range(d.dim):
            out -= self.deriv[j] * prod_hat[j]
        if self.f_hat is not None:
            out = out + self.f_hat
        return out

    def advance(self, c, nl_a, dt):
        """One step from coefficients c, reusing nl_a = nonlinear(c)."""
        e_half, e_full = self.propagators(dt)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.params.scheme == "ifeuler":
                return e_full * (c + dt * nl_a)
            b = self.nonlinear(e_half * (c + (0.5 * dt) * nl_a))
            cc = self.nonlinear(e_half * c + (0.5 * dt) * b)
            dd = self.nonlinear(e_full * c + dt * (e_half * cc))
            return e_full * c + (dt / 6.0) * (e_full * nl_a + 2.0 * e_half * (b + cc) + dd)

    def _sum(self, x):
        """Full-spectrum sum of an even-in-k quantity given on the half."""
        return float(np.sum(self.weights * x))

    def budget(self, c, rhs):
        """Energy-budget integrands and their rates at state c with tendency rhs.

        (nu ||Lambda^(alpha/2) T||_2^2, integral of f T, and the time
        derivatives of both.)
        """
        vol = self.domain.volume
        nu = self.params.nu
        diss = nu * vol * self._sum(self.k_alpha * np.abs(c) ** 2)
        diss_rate = 2.0 * nu * vol * self._sum(self.k_alpha * (np.conj(c) * rhs).real)
        if self.f_hat is None:
            return diss, 0.0, diss_rate, 0.0
        inj = vol * self._sum((self.f_hat * np.conj(c)).real)
        inj_rate = vol * self._sum((self.f_hat * np.conj(rhs)).real)
        return diss, inj, diss_rate, inj_rate


def nonlinear_term(t_hat: SpectralField, dealias_products: bool = True,
                   forcing: ForcingSpec | None = None) -> SpectralField:
    """Conservative advection term -div(v T) of a temperature field.

    The velocity and temperature are multiplied on the collocation grid and
    the divergence is taken spectrally; the product is 2/3-truncated unless
    dealias_products is False.  A forcing term, when given, is added.
    """
    d = t_hat.domain
    params = SolverParams(nu=0.0, alpha=1.0, dt=1.0, t_end=1.0, dealias=dealias_products)
    integ = _Integrator(d, params, forcing or ForcingSpec())
    return SpectralField(d, complete_spectrum(integ.nonlinear(d.half(t_hat.coeffs)), d))


def cfl_dt(state: SimulationState, params: SolverParams) -> float:
    """Advective step bound: cfl_safety * dx / max(|v|_inf, 1e-8)."""
    d = state.t_hat.domain
    vmax = max_speed(d, d.half(state.t_hat.coeffs))
    dx = 2.0 * math.pi / max(d.n)
    return params.cfl_safety * dx / max(vmax, 1e-8)


def step(state: SimulationState, params: SolverParams,
         forcing: ForcingSpec | None = None) -> SimulationState:
    """Advance one step of size params.dt; raises BlowUpError on non-finite output."""
    d = state.t_hat.domain
    integ = _Integrator(d, params, forcing or ForcingSpec())
    c = d.half(state.t_hat.coeffs)
    c_new = integ.advance(c, integ.nonlinear(c), params.dt)
    if not np.isfinite(np.abs(c_new).sum()):
        raise BlowUpError(f"non-finite coefficients after step at t={state.t}",
                          state=state)
    return SimulationState(state.t + params.dt, SpectralField(d, complete_spectrum(c_new, d)))


def enforce_mean(state: SimulationState, forcing: ForcingSpec,
                 initial_mean: complex, initial_time: float = 0.0) -> SimulationState:
    """Pin the mean mode to its exact law T_hat(0)(t) = T_hat(0)(t0) + (t-t0) f_hat(0)."""
    c = state.t_hat.coeffs.copy()
    idx = (0,) * state.t_hat.domain.dim
    c[idx] = initial_mean + (state.t - initial_time) * forcing.mean
    return SimulationState(state.t, SpectralField(state.t_hat.domain, c))


def resolution_tail(t_hat: SpectralField) -> float:
    """Relative magnitude of the spectrum beyond the 2/3 cutoff."""
    d = t_hat.domain
    a = np.abs(t_hat.coeffs)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    tail = a[~d.dealias_mask]
    return float(tail.max() / peak) if tail.size else 0.0


def run(t0_field: PhysicalField, params: SolverParams,
        forcing: ForcingSpec | None = None, sample_every: float = 0.1,
        p_list=(1.0, 2.0, 4.0, math.inf), s_list=(), linf_refine: int = 4,
        keep_states: bool = False, start_time: float = 0.0) -> RunResult:
    """Integrate to params.t_end, sampling diagnostics on schedule.

    Deterministic given its inputs.  The mean mode is pinned to its exact
    linear-in-time law each step.  If a coefficient becomes non-finite the
    run stops and the result is flagged, keeping the last finite state.
    """
    from .diagnostics import compute_record  # local import avoids a cycle

    forcing = forcing or ForcingSpec()
    domain = t0_field.domain
    if params.alpha < 1.0 and params.nu > 0:
        warnings.warn(
            "alpha < 1 is the supercritical regime: only local or small-data "
            "theory applies and finite-time blow-up has not been ruled out",
            stacklevel=2)

    c = np.fft.rfftn(t0_field.values, norm="forward")
    tail = resolution_tail(SpectralField(domain, complete_spectrum(c, domain)))
    if tail > 1e-10:
        warnings.warn(
            f"initial data is marginally resolved: spectral tail {tail:.2e} "
            "of peak beyond the 2/3 cutoff", stacklevel=2)
    if params.dealias:
        c = np.where(domain.half(domain.dealias_mask), c, 0.0)

    integ = _Integrator(domain, params, forcing)
    idx0 = (0,) * domain.dim
    mean0 = complex(c[idx0])
    f0 = forcing.mean

    span = params.t_end - start_time
    if span <= 0:
        raise ValueError("t_end must exceed the start time")

    def make_state(t, coeffs):
        return SimulationState(t, SpectralField(domain, complete_spectrum(coeffs, domain)))

    records = []
    states = [] if keep_states else None
    diss_int = 0.0
    inj_int = 0.0

    def sample(t, coeffs):
        state = make_state(t, coeffs)
        records.append(compute_record(state, params.nu, params.alpha,
                                      forcing=forcing, p_list=p_list, s_list=s_list,
                                      linf_refine=linf_refine,
                                      diss_integral=diss_int, inj_integral=inj_int))
        if keep_states:
            states.append(state)

    sample(start_time, c)
    nl = integ.nonlinear(c)
    budget = integ.budget(c, integ.lam * c + nl)
    t = start_time

    def step_to(dt, t_new):
        """Advance by dt to t_new and accumulate the budget; False on blow-up."""
        nonlocal c, nl, budget, t, diss_int, inj_int
        c_new = integ.advance(c, nl, dt)
        c_new[idx0] = mean0 + (t_new - start_time) * f0
        if not np.isfinite(np.abs(c_new).sum()):
            return False
        nl = integ.nonlinear(c_new)
        new = integ.budget(c_new, integ.lam * c_new + nl)
        diss_int += _corrected_trapezoid(dt, budget[0], new[0], budget[2], new[2])
        inj_int += _corrected_trapezoid(dt, budget[1], new[1], budget[3], new[3])
        c, budget, t = c_new, new, t_new
        return True

    blew_up = False
    if not params.adaptive:
        n_steps = max(1, math.ceil(span / params.dt - 1e-9))
        stride = max(1, round(sample_every / params.dt))
        for i in range(1, n_steps + 1):
            t_next = start_time + (i * params.dt if i < n_steps else span)
            if not step_to(t_next - t, t_next):
                blew_up = True
                break
            if i % stride == 0 or i == n_steps:
                sample(t, c)
    else:
        next_sample = start_time + sample_every
        eps = 1e-12 * max(1.0, abs(params.t_end))
        while t < params.t_end - eps:
            dt = min(params.dt, params.cfl_safety * (2.0 * math.pi / max(domain.n))
                     / max(integ.last_vmax, 1e-8))
            dt = min(dt, params.t_end - t, next_sample - t)
            if not step_to(dt, t + dt):
                blew_up = True
                break
            if t >= next_sample - eps:
                sample(t, c)
                next_sample += sample_every
        if not blew_up and (not records or records[-1].t < params.t_end - eps):
            sample(t, c)

    final = make_state(t, c)
    return RunResult(records=records, final_state=final, blew_up=blew_up,
                     states=states, initial=t0_field, forcing=forcing, params=params)


def _corrected_trapezoid(dt, f0, f1, df0, df1):
    """Cubic-Hermite quadrature over one step: trapezoid plus endpoint slopes."""
    return 0.5 * dt * (f0 + f1) + (dt * dt / 12.0) * (df0 - df1)
