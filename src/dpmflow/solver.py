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
from typing import NamedTuple

import numpy as np

from .spectral import Domain, PhysicalField, SpectralField, forward_transform

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
        for name in ("nu", "dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


class _Work(NamedTuple):
    """Work arrays of one _Integrator."""

    spec: np.ndarray     # complex (dim+1)-stack on the half spectrum: T, v, then (v T)^
    phys: np.ndarray     # its real image on the grid
    scratch: np.ndarray  # spec rows 0 and 1 seen as two contiguous real grids
    stages: np.ndarray   # two half-spectrum arrays for the RK4 stages


class IFRK4:
    """Integrating-factor RK4 for dc/dt = lam c + N(c) with a diagonal symbol lam.

    The linear part is propagated exactly by exp(lam dt) (Kassam & Trefethen,
    "Fourth-order time-stepping for stiff PDEs", SIAM J. Sci. Comput. 2005).
    A subclass supplies nonlinear(c, out, _stage), which must read c fully
    before it writes out (the stages pass out=c), and stages(), two scratch
    arrays shaped like c.  The three evaluations inside a step pass
    _stage=True: what only the caller of the first evaluation reads, such
    as the DPM velocity maximum, is skipped there.
    """

    def __init__(self, lam, prop_dtype=np.float64):
        self.prop_dtype = prop_dtype
        self.set_symbol(lam)

    def set_symbol(self, lam):
        """Take lam (which may be the array already held, changed) as the symbol."""
        self.lam = lam
        # a zero symbol propagates by 1 whatever the step, so that adaptive
        # steps, each of its own size, share one cache entry
        self._dt_free = not lam.any()
        self._props = {}

    def propagators(self, dt):
        """exp(lam dt/2), exp(lam dt) and 2 exp(lam dt/2), cached per dt.

        Of dtype prop_dtype: complex propagators spare the multiplies of a
        complex state a cast buffer of its size, with the same results.
        """
        key = 0.0 if self._dt_free else dt
        cached = self._props.get(key)
        if cached is None:
            e_half, e_full = (np.exp(self.lam * h).astype(self.prop_dtype, copy=False)
                              for h in (0.5 * dt, dt))
            cached = (e_half, e_full, 2.0 * e_half)
            if len(self._props) > 8:
                self._props.clear()
            self._props[key] = cached
        return cached

    def rk4(self, c, nl_a, dt, out=None):
        """One step from c, reusing nl_a = nonlinear(c).

        Written into out (which must not be c or nl_a, and serves as scratch
        until then) when given, else into a new array.  Evaluates e_full c +
        (dt/6) (e_full a + 2 e_half (b + c') + d) with the stage tendencies
        a = nl_a, b, c', d.
        """
        e_half, e_full, two_e_half = self.propagators(dt)
        p, q = self.stages()
        if out is None:
            out = np.empty_like(c)
        mul, add = np.multiply, np.add
        # b = N(e_half (c + (dt/2) a)), in p
        self.nonlinear(mul(e_half, add(c, mul(0.5 * dt, nl_a, out=p), out=p), out=p), out=p,
                       _stage=True)
        # c' = N(e_half c + (dt/2) b), in q
        self.nonlinear(add(mul(e_half, c, out=q), mul(0.5 * dt, p, out=out), out=q), out=q,
                       _stage=True)
        add(p, q, out=p)  # b + c'
        # d = N(e_full c + dt (e_half c')), in q
        mul(dt, mul(e_half, q, out=out), out=out)
        self.nonlinear(add(mul(e_full, c, out=q), out, out=q), out=q, _stage=True)
        mul(two_e_half, p, out=p)
        add(add(mul(e_full, nl_a, out=out), p, out=out), q, out=out)
        mul(dt / 6.0, out, out=out)
        return add(mul(e_full, c, out=p), out, out=out)


class _Integrator(IFRK4):
    """The DPM instance of IFRK4 for one (domain, params, forcing).

    Coefficient arrays here are half spectra, like SpectralField.coeffs, and
    every sum over modes carries Domain.parseval_weights.

    The integrator owns its work arrays, allocated on first use, so that the
    steps of run allocate nothing of grid size: at 256^2 each array is about
    half a megabyte, and allocating a dozen of them per nonlinear evaluation
    made the allocator map and trim memory, paging it back in every time.  An
    array handed to a caller is never one of them: nonlinear and advance
    write into `out` when given one and into a new array otherwise.  Every
    operation is the same ufunc on the same operands in the same order as
    the plain expressions it replaces, so results are bit for bit the same;
    the minus sign of the divergence, folded into its multipliers, and the
    2/3 rule, applied to the sum as zeroed slices, are exact.
    """

    def __init__(self, domain: Domain, params: SolverParams, forcing: ForcingSpec):
        self.domain = domain
        self.params = params
        self.axes = tuple(range(1, domain.dim + 1))
        self.k_alpha = np.where(domain.k_squared > 0,
                                np.maximum(domain.k_abs, 1.0) ** params.alpha, 0.0)
        super().__init__(-params.nu * self.k_alpha)
        self.weights = domain.parseval_weights
        self.neg_deriv = [-1j * k for k in domain.deriv_wavenumbers]
        # the modes the 2/3 rule cuts form one run of indices along each
        # axis: zeroing those slices is cheaper than a boolean multiply, and
        # full-size masked multipliers would cost their memory
        self.cut = []
        for j, k in enumerate(domain.wavenumbers if params.dealias else ()):
            run = np.flatnonzero(np.abs(k.ravel()) > domain.n[j] / 3.0)
            self.cut.append((slice(None),) * j + (slice(run[0], run[-1] + 1),))
        self.f_hat = None
        if forcing is not None and forcing.f_hat is not None:
            fh = forcing.f_hat.coeffs
            if params.dealias:
                fh = np.where(domain.dealias_mask, fh, 0.0)
            self.f_hat = fh
        self._work = None
        self.last_vmax = 0.0

    def work(self):
        """The work arrays (a _Work), allocated on the first call."""
        if self._work is None:
            d = self.domain
            shape = d.spectral_shape
            spec = np.empty((d.dim + 1,) + shape, dtype=np.complex128)
            scratch = spec[:2].reshape(2, -1).view(np.float64)[:, :d.num_points]
            self._work = _Work(spec, np.empty((d.dim + 1,) + d.n),
                               scratch.reshape((2,) + d.n),
                               np.empty((2,) + shape, dtype=np.complex128))
        return self._work

    def drop_work(self):
        """Free the work arrays; the next call that needs them allocates them."""
        self._work = None

    def nonlinear(self, c, out=None, _stage=False):
        """-div(v T) in spectral form (dealiased product), plus forcing.

        Written into out (which may be c) when given, else into a new
        array.  Sets last_vmax, the grid maximum of |v| at c, unless
        _stage: the stages inside a step skip it, since nothing reads it.
        """
        d = self.domain
        spec, phys, (sq, vj), _ = self.work()
        if out is None:
            out = np.empty_like(c)
        # overflow on the way to blow-up is expected; detection is explicit
        with np.errstate(over="ignore", invalid="ignore"):
            spec[0] = c
            for j, m in enumerate(d.velocity_multipliers):
                np.multiply(m, c, out=spec[j + 1])
            # irfftn's passes, done in place: irfftn allocates a copy per axis
            for ax in self.axes[:-1]:
                np.fft.ifft(spec, axis=ax, norm="forward", out=spec)
            np.fft.irfft(spec, n=d.n[-1], axis=-1, norm="forward", out=phys)
            if not _stage:
                # |v|^2 = v_0^2 + v_1^2 (+ v_2^2), in spectrum rows that are
                # free until the product spectrum lands; sqrt is monotone,
                # so the sqrt of the max is the max of the sqrt
                np.multiply(phys[1], phys[1], out=sq)
                for j in range(2, d.dim + 1):
                    np.multiply(phys[j], phys[j], out=vj)
                    np.add(sq, vj, out=sq)
                self.last_vmax = math.sqrt(sq.max())
            # row by row: numpy copies an operand that overlaps the output
            # whole, and buffers a cast or broadcast operand up to its size
            for j in range(1, d.dim + 1):
                np.multiply(phys[j], phys[0], out=phys[j])
            prod_hat = np.fft.rfftn(phys[1:], axes=self.axes, norm="forward", out=spec[1:])
        np.multiply(self.neg_deriv[0], prod_hat[0], out=out)
        for j in range(1, d.dim):
            out += np.multiply(self.neg_deriv[j], prod_hat[j], out=prod_hat[j])
        for cut in self.cut:
            out[cut] = 0.0
        if self.f_hat is not None:
            out += self.f_hat
        return out

    def stages(self):
        return self.work().stages

    def advance(self, c, nl_a, dt, out=None):
        """One step of params.scheme from c, reusing nl_a = nonlinear(c); see rk4."""
        # overflow on the way to blow-up is expected; detection is explicit
        with np.errstate(over="ignore", invalid="ignore"):
            if self.params.scheme == "ifrk4":
                return self.rk4(c, nl_a, dt, out)
            _, e_full, _ = self.propagators(dt)
            if out is None:
                out = np.empty_like(c)
            mul, add = np.multiply, np.add
            return mul(e_full, add(c, mul(dt, nl_a, out=out), out=out), out=out)

    def cfl_dt(self):
        """Advective step bound at the state of the last nonlinear evaluation."""
        return (self.params.cfl_safety * (2.0 * math.pi / max(self.domain.n))
                / max(self.last_vmax, 1e-8))

    def tendency(self, c, nl):
        """lam * c + nl, in a work array that the next advance overwrites."""
        p = self.work().stages[0]
        return np.add(np.multiply(self.lam, c, out=p), nl, out=p)

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
    return SpectralField(d, integ.nonlinear(t_hat.coeffs))


def cfl_dt(state: SimulationState, params: SolverParams) -> float:
    """Advective step bound: cfl_safety * dx / max(|v|_inf, 1e-8)."""
    d = state.t_hat.domain
    integ = _Integrator(d, params, ForcingSpec())
    integ.nonlinear(state.t_hat.coeffs)
    return integ.cfl_dt()


def step(state: SimulationState, params: SolverParams,
         forcing: ForcingSpec | None = None) -> SimulationState:
    """Advance one step of size params.dt; raises BlowUpError on non-finite output."""
    d = state.t_hat.domain
    integ = _Integrator(d, params, forcing or ForcingSpec())
    c = state.t_hat.coeffs
    c_new = integ.advance(c, integ.nonlinear(c), params.dt)
    if not np.isfinite(np.abs(c_new).sum()):
        raise BlowUpError(f"non-finite coefficients after step at t={state.t}",
                          state=state)
    return SimulationState(state.t + params.dt, SpectralField(d, c_new))


def resolution_tail(t_hat: SpectralField) -> float:
    """Relative magnitude of the spectrum beyond the 2/3 cutoff."""
    d = t_hat.domain
    a = np.abs(t_hat.coeffs)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    tail = a[~d.dealias_mask]
    return float(tail.max() / peak) if tail.size else 0.0


class SampleClock:
    """Sample times start + k * sample_every, k = 1, 2, ..., of a run ending at t_end.

    Each sample time is computed from k, not accumulated, so the times do
    not drift, and a step that ends within eps of the next sample or of
    t_end ends there exactly.
    """

    def __init__(self, start, every, t_end):
        self.start, self.every, self.t_end = start, every, t_end
        self.eps = 1e-12 * max(1.0, abs(t_end))
        self.k = 1
        self.next = start + every

    def step(self, t, dt):
        """(step size, end time) of a step from t of at most dt.

        A step that would pass the next sample or t_end is shortened to end
        there; one that ends within eps of it keeps its size.
        """
        target = self.t_end if self.next >= self.t_end - self.eps else self.next
        if t + dt < target - self.eps:
            return dt, t + dt
        return (target - t if t + dt > target + self.eps else dt), target

    def due(self, t):
        """True once t reaches the next sample, which then moves on."""
        if t < self.next - self.eps:
            return False
        self.k += 1
        self.next = self.start + self.k * self.every
        return True


def run(t0_field: PhysicalField, params: SolverParams,
        forcing: ForcingSpec | None = None, sample_every: float = 0.1,
        p_list=(1.0, 2.0, 4.0, math.inf), s_list=(), keep_states: bool = False,
        start_time: float = 0.0) -> RunResult:
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

    c = forward_transform(t0_field).coeffs
    tail = resolution_tail(SpectralField(domain, c))
    if tail > 1e-10:
        warnings.warn(
            f"initial data is marginally resolved: spectral tail {tail:.2e} "
            "of peak beyond the 2/3 cutoff", stacklevel=2)
    if params.dealias:
        c = np.where(domain.dealias_mask, c, 0.0)

    integ = _Integrator(domain, params, forcing)
    idx0 = (0,) * domain.dim
    mean0 = complex(c[idx0])
    f0 = forcing.mean

    if params.t_end <= start_time:
        raise ValueError("t_end must exceed the start time")
    if not sample_every > 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")

    def make_state(t, coeffs):
        # a copy: the stepping reuses the arrays of past states
        return SimulationState(t, SpectralField(domain, coeffs.copy()))

    records = []
    states = [] if keep_states else None
    # the next state goes into the array of the state before the last, and
    # the nonlinear term into its own, so stepping allocates nothing of grid
    # size; records drop both spare and work arrays, which they outweigh
    spare = None
    diss_int = 0.0
    inj_int = 0.0

    def sample(t, coeffs):
        """Record the state of the last nonlinear evaluation, whose vmax it takes."""
        nonlocal spare
        integ.drop_work()
        spare = None
        state = make_state(t, coeffs)
        records.append(compute_record(state, params.nu, params.alpha, integ.last_vmax,
                                      p_list=p_list, s_list=s_list,
                                      diss_integral=diss_int, inj_integral=inj_int))
        if keep_states:
            states.append(state)

    nl = integ.nonlinear(c)
    budget = integ.budget(c, integ.tendency(c, nl))
    t = start_time
    sample(t, c)

    # fixed steps are the adaptive loop without the CFL bound: both shorten
    # a step to land on a sample or on t_end
    blew_up = False
    clock = SampleClock(start_time, sample_every, params.t_end)
    while t < params.t_end - clock.eps:
        dt = params.dt
        if params.adaptive:
            dt = min(dt, integ.cfl_dt())
        dt, t_new = clock.step(t, dt)
        c_new = integ.advance(c, nl, dt, out=spare)
        c_new[idx0] = mean0 + (t_new - start_time) * f0
        if not np.isfinite(np.abs(c_new).sum()):
            blew_up = True  # c stays the last finite state
            break
        new = integ.budget(c_new, integ.tendency(c_new, integ.nonlinear(c_new, out=nl)))
        diss_int += _corrected_trapezoid(dt, budget[0], new[0], budget[2], new[2])
        inj_int += _corrected_trapezoid(dt, budget[1], new[1], budget[3], new[3])
        c, spare, budget, t = c_new, c, new, t_new
        if clock.due(t):
            sample(t, c)
    if not blew_up and records[-1].t < params.t_end - clock.eps:
        sample(t, c)

    final = make_state(t, c)
    return RunResult(records=records, final_state=final, blew_up=blew_up,
                     states=states, initial=t0_field, forcing=forcing, params=params)


def _corrected_trapezoid(dt, f0, f1, df0, df1):
    """Cubic-Hermite quadrature over one step: trapezoid plus endpoint slopes."""
    return 0.5 * dt * (f0 + f1) + (dt * dt / 12.0) * (df0 - df1)
