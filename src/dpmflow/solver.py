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

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import MaxPrincipleCheck, compute_record
from .spectral import (Domain, PhysicalField, SpectralField, _box_blocks, _box_runs,
                       box_shape, forward_transform, gather, k_power, parseval_weights,
                       pocketfft, scatter, truncate)
from .velocity import darcy_multipliers

# the safety factor of the advective step bound: _Integrator.cfl_dt says why
CFL_SAFETY = 0.9


@dataclass(frozen=True)
class SolverParams:
    """Evolution parameters: diffusion, fractional order, stepping policy."""

    nu: float
    alpha: float
    dt: float
    t_end: float
    adaptive: bool = False

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


@dataclass(frozen=True)
class SimulationState:
    t: float
    t_hat: SpectralField


@dataclass
class RunResult:
    """What either runner returns: its records, final state and blow-up flag.

    The final state is a SimulationState or a StreamSlopeState.
    t_star_estimate is the 1D runner's estimate of the blow-up time, set
    when it flags blow-up; the DPM runner leaves it None.
    """

    records: list
    final_state: object
    blew_up: bool = False
    t_star_estimate: float | None = None


class _Work(NamedTuple):
    """Work arrays of one _Integrator, and the views its transforms run on."""

    spec: np.ndarray     # complex (dim+1)-stack on the half spectrum: T, v, then (v T)^
    phys: np.ndarray     # its real image on the grid
    scratch: np.ndarray  # up to two real grids in spec rows 1..dim, for |v|^2
    stages: np.ndarray   # two box arrays for the RK4 stages
    views: list          # per block of the box (_box_blocks), its view in spec
    zero: list           # the views of spec that must be zero for the inverse passes
    inverse: list        # per leading axis, in irfftn's order: (axes, lines)
    forward: list        # per leading axis, in rfftn's order: (axes, 1/n, lines)


def _times(e, x, out):
    """e x, into out, or x itself where e is None, a propagator that is exactly 1."""
    return x if e is None else np.multiply(e, x, out=out)


class IFRK4:
    """Integrating-factor RK4 for dc/dt = lam c + N(c) with a diagonal symbol lam.

    The linear part is propagated exactly by exp(lam dt) (Kassam & Trefethen,
    "Fourth-order time-stepping for stiff PDEs", SIAM J. Sci. Comput. 2005).
    For a zero symbol, as in 1D mode none and inviscid DPM runs, every
    propagator is exactly 1 and the scheme is classic RK4: rk4 then skips
    the multiplies by them, which would change no bit of a finite state.
    A subclass supplies nonlinear(c, out, _stage), which must read c fully
    before it writes out (the stages pass out=c); stages(), two scratch
    arrays shaped like c; and state(t, c), the state object of c at t with
    arrays of its own.  The three evaluations inside a step pass
    _stage=True: what only the caller of the first evaluation reads, such
    as the DPM velocity maximum, is skipped there.
    """

    def __init__(self, lam):
        self._props = None
        self.set_symbol(lam)

    def set_symbol(self, lam):
        """Take lam (which may be the array already held, changed) as the symbol."""
        self.lam = lam
        self._identity = not lam.any()
        self._dt = None  # the step size the held propagators are for

    def propagators(self, dt):
        """exp(lam dt/2), exp(lam dt) and 2 exp(lam dt/2), held for the last dt.

        For a zero symbol: None, None and 2.0, where None marks a propagator
        that is exactly 1, whatever the step.  Otherwise complex, like the
        state: a real operand would cost each multiply a cast buffer of the
        state's size, for the same results.  Each new dt is written into
        the same three arrays, allocated on the first call, so an adaptive
        step allocates nothing; only the last step size's set is kept, as an
        adaptive run rarely repeats one.
        """
        if self._identity:
            return None, None, 2.0
        if self._props is None:
            self._props = np.empty((3,) + self.lam.shape, dtype=np.complex128)
        if dt != self._dt:
            e_half, e_full, two_e_half = self._props
            # each exp is np.exp(lam h) on a contiguous real array, the first
            # half of two_e_half's buffer, which is written last
            real = two_e_half.reshape(-1).view(np.float64)[:self.lam.size].reshape(
                self.lam.shape)
            for e, h in ((e_half, 0.5 * dt), (e_full, dt)):
                e[...] = np.exp(np.multiply(self.lam, h, out=real), out=real)
            np.multiply(2.0, e_half, out=two_e_half)
            self._dt = dt
        return self._props

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
        self.nonlinear(_times(e_half, add(c, mul(0.5 * dt, nl_a, out=p), out=p), p), out=p,
                       _stage=True)
        # c' = N(e_half c + (dt/2) b), in q
        self.nonlinear(add(_times(e_half, c, q), mul(0.5 * dt, p, out=out), out=q), out=q,
                       _stage=True)
        add(p, q, out=p)  # b + c'
        # d = N(e_full c + dt (e_half c')), in q
        mul(dt, _times(e_half, q, out), out=out)
        self.nonlinear(add(_times(e_full, c, q), out, out=q), out=q, _stage=True)
        mul(two_e_half, p, out=p)
        add(add(_times(e_full, nl_a, out), p, out=out), q, out=out)
        mul(dt / 6.0, out, out=out)
        return add(_times(e_full, c, p), out, out=out)

    def march(self, c, nl, clock, step_size, after_step, record, on_sample=None):
        """Step c, at clock.start with nl = nonlinear(c), to clock.t_end: the
        runner contract of both systems.

        Each step takes step_size(), shortened by the clock to land on a
        sample or on t_end; after_step(c, dt, t) sees the new state and
        returns the nonlinear term there, or None if the runner finds
        blow-up.  A state is sampled before the first step, at each sample
        time, at t_end and where after_step finds blow-up: its record is
        record(c, state(t, c)), and on_sample(state, record), when given,
        follows.  A state with a non-finite coefficient flags blow-up and is
        dropped.  Returns the RunResult of the records, the last state kept
        and the flag.  The next state goes into the array of the state
        before the last, so stepping allocates nothing of state size; that
        spare array is released at each sample, which outweighs it.
        """
        records = []

        def sample(t, c):
            state = self.state(t, c)
            records.append(record(c, state))
            if on_sample is not None:
                on_sample(state, records[-1])

        t = clock.start
        sample(t, c)
        spare = None
        blew_up = False
        # overflow on the way to blow-up is expected; detection is explicit
        with np.errstate(over="ignore", invalid="ignore"):
            while not blew_up and t < clock.t_end - clock.eps:
                dt, t_new = clock.clip(t, step_size())
                c_new = self.advance(c, nl, dt, out=spare)
                if not cmath.isfinite(c_new.sum()):  # a non-finite coefficient spoils the sum
                    return RunResult(records, self.state(t, c), True)
                c, spare, t = c_new, c, t_new
                nl = after_step(c, dt, t)
                blew_up = nl is None
                if blew_up or clock.due(t) or t >= clock.t_end - clock.eps:
                    spare = None
                    sample(t, c)
        return RunResult(records, self.state(t, c), blew_up)


class _Integrator(IFRK4):
    """The DPM instance of IFRK4 for one (domain, params, forcing), on the 2/3 box.

    forcing is the spectrum of the time-independent source term, or None
    for the unforced system.  run applies the 2/3 rule to the data, the
    forcing and every product, so the only modes that are ever nonzero form
    the box of box_shape: every array stepped here is a box array (gather
    and scatter move a half spectrum to it and back), and the box is the
    2/3 rule.  The symbol, the multipliers, the Parseval weights and the
    forcing are box arrays too.  The builders of spectral and velocity make
    the first three from the box's part of Domain.wavenumbers, so they hold
    the values the half-spectrum arrays hold there.

    nonlinear zero-pads the box into its transform stack, and each pass
    along a leading axis transforms only the lines that can be nonzero: a
    pruned FFT (Frigo & Johnson, "The Design and Implementation of FFTW3",
    Proc. IEEE 93, 2005).  Each line it transforms holds what it holds in
    the full transforms, so the results are theirs bit for bit.  The passes
    call numpy's pocketfft kernels (spectral.pocketfft) with the factors
    np.fft would pass, and so give np.fft's bits without its per-call cost.

    The integrator owns its work arrays, allocated on first use, so that the
    steps of run allocate nothing of grid size: at 256^2 each half-spectrum
    array is about half a megabyte, and allocating a dozen of them per
    nonlinear evaluation made the allocator map and trim memory, paging it
    back in every time.  An array handed to a caller is never one of them:
    nonlinear and advance write into `out` when given one and into a new
    array otherwise.  Every operation is the same ufunc on the same operands
    in the same order as the plain expressions it replaces, so results are
    bit for bit the same; the minus sign of the divergence is folded into
    its multipliers, which is exact.
    """

    def __init__(self, domain: Domain, params: SolverParams, forcing: SpectralField | None):
        self.domain = domain
        self.params = params
        self.box_shape = box_shape(domain)
        # the box's wavenumbers, and the multipliers built on the half from them
        k = np.meshgrid(*(np.concatenate([kj.ravel()[half] for half, _ in runs])
                          for kj, runs in zip(domain.wavenumbers, _box_runs(domain))),
                        indexing="ij", sparse=True)
        self.k_alpha = k_power(sum(kj ** 2 for kj in k), params.alpha)
        super().__init__(-params.nu * self.k_alpha)
        self.weights = parseval_weights(k[-1].ravel(), domain.n[-1])
        vel = darcy_multipliers(k, domain.n)
        # the divergence multipliers -i k_j, dense so that blocks slice them
        neg_deriv = [np.broadcast_to(-1j * kj, self.box_shape).copy() for kj in k]
        # per block of the box: its index, and the multipliers on it
        self.blocks = [(inner, [m[inner] for m in vel], [m[inner] for m in neg_deriv])
                       for _, inner in _box_blocks(domain)]
        self.f_hat = None if forcing is None else gather(forcing.coeffs, domain)
        self._work = None
        self.last_vmax = 0.0

    def work(self):
        """The work arrays (a _Work), allocated on the first call."""
        if self._work is None:
            d = self.domain
            width = self.box_shape[-1]
            # row 0 beyond the box's last-axis modes is zero for good
            spec = np.zeros((d.dim + 1,) + d.spectral_shape, dtype=np.complex128)
            scratch = spec[1:].reshape(-1).view(np.float64)[:min(d.dim, 2) * d.num_points]
            # the pass along leading axis j reaches the lines whose later
            # leading axes lie on box runs, and whose last one is on the box
            runs = [[half for half, _ in rs] for rs in _box_runs(d)]
            zero, inverse, forward = [spec[1:, ..., width:]], [], []
            for j, (low, high) in enumerate(runs[:-1]):
                later = [rest + (runs[-1][0],) for rest in itertools.product(*runs[j + 1:-1])]
                gap = (slice(None),) * (j + 1) + (slice(low.stop, high.start),)
                zero += [spec[gap + rest] for rest in later]
                lines = [spec[(slice(None),) * (j + 2) + rest] for rest in later]
                axes = [(j + 1,), (), (j + 1,)]  # a kernel's data, factor and out axes
                inverse.append((axes, lines))
                forward.insert(0, (axes, 1.0 / d.n[j], [line[1:] for line in lines]))
            self._work = _Work(spec, np.empty((d.dim + 1,) + d.n), scratch.reshape((-1,) + d.n),
                               np.empty((2,) + self.box_shape, dtype=np.complex128),
                               [spec[half] for half, _ in _box_blocks(d)], zero, inverse,
                               forward)
        return self._work

    def state(self, t, c):
        """The SimulationState of c at t, a half spectrum of its own.  The work
        arrays are freed first, so what a sample's caller allocates never adds
        to the stepping set; the next call that needs them allocates them."""
        self._work = None
        return SimulationState(t, SpectralField(self.domain, scatter(c, self.domain)))

    def _check(self, c):
        """Refuse a state that is not on the box (a half spectrum, say)."""
        if c.shape != self.box_shape:
            raise ValueError(f"expected an array on the 2/3 box {self.box_shape}, "
                             f"got shape {c.shape}")

    def nonlinear(self, c, out=None, _stage=False):
        """-div(v T) in spectral form (dealiased product), plus forcing, on the box.

        Written into out (which may be c) when given, else into a new
        array.  Sets last_vmax, the grid maximum of |v| at c, unless
        _stage: the stages inside a step skip it, since nothing reads it.
        """
        self._check(c)
        d = self.domain
        w = self.work()
        spec, phys = w.spec, w.phys
        sq, vj = w.scratch[0], w.scratch[-1]
        if out is None:
            out = np.empty_like(c)
        for view in w.zero:
            view[...] = 0.0
        for (inner, vel, _), view in zip(self.blocks, w.views):
            cb = c[inner]
            view[0] = cb
            for j, m in enumerate(vel):
                np.multiply(m, cb, out=view[j + 1])
        # irfftn's passes, done in place (irfftn allocates a copy per
        # axis), the leading ones on the lines that can be nonzero
        for axes, lines in w.inverse:
            for line in lines:
                pocketfft.ifft(line, 1.0, axes=axes, out=line)
        pocketfft.irfft(spec, 1.0, out=phys)
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
        # rfftn's passes, the leading ones on the lines the box reads
        pocketfft.rfft_n_even(phys[1:], 1.0 / d.n[-1], out=spec[1:])
        for axes, fct, lines in w.forward:
            for line in lines:
                pocketfft.fft(line, fct, axes=axes, out=line)
        for (inner, _, neg_deriv), view in zip(self.blocks, w.views):
            prod, block = view[1:], out[inner]
            np.multiply(neg_deriv[0], prod[0], out=block)
            for j in range(1, d.dim):
                block += np.multiply(neg_deriv[j], prod[j], out=prod[j])
        if self.f_hat is not None:
            out += self.f_hat
        return out

    def stages(self):
        return self.work().stages

    def advance(self, c, nl_a, dt, out=None):
        """One IF-RK4 step from c, reusing nl_a = nonlinear(c); see rk4."""
        self._check(c)
        return self.rk4(c, nl_a, dt, out)

    def cfl_dt(self):
        """Advective step bound at the state of the last nonlinear evaluation.

        CFL_SAFETY (2 pi / max n) / max|v|, max|v| the grid maximum.  On the
        2/3 box the largest |k . v| is (n//3) sqrt(dim) |v|, so for frozen
        coefficients dt max|k . v| <= CFL_SAFETY 2 pi (n//3) sqrt(dim) / n:
        at a safety of 0.9 that is 2.62 at 64^2 and 3.06 at 32^3, against
        RK4's imaginary-axis limit 2 sqrt(2) = 2.83.  The bound is kept as
        it is: it needs a mode in a corner of the box and the peak |v| along
        that mode's direction at once, and no run has shown it.  A diagonal
        shear cos(x1 + x2 + 2 x3), a steady inviscid state, plus noise of
        L^2 norm 1e-8 ran adaptive at nu = 0 to t = 30 at 32^3 and to t = 9
        at 64^3 on the same trajectory at safety 0.9 and 0.7, with no
        numerical growth.
        """
        return (CFL_SAFETY * (2.0 * math.pi / max(self.domain.n))
                / max(self.last_vmax, 1e-8))

    def tendency(self, c, nl):
        """lam * c + nl, in a work array that the next advance overwrites."""
        p = self.work().stages[0]
        return np.add(np.multiply(self.lam, c, out=p), nl, out=p)

    def _sum(self, x):
        """Full-spectrum sum of an even-in-k quantity given on the box."""
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


def nonlinear_term(t_hat: SpectralField, forcing: SpectralField | None = None) -> SpectralField:
    """Conservative advection term -div(v T) of the 2/3-truncated temperature field.

    The tendency run computes: the field and the forcing (when given) are
    2/3-truncated, the velocity and temperature are multiplied on the
    collocation grid, the divergence is taken spectrally and the product
    is 2/3-truncated.
    """
    d = t_hat.domain
    params = SolverParams(nu=0.0, alpha=1.0, dt=1.0, t_end=1.0)
    return SpectralField(d, scatter(_Integrator(d, params, forcing).nonlinear(
        gather(t_hat.coeffs, d)), d))


class SampleClock:
    """Sample times start + k * sample_every, k = 1, 2, ..., of a run ending at t_end.

    Each sample time is computed from k, not accumulated, so the times do
    not drift, and a step that ends within eps of the next sample or of
    t_end ends there exactly.  The clock holds both runners' rules on these
    inputs: a start below t_end and a positive cadence.
    """

    def __init__(self, start, every, t_end):
        if not start < t_end:
            raise ValueError("t_end must exceed the start time")
        if not every > 0:
            raise ValueError(f"sample_every must be positive, got {every}")
        self.start, self.every, self.t_end = start, every, t_end
        self.eps = 1e-12 * max(1.0, abs(t_end))
        self.k = 1
        self.next = start + every

    def clip(self, t, dt):
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
        forcing: SpectralField | None = None, sample_every: float = 0.1,
        p_list=(1.0, 2.0, 4.0, math.inf), s_list=(), on_sample=None,
        start_time: float = 0.0) -> RunResult:
    """Integrate to params.t_end, sampling diagnostics on schedule.

    The one way to step the DPM system; a single step is a run with
    t_end = start_time + dt.  forcing is the spectrum of the time-independent
    source term, or None.  The data and the forcing are 2/3-truncated here,
    once each (spectral.truncate), and the integrator and the maximum
    principle's check share that forcing.  Samples, on_sample and the result
    follow IFRK4.march, with SimulationState states and DiagnosticsRecord
    records; the first record with linf that fails
    diagnostics.MaxPrincipleCheck warns.  Deterministic given its inputs.
    The mean mode is pinned to its exact linear-in-time law each step.
    """
    clock = SampleClock(start_time, sample_every, params.t_end)
    domain = t0_field.domain
    if params.alpha < 1.0 and params.nu > 0:
        warnings.warn(
            "alpha < 1 is the supercritical regime: only local or small-data "
            "theory applies and finite-time blow-up has not been ruled out",
            stacklevel=2)

    # the state is stepped on the 2/3 box, and records see it on the half
    c = gather(truncate(forward_transform(t0_field), "initial data").coeffs, domain)
    forcing = None if forcing is None else truncate(forcing, "forcing")
    integ = _Integrator(domain, params, forcing)
    idx0 = (0,) * domain.dim
    mean0 = complex(c[idx0])
    f0 = 0.0 if forcing is None else complex(forcing.mean)

    diss_int = 0.0
    inj_int = 0.0

    principle = previous = None  # the maximum principle's check while it judges, the record before
    if math.inf in map(float, p_list):
        principle = MaxPrincipleCheck(forcing)

    def record(coeffs, state):
        """The record of the state of the last nonlinear evaluation, whose vmax it takes."""
        nonlocal principle, previous
        rec = compute_record(state, params.nu, params.alpha, integ.last_vmax,
                             p_list=p_list, s_list=s_list,
                             diss_integral=diss_int, inj_integral=inj_int)
        if principle is not None:
            res = principle.first(rec) if previous is None else principle.judge(previous, rec)
            previous = rec
            if not res.passed:
                principle = None
                # the caller of run: record, sample, march, run, caller
                warnings.warn(
                    f"maximum principle broken at t = {rec.t:.7g}: linf {res.value:.7g} "
                    f"exceeds the bound ||T(t0)||_inf + (t - t0) ||f||_inf = {res.bound:.7g}; "
                    "the run is likely under-resolved", stacklevel=5)
        return rec

    def step_size():
        # fixed steps are adaptive ones without the CFL bound
        return min(params.dt, integ.cfl_dt()) if params.adaptive else params.dt

    def after_step(c, dt, t):
        """Pin the mean, then take the budget integrals over the step."""
        nonlocal budget, diss_int, inj_int
        c[idx0] = mean0 + (t - start_time) * f0
        new = integ.budget(c, integ.tendency(c, integ.nonlinear(c, out=nl)))
        diss_int += _corrected_trapezoid(dt, budget[0], new[0], budget[2], new[2])
        inj_int += _corrected_trapezoid(dt, budget[1], new[1], budget[3], new[3])
        budget = new
        return nl

    nl = integ.nonlinear(c)
    budget = integ.budget(c, integ.tendency(c, nl))
    return integ.march(c, nl, clock, step_size, after_step, record, on_sample)


def _corrected_trapezoid(dt, f0, f1, df0, df1):
    """Cubic-Hermite quadrature over one step: trapezoid plus endpoint slopes."""
    return 0.5 * dt * (f0 + f1) + (dt * dt / 12.0) * (df0 - df1)
