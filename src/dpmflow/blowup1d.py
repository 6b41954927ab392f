"""The 1D stream-slope reduction: infinite-energy dynamics and blow-up oracles.

A stream function of the form psi(x1, x2, t) = x2 * f(x1, t) reduces the 2D
inviscid dynamics to a nonlocal scalar equation for the slope w = f_x on the
circle:

    dw/dt = -dg/dt - f w_x + w^2 + g w  (+ regularization),
    dg/dt = (1/pi) ||w||^2_{L2(-pi,pi)},
    f(x, t) = integral of w from -pi to x,

where the accumulator g is evolved as an extra state variable.  Solutions
correspond to infinite-energy solutions of the porous-media system, and the
single-mode ansatz w = r(t) cos(x) closes exactly: its accumulated g equals
beta(t), the solution of beta' = beta^2 + 2 nu beta + r0^2, whose closed
form is a shifted tangent that blows up in finite time.  Those closed forms
are exposed here as oracles alongside a brute-force ODE integrator, so the
PDE runs, the amplitude ODE and the closed form check each other.

Two regularizations are available: a half-Laplacian power ("spectral") and
a quasilinear diffusion with coefficient nu * (||w_x||^2 + g^2)
("quasilinear"), the latter globally well posed.  For the spectral term the
sign is switchable: "dissipative" applies the damping -nu Lambda^alpha w
literally, while "oracle" flips it to +nu Lambda^alpha w, under which the
cos-mode amplitude obeys r' = g r + nu r and matches the tangent closed
form; the two conventions agree only on which way the single-mode amplitude
feels nu, and the oracle comparisons are validated only under "oracle".
Note the amplifying convention grows rounding noise at rate
exp(nu |k|^alpha t) on generic data; it is intended for single-mode studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import fold, judged
from .solver import IFRK4, RunResult, SampleClock
from .spectral import (TWO_PI, Domain, PhysicalField, SpectralField, box_shape, hs_seminorm,
                       k_power, pocketfft)

REG_MODES = ("none", "spectral", "quasilinear")
SIGN_CONVENTIONS = ("oracle", "dissipative")

# G and 1/5 of the 1D step rule, and the oracle's g and t* tolerances: run_stream_slope says why
STEP_GROWTH_START = 100.0
STEP_GROWTH_EXPONENT = 0.2
ORACLE_RTOL = 1e-5
TSTAR_RTOL = 0.01


@dataclass(frozen=True)
class Regularization:
    """Extra term added to the stream-slope equation, if any."""

    mode: str = "none"
    nu: float = 0.0
    alpha: float = 2.0
    sign: str = "oracle"

    def __post_init__(self):
        if self.mode not in REG_MODES:
            raise ValueError(f"mode must be one of {REG_MODES}, got {self.mode!r}")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.mode == "spectral" and self.alpha not in (1.0, 2.0):
            raise ValueError(f"spectral regularization needs alpha in {{1, 2}}, got {self.alpha}")
        if self.sign not in SIGN_CONVENTIONS:
            raise ValueError(f"sign must be one of {SIGN_CONVENTIONS}, got {self.sign!r}")


@dataclass(frozen=True)
class OracleParams:
    """Parameters of the closed-form single-mode solution."""

    r0: float
    nu: float = 0.0

    def __post_init__(self):
        for name, value in (("r0", self.r0), ("nu", self.nu)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.r0 ** 2 <= self.nu ** 2:
            raise ValueError(f"need r0^2 > nu^2, got r0={self.r0}, nu={self.nu}")


@dataclass(frozen=True)
class StreamSlopeState:
    """Stream slope w = f_x on the circle plus the accumulated g(t)."""

    t: float
    w: PhysicalField
    g: float


@dataclass
class StreamRecord:
    t: float
    l2: float
    linf: float
    max_w: float
    g: float
    h2: float
    checks: list = field(default_factory=list)


def _check_mean_zero(w: PhysicalField):
    m = abs(float(w.values.mean()))
    if m > 1e-10 * max(1.0, float(np.abs(w.values).max())):
        raise ValueError(f"data must be mean zero, got mean {m:.3e}")


def antiderivative(w: PhysicalField) -> PhysicalField:
    """Antiderivative pinned at the seam: f(x) = integral of w from -pi to x.

    Computed with the runner's own multiplier and seam (_StreamOps.inv_ik
    and seam), so its value at x = -pi (= pi on this grid) is exactly
    zero.  The constant part of f multiplies w_x in the evolution and does
    not integrate away, so the pinning convention is behaviorally
    significant.  Requires mean-zero input; otherwise f would not be periodic.
    """
    if w.domain.dim != 1:
        raise ValueError("antiderivative is defined on the circle")
    _check_mean_zero(w)
    ops = _StreamOps(w.domain, Regularization())
    wh = np.fft.rfft(w.values, norm="forward")
    f = np.fft.irfft(ops.inv_ik * wh, n=ops.n, norm="forward")
    return PhysicalField(w.domain, f - f[ops.seam])


class _StreamOps(IFRK4):
    """The stream-slope instance of IFRK4 for one (domain, regularization).

    The state is packed into one complex array, np.append(wh, g): the rfft
    half spectrum of the slope (n//2 + 1 modes), then the accumulator g as
    one extra mode whose linear symbol is 0, so that g passes through the
    same stage combination.  Sums over modes carry Domain.parseval_weights.

    At n = 256 an evaluation costs numpy's per-call overhead, not transform
    work, so nonlinear makes as few calls as it can without allocating: the
    spectra of w, f and w_x are filled row by row (one multiply of the
    stacked multipliers would make numpy allocate an iterator buffer three
    states in size), one irfft takes them to owned grid rows, and the
    product goes by rfft straight into the output.  The transforms call
    numpy's pocketfft kernels (spectral.pocketfft) with np.fft's factors,
    which gives np.fft's bits without its argument handling, and the copy
    and the sum use indexing and ndarray.dot in place of the Python-level
    np.copyto and np.dot.  In mode none the symbol is zero: the step is
    classic RK4 and multiplies by no propagator (IFRK4.propagators).

    In quasilinear mode the diffusion coefficient c0 frozen by freeze() is
    the linear symbol -c0 k^2, propagated exactly, and only the change
    -(coeff - c0) k^2 wh of the coefficient over the step stays explicit.
    """

    def __init__(self, domain: Domain, reg: Regularization):
        if domain.dim != 1:
            raise ValueError("stream-slope dynamics live on the circle")
        self.domain = domain
        self.reg = reg
        n = domain.n[0]
        self.n = n
        k = domain.wavenumbers[0]
        kd = domain.deriv_wavenumbers[0]
        self.k2 = k ** 2
        self.k2w = TWO_PI * domain.parseval_weights * self.k2
        self.kcut = box_shape(domain)[-1]  # the first mode past the 2/3 rule
        self.seam = n // 2
        # multipliers of the spectra of f and w_x: the antiderivative 1/(i k)
        # (the mean and Nyquist modes have none), and i k
        self.ik = 1j * kd
        self.inv_ik = np.zeros(kd.size, dtype=np.complex128)
        self.inv_ik[kd != 0] = 1.0 / self.ik[kd != 0]
        # the spectra of w, f and w_x, their grid values, and the product;
        # the rows are kept as views, which saves indexing them per call
        self._spec = np.empty((3, kd.size), dtype=np.complex128)
        self._grid = np.empty((3, n))
        self._rows = tuple(self._spec) + tuple(self._grid) + (np.empty(n),)
        # linear symbol handled by the integrating factor, then the zero
        # symbol of g
        lam = np.zeros(kd.size + 1)
        if reg.mode == "spectral":
            sgn = 1.0 if reg.sign == "oracle" else -1.0
            lam[:-1] = sgn * reg.nu * k_power(kd ** 2, reg.alpha)
        super().__init__(lam)
        self.c0 = 0.0
        self._stages = np.empty((2, lam.size), dtype=np.complex128)
        self.last_wmax = 0.0

    def stages(self):
        return self._stages

    def quasilinear_coeff(self, wh, g):
        """nu * (||w_x||_2^2 + g^2), the quasilinear diffusion coefficient."""
        wx_sq = float(np.vdot(wh, self.k2w * wh).real)
        return self.reg.nu * (wx_sq + g * g)

    def freeze(self, x):
        """Make the quasilinear coefficient at x the linear symbol of the next steps."""
        c0 = self.quasilinear_coeff(x[:-1], x[-1].real)
        if c0 != self.c0:
            self.c0 = c0
            np.multiply(-c0, self.k2, out=self.lam[:-1])
            self.set_symbol(self.lam)

    def nonlinear(self, x, out=None, _stage=False):
        """Tendency (dwh, dg) of the packed state x, less the linear symbol.

        Written into out (which may be x) when given, else into a new array.
        Sets last_wmax, the grid maximum of |w| at x, unless _stage: the
        stages inside a step skip it, since nothing reads it.
        """
        g = x[-1].real
        wh, fh, wxh, w, f, wx, prod = self._rows
        wh[...] = x[:-1]  # a copy: out may be x
        np.multiply(self.inv_ik, wh, out=fh)
        np.multiply(self.ik, wh, out=wxh)
        pocketfft.irfft(self._spec, 1.0, out=self._grid)
        if not _stage:
            self.last_wmax = float(max(w.max(), -w.min()))
        f -= f[self.seam]
        dg = (2.0 / self.n) * float(w.dot(w))  # (1/pi) ||w||_2^2, by grid Parseval
        np.multiply(w, w, out=prod)
        prod -= np.multiply(f, wx, out=f)
        if out is None:
            out = np.empty_like(x)
        dwh = pocketfft.rfft_n_even(prod, 1.0 / self.n, out=out[:-1])
        dwh[self.kcut:] = 0.0
        # g w in the spectrum, exactly zero past the data's modes: on the grid
        # it adds rounding there, which the amplifying spectral sign grows
        dwh += np.multiply(g, wh, out=fh)
        dwh[0] -= dg
        if self.reg.mode == "quasilinear":
            dwh -= (self.quasilinear_coeff(wh, g) - self.c0) * self.k2 * wh
        out[-1] = dg
        return out

    def advance(self, x, nl_a, dt, out=None):
        """One IF-RK4 step of the packed state from x, reusing nl_a = nonlinear(x)."""
        x_new = self.rk4(x, nl_a, dt, out)
        x_new[0] = 0.0  # mean-zero data stays mean zero
        return x_new

    def start(self, w0, g):
        """The packed state a run from (w0, g) starts at: w0's half spectrum,
        2/3-truncated and mean-free, then g."""
        wh = np.fft.rfft(w0.values, norm="forward")
        wh[self.kcut:] = 0.0
        wh[0] = 0.0
        return np.append(wh, g)

    def state(self, t, x):
        """The StreamSlopeState of the packed state x at time t."""
        return StreamSlopeState(t, PhysicalField(self.domain, np.fft.irfft(
            x[:-1], n=self.n, norm="forward")), float(x[-1].real))

    def record(self, x, state):
        """The StreamRecord of the packed state x, whose StreamSlopeState is state."""
        wh = SpectralField(self.domain, x[:-1])
        w = state.w.values
        return StreamRecord(
            t=state.t, l2=hs_seminorm(wh, 0.0), linf=float(np.abs(w).max()),
            max_w=float(w.max()), g=state.g, h2=hs_seminorm(wh, 2.0))


def stream_rhs(state: StreamSlopeState, reg: Regularization):
    """Full tendency of the stream-slope system, regularization included.

    Returns (dw/dt as a PhysicalField, dg/dt).  The -dg/dt term enters as a
    spatially constant contribution; products are evaluated on the grid and
    2/3-truncated.
    """
    _check_mean_zero(state.w)
    d = state.w.domain
    ops = _StreamOps(d, reg)
    # the Hermitian part of the complex spectrum rather than rfft(w): the
    # quasilinear k^2 term amplifies transform rounding up to k = n/2, and
    # this keeps it at the level of the complex transform
    c = np.fft.fft(state.w.values, norm="forward")
    x = np.append((0.5 * (c + np.conj(np.roll(c[::-1], 1))))[:ops.n // 2 + 1], state.g)
    rhs = ops.nonlinear(x) + ops.lam * x  # fold the linear symbol back in
    return (PhysicalField(d, np.fft.irfft(rhs[:-1], n=ops.n, norm="forward")),
            float(rhs[-1].real))


def run_stream_slope(w0: PhysicalField, reg: Regularization, dt: float,
                     t_end: float, sample_every: float = 0.01,
                     threshold: float = 1e8, adaptive: bool = True,
                     start_time: float = 0.0, start_g: float = 0.0,
                     on_sample=None) -> RunResult:
    """Integrate the stream-slope system, watching for finite-time blow-up.

    With adaptive steps and x = (1 + |w|_inf)/(1 + |w0|_inf) at the state a
    step starts from, the step is dt/x while x <= G and dt/x times
    (x/G)^(1/5) beyond, continuous at x = G = STEP_GROWTH_START = 100.  In
    tangent blow-up a relative error made at growth x reaches the threshold
    about 1/x as amplified as one made at the start, and RK4's local error
    is fifth order in h|w| (hence STEP_GROWTH_EXPONENT = 1/5), so past G the
    growth adds about 5/G to the final relative error of g, while each late
    decade of |w| costs a bounded number of steps in place of
    ln(10)/(dt (1 + |w0|_inf)).  At amplitude 1.005 and dt = 6e-4, G = 1
    misses the g tolerance ORACLE_RTOL = 1e-5 (1.9e-5); G = 100 takes
    10,139 steps for 4.2e-6, the plain dt/x rule 17,190 for 3.6e-6.
    With adaptive=False every step is dt.
    In quasilinear mode each step first freezes the diffusion coefficient
    into the integrating factor (_StreamOps.freeze), so the diffusion sets
    no stability bound on the step.  The run halts with the blow-up flag at
    the first state whose |w|_inf exceeds the threshold, or at a non-finite
    coefficient, and sets t_star_estimate from the last decade of growth:
    1/|w|_inf of each state is fitted against its t, and the zero crossing
    is returned: at amplitude 1 and dt = 1e-3 its error is 9.4e-2 at
    threshold 10, 8.0e-4 at 30 and 2.1e-8 at 1e3, inside TSTAR_RTOL = 1%.
    Blow-up is an expected outcome in many configurations, not a failure.
    Samples, on_sample and the result follow IFRK4.march, with
    StreamSlopeState states and StreamRecord records.
    """
    _check_mean_zero(w0)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    clock = SampleClock(start_time, sample_every, t_end)
    if not 0 < threshold < math.inf:  # at NaN no step would flag blow-up
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    ops = _StreamOps(w0.domain, reg)
    m0_inf = float(np.abs(w0.values).max())
    history_t = []
    history_m = []
    x = ops.start(w0, start_g)
    nl = np.empty_like(x)

    def evaluate(x):
        """The nonlinear term at x, into nl; it sets ops.last_wmax."""
        if reg.mode == "quasilinear":
            ops.freeze(x)
        return ops.nonlinear(x, out=nl)

    def after_step(x, dt, t):
        """Evaluate at the new state, then judge it by its own sup norm."""
        tendency = evaluate(x)
        wmax = ops.last_wmax
        history_t.append(t)
        history_m.append(wmax)
        return None if wmax > threshold else tendency

    def step_size():
        if not adaptive:
            return dt
        wmax = ops.last_wmax  # at the state the step starts from
        growth = (1.0 + wmax) / (1.0 + m0_inf)
        h = dt * (1.0 + m0_inf) / (1.0 + wmax)  # dt / growth, as the dt/x rule rounds it
        if growth <= STEP_GROWTH_START:
            return h
        return h * (growth / STEP_GROWTH_START) ** STEP_GROWTH_EXPONENT

    result = ops.march(x, evaluate(x), clock, step_size, after_step, ops.record, on_sample)
    if result.blew_up:
        result.t_star_estimate = estimate_blowup_time(history_t, history_m, threshold)
    return result


def estimate_blowup_time(times, maxima, threshold) -> float:
    """Extrapolate the singular time from the last decade of sup-norm growth.

    Fits 1/|w|_inf against t over the samples with |w|_inf >= threshold/10
    and returns the zero crossing; robust for tangent-type singularities
    where 1/|w|_inf is asymptotically linear in t.
    """
    times = np.asarray(times, dtype=float)
    maxima = np.asarray(maxima, dtype=float)
    keep = maxima >= threshold / 10.0
    if keep.sum() < 2:
        return float(times[-1]) if times.size else math.nan
    ts = times[keep]
    ys = 1.0 / maxima[keep]
    a, b = np.polyfit(ts, ys, 1)
    if a >= 0:
        return float(ts[-1])
    return float(-b / a)


def blowup_time(params: OracleParams) -> float:
    """Singular time of the closed-form single-mode solution."""
    d = math.sqrt(params.r0 ** 2 - params.nu ** 2)
    return (0.5 * math.pi - math.atan(params.nu / d)) / d


def oracle_beta(t: float, params: OracleParams) -> float:
    """Closed-form accumulator beta(t), the shifted tangent; valid for t < blow-up."""
    if t >= blowup_time(params):
        raise ValueError(f"t={t} is at or beyond the blow-up time {blowup_time(params)}")
    d = math.sqrt(params.r0 ** 2 - params.nu ** 2)
    return d * math.tan(d * t + math.atan(params.nu / d)) - params.nu


def oracle_r(t: float, params: OracleParams) -> float:
    """Closed-form cos-mode amplitude r(t) = sqrt(beta'(t))."""
    b = oracle_beta(t, params)
    return math.sqrt(b * b + 2.0 * params.nu * b + params.r0 ** 2)


def integrate_amplitude_ode(r0: float, nu: float, dt: float, t_max: float):
    """Brute-force twin of the closed form: RK4 on beta' = beta^2 + 2 nu beta + r0^2.

    Returns (times, betas, t_divergence); t_divergence is the time the
    integration first exceeds |beta| = 1e12 or goes non-finite (None if it
    reaches t_max).  Kept deliberately independent of oracle_beta so the
    two routes check each other.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c0 = r0 * r0

    def f(b):
        return b * b + 2.0 * nu * b + c0

    times = [0.0]
    betas = [0.0]
    b = 0.0
    t = 0.0
    t_div = None
    while t < t_max - 1e-15:
        h = min(dt, t_max - t)
        k1 = f(b)
        k2 = f(b + 0.5 * h * k1)
        k3 = f(b + 0.5 * h * k2)
        k4 = f(b + h * k3)
        b = b + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t = t + h
        if not math.isfinite(b) or abs(b) > 1e12:
            t_div = t
            break
        times.append(t)
        betas.append(b)
    return np.asarray(times), np.asarray(betas), t_div


class MaxBoundCheck:
    """Maximum-control bound Q(t) <= Q(t0) / (1 - Q(t0) (t - t0)), Q = max w + g.

    t0 and Q(t0) come from the first record, so a restart is checked from
    where it starts.  Proved for the quasilinear-regularized dynamics;
    offered for the unregularized trajectories as well (label the run
    accordingly).  Records at t - t0 >= 1/Q(t0) have no result.
    """

    name = "max_bound"

    def first(self, record):
        self.t0, self.q0 = record.t, record.max_w + record.g
        if self.q0 <= 0:
            raise ValueError("the bound applies to a positive initial max w + g")
        return self.judge(record, record)

    def judge(self, previous, record):
        q0, elapsed = self.q0, record.t - self.t0
        if elapsed >= 1.0 / q0:
            return None
        return judged(self.name, q0 / (1.0 - q0 * elapsed), record.max_w + record.g,
                      1e-14 * q0)


def check_max_bound(records):
    """MaxBoundCheck folded over a record list (see diagnostics.fold)."""
    return fold(MaxBoundCheck(), records)
