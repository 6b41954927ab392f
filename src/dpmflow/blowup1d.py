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

from .diagnostics import CheckResult
from .spectral import (Domain, PhysicalField, SpectralField, complete_spectrum,
                       hs_seminorm)

TWO_PI = 2.0 * math.pi

REG_MODES = ("none", "spectral", "quasilinear")
SIGN_CONVENTIONS = ("oracle", "dissipative")


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


@dataclass
class StreamResult:
    records: list
    final_state: StreamSlopeState
    blew_up: bool = False
    t_star_estimate: float | None = None


def _check_mean_zero(w: PhysicalField):
    m = abs(float(w.values.mean()))
    if m > 1e-10 * max(1.0, float(np.abs(w.values).max())):
        raise ValueError(f"stream slope must be mean zero, got mean {m:.3e}")


def antiderivative(w: PhysicalField) -> PhysicalField:
    """Antiderivative pinned at the seam: f(x) = integral of w from -pi to x.

    Computed as the mean-zero spectral antiderivative shifted so its value
    at x = -pi (= pi on this grid) is exactly zero.  The constant part of f
    multiplies w_x in the evolution and does not integrate away, so the
    pinning convention is behaviorally significant.  Requires mean-zero
    input; otherwise f would not be periodic.
    """
    if w.domain.dim != 1:
        raise ValueError("antiderivative is defined on the circle")
    _check_mean_zero(w)
    n = w.domain.n[0]
    wh = np.fft.fft(w.values, norm="forward")
    k = w.domain.deriv_wavenumbers[0]
    fh = np.zeros_like(wh)
    nz = k != 0
    fh[nz] = wh[nz] / (1j * k[nz])
    f = np.fft.ifft(fh, norm="forward").real
    return PhysicalField(w.domain, f - f[n // 2])


class _StreamOps:
    """Precomputed 1D spectral machinery for one (domain, regularization).

    The slope is carried as its rfft half spectrum (n//2 + 1 modes); sums
    over modes carry Domain.parseval_weights.
    """

    def __init__(self, domain: Domain, reg: Regularization):
        if domain.dim != 1:
            raise ValueError("stream-slope dynamics live on the circle")
        self.domain = domain
        self.reg = reg
        n = domain.n[0]
        self.n = n
        self.weights = domain.parseval_weights
        k = domain.half(domain.wavenumbers[0])
        kd = domain.half(domain.deriv_wavenumbers[0])
        self.ikd = 1j * kd
        self.k2 = k ** 2
        self.mask = np.abs(k) <= n / 3.0
        self.seam = n // 2
        # antiderivative multiplier 1/(i k); the mean and Nyquist modes have none
        self.inv_ikd = np.zeros(kd.shape, dtype=np.complex128)
        self.inv_ikd[kd != 0] = 1.0 / self.ikd[kd != 0]
        # linear symbol handled by the integrating factor (spectral mode only)
        if reg.mode == "spectral":
            sgn = 1.0 if reg.sign == "oracle" else -1.0
            kabs = np.abs(kd)
            self.lam = sgn * reg.nu * np.where(kabs > 0, np.maximum(kabs, 1.0) ** reg.alpha, 0.0)
        else:
            self.lam = np.zeros(kd.shape)
        self._props = {}

    def propagators(self, dt):
        cached = self._props.get(dt)
        if cached is None:
            cached = (np.exp(self.lam * (0.5 * dt)), np.exp(self.lam * dt))
            if len(self._props) > 8:
                self._props.clear()
            self._props[dt] = cached
        return cached

    def power(self, wh):
        """sum over all modes of |w_k|^2, so ||w||_2^2 = 2 pi * power."""
        return float(np.sum(self.weights * np.abs(wh) ** 2))

    def quasilinear_coeff(self, wh, g):
        """nu * (||w_x||_2^2 + g^2), the quasilinear diffusion coefficient."""
        wx_sq = TWO_PI * float(np.sum(self.weights * self.k2 * np.abs(wh) ** 2))
        return self.reg.nu * (wx_sq + g * g)

    def rhs(self, wh, g):
        """Tendency (dwh, dg) excluding the integrating-factor linear part.

        Also returns the slope w on the grid, from which advance takes the
        sup norm of the first stage.
        """
        w, f, wx = np.fft.irfft(np.stack([wh, self.inv_ikd * wh, self.ikd * wh]),
                                n=self.n, norm="forward")
        f -= f[self.seam]
        dg = 2.0 * self.power(wh)  # (1/pi) ||w||_2^2
        prod_hat = np.fft.rfft(w * w - f * wx, norm="forward")
        prod_hat *= self.mask
        dwh = prod_hat + g * wh
        dwh[0] -= dg
        if self.reg.mode == "quasilinear":
            dwh = dwh - self.quasilinear_coeff(wh, g) * self.k2 * wh
        return dwh, dg, w

    def advance(self, wh, g, dt):
        """One IF-RK4 step of the joint (wh, g) state."""
        e_half, e_full = self.propagators(dt)
        aw, ag, w = self.rhs(wh, g)
        minf = float(np.abs(w).max())
        bw, bg, _ = self.rhs(e_half * (wh + (0.5 * dt) * aw), g + 0.5 * dt * ag)
        cw, cg, _ = self.rhs(e_half * wh + (0.5 * dt) * bw, g + 0.5 * dt * bg)
        dw, dg_, _ = self.rhs(e_full * wh + dt * (e_half * cw), g + dt * cg)
        wh_new = e_full * wh + (dt / 6.0) * (e_full * aw + 2.0 * e_half * (bw + cw) + dw)
        g_new = g + (dt / 6.0) * (ag + 2.0 * (bg + cg) + dg_)
        wh_new[0] = 0.0  # mean-zero data stays mean zero
        return wh_new, g_new, minf


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
    x = np.fft.fft(state.w.values, norm="forward")
    wh = d.half(0.5 * (x + np.conj(np.roll(x[::-1], 1))))
    dwh, dg, _ = ops.rhs(wh, state.g)
    dwh = dwh + ops.lam * wh  # fold the linear symbol back in
    return PhysicalField(d, np.fft.irfft(dwh, n=ops.n, norm="forward")), dg


def run_stream_slope(w0: PhysicalField, reg: Regularization, dt: float,
                     t_end: float, sample_every: float = 0.01,
                     threshold: float = 1e8, adaptive: bool = True,
                     stability_safety: float = 0.8, start_time: float = 0.0,
                     start_g: float = 0.0) -> StreamResult:
    """Integrate the stream-slope system, watching for finite-time blow-up.

    The step size shrinks like 1/(1 + |w|_inf) as the solution steepens
    (and, for the quasilinear mode, respects the explicit-diffusion
    stability bound).  The run halts with the blow-up flag once |w|_inf
    exceeds the threshold or a coefficient goes non-finite, recording a
    blow-up time estimate extrapolated from the last decade of growth:
    1/|w|_inf is fitted against t and the zero crossing is returned.
    Blow-up is an expected outcome in many configurations, not a failure.
    """
    _check_mean_zero(w0)
    if dt <= 0 or t_end <= start_time:
        raise ValueError("dt must be positive and t_end must exceed the start time")
    d = w0.domain
    ops = _StreamOps(d, reg)
    wh = np.fft.rfft(w0.values, norm="forward")
    wh *= ops.mask
    wh[0] = 0.0
    g = start_g
    t = start_time
    m0_inf = float(np.abs(w0.values).max())
    kcut_sq = (ops.n / 3.0) ** 2

    records = []
    history_t = []
    history_m = []

    def sample(t, wh, g):
        w = np.fft.irfft(wh, n=ops.n, norm="forward")
        sf = SpectralField(d, complete_spectrum(wh, d))
        records.append(StreamRecord(
            t=t, l2=math.sqrt(TWO_PI * ops.power(wh)),
            linf=float(np.abs(w).max()), max_w=float(w.max()), g=g,
            h2=hs_seminorm(sf, 2.0)))

    sample(t, wh, g)
    minf = m0_inf
    blew_up = False
    next_sample = start_time + sample_every
    eps = 1e-12 * max(1.0, abs(t_end))

    while t < t_end - eps:
        step_dt = dt
        if adaptive:
            step_dt = dt * (1.0 + m0_inf) / (1.0 + minf)
            if reg.mode == "quasilinear":
                coeff = ops.quasilinear_coeff(wh, g)
                if coeff > 0:
                    step_dt = min(step_dt, stability_safety * 2.5 / (coeff * kcut_sq))
        step_dt = min(step_dt, t_end - t, next_sample - t)
        wh_new, g_new, minf = ops.advance(wh, g, step_dt)
        scale = float(np.abs(wh_new).sum())
        if not np.isfinite(scale):
            blew_up = True
            break
        wh, g = wh_new, g_new
        t = t + step_dt
        history_t.append(t)
        history_m.append(minf)
        if minf > threshold:
            blew_up = True
            sample(t, wh, g)
            break
        if t >= next_sample - eps:
            sample(t, wh, g)
            next_sample += sample_every
    else:
        if not records or records[-1].t < t_end - eps:
            sample(t, wh, g)

    t_star = None
    if blew_up:
        t_star = estimate_blowup_time(history_t, history_m, threshold)
    final = StreamSlopeState(t, PhysicalField(d, np.fft.irfft(wh, n=ops.n, norm="forward")), g)
    return StreamResult(records=records, final_state=final, blew_up=blew_up,
                        t_star_estimate=t_star)


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


def integrate_amplitude_ode(r0: float, nu: float, dt: float, t_max: float,
                            divergence_threshold: float = 1e12):
    """Brute-force twin of the closed form: RK4 on beta' = beta^2 + 2 nu beta + r0^2.

    Returns (times, betas, t_divergence); t_divergence is the time the
    integration first exceeds the threshold or goes non-finite (None if it
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
    n = 0
    t_div = None
    while t < t_max - 1e-15:
        h = min(dt, t_max - t)
        k1 = f(b)
        k2 = f(b + 0.5 * h * k1)
        k3 = f(b + 0.5 * h * k2)
        k4 = f(b + h * k3)
        b = b + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        n += 1
        t = t + h
        if not math.isfinite(b) or abs(b) > divergence_threshold:
            t_div = t
            break
        times.append(t)
        betas.append(b)
    return np.asarray(times), np.asarray(betas), t_div


def check_max_bound(records, m0: float, slack: float = 1e-6):
    """Maximum-control bound M(t) + g(t) <= M(0) / (1 - M(0) t) for t < 1/M(0).

    Proved for the quasilinear-regularized dynamics; offered for the
    unregularized trajectories as well (label the run accordingly).  Records
    at or beyond the vanishing denominator are skipped.
    """
    if m0 <= 0:
        raise ValueError("the bound applies to positive initial maxima")
    horizon = 1.0 / m0
    results = []
    for rec in records:
        if rec.t >= horizon:
            continue
        bound = m0 / (1.0 - m0 * rec.t)
        value = rec.max_w + rec.g
        ok = value <= bound * (1.0 + slack) + 1e-14 * m0
        res = CheckResult("max_bound", bound, value, ok)
        rec.checks.append(res)
        results.append(res)
    return results
