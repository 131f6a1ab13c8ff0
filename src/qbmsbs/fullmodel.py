"""Full model: system and environment self-Hamiltonians both present.

The displacement amplitude mixes the bath frequency w with the system
frequency Omega and diverges at resonance, which is excluded by a guard.
Squeezing the initial thermal state only replaces |alpha|^2 by
ch(2r) [|alpha|^2 - th(2r) Re alpha^2].

Every amplitude is evaluated from the complex amplitude

    alpha(t) = -(C/sqrt(2 m w hbar)) z / (w^2 - O^2),
    z = e^{i phi}(w cos theta - i O sin theta) - w,  phi = w t, theta = O t,

whose Omega -> 0 limit is the partial-measurement-limit amplitude. With
s = C^2 / (2 m w (w^2 - O^2)^2 hbar) this gives |alpha|^2 = s |z|^2,
Re alpha^2 = s (Re z^2 - Im z^2) and the squeezed amplitude

    s [e^{-2r} (Re z)^2 + e^{2r} (Im z)^2].

That last form is a sum of squares, so it is non-negative for every r by
construction and, unlike the ch - th Re bracket, loses no digits to
cancellation at large r. The time series and the phase-torus average both
evaluate z through the one kernel _z.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathSpec, EnvInitState, SystemSpec
from .pqml import thermal_weight
from .units import SI_UNITS, UnitContext

RESONANCE_GUARD = 1e-6


class ResonanceError(ValueError):
    """Bath frequency too close to the system frequency; the amplitude
    prefactor 1/(w^2 - Omega^2)^2 diverges there."""


@dataclass(frozen=True)
class TimeAverage:
    """Uniform-grid estimate of the long-time average with a convergence
    indicator: the difference between the tau and tau/2 estimates.

    convergence is not an error bound. On a 3-oscillator squeezed test
    config, |torus average - time average| was 1.21 times the indicator at
    500 periods of Omega.
    """

    value: float
    convergence: float
    tau: float
    n_samples: int


TORUS_NODES_START = (64, 32)
TORUS_NODES_CAP = (1024, 512)
TORUS_TOLERANCE = 1e-3
_TORUS_BLOCK = 1 << 21  # exp() evaluations held in memory at once


@dataclass(frozen=True)
class TorusAverage:
    """Infinite-time averages in log space, one per row of thermal weights.

    nodes is the (K_theta, K_phi) rule used: K_theta = 1 at Omega = 0, and
    (0, 0) for an empty index set;
    convergence[i] = |log avg_K - log avg_{K/2}| of row i, where the K/2
    rule is every other node of the K rule; capped is True when the rule
    reached TORUS_NODES_CAP.
    """

    log_value: tuple[float, ...]
    convergence: tuple[float, ...]
    nodes: tuple[int, int]
    capped: bool


def _check_resonance(omega, omega_big: float) -> None:
    if omega_big == 0.0:
        return
    w = np.asarray(omega)
    if np.any(np.abs(w - omega_big) <= RESONANCE_GUARD * omega_big):
        raise ResonanceError(
            f"bath frequency within {RESONANCE_GUARD:g} relative of Omega={omega_big:g}")


def _prefactor(w, m, c, omega_big: float, units: UnitContext):
    """s = C^2 / (2 m w (w^2 - Omega^2)^2 hbar), so that alpha^2 = s z^2."""
    return c * c / (2.0 * m * w * (w ** 2 - omega_big ** 2) ** 2 * units.hbar)


def _z(w, cos_phi, sin_phi, omega_big: float, cos_theta, sin_theta):
    """(Re z, Im z) of z = e^{i phi}(w cos theta - i Omega sin theta) - w."""
    return (w * (cos_phi * cos_theta - 1.0) + omega_big * (sin_phi * sin_theta),
            w * (sin_phi * cos_theta) - omega_big * (cos_phi * sin_theta))


def _squeezed(zr, zi, r: float):
    """e^{-2r} (Re z)^2 + e^{2r} (Im z)^2, i.e. ch(2r)[|z|^2 - th(2r) Re z^2]."""
    return math.exp(-2.0 * r) * zr * zr + math.exp(2.0 * r) * zi * zi


def _amplitude(t, omega, omega_big, m, c, units):
    """(s, Re z, Im z) at the times t; broadcasts over t or omega arrays."""
    _check_resonance(omega, omega_big)
    t = np.asarray(t, dtype=float)
    phi, theta = omega * t, omega_big * t
    zr, zi = _z(omega, np.cos(phi), np.sin(phi), omega_big, np.cos(theta), np.sin(theta))
    return _prefactor(omega, m, c, omega_big, units), zr, zi


def _as_float(out):
    return float(out) if out.ndim == 0 else out


def alpha_sq_full(t, omega, omega_big, m, c, units: UnitContext = SI_UNITS):
    """|alpha(t)|^2 = s |z|^2 [1/m^2]; broadcasts over t or omega arrays."""
    s, zr, zi = _amplitude(t, omega, omega_big, m, c, units)
    return _as_float(s * (zr * zr + zi * zi))


def re_alpha_sq_full(t, omega, omega_big, m, c, units: UnitContext = SI_UNITS):
    """Re alpha(t)^2 = s Re z^2 [1/m^2]; broadcasts over t or omega arrays."""
    s, zr, zi = _amplitude(t, omega, omega_big, m, c, units)
    return _as_float(s * (zr * zr - zi * zi))


def alpha_sq_squeezed(t, omega, omega_big, m, c, r, units: UnitContext = SI_UNITS):
    """ch(2r) [|alpha|^2 - th(2r) Re alpha^2] = s [e^{-2r} Re z^2 + e^{2r} Im z^2];
    equals |alpha|^2 at r = 0 and is non-negative for every r."""
    s, zr, zi = _amplitude(t, omega, omega_big, m, c, units)
    return _as_float(s * _squeezed(zr, zi, r))


def log_factor_series(times, bath: BathSpec, system: SystemSpec,
                      env_state: EnvInitState, idx: Sequence[int] | None = None,
                      which: str = "decoherence",
                      units: UnitContext = SI_UNITS) -> np.ndarray:
    """log factor on an array of times: -(dx^2/2) sum_k weight_k ampl_k(t).

    The system phase Omega t is shared by every oscillator, so its cos and
    sin are computed once; the sum runs over oscillators one at a time.
    """
    tt = np.atleast_1d(np.asarray(times, dtype=float))
    w, m, c = bath.arrays(idx)
    omega_big = system.omega_big
    _check_resonance(w, omega_big)
    coef = thermal_weight(w, env_state.temperature, units, which) \
        * _prefactor(w, m, c, omega_big, units)
    cos_theta, sin_theta = np.cos(omega_big * tt), np.sin(omega_big * tt)
    total = np.zeros_like(tt)
    for wk, gk in zip(w, coef):
        phi = wk * tt
        zr, zi = _z(wk, np.cos(phi), np.sin(phi), omega_big, cos_theta, sin_theta)
        total += gk * _squeezed(zr, zi, env_state.squeezing_r)
    return -0.5 * system.dx ** 2 * total


def _log_factor_scalar(t, bath, system, env_state, idx, which, units) -> float:
    if t < 0:
        raise ValueError("t must be non-negative")
    return float(log_factor_series(t, bath, system, env_state, idx, which, units)[0])


def gamma_full(t: float, bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
               idx: Sequence[int] | None = None, log: bool = False,
               units: UnitContext = SI_UNITS) -> float:
    """Decoherence factor of the full model (squeezed thermal initial state)."""
    lv = _log_factor_scalar(t, bath, system, env_state, idx, "decoherence", units)
    return lv if log else math.exp(lv)


def b_full(t: float, bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
           idx: Sequence[int] | None = None, log: bool = False,
           units: UnitContext = SI_UNITS) -> float:
    """Distinguishability factor of the full model."""
    lv = _log_factor_scalar(t, bath, system, env_state, idx, "distinguishability", units)
    return lv if log else math.exp(lv)


def default_averaging_time(bath: BathSpec, periods: float = 1e4) -> float:
    """Reduced default horizon: `periods` revolutions of the slowest oscillator.

    The average converges within a few thousand periods; integrating a full
    second at GHz frequencies buys nothing but cost.
    """
    return periods * 2.0 * math.pi / min(bath.omegas)


def default_sample_count(bath: BathSpec, system: SystemSpec, tau: float,
                         samples_per_period: float = 20.0) -> int:
    """Enough samples to resolve the fastest harmonic 2(max w_k + Omega)."""
    f_max = 2.0 * (max(bath.omegas) + system.omega_big)
    return max(1000, int(math.ceil(samples_per_period * tau * f_max / (2.0 * math.pi))))


def time_average_numeric(factor: str, bath: BathSpec, system: SystemSpec,
                         env_state: EnvInitState, idx: Sequence[int] | None,
                         tau: float, n_samples: int,
                         units: UnitContext = SI_UNITS,
                         chunk: int = 1 << 18) -> TimeAverage:
    """Uniform midpoint-grid estimate of (1/tau) int_0^tau factor dt.

    factor is 'gamma' or 'b'. Accuracy is governed by tau (ergodic
    convergence), not local smoothness; the integrand is bounded in (0, 1].
    """
    if factor not in ("gamma", "b"):
        raise ValueError("factor must be 'gamma' or 'b'")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    which = "decoherence" if factor == "gamma" else "distinguishability"
    half = n_samples // 2
    total = 0.0
    total_half = 0.0
    dt = tau / n_samples
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        tt = (np.arange(start, stop) + 0.5) * dt
        vals = np.exp(log_factor_series(tt, bath, system, env_state, idx, which, units))
        total += float(vals.sum())
        if start < half:
            total_half += float(vals[: max(0, half - start)].sum())
    value = total / n_samples
    half_estimate = total_half / half
    return TimeAverage(value=value, convergence=abs(value - half_estimate),
                       tau=tau, n_samples=n_samples)


def _log_sum_exp_rows(x: np.ndarray) -> np.ndarray:
    """log sum_j exp(x[i, j]) per row. Rows share the largest entry as their
    shift, so rows that are ordered entrywise stay ordered exactly; only a row
    whose entries all lie 600 below it, and would underflow, uses its own."""
    row_max, top = x.max(axis=1), x.max()
    shift = np.where(row_max < top - 600.0, row_max, top)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return shift[:, 0] + np.log(np.exp(x - shift).sum(axis=1))


def _torus_rule(a: np.ndarray, omega: np.ndarray, omega_big: float, r: float,
                k_theta: int, k_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """log avg of exp(-sum_k a[:, k] Q_k(phi_k, theta)) by the periodic
    trapezoid rule on k_theta x k_phi nodes, and by its every-other-node
    subrule.

    Q_k = e^{-2r} z_r^2 + e^{2r} z_i^2 with
    z = e^{i phi}(w_k cos theta - i Omega sin theta) - w_k (_z, _squeezed).
    The product over k
    of the phi means is even and pi-periodic in theta, so the rule on
    2 pi j / k_theta needs only the nodes in [0, pi/2], the two ends with
    half weight. At Omega = 0 the system phase theta = Omega t stays 0.
    """
    if omega_big == 0.0:
        theta, mult = np.zeros(1), np.ones(1)
    else:
        theta = 2.0 * math.pi * np.arange(k_theta // 4 + 1) / k_theta
        mult = np.full(theta.size, 4.0)
        mult[[0, -1]] = 2.0
    phi = 2.0 * math.pi * np.arange(k_phi) / k_phi
    zr, zi = _z(omega[:, None, None], np.cos(phi), np.sin(phi), omega_big,
                np.cos(theta)[:, None], np.sin(theta)[:, None])
    q = _squeezed(zr, zi, r)   # (k, theta, phi)
    q_min = q.min(axis=2)
    q -= q_min[:, :, None]

    rows = a.shape[0]
    log_full = np.empty((rows, theta.size))
    log_half = np.empty((rows, theta.size))
    step = max(1, _TORUS_BLOCK // q.size)
    for lo in range(0, rows, step):
        ab = a[lo:lo + step, :, None]
        # shifted by the smallest exponent over phi, so each full mean is >= 1/k_phi
        e = np.exp(q[None] * -ab[..., None])
        base = -ab * q_min[None]
        log_full[lo:lo + step] = (base + np.log(e.sum(axis=3) / k_phi)).sum(axis=1)
        with np.errstate(divide="ignore"):
            log_half[lo:lo + step] = (
                base + np.log(e[..., ::2].sum(axis=3) / (k_phi // 2))).sum(axis=1)
    full = _log_sum_exp_rows(log_full + np.log(mult / mult.sum()))
    half = _log_sum_exp_rows(log_half[:, ::2] + np.log(mult[::2] / mult[::2].sum()))
    return full, half


def torus_average(bath: BathSpec, system: SystemSpec, idx: Sequence[int],
                  weights, r: float, units: UnitContext = SI_UNITS) -> TorusAverage:
    """Infinite-time average of exp(-(dx^2/2) sum_k weight_k A_k(t)) over the
    oscillators idx, for each row of weights (shape rows x len(idx), cth for
    gamma or th for b), at squeezing r.

    A_k depends on t only through the phases w_k t and Omega t. For
    rationally independent frequencies the time average is the average over
    independent uniform phases (Kronecker-Weyl), computed by the periodic
    trapezoid rule, which converges exponentially for these analytic
    integrands. K starts at TORUS_NODES_START and doubles until every row has
    |log avg_K - log avg_{K/2}| <= TORUS_TOLERANCE, or K reaches
    TORUS_NODES_CAP. All rows share one rule, so an entrywise ordering of
    the weight rows carries over exactly to the averages.

    A frequency within RESONANCE_GUARD of Omega raises ResonanceError.
    Equal frequencies share a phase, which the product form ignores, so they
    draw a UserWarning. A low-order rational relation between frequencies
    (w_k = p/q Omega or p/q w_j with small p, q) also ties phases together
    and shifts the time average away from the torus value, with no warning.
    One oscillator with w = 1.7 = 3.4 Omega, Omega = 0.5, C = 0.8, m = M = 1,
    x2 - x1 = 2, hbar = k_B = 1, at r = 1.5 and T = 5: the torus gamma is
    0.224434 and the time average 0.224481 at 10^3 and at 4 x 10^3 periods
    of Omega, a 2.1e-4 gap. Adding w = 2.3 = 4.6 Omega with C = 0.6 widens
    it to 5% (0.154309 against 0.162075).
    """
    w, m, c = bath.arrays(idx)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != w.size:
        raise ValueError("weights must have shape (rows, len(idx))")
    _check_resonance(w, system.omega_big)
    if len(set(w.tolist())) != w.size:
        warnings.warn("duplicate bath frequencies in the averaged set: the "
                      "independent-phase average does not hold for them",
                      stacklevel=2)
    if w.size == 0:
        zeros = (0.0,) * weights.shape[0]
        return TorusAverage(log_value=zeros, convergence=zeros, nodes=(0, 0),
                            capped=False)
    omega_big = system.omega_big
    # A_k = s_k Q_k
    a = 0.5 * system.dx ** 2 * weights * _prefactor(w, m, c, omega_big, units)
    k_theta, k_phi = TORUS_NODES_START
    while True:
        full, half = _torus_rule(a, w, omega_big, r, k_theta, k_phi)
        convergence = np.abs(full - half)
        if np.all(convergence <= TORUS_TOLERANCE) or k_theta >= TORUS_NODES_CAP[0]:
            break
        k_theta, k_phi = 2 * k_theta, 2 * k_phi
    return TorusAverage(log_value=tuple(full.tolist()),
                        convergence=tuple(convergence.tolist()),
                        nodes=(k_theta if omega_big else 1, k_phi),
                        capped=k_theta >= TORUS_NODES_CAP[0])
