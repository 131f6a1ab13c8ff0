"""Partial quantum measurement limit: environment self-Hamiltonians included.

Each oscillator contributes an exactly periodic displacement amplitude, so
the factors are almost periodic in time and never decay monotonically; the
meaningful objects are the infinite-time averages, which reduce per
oscillator to exp(-a) I0(a). The phase coefficient zeta_k never enters
|Gamma| or B (it cancels in moduli and in overlaps of the conditional
states) and is carried for completeness only.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathSpec, EnvInitState, SystemSpec
from .specfun import log_i0e
from .units import SI_UNITS, UnitContext

LARGE_SEPARATION_MIN_RATIO = 10.0
_LOW_TEMPERATURE_MIN_ARG = 10.0  # cth(10) - 1 ~ 4e-9
# log_factor_series evaluates cos(w_k t) - 1 for at most this many
# (oscillator, time) pairs per block: 8 MB of float64, whatever the number of
# time steps.
_SERIES_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class PqmlPropagator:
    """Displacement amplitude alpha(t) [1/m] and phase coefficient zeta(t) [1/m^2]."""

    alpha: complex
    zeta: float


@dataclass(frozen=True, eq=False)
class AvgResult:
    """Analytic infinite-time averages in log space.

    i0_arguments[k] = a_k of the k-th factor exp(-a_k) I0(a_k), for gamma
    when it was computed and for b otherwise, as a read-only float64 array;
    since it holds an array, a result compares equal only to itself.
    """

    log_avg_gamma: float | None
    log_avg_b: float | None
    i0_arguments: np.ndarray

    @property
    def avg_gamma(self) -> float:
        return math.exp(self.log_avg_gamma) if self.log_avg_gamma is not None else None

    @property
    def avg_b(self) -> float:
        return math.exp(self.log_avg_b) if self.log_avg_b is not None else None


@dataclass(frozen=True)
class ScalingPrediction:
    """Monte Carlo frequency-averaged decay vs the closed-form prediction,
    both as logs."""

    log_empirical: float
    log_predicted: float


def _thermal_argument(omega, temperature, units: UnitContext):
    """hbar*omega/(2 k_B T); broadcasts over omega and temperature arrays."""
    return units.hbar * np.asarray(omega) / (2.0 * units.k_boltzmann * temperature)


def thermal_weight(omega, temperature, units: UnitContext, which: str):
    """cth or th of hbar*omega/(2 k_B T); broadcasts, so a temperature column
    (nT, 1) against omega (k,) gives one row of weights per temperature."""
    th = np.tanh(_thermal_argument(omega, temperature, units))
    if which == "decoherence":
        return 1.0 / th
    if which == "distinguishability":
        return th
    raise ValueError("which must be 'decoherence' or 'distinguishability'")


def pqml_propagator(t: float, omega: float, m: float, c: float,
                    units: UnitContext = SI_UNITS) -> PqmlPropagator:
    """alpha(t) = -C/sqrt(2 m w^3 hbar) (e^{iwt} - 1), zeta(t) = C^2 (wt - sin wt)/(m w^3 hbar)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    scale = c / math.sqrt(2.0 * m * omega ** 3 * units.hbar)
    alpha = -scale * (cmath.exp(1j * omega * t) - 1.0)
    zeta = c * c * (omega * t - math.sin(omega * t)) / (m * omega ** 3 * units.hbar)
    return PqmlPropagator(alpha=alpha, zeta=zeta)


def _check_pqml_state(env_state: EnvInitState) -> None:
    if env_state.squeezing_r != 0.0:
        raise ValueError("squeezed initial states are not supported in the "
                         "partial measurement limit")


def log_factor_series(times, bath: BathSpec, system: SystemSpec,
                      env_state: EnvInitState, idx: Sequence[int] | None = None,
                      which: str = "decoherence",
                      units: UnitContext = SI_UNITS) -> np.ndarray:
    """log factor on an array of times: sum_k a_k (cos w_k t - 1), with a_k the
    I0 arguments of bessel_arguments, over consecutive blocks of times."""
    _check_pqml_state(env_state)
    w = bath.arrays(idx)[0]
    tt = np.asarray(times, dtype=float).ravel()
    a = bessel_arguments(bath, system, env_state, idx, which, units)
    out = np.empty(tt.size)
    step = max(1, _SERIES_BLOCK_ENTRIES // max(1, w.size))
    for start in range(0, tt.size, step):
        block = np.outer(w, tt[start:start + step])
        np.cos(block, out=block)
        block -= 1.0
        out[start:start + step] = a @ block
    return out


def _log_factor_scalar(t, bath, system, env_state, idx, which, units) -> float:
    if t < 0:
        raise ValueError("t must be non-negative")
    return float(log_factor_series(t, bath, system, env_state, idx, which, units)[0])


def gamma_pqml(t: float, bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
               idx: Sequence[int] | None = None, log: bool = False,
               units: UnitContext = SI_UNITS) -> float:
    """Decoherence factor with self-Hamiltonians, thermal state only."""
    lv = _log_factor_scalar(t, bath, system, env_state, idx, "decoherence", units)
    return lv if log else math.exp(lv)


def b_pqml(t: float, bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
           idx: Sequence[int] | None = None, log: bool = False,
           units: UnitContext = SI_UNITS) -> float:
    """Distinguishability factor with self-Hamiltonians, thermal state only."""
    lv = _log_factor_scalar(t, bath, system, env_state, idx, "distinguishability", units)
    return lv if log else math.exp(lv)


def bessel_arguments(bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
                     idx: Sequence[int] | None = None, which: str = "decoherence",
                     units: UnitContext = SI_UNITS) -> np.ndarray:
    """Per-oscillator arguments a_k = dx^2 C_k^2 {cth|th}(.)/(2 m_k w_k^3 hbar)."""
    w = bath.arrays(idx)[0]
    return _bare_arguments(bath, system, idx, units) \
        * thermal_weight(w, env_state.temperature, units, which)


def _bare_arguments(bath: BathSpec, system: SystemSpec, idx, units: UnitContext):
    """dx^2 C_k^2 / (2 m_k w_k^3 hbar): the I0 argument before the thermal weight."""
    w, m, c = bath.arrays(idx)
    return 0.5 * system.dx ** 2 * c * c / (m * w ** 3 * units.hbar)


def avg_analytic(bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
                 idx: Sequence[int] | None = None, which: str = "both",
                 units: UnitContext = SI_UNITS) -> AvgResult:
    """Infinite-time averages: product over k of exp(-a_k) I0(a_k), in log space.

    Rests on the ergodic substitution of the time average by the average over
    phase angles; duplicate frequencies degrade its assumptions and only
    trigger a warning.
    """
    _check_pqml_state(env_state)
    w, _, _ = bath.arrays(idx)
    if len(set(w.tolist())) != len(w):
        warnings.warn("duplicate bath frequencies: ergodic-average assumptions "
                      "are degraded", stacklevel=2)

    if which not in ("decoherence", "distinguishability", "both"):
        raise ValueError("which must be 'decoherence', 'distinguishability' or 'both'")
    logs, arguments = {}, None
    for kind in ("decoherence", "distinguishability"):
        if which in (kind, "both"):
            args = bessel_arguments(bath, system, env_state, idx, kind, units)
            logs[kind] = math.fsum(log_i0e(args).tolist())
            if arguments is None:
                arguments = args
    arguments.flags.writeable = False
    return AvgResult(log_avg_gamma=logs.get("decoherence"),
                     log_avg_b=logs.get("distinguishability"), i0_arguments=arguments)


def check_large_separation(system: SystemSpec, omega: float, gamma0: float,
                           units: UnitContext = SI_UNITS) -> float:
    """Large-separation ratio sqrt(M gamma0 / hbar) |x1-x2| / omega^(3/2).

    This is the square root of 2 pi times the I0 argument for prefactor-1
    mass-proportional couplings, so ratio >> 1 is exactly the asymptotic
    regime of the averages.
    """
    if omega <= 0 or gamma0 <= 0:
        raise ValueError("omega and gamma0 must be strictly positive")
    return system.dx * math.sqrt(system.mass_M * gamma0 / units.hbar) / omega ** 1.5


def avg_asymptotic(bath: BathSpec, system: SystemSpec, env_state: EnvInitState,
                   idx: Sequence[int] | None = None,
                   min_ratio: float = LARGE_SEPARATION_MIN_RATIO,
                   units: UnitContext = SI_UNITS) -> float:
    """Low-temperature, large-separation log average: sum_k -ln sqrt(2 pi a_k).

    Valid for both factors since th = cth = 1 in this limit. Rejects inputs
    where the large-separation ratio is below min_ratio or the temperature is
    not deep in the cth = th = 1 regime.
    """
    _check_pqml_state(env_state)
    args = _thermal_argument(bath.arrays(idx)[0], env_state.temperature, units)
    if np.any(args < _LOW_TEMPERATURE_MIN_ARG):
        raise ValueError("temperature too high for the low-temperature asymptotics")
    a = _bare_arguments(bath, system, idx, units)
    ratios = np.sqrt(2.0 * math.pi * a)
    bad = np.nonzero(ratios < min_ratio)[0]
    if bad.size:
        raise ValueError(f"large-separation condition violated for oscillators "
                         f"{bad.tolist()} (ratio < {min_ratio})")
    return float(math.fsum((-0.5 * np.log(2.0 * math.pi * a)).tolist()))


def freq_averaged_scaling(system: SystemSpec, env_state: EnvInitState,
                          omega_bar: float, delta: float, mN: int, gamma0: float,
                          mc_samples: int, seed: int,
                          min_ratio: float = LARGE_SEPARATION_MIN_RATIO,
                          units: UnitContext = SI_UNITS) -> ScalingPrediction:
    """Monte Carlo frequency average of the asymptotic decay vs the prediction
    exp[-mN ln(sqrt(M gamma0/hbar) dx / omega_bar^(3/2))]."""
    if delta < 0 or delta > omega_bar / 5.0:
        raise ValueError("band width must satisfy 0 <= delta <= omega_bar / 5")
    if mN < 1 or mc_samples < 1:
        raise ValueError("mN and mc_samples must be positive")
    # the worst (highest) frequency in the band must still satisfy (L)
    edge_ratio = check_large_separation(system, omega_bar + delta / 2.0, gamma0, units)
    if edge_ratio < min_ratio:
        raise ValueError(f"band violates the large-separation condition "
                         f"(edge ratio {edge_ratio:.3g} < {min_ratio})")

    scale = math.log(system.dx * math.sqrt(system.mass_M * gamma0 / units.hbar))
    children = np.random.SeedSequence(seed).spawn(mc_samples)
    logs = np.empty(mc_samples)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        w = rng.uniform(omega_bar - delta / 2.0, omega_bar + delta / 2.0, size=mN)
        logs[i] = np.sum(1.5 * np.log(w) - scale)
    peak = logs.max()
    log_empirical = float(peak + math.log(np.mean(np.exp(logs - peak))))
    log_predicted = float(mN * (1.5 * math.log(omega_bar) - scale))
    return ScalingPrediction(log_empirical=log_empirical, log_predicted=log_predicted)
