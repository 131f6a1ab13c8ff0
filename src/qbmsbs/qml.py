"""Quantum measurement limit: all self-Hamiltonians neglected.

This regime is written in the dimensionless convention with oscillator
masses and frequencies set to one, so beta_eff is a plain dimensionless
inverse temperature and the couplings carry no units. Decay is a Gaussian
in time, so both factors always vanish eventually; the characteristic
timescales are exact.

Note: expanding the partial-measurement-limit exponent at small t yields
half of the exponent used here; the two regimes disagree by a factor 2 at
this order and each is implemented as defined for it, without reconciling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class QmlParams:
    """Separation dx, dimensionless inverse temperature and couplings."""

    dx: float
    beta_eff: float
    couplings: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))
        if self.dx < 0:
            raise ValueError("dx must be non-negative")
        if self.beta_eff <= 0:
            raise ValueError("beta_eff must be strictly positive")


@dataclass(frozen=True)
class Timescales:
    """Decoherence and distinguishability times; tau_b >= tau_d always,
    with equality in the zero-temperature limit."""

    tau_d: float
    tau_b: float

    def tau(self, which: str) -> float:
        """tau_d for 'decoherence', tau_b for 'distinguishability'."""
        if which == "decoherence":
            return self.tau_d
        if which == "distinguishability":
            return self.tau_b
        raise ValueError("which must be 'decoherence' or 'distinguishability'")


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _sum_c2(params: QmlParams, idx: Sequence[int] | None) -> float:
    cs = params.couplings
    if idx is not None:
        cs = [cs[i] for i in idx]
    return math.fsum(c * c for c in cs)


def _log_factor(t, params: QmlParams, idx, weight: float):
    """-(dx^2/2) t^2 weight sum C_k^2; t may be a scalar or an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    out = -0.5 * params.dx ** 2 * t * t * weight * _sum_c2(params, idx)
    return float(out) if out.ndim == 0 else out


def log_gamma_qml(t, params: QmlParams, idx: Sequence[int] | None = None):
    return _log_factor(t, params, idx, _coth(params.beta_eff / 2.0))


def log_b_qml(t, params: QmlParams, idx: Sequence[int] | None = None):
    return _log_factor(t, params, idx, math.tanh(params.beta_eff / 2.0))


def gamma_qml(t: float, params: QmlParams, idx: Sequence[int] | None = None,
              log: bool = False) -> float:
    """Decoherence factor exp[-(dx^2/2) t^2 cth(beta/2) sum C_k^2]."""
    lg = log_gamma_qml(t, params, idx)
    return lg if log else math.exp(lg)


def b_qml(t: float, params: QmlParams, idx: Sequence[int] | None = None,
          log: bool = False) -> float:
    """Distinguishability factor exp[-(dx^2/2) t^2 th(beta/2) sum C_k^2]."""
    lb = log_b_qml(t, params, idx)
    return lb if log else math.exp(lb)


def timescales(dx: float, beta_eff: float, c2_mean: float) -> Timescales:
    """1/tau_D = dx sqrt(cth(beta/2)/2 * c2_mean) and the th analogue for tau_B.

    dx = 0 means neither factor ever decays; both times are infinite.
    """
    if beta_eff <= 0 or c2_mean <= 0:
        raise ValueError("beta_eff and c2_mean must be strictly positive")
    if dx < 0:
        raise ValueError("dx must be non-negative")
    if dx == 0:
        return Timescales(tau_d=math.inf, tau_b=math.inf)
    rate_d = dx * math.sqrt(0.5 * _coth(beta_eff / 2.0) * c2_mean)
    rate_b = dx * math.sqrt(0.5 * math.tanh(beta_eff / 2.0) * c2_mean)
    return Timescales(tau_d=1.0 / rate_d, tau_b=1.0 / rate_b)


def set_timescales(params: QmlParams, idx: Sequence[int]) -> Timescales:
    """Timescales of a non-empty index set, from the fsum mean of its C_k^2."""
    c2 = [params.couplings[i] ** 2 for i in idx]
    return timescales(params.dx, params.beta_eff, math.fsum(c2) / len(c2))


def lln_factors(t: float, dx: float, beta_eff: float, c2_mean: float, size: int,
                which: str = "decoherence", log: bool = False) -> float:
    """Law-of-large-numbers form exp[-size (t/tau)^2] for large index sets
    with i.i.d. couplings of known mean square."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if t < 0:
        raise ValueError("t must be non-negative")
    tau = timescales(dx, beta_eff, c2_mean).tau(which)
    lv = 0.0 if t == 0 else -size * (t / tau) ** 2
    return lv if log else math.exp(lv)
