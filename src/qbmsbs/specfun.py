"""Modified Bessel function I0 with log-space output.

Products of per-oscillator factors over macrofractions of size 1e3-1e6
underflow in linear space, so every consumer accumulates log_value.

Strategy: the all-positive power series up to z = 700 (no cancellation, so
it is accurate to near machine precision even at several hundred terms) and
the asymptotic expansion in log form beyond, where exp(z) overflows anyway.
The defining integral evaluated by quadrature serves as the independent
test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SERIES_CUTOFF = 700.0
# a_k = prod_{j<=k} (2j-1)^2 / (k! 8^k) of the large-argument expansion
_ASYMPTOTIC_COEFFS = (
    1.0 / 8.0,
    9.0 / 128.0,
    75.0 / 1024.0,
    3675.0 / 32768.0,
    59535.0 / 262144.0,
)


@dataclass(frozen=True)
class I0Result:
    value: float
    log_value: float


def bessel_i0(z: float) -> I0Result:
    """I0(z) for z >= 0, with its natural log for overflow-free products."""
    if z < 0:
        raise ValueError("bessel_i0 requires z >= 0")
    if z <= _SERIES_CUTOFF:
        value = _i0_series(z)
        return I0Result(value=value, log_value=math.log(value))
    log_value = _i0_log_asymptotic(z)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return I0Result(value=value, log_value=log_value)


def log_i0e(z) -> np.ndarray:
    """log(e^{-z} I0(z)) for each entry of a sequence of z >= 0: the log of
    the per-oscillator factor of the infinite-time averages."""
    return np.array([-x + bessel_i0(x).log_value
                     for x in np.asarray(z, dtype=float).tolist()])


def _i0_series(z: float) -> float:
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= q / (k * k)
        total += term
        if term <= 1e-18 * total or k > 2000:
            return total
        k += 1


def _i0_log_asymptotic(z: float) -> float:
    corr = 1.0
    zk = 1.0
    for a in _ASYMPTOTIC_COEFFS:
        zk *= z
        corr += a / zk
    return z - 0.5 * math.log(2.0 * math.pi * z) + math.log(corr)


def i0_asymptotic(z: float) -> float:
    """Leading-order large-argument form, log(e^z / sqrt(2 pi z)) = z - ln(2 pi z)/2."""
    if z <= 0:
        raise ValueError("i0_asymptotic requires z > 0")
    return z - 0.5 * math.log(2.0 * math.pi * z)


def bessel_i0_oracle(z: float, panels: int) -> float:
    """Composite trapezoid quadrature of (1/pi) * int_0^pi exp(z cos t) dt.

    The integrand extends to a smooth periodic function, so the rule
    converges spectrally in the panel count.
    """
    if panels < 64:
        raise ValueError("panels must be at least 64")
    theta = np.linspace(0.0, math.pi, panels + 1)
    f = np.exp(z * np.cos(theta))
    weights = np.ones(panels + 1)
    weights[0] = weights[-1] = 0.5
    h = math.pi / panels
    return float(h * np.dot(weights, f) / math.pi)
