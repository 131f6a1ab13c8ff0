"""Modified Bessel function I0 with log-space output.

Products of per-oscillator factors over macrofractions of size 1e3-1e6
underflow in linear space, so every consumer accumulates log_value.

Strategy: the all-positive power series up to z = 700 (no cancellation, so
it is accurate to near machine precision even at several hundred terms) and
the asymptotic expansion in log form beyond, where exp(z) overflows anyway.
Both branches are written once, over numpy arrays: log_i0e evaluates a whole
macrofraction in one call, running the series only over the entries that
have not yet converged, and bessel_i0 is the same kernel at one argument.
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
    if not 0 <= z < math.inf:
        raise ValueError("bessel_i0 requires a finite z >= 0")
    zz = np.array([z], dtype=float)
    if z <= _SERIES_CUTOFF:
        value = float(_i0_series(zz)[0])
        return I0Result(value=value, log_value=math.log(value))
    log_value = z + float(_log_i0e_asymptotic(zz)[0])
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return I0Result(value=value, log_value=log_value)


def log_i0e(z) -> np.ndarray:
    """log(e^{-z} I0(z)) for each entry of an array (or scalar) of finite
    z >= 0: the log of the per-oscillator factor of the infinite-time
    averages. The result is an array of the shape of z."""
    z = np.asarray(z, dtype=float)
    if not np.all((0 <= z) & (z < math.inf)):
        raise ValueError("log_i0e requires finite z >= 0")
    out = np.empty_like(z)
    series = z <= _SERIES_CUTOFF
    zs = z[series]
    out[series] = np.log(_i0_series(zs)) - zs
    out[~series] = _log_i0e_asymptotic(z[~series])
    return out


def _i0_series(z: np.ndarray) -> np.ndarray:
    """sum_k (z^2/4)^k / (k!)^2 per entry, each stopped at its first term
    <= 1e-18 of its partial sum; converged entries leave the working set."""
    q = 0.25 * z * z
    term = np.ones_like(z)
    total = np.ones_like(z)
    out = np.empty_like(z)
    active = np.arange(z.size)
    k = 1
    while active.size:
        term *= q / (k * k)
        total += term
        done = term <= 1e-18 * total
        if k > 2000:
            done[:] = True
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, q, term, total = active[keep], q[keep], term[keep], total[keep]
        k += 1
    return out


def _log_i0e_asymptotic(z: np.ndarray) -> np.ndarray:
    """log(e^{-z} I0(z)) from A&S 9.7.1, -ln(2 pi z)/2 + ln(1 + sum_k a_k / z^k),
    formed without z itself, so nothing cancels."""
    corr = np.ones_like(z)
    zk = np.ones_like(z)
    for a in _ASYMPTOTIC_COEFFS:
        zk *= z
        corr += a / zk
    return np.log(corr) - 0.5 * np.log(2.0 * math.pi * z)


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
