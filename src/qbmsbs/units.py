"""Unit-convention bookkeeping.

All model formulas are written with SI parameter values (kg, m, s, K) while
the dimensionless exponents require explicit hbar and k_B: per-oscillator
exponents are (physical action)/hbar and thermal arguments hbar*omega/(2 k_B T).
A dimensionless study can override both constants with 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23       # J / K


@dataclass(frozen=True)
class UnitContext:
    hbar: float = HBAR_SI
    k_boltzmann: float = KB_SI

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.hbar, self.k_boltzmann)):
            raise ValueError("hbar and k_boltzmann must be finite and strictly positive")


SI_UNITS = UnitContext()
DIMENSIONLESS_UNITS = UnitContext(hbar=1.0, k_boltzmann=1.0)
