"""Bath, system, partition and initial-state definitions plus random sampling.

The bath is a finite, discrete set of oscillators with random frequencies;
no continuous spectral density is assumed. Couplings are mass-proportional,
C_k = prefactor * sqrt(M m_k gamma0 / pi), so C_k^2/m_k is mass-independent
and the (unphysical) default m_k = 1 kg placeholder cancels everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BathSpec:
    """N environmental oscillators: frequencies [1/s], masses [kg],
    coupling constants [kg/s^2]."""

    omegas: tuple[float, ...]
    masses: tuple[float, ...]
    couplings: tuple[float, ...]

    def __post_init__(self):
        # (omega, m, C) as read-only float arrays, built once; they are not
        # dataclass fields, so equality and hashing still use the tuples.
        arrays = []
        for name in ("omegas", "masses", "couplings"):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise ValueError(f"{name} must be a flat sequence")
            if not np.all((0 < a) & (a < math.inf)):
                raise ValueError(f"all {name} must be finite and strictly positive")
            a.flags.writeable = False
            object.__setattr__(self, name, tuple(a.tolist()))
            arrays.append(a)
        if len({a.size for a in arrays}) != 1:
            raise ValueError("omegas, masses and couplings must have equal length")
        object.__setattr__(self, "_arrays", tuple(arrays))

    @property
    def n(self) -> int:
        return len(self.omegas)

    def arrays(self, idx: Sequence[int] | None = None):
        """(omega, m, C) as float arrays: the bath's own read-only arrays, or
        copies restricted to idx; an int array idx is used as it is."""
        if idx is None:
            return self._arrays
        ii = np.asarray(idx, dtype=np.intp)
        return tuple(a[ii] for a in self._arrays)


@dataclass(frozen=True)
class SystemSpec:
    """Central oscillator: mass M [kg], frequency Omega [1/s] and the pair
    of positions (x1, x2) [m] whose superposition is decohered.

    omega_big = 0 selects the partial-measurement-limit dynamics exactly.
    """

    mass_M: float
    omega_big: float
    x1: float
    x2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mass_M, self.omega_big, self.x1, self.x2))):
            raise ValueError("mass_M, omega_big, x1 and x2 must be finite")
        if self.mass_M <= 0:
            raise ValueError("mass_M must be strictly positive")
        if self.omega_big < 0:
            raise ValueError("omega_big must be non-negative")

    @property
    def dx(self) -> float:
        """Separation |x1 - x2|; all factors depend on positions only
        through its square."""
        return abs(self.x1 - self.x2)


@dataclass(frozen=True)
class EnvInitState:
    """Initial environment state: temperature T [K] (same for every
    oscillator) and squeezing parameter r (r = 0 is a plain thermal state)."""

    temperature: float
    squeezing_r: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and strictly positive")
        if not math.isfinite(self.squeezing_r):
            raise ValueError("squeezing_r must be finite")

    @classmethod
    def from_beta(cls, beta: float, k_boltzmann: float, squeezing_r: float = 0.0):
        """Construct from inverse temperature beta = 1/(k_B T)."""
        if beta <= 0:
            raise ValueError("beta must be strictly positive")
        return cls(temperature=1.0 / (k_boltzmann * beta), squeezing_r=squeezing_r)


@dataclass(frozen=True)
class Partition:
    """Index sets: the unobserved (traced-out) fraction and the observed
    macrofractions. All sets are pairwise disjoint; their union need not
    cover the whole bath. Each set is also kept as a read-only int64 array,
    which factor_sets hands out."""

    unobserved: tuple[int, ...]
    macrofractions: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        groups = [_index_group(g) for g in (self.unobserved, *self.macrofractions)]
        object.__setattr__(self, "unobserved", groups[0][0])
        object.__setattr__(self, "macrofractions", tuple(g for g, _ in groups[1:]))
        for _, a in groups:
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", tuple(a for _, a in groups))
        # A stable sort keeps equal indices in group order. Equal neighbours
        # in one group are a repeat, in two groups an overlap; as in a
        # group-by-group check, the first group holding a later copy decides
        # which error is raised, a repeat before an overlap.
        flat = np.concatenate([a for _, a in groups])
        label = np.repeat(np.arange(len(groups)), [a.size for _, a in groups])
        order = np.argsort(flat, kind="stable")
        flat, label = flat[order], label[order]
        equal = flat[1:] == flat[:-1]
        same = label[1:] == label[:-1]
        repeat = label[1:][equal & same].min(initial=len(groups))
        overlap = label[1:][equal & ~same].min(initial=len(groups))
        if repeat < len(groups) and repeat <= overlap:
            raise ValueError("repeated index inside a partition group")
        if overlap < len(groups):
            raise ValueError("partition groups must be pairwise disjoint")
        if flat.size and flat[0] < 0:
            raise ValueError("indices must be non-negative")
        if any(len(mac) == 0 for mac in self.macrofractions):
            raise ValueError("macrofractions must be non-empty")

    def validate_against(self, n: int) -> None:
        if max(a.max(initial=-1) for a in self._arrays) >= n:
            raise ValueError(f"partition index out of range for bath of size {n}")

    def factor_sets(self) -> tuple[tuple[str, np.ndarray, str], ...]:
        """The sets the SBS factors run over, as (name, index array, weight
        kind): gamma on the unobserved set, and b on the first macrofraction
        (an empty set if there is none). Later macrofractions are validated
        but not evaluated."""
        unobserved, *macs = self._arrays
        first = macs[0] if macs else unobserved[:0]
        return (("gamma", unobserved, "decoherence"), ("b", first, "distinguishability"))


def _index_group(group) -> tuple[tuple[int, ...], np.ndarray]:
    """A partition group as a tuple of ints and as an int64 array; a range
    needs no per-index conversion."""
    if isinstance(group, range):
        return tuple(group), np.arange(group.start, group.stop, group.step, dtype=np.int64)
    ints = tuple(map(int, group))
    return ints, np.fromiter(ints, np.int64, len(ints))


def sample_frequencies(n: int, omega_bar: float, delta: float, seed: int) -> tuple[float, ...]:
    """n i.i.d. frequencies, uniform on [omega_bar - delta/2, omega_bar + delta/2].

    Deterministic for a fixed seed. delta = 0 yields n copies of omega_bar.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (math.isfinite(omega_bar) and math.isfinite(delta)):
        raise ValueError("omega_bar and delta must be finite")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    low = omega_bar - delta / 2.0
    if low <= 0:
        raise ValueError("lower band edge omega_bar - delta/2 must be positive")
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(low, omega_bar + delta / 2.0, size=n).tolist())


def couplings_from_masses(masses: Sequence[float], mass_M: float, gamma0: float,
                          prefactor: int = 1) -> tuple[float, ...]:
    """Mass-proportional couplings C_k = prefactor * sqrt(M m_k gamma0 / pi).

    prefactor is exposed because both 1 and 2 are in legitimate use for
    different parameter conventions.
    """
    if prefactor not in (1, 2):
        raise ValueError("prefactor must be 1 or 2")
    if mass_M <= 0 or gamma0 <= 0:
        raise ValueError("mass_M and gamma0 must be strictly positive")
    m = np.asarray(masses, dtype=float)
    if not np.all(m > 0):
        raise ValueError("all masses must be strictly positive")
    return tuple((prefactor * np.sqrt(mass_M * m * gamma0 / math.pi)).tolist())


def sample_bath(n: int, omega_bar: float, delta: float, seed: int, mass_M: float,
                gamma0: float, prefactor: int = 1,
                masses: Sequence[float] | None = None) -> BathSpec:
    """Random bath with uniform frequencies and mass-proportional couplings."""
    omegas = sample_frequencies(n, omega_bar, delta, seed)
    if masses is None:
        masses = (1.0,) * n
    couplings = couplings_from_masses(masses, mass_M, gamma0, prefactor)
    return BathSpec(omegas=omegas, masses=tuple(masses), couplings=couplings)


def make_partition(n: int, unobserved_size: int, mac_sizes: Sequence[int]) -> Partition:
    """Deterministic contiguous assignment: first indices unobserved, then the
    macrofractions in order. Order is physically irrelevant (the factors depend
    only on the multiset of oscillators inside each group)."""
    if unobserved_size < 0 or any(s < 0 for s in mac_sizes):
        raise ValueError("sizes must be non-negative")
    total = unobserved_size + sum(mac_sizes)
    if total > n:
        raise ValueError(f"partition oversubscribes the bath: {total} > {n}")
    cursor = unobserved_size
    macs = []
    for s in mac_sizes:
        macs.append(range(cursor, cursor + s))
        cursor += s
    return Partition(unobserved=range(unobserved_size), macrofractions=tuple(macs))
