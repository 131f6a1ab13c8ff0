"""Decision layer: SBS-formation verdicts, formation times, macrofraction
scaling and the (temperature, squeezing) scan engine.

A scan evaluates the infinite-time averaged decoherence factor over the
unobserved set and the infinite-time averaged distinguishability factor over
the first observed macrofraction, with a single bath (one frequency draw)
for the whole grid.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _floatfmt, fullmodel, pqml, qml
from .bath import BathSpec, EnvInitState, Partition, SystemSpec
from .specfun import log_i0e
from .units import SI_UNITS, UnitContext


@dataclass(frozen=True)
class SbsVerdict:
    """Formed iff both factors are at or below the threshold."""

    formed: bool
    gamma_value: float
    b_value: float
    epsilon: float


@dataclass(frozen=True)
class FormationResult:
    """First grid time with both factors <= epsilon, plus (QML only) the
    analytic prediction and, since almost-periodic factors can revive, the
    largest factor value seen after the first crossing."""

    time: float | None
    reached: bool
    analytic_time: float | None
    max_after_crossing: float | None
    epsilon: float


@dataclass(frozen=True)
class ScalingResult:
    points: tuple[tuple[int, float], ...]
    slope: float


@dataclass(frozen=True)
class ScanGrid:
    """Averaged factors on a (temperature, squeezing) grid; matrices are
    indexed [temperature, squeezing]. quadrature holds, JSON-ready, how the
    averages were computed: the method, the tolerance, the (K_theta, K_phi)
    nodes and whether the node cap was hit per factor and r, and the
    per-cell convergence matrices."""

    t_values: tuple[float, ...]
    r_values: tuple[float, ...]
    avg_gamma: tuple[tuple[float, ...], ...]
    avg_b: tuple[tuple[float, ...], ...]
    bath_fingerprint: dict = field(default_factory=dict)
    partition_descriptor: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        """Long format, one "%.16e" row per (T, r) cell, r varying fastest."""
        nt, nr = len(self.t_values), len(self.r_values)
        table = np.column_stack((np.repeat(self.t_values, nr), np.tile(self.r_values, nt),
                                 np.ravel(self.avg_gamma), np.ravel(self.avg_b)))
        return "T,r,avg_gamma,avg_b\n" + b"".join(_floatfmt.csv_blocks(table)).decode()

    def to_json_dict(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "r_values": list(self.r_values),
            "avg_gamma": [list(row) for row in self.avg_gamma],
            "avg_b": [list(row) for row in self.avg_b],
            "bath_fingerprint": dict(self.bath_fingerprint),
            "partition_descriptor": dict(self.partition_descriptor),
            **self.quadrature,
        }


def check_epsilon(epsilon: float) -> None:
    """The SBS threshold must lie in (0, 1]; epsilon = 1 counts every state
    as formed, the trivial threshold."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")


def sbs_verdict(gamma: float, b: float, epsilon: float) -> SbsVerdict:
    """Spectrum broadcast structure has formed iff decoherence is complete
    (gamma <= eps) and the macrofraction states are distinguishable (b <= eps).

    Decohered-but-indistinguishable (gamma small, b large) is the noisy
    regime where decoherence happened yet no information accumulated.
    """
    check_epsilon(epsilon)
    return SbsVerdict(formed=(gamma <= epsilon and b <= epsilon),
                      gamma_value=gamma, b_value=b, epsilon=epsilon)


def evaluate_factors(regime: str, times, *, partition: Partition,
                     bath: BathSpec | None = None,
                     system: SystemSpec | None = None,
                     env_state: EnvInitState | None = None,
                     qml_params: qml.QmlParams | None = None,
                     units: UnitContext = SI_UNITS):
    """(gamma, b) arrays over a time grid for the given regime, one per
    partition.factor_sets() entry: gamma over the unobserved set, b over the
    first macrofraction (b = 1 if there is none). The partition must fit the
    bath (the couplings for qml)."""
    tt = np.atleast_1d(np.asarray(times, dtype=float))
    if regime == "qml":
        if qml_params is None:
            raise ValueError("qml regime requires qml_params")
        partition.validate_against(len(qml_params.couplings))
        log_qml = {"decoherence": qml.log_gamma_qml, "distinguishability": qml.log_b_qml}
        return tuple(np.exp(log_qml[which](tt, qml_params, idx))
                     for _, idx, which in partition.factor_sets())
    models = {"pqml": pqml, "full": fullmodel}
    if regime not in models:
        raise ValueError(f"unknown regime '{regime}'")
    partition.validate_against(bath.n)
    return tuple(np.exp(models[regime].log_factor_series(tt, bath, system, env_state,
                                                         idx, which, units))
                 for _, idx, which in partition.factor_sets())


def formation_time(regime: str, *, partition: Partition, epsilon: float,
                   t_max: float, t_steps: int,
                   bath: BathSpec | None = None,
                   system: SystemSpec | None = None,
                   env_state: EnvInitState | None = None,
                   qml_params: qml.QmlParams | None = None,
                   units: UnitContext = SI_UNITS) -> FormationResult:
    """First grid time at which both factors cross the threshold.

    First crossing, not "crossing and staying below": revivals are physical
    and reported through max_after_crossing instead of being hidden.
    """
    if t_max <= 0 or t_steps < 2:
        raise ValueError("t_max must be positive and t_steps at least 2")
    check_epsilon(epsilon)
    tt = np.linspace(0.0, t_max, t_steps)
    g, b = evaluate_factors(regime, tt, partition=partition, bath=bath,
                            system=system, env_state=env_state,
                            qml_params=qml_params, units=units)
    analytic = None
    if regime == "qml":
        analytic = _qml_formation_prediction(qml_params, partition, epsilon)
    hits = np.nonzero((g <= epsilon) & (b <= epsilon))[0]
    if hits.size == 0:
        return FormationResult(time=None, reached=False, analytic_time=analytic,
                               max_after_crossing=None, epsilon=epsilon)
    i = int(hits[0])
    later = max(float(g[i + 1:].max()), float(b[i + 1:].max())) if i + 1 < t_steps else None
    return FormationResult(time=float(tt[i]), reached=True, analytic_time=analytic,
                           max_after_crossing=later, epsilon=epsilon)


def _qml_formation_prediction(params: qml.QmlParams, partition: Partition,
                              epsilon: float) -> float:
    """Analytic crossing time: the later of the gamma and b crossings, with
    exact per-set mean-square couplings (b is the slower one for equal sets)."""
    log_eps = math.log(1.0 / epsilon)
    return max((qml.set_timescales(params, idx).tau(which) * math.sqrt(log_eps / len(idx))
                for _, idx, which in partition.factor_sets() if len(idx)), default=0.0)


def _axis_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"axis {what} must be a finite number, got {value!r}")
    return float(value)


def resolve_axis(spec: dict) -> np.ndarray:
    """Grid axis from {'values': [...]} or {'min','max','points','log'};
    every value must be a finite number."""
    if "values" in spec:
        try:
            values = [_axis_number(v, "value") for v in spec["values"]]
        except TypeError as exc:
            raise ValueError("axis values must be a list of numbers") from exc
        if not values:
            raise ValueError("axis value list must be non-empty")
        return np.array(values)
    try:
        lo, hi, points = spec["min"], spec["max"], spec["points"]
    except KeyError as exc:
        raise ValueError(f"axis spec missing key {exc}") from exc
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise ValueError(f"axis points must be an integer, got {points!r}")
    lo, hi = _axis_number(lo, "min"), _axis_number(hi, "max")
    if points < 1 or lo > hi:
        raise ValueError("axis spec requires points >= 1 and min <= max")
    if spec.get("log", False):
        if lo <= 0:
            raise ValueError("log axis requires min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), points)
    return np.linspace(lo, hi, points)


def scan_tr(bath: BathSpec, system: SystemSpec, partition: Partition,
            t_range: dict, r_range: dict, units: UnitContext = SI_UNITS,
            bath_fingerprint: dict | None = None) -> ScanGrid:
    """Infinite-time averaged (gamma, b) over a temperature x squeezing grid.

    One bath for the whole grid. Each (factor, r) column is one call of
    fullmodel.torus_average, which replaces the time average by the average
    over independent oscillator and system phases and refines a periodic
    trapezoid rule on that torus until it converges. Its cost is the exp()
    of the exponent at every node, for every temperature and oscillator.
    ScanGrid.quadrature records the rule used and each cell's convergence.
    The output is deterministic, and at fixed r avg_gamma is non-increasing
    and avg_b non-decreasing in T exactly.
    """
    partition.validate_against(bath.n)
    temps = resolve_axis(t_range)
    rs = resolve_axis(r_range)
    if np.any(temps <= 0):
        raise ValueError("temperatures must be strictly positive")

    columns = {}
    for factor, idx, which in partition.factor_sets():
        # thermal weights per temperature, (nT, len(idx))
        weights = pqml.thermal_weight(bath.arrays(idx)[0], temps[:, None], units, which)
        columns[factor] = [fullmodel.torus_average(bath, system, idx, weights,
                                                   float(r), units) for r in rs]
        for r, col in zip(rs, columns[factor]):
            if max(col.convergence, default=0.0) > fullmodel.TORUS_TOLERANCE:
                warnings.warn(f"{factor} average at r={r:g} not converged with "
                              f"{col.nodes} nodes", stacklevel=2)

    def by_temperature(cols, values):
        """[T][r] matrix from per-r columns."""
        return tuple(zip(*(values(col) for col in cols)))

    quadrature = {
        "average": "infinite-time torus quadrature",
        "quadrature_tolerance": fullmodel.TORUS_TOLERANCE,
        "quadrature_nodes": {f: [list(c.nodes) for c in cols]
                             for f, cols in columns.items()},
        "quadrature_capped": {f: [c.capped for c in cols]
                              for f, cols in columns.items()},
        "convergence": {f: [list(row) for row in
                            by_temperature(cols, lambda c: c.convergence)]
                        for f, cols in columns.items()},
    }
    return ScanGrid(
        t_values=tuple(float(t) for t in temps),
        r_values=tuple(float(r) for r in rs),
        avg_gamma=by_temperature(columns["gamma"], lambda c: map(math.exp, c.log_value)),
        avg_b=by_temperature(columns["b"], lambda c: map(math.exp, c.log_value)),
        bath_fingerprint=dict(bath_fingerprint or {"n": bath.n}),
        partition_descriptor={
            "unobserved_size": len(partition.unobserved),
            "mac_sizes": [len(mac) for mac in partition.macrofractions],
        },
        quadrature=quadrature)


def macrofraction_scaling(regime: str, sizes: Sequence[int], *,
                          which: str = "distinguishability",
                          t: float | None = None,
                          qml_params: qml.QmlParams | None = None,
                          bath: BathSpec | None = None,
                          system: SystemSpec | None = None,
                          env_state: EnvInitState | None = None,
                          c2_mean: float | None = None,
                          units: UnitContext = SI_UNITS) -> ScalingResult:
    """log factor as a function of macrofraction size, with a fitted slope.

    regime 'qml': law-of-large-numbers form at fixed t, exactly linear in
    size. regime 'pqml': analytic infinite-time average over the first
    `size` oscillators of the bath.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("sizes must be non-negative")
    if any(b_ < a_ for a_, b_ in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be non-decreasing")
    if regime == "qml":
        if qml_params is None or t is None:
            raise ValueError("qml scaling requires qml_params and t")
        mean_c2 = c2_mean if c2_mean is not None else \
            math.fsum(c * c for c in qml_params.couplings) / len(qml_params.couplings)
        tau = qml.timescales(qml_params.dx, qml_params.beta_eff, mean_c2).tau(which)
        logs = [-s * (t / tau) ** 2 for s in sizes]
    elif regime == "pqml":
        if bath is None or system is None or env_state is None:
            raise ValueError("pqml scaling requires bath, system and env_state")
        if sizes and sizes[-1] > bath.n:
            raise ValueError("largest size exceeds the bath")
        a = pqml.bessel_arguments(bath, system, env_state, None, which, units)
        prefix = np.concatenate(([0.0], np.cumsum(log_i0e(a))))
        logs = [float(prefix[s]) for s in sizes]
    else:
        raise ValueError("regime must be 'qml' or 'pqml'")
    slope = float(np.polyfit(np.asarray(sizes, float), np.asarray(logs), 1)[0]) \
        if len(sizes) > 1 else math.nan
    return ScalingResult(points=tuple(zip(sizes, logs)), slope=slope)
