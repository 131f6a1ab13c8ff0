"""Run configuration: a single JSON-compatible document, strictly validated.

Runs carry ~20 parameters and must be archivable, so the config is a
structured document rather than flags; CLI flags override individual
fields. Unknown keys are rejected to guard against silent typos.

Defaults mirror the reference numerics: M = 1e-5 kg, Omega = 3e8 1/s,
frequencies uniform in [3e9, 6e9] 1/s, |x1 - x2| = 1e-9 m,
gamma0 = 0.33e18 1/s^2, coupling prefactor 2.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .analysis import check_epsilon
from .bath import BathSpec, EnvInitState, Partition, SystemSpec, \
    couplings_from_masses, make_partition, sample_frequencies
from .units import HBAR_SI, KB_SI, UnitContext

REGIMES = ("qml", "pqml", "full", "scan")


class ConfigError(ValueError):
    pass


def _matches(value, annotation) -> bool:
    """Whether a JSON value fits a field annotation. bool is not a number;
    an int is accepted where a float is expected."""
    args = typing.get_args(annotation)
    if isinstance(annotation, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if typing.get_origin(annotation) is list:
        return isinstance(value, list) and all(_matches(v, args[0]) for v in value)
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _from_dict(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config key '{sorted(unknown)[0]}' in section '{section}'")
    hints = _field_types(cls)
    for key, value in data.items():
        if not _matches(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ConfigError(f"'{section}.{key}' must be {expected}, got {value!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"section '{section}': {exc}") from exc


@dataclass
class BathConfig:
    n: int = 20
    omega_bar: float = 4.5e9
    delta: float = 3.0e9
    seed: int = 0
    gamma0: float = 0.33e18
    coupling_prefactor: int = 2
    mass: float = 1.0
    couplings: list[float] | None = None  # explicit override, mainly for qml


@dataclass
class SystemConfig:
    mass_M: float = 1.0e-5
    omega_big: float = 3.0e8
    x1: float = 0.0
    x2: float = 1.0e-9


@dataclass
class EnvConfig:
    temperature: float | None = None
    beta: float | None = None  # dimensionless, qml regime only
    squeezing_r: float = 0.0


@dataclass
class PartitionConfig:
    unobserved_size: int = 10
    mac_sizes: list[int] = field(default_factory=lambda: [10])


@dataclass
class RunParams:
    t_max: float | None = None
    t_steps: int | None = None
    t_range: dict | None = None
    r_range: dict | None = None
    epsilon: float = 0.01
    # accepted and validated for old configs; no computation uses them
    tau: float | None = None
    n_samples: int | None = None
    threads: int = 1


@dataclass
class UnitsConfig:
    hbar: float = HBAR_SI
    k_boltzmann: float = KB_SI


@dataclass
class OutputConfig:
    path: str = "out.csv"
    format: str = "csv"


@dataclass
class RunConfig:
    regime: str = "full"
    bath: BathConfig = field(default_factory=BathConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    run: RunParams = field(default_factory=RunParams)
    units: UnitsConfig = field(default_factory=UnitsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        sections = {
            "bath": BathConfig, "system": SystemConfig, "env": EnvConfig,
            "partition": PartitionConfig, "run": RunParams,
            "units": UnitsConfig, "output": OutputConfig,
        }
        unknown = set(data) - set(sections) - {"regime"}
        if unknown:
            raise ConfigError(f"unknown top-level config key '{sorted(unknown)[0]}'")
        kwargs: dict[str, Any] = {}
        if "regime" in data:
            regime = data["regime"]
            if regime not in REGIMES:
                raise ConfigError(f"regime must be one of {REGIMES}, got '{regime}'")
            kwargs["regime"] = regime
        for name, section_cls in sections.items():
            if name in data:
                kwargs[name] = _from_dict(section_cls, data[name], name)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def validate(self) -> None:
        if self.regime in ("pqml", "full", "scan") and self.env.temperature is None \
                and self.regime != "scan":
            raise ConfigError(f"regime '{self.regime}' requires env.temperature")
        if self.regime == "qml" and self.env.beta is None and self.env.temperature is None:
            raise ConfigError("regime 'qml' requires env.beta (dimensionless) "
                              "or env.temperature")
        if self.regime in ("qml", "pqml", "full"):
            if self.run.t_max is None or self.run.t_steps is None:
                raise ConfigError(f"regime '{self.regime}' requires run.t_max and run.t_steps")
            if not (math.isfinite(self.run.t_max) and self.run.t_max > 0):
                raise ConfigError("run.t_max must be finite and positive")
            if self.run.t_steps < 2:
                raise ConfigError("run.t_steps must be at least 2")
        if self.regime == "scan":
            if self.run.t_range is None or self.run.r_range is None:
                raise ConfigError("regime 'scan' requires run.t_range and run.r_range")
        if self.output.format not in ("csv", "json"):
            raise ConfigError("output.format must be 'csv' or 'json'")
        try:
            check_epsilon(self.run.epsilon)
        except ValueError as exc:
            raise ConfigError(f"run.{exc}") from None
        if self.run.threads < 1:
            raise ConfigError("run.threads must be at least 1")
        if self.run.tau is not None and not (math.isfinite(self.run.tau)
                                             and self.run.tau > 0):
            raise ConfigError("run.tau must be finite and positive")
        if self.run.n_samples is not None and self.run.n_samples < 1000:
            raise ConfigError("run.n_samples must be at least 1000")


def build_units(cfg: RunConfig) -> UnitContext:
    return UnitContext(hbar=cfg.units.hbar, k_boltzmann=cfg.units.k_boltzmann)


def build_bath(cfg: RunConfig) -> BathSpec:
    b = cfg.bath
    omegas = sample_frequencies(b.n, b.omega_bar, b.delta, b.seed)
    masses = (b.mass,) * b.n
    if b.couplings is not None:
        if len(b.couplings) != b.n:
            raise ConfigError("bath.couplings must have length bath.n")
        couplings = tuple(float(c) for c in b.couplings)
    else:
        couplings = couplings_from_masses(masses, cfg.system.mass_M, b.gamma0,
                                          b.coupling_prefactor)
    return BathSpec(omegas=omegas, masses=masses, couplings=couplings)


def build_system(cfg: RunConfig) -> SystemSpec:
    s = cfg.system
    omega_big = s.omega_big if cfg.regime in ("full", "scan") else \
        (0.0 if cfg.regime == "pqml" else s.omega_big)
    return SystemSpec(mass_M=s.mass_M, omega_big=omega_big, x1=s.x1, x2=s.x2)


def build_env(cfg: RunConfig, units: UnitContext) -> EnvInitState:
    e = cfg.env
    if e.temperature is not None:
        return EnvInitState(temperature=e.temperature, squeezing_r=e.squeezing_r)
    if e.beta is not None:
        # dimensionless-convention beta; mapped through k_B so that the
        # thermal argument reproduces beta/2 at unit frequency and hbar
        return EnvInitState.from_beta(e.beta, units.k_boltzmann,
                                      squeezing_r=e.squeezing_r)
    raise ConfigError("env requires temperature or beta")


def build_partition(cfg: RunConfig) -> Partition:
    p = cfg.partition
    return make_partition(cfg.bath.n, p.unobserved_size, p.mac_sizes)
