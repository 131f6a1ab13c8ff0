"""Workload inputs generated from the benchmark seed.

Pure functions of (seed, smoke): the same seed always gives the same config
documents and call parameters. Nothing here imports qbmsbs, so the
references can be regenerated from the same inputs without the library.

Every config is the README default document plus the few fields a
workload changes. Only macro_avg draws its bath from the workload seed.
scan_grid and series_full keep the README bath (seed 0): the draw changes
none of their work, but it moves the finite-horizon error of the averages
they publish by 30x between draws (3.4e-4 to 1.1e-2 over bath seeds 1-10),
so max_rel_err could hold no bound across seeds.
"""

from __future__ import annotations

import copy

HBAR = 1.054571817e-34
KB = 1.380649e-23

_README = {
    "bath": {"n": 20, "omega_bar": 4.5e9, "delta": 3e9, "seed": 0,
             "gamma0": 0.33e18, "coupling_prefactor": 2},
    "system": {"mass_M": 1e-5, "omega_big": 3e8, "x1": 0.0, "x2": 1e-9},
    "partition": {"unobserved_size": 10, "mac_sizes": [10]},
    "run": {"threads": 1, "epsilon": 0.01},
    "units": {"hbar": HBAR, "k_boltzmann": KB},
    "output": {"format": "csv"},
}


def _config(regime: str, bath_seed: int = 0, **sections) -> dict:
    doc = copy.deepcopy(_README)
    doc["regime"] = regime
    doc["bath"]["seed"] = bath_seed
    for name, fields in sections.items():
        doc.setdefault(name, {}).update(fields)
    return doc


def scan_grid(seed: int, smoke: bool = False) -> dict:
    """`qbmsbs scan` on the README default config: 20 oscillators, 20 x 4
    (T, r) grid, default tau and n_samples."""
    if smoke:
        cfg = _config("scan", bath={"n": 4},
                      partition={"unobserved_size": 2, "mac_sizes": [2]},
                      run={"t_range": {"min": 1e-3, "max": 1.0, "points": 3, "log": True},
                           "r_range": {"values": [0.0, 1.0]},
                           "tau": 2e-7, "n_samples": 4000})
    else:
        cfg = _config("scan",
                      run={"t_range": {"min": 1e-4, "max": 1.0, "points": 20, "log": True},
                           "r_range": {"values": [0.0, 0.1, 1.0, 3.0]}})
    return {"configs": {"scan": cfg}, "params": {}}


def series_full(seed: int, smoke: bool = False) -> dict:
    """Dense series in three regimes plus the README formation-time call."""
    steps, tau = (200, 2e-7) if smoke else (20000, 1e-5)
    configs = {
        "full": _config("full", env={"temperature": 0.1, "squeezing_r": 1.0},
                        run={"t_max": 1e-8, "t_steps": steps}),
        "pqml": _config("pqml", env={"temperature": 0.1},
                        run={"t_max": 1e-8, "t_steps": steps}),
        # qml is written in the dimensionless convention; this t_max spans
        # the Gaussian decay of both factors for the default couplings
        "qml": _config("qml", env={"beta": 1.0},
                       run={"t_max": 1e3, "t_steps": steps}),
    }
    # the README library example, verbatim
    formation = {"n": 20, "omega_bar": 4.5e9, "delta": 3e9, "seed": 0,
                 "mass_M": 1e-5, "gamma0": 0.33e18, "prefactor": 2,
                 "omega_big": 3e8, "x2": 1e-9, "temperature": 0.1,
                 "unobserved_size": 10, "mac_size": 10, "epsilon": 0.01,
                 "t_max": 1e-9, "t_steps": 200 if smoke else 2000}
    params = {"full_tau": tau, "formation": formation}
    return {"configs": configs, "params": params}


def macro_avg(seed: int, smoke: bool = False) -> dict:
    """`qbmsbs pqml` on a large bath split in two halves, then the
    macrofraction scaling over growing prefixes of the same bath."""
    half = 1000 if smoke else 50000
    cfg = _config("pqml", seed, bath={"n": 2 * half}, env={"temperature": 1.0},
                  partition={"unobserved_size": half, "mac_sizes": [half]},
                  run={"t_max": 1e-9, "t_steps": 64})
    sizes = [20, 200, 2000] if smoke else [1000, 10000, 100000]
    return {"configs": {"macro": cfg}, "params": {"sizes": sizes}}


_GENERATORS = {"scan_grid": scan_grid, "series_full": series_full,
               "macro_avg": macro_avg}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return _GENERATORS[workload](seed, smoke)
