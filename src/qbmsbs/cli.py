"""Command-line front end.

Subcommands: qml | pqml | full emit a time series CSV (t, gamma, b) with a
JSON sidecar holding analytic quantities; for full these are the
infinite-time averages at the run's temperature and squeezing. scan emits a
long-format grid CSV (T, r, avg_gamma, avg_b) of infinite-time averages.
full and scan both record the torus quadrature and its convergence in the
sidecar. selftest runs the cross-module identity suite. --tau, --n-samples
and --threads are accepted and validated but have no effect.

Exit codes: 0 success, 2 config error, 3 numerical guard, 4 selftest failure.
Identical config and seed give byte-identical CSV output; timestamps live
only in the sidecar. Every CSV number and every number of a sidecar array
(the pqml i0_arguments_*) is "%.16e" text from the vectorised formatter in
_floatfmt, written a block at a time; the other sidecar fields go through
json.dumps.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import _floatfmt, analysis, fullmodel, pqml, qml
from .bath import EnvInitState
from .config import ConfigError, RunConfig, build_bath, build_env, build_partition, \
    build_system, build_units
from .fullmodel import ResonanceError


def write_series_csv(path: Path, times, gamma, b) -> None:
    """CSV of the arrays times, gamma and b, one "%.16e" row per time,
    written a block of rows at a time."""
    with open(path, "wb") as f:
        f.write(b"t,gamma,b\n")
        for rows in _floatfmt.csv_blocks(np.column_stack((times, gamma, b))):
            f.write(rows)


def write_sidecar(path: Path, payload: dict) -> None:
    """payload plus generated_at as indented, key-sorted JSON. Top-level
    numpy arrays are data: they are written one number per line, with 17
    significant digits, instead of passing through json's Python encoder."""
    payload = dict(payload)
    payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    arrays = {k: payload.pop(k) for k, v in list(payload.items())
              if isinstance(v, np.ndarray)}
    text = json.dumps({**payload, **dict.fromkeys(arrays)}, indent=2, sort_keys=True)
    with open(path, "w") as f:
        for key in sorted(arrays):
            # a top-level key is the only line that starts with two spaces
            # and a quote, and the keys come in sorted order
            slot = f"\n  {json.dumps(key)}: "
            head, _, text = text.partition(slot + "null")
            f.write(head + slot)
            f.writelines(_floatfmt.json_array(arrays[key]))
        f.write(text + "\n")


def _sidecar_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".json") if out.suffix != ".json" \
        else out.with_suffix(".sidecar.json")


def _load_config(args) -> RunConfig:
    if args.config is not None:
        cfg = RunConfig.from_json(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    cfg.regime = args.command
    for attr, target in (("seed", ("bath", "seed")),
                         ("epsilon", ("run", "epsilon")),
                         ("threads", ("run", "threads")),
                         ("tau", ("run", "tau")),
                         ("n_samples", ("run", "n_samples")),
                         ("t_max", ("run", "t_max")),
                         ("t_steps", ("run", "t_steps"))):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(getattr(cfg, target[0]), target[1], value)
    if getattr(args, "out", None) is not None:
        cfg.output.path = args.out
    cfg.validate()
    return cfg


def _qml_beta(cfg: RunConfig, units) -> float:
    if cfg.env.beta is not None:
        return cfg.env.beta
    # explicit physical-units opt-in: beta_eff at unit frequency
    return units.hbar / (units.k_boltzmann * cfg.env.temperature)


def run_qml(cfg: RunConfig) -> int:
    units = build_units(cfg)
    bath = build_bath(cfg)
    partition = build_partition(cfg)
    system = build_system(cfg)
    params = qml.QmlParams(dx=system.dx, beta_eff=_qml_beta(cfg, units),
                           couplings=bath.couplings)
    times = np.linspace(0.0, cfg.run.t_max, cfg.run.t_steps)
    g, b = analysis.evaluate_factors("qml", times, partition=partition,
                                     qml_params=params)
    out = Path(cfg.output.path)
    write_series_csv(out, times, g, b)

    sidecar = {"config": cfg.to_dict(), "seed": cfg.bath.seed}
    set_names = {"gamma": "unobserved", "b": "macrofraction"}
    for name, idx, _ in partition.factor_sets():
        if len(idx):
            ts = qml.set_timescales(params, idx)
            sidecar[f"tau_d_{set_names[name]}"] = ts.tau_d
            sidecar[f"tau_b_{set_names[name]}"] = ts.tau_b
    formation = analysis.formation_time(
        "qml", partition=partition, epsilon=cfg.run.epsilon,
        t_max=cfg.run.t_max, t_steps=cfg.run.t_steps, qml_params=params)
    sidecar["formation_time"] = formation.time
    sidecar["formation_time_analytic"] = formation.analytic_time
    write_sidecar(_sidecar_path(out), sidecar)
    return 0


def _run_series(cfg: RunConfig, regime: str) -> int:
    units = build_units(cfg)
    bath = build_bath(cfg)
    partition = build_partition(cfg)
    system = build_system(cfg)
    env = build_env(cfg, units)
    times = np.linspace(0.0, cfg.run.t_max, cfg.run.t_steps)
    g, b = analysis.evaluate_factors(regime, times, partition=partition, bath=bath,
                                     system=system, env_state=env, units=units)
    out = Path(cfg.output.path)
    write_series_csv(out, times, g, b)

    sidecar = {"config": cfg.to_dict(), "seed": cfg.bath.seed}
    if regime == "full":
        # infinite-time averages, reported like the scan's
        sidecar.update(average="infinite-time torus quadrature",
                       quadrature_tolerance=fullmodel.TORUS_TOLERANCE,
                       quadrature_nodes={}, quadrature_capped={}, convergence={})
    for name, idx, which in partition.factor_sets():
        if not len(idx):
            continue
        if regime == "pqml":
            avg = pqml.avg_analytic(bath, system, env, idx, which, units)
            log_avg = avg.log_avg_gamma if which == "decoherence" else avg.log_avg_b
            sidecar[f"log_avg_{name}"] = log_avg
            sidecar[f"i0_arguments_{name}"] = avg.i0_arguments
            continue
        weights = pqml.thermal_weight(bath.arrays(idx)[0], env.temperature, units, which)
        avg = fullmodel.torus_average(bath, system, idx, weights[None, :],
                                      env.squeezing_r, units)
        sidecar[f"avg_{name}"] = math.exp(avg.log_value[0])
        sidecar["quadrature_nodes"][name] = list(avg.nodes)
        sidecar["quadrature_capped"][name] = avg.capped
        sidecar["convergence"][name] = avg.convergence[0]
        if avg.convergence[0] > fullmodel.TORUS_TOLERANCE:
            warnings.warn(f"{name} average not converged with {avg.nodes} nodes",
                          stacklevel=2)
    write_sidecar(_sidecar_path(out), sidecar)
    return 0


def run_scan(cfg: RunConfig) -> int:
    units = build_units(cfg)
    bath = build_bath(cfg)
    partition = build_partition(cfg)
    system = build_system(cfg)
    grid = analysis.scan_tr(
        bath, system, partition, cfg.run.t_range, cfg.run.r_range, units=units,
        bath_fingerprint={"seed": cfg.bath.seed, "omega_bar": cfg.bath.omega_bar,
                          "delta": cfg.bath.delta, "n": cfg.bath.n})
    out = Path(cfg.output.path)
    if cfg.output.format == "json":
        out.write_text(json.dumps(grid.to_json_dict(), indent=2, sort_keys=True) + "\n")
    else:
        out.write_text(grid.to_csv_text())
    write_sidecar(_sidecar_path(out), {"config": cfg.to_dict(), "seed": cfg.bath.seed,
                                       "bath_fingerprint": grid.bath_fingerprint,
                                       **grid.quadrature})
    return 0


def run_selftest() -> int:
    """Cross-module identity checks, executable without a test harness."""
    from .bath import SystemSpec, sample_bath
    from .units import SI_UNITS

    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(20240811)
    bath = sample_bath(n=6, omega_bar=4.5e9, delta=3e9, seed=11, mass_M=1e-5,
                       gamma0=0.33e18, prefactor=2)
    system = SystemSpec(mass_M=1e-5, omega_big=3e8, x1=0.0, x2=1e-9)
    system0 = SystemSpec(mass_M=1e-5, omega_big=0.0, x1=0.0, x2=1e-9)
    env = EnvInitState(temperature=0.05)

    # trivial limits
    ok = True
    for _ in range(20):
        t = float(rng.uniform(0, 1e-8))
        ok &= abs(fullmodel.gamma_full(0.0, bath, system, env) - 1.0) < 1e-12
        ok &= abs(fullmodel.b_full(t, bath,
                                   SystemSpec(1e-5, 3e8, 1e-9, 1e-9), env) - 1.0) < 1e-12
    checks.append(("trivial limits gamma(0)=1, dx=0 => b=1", ok))

    # Omega -> 0 reduction to the partial measurement limit
    tt = rng.uniform(0, 1e-8, size=200)
    ok = True
    for wk, mk, ck in zip(bath.omegas, bath.masses, bath.couplings):
        a_full = fullmodel.alpha_sq_full(tt, wk, 0.0, mk, ck)
        a_pqml = np.array([abs(pqml.pqml_propagator(t, wk, mk, ck).alpha) ** 2
                           for t in tt])
        ok &= bool(np.allclose(a_full, a_pqml, rtol=1e-10, atol=1e-30))
    checks.append(("Omega->0 amplitude matches partial measurement limit", ok))

    # r = 0 squeezed reduction
    ok = True
    for t in rng.uniform(0, 1e-8, size=50):
        for wk, mk, ck in zip(bath.omegas, bath.masses, bath.couplings):
            a = fullmodel.alpha_sq_full(float(t), wk, 3e8, mk, ck)
            s = fullmodel.alpha_sq_squeezed(float(t), wk, 3e8, mk, ck, 0.0)
            ok &= a == s
    checks.append(("r=0 squeezed amplitude equals thermal amplitude", ok))

    # ergodic average, single oscillator
    small = sample_bath(n=1, omega_bar=4.5e9, delta=0.0, seed=3, mass_M=1e-5,
                        gamma0=0.33e18, prefactor=2)
    tau = fullmodel.default_averaging_time(small, periods=2000)
    n = fullmodel.default_sample_count(small, system0, tau)
    num = fullmodel.time_average_numeric("gamma", small, system0, env, None, tau, n)
    ana = pqml.avg_analytic(small, system0, env, which="decoherence")
    rel = abs(num.value - math.exp(ana.log_avg_gamma)) / math.exp(ana.log_avg_gamma)
    checks.append(("ergodic time average matches analytic I0 form", rel < 0.01))

    # Omega = 0, r = 0: the phase-torus average is the analytic I0 form
    ok = True
    for which in ("decoherence", "distinguishability"):
        weights = pqml.thermal_weight(bath.omegas, env.temperature, SI_UNITS, which)
        torus = fullmodel.torus_average(bath, system0, range(bath.n), weights[None, :], 0.0)
        ana = pqml.avg_analytic(bath, system0, env, which=which)
        log_ref = ana.log_avg_gamma if which == "decoherence" else ana.log_avg_b
        ok &= abs(math.exp(torus.log_value[0] - log_ref) - 1.0) <= 1e-10
    checks.append(("Omega=0 torus average matches analytic I0 form", ok))

    # Omega > 0, r > 0: the phase-torus average is the long-time average
    pair = sample_bath(n=2, omega_bar=4.5e9, delta=3e9, seed=11, mass_M=1e-5,
                       gamma0=0.33e18, prefactor=2)
    squeezed = EnvInitState(temperature=0.05, squeezing_r=1.0)
    tau = fullmodel.default_averaging_time(pair, periods=2000)
    n = fullmodel.default_sample_count(pair, system, tau)
    num = fullmodel.time_average_numeric("gamma", pair, system, squeezed, None, tau, n)
    weights = pqml.thermal_weight(pair.omegas, squeezed.temperature, SI_UNITS,
                                  "decoherence")
    torus = fullmodel.torus_average(pair, system, range(pair.n), weights[None, :], 1.0)
    rel = abs(num.value / math.exp(torus.log_value[0]) - 1.0)
    checks.append(("squeezed torus average matches long-time average", rel < 0.01))

    # th*cth identity
    ok = True
    for t in rng.uniform(1e-10, 1e-8, size=10):
        # th(x) cth(x) = 1, so the product of single-oscillator log factors
        # is the squared temperature-free exponent
        for k in range(bath.n):
            lgk = fullmodel.gamma_full(float(t), bath, system, env, [k], log=True)
            lbk = fullmodel.b_full(float(t), bath, system, env, [k], log=True)
            amp = fullmodel.alpha_sq_full(float(t), bath.omegas[k], system.omega_big,
                                          bath.masses[k], bath.couplings[k])
            target = (0.5 * system.dx ** 2 * amp) ** 2
            ok &= abs(lgk * lbk - target) <= 1e-10 * max(target, 1e-300)
    checks.append(("th*cth identity per oscillator", ok))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 4 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbmsbs",
                                     description="Decoherence/distinguishability "
                                                 "factors and SBS-formation scans")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("qml", "pqml", "full", "scan"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--tau", type=float, default=None,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--n-samples", dest="n_samples", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--t-steps", dest="t_steps", type=int, default=None)
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest()
    try:
        cfg = _load_config(args)
        if args.command == "qml":
            return run_qml(cfg)
        if args.command in ("pqml", "full"):
            return _run_series(cfg, args.command)
        return run_scan(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResonanceError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
