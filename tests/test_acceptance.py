"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math

import numpy as np

from qbmsbs.analysis import scan_tr
from qbmsbs.bath import (BathSpec, EnvInitState, SystemSpec, make_partition,
                         sample_bath)
from qbmsbs.cli import main
from qbmsbs.fullmodel import (alpha_sq_full, alpha_sq_squeezed, b_full,
                              default_sample_count, gamma_full,
                              re_alpha_sq_full, time_average_numeric)
from qbmsbs.pqml import (avg_analytic, avg_asymptotic, b_pqml,
                         check_large_separation, freq_averaged_scaling,
                         gamma_pqml, pqml_propagator)
from qbmsbs.qml import QmlParams, b_qml, gamma_qml, lln_factors, timescales
from qbmsbs.units import DIMENSIONLESS_UNITS

UNITLESS = DIMENSIONLESS_UNITS


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _random_bath(rng, n):
    return BathSpec(omegas=tuple(rng.uniform(1.0, 3.0, n)),
                    masses=tuple(rng.uniform(0.5, 2.0, n)),
                    couplings=tuple(rng.uniform(0.2, 1.5, n)))


def test_a1_trivial_limits():
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(100):
        regime = ("qml", "pqml", "full")[case % 3]
        t = float(rng.uniform(0.1, 5.0))
        if regime == "qml":
            params = QmlParams(dx=float(rng.uniform(0.5, 2.0)),
                               beta_eff=float(rng.uniform(0.1, 5.0)),
                               couplings=tuple(rng.uniform(0.2, 1.5, 3)))
            flat = QmlParams(dx=0.0, beta_eff=params.beta_eff,
                             couplings=params.couplings)
            vals = [gamma_qml(0.0, params), b_qml(0.0, params),
                    gamma_qml(t, flat), b_qml(t, flat)]
        else:
            n = int(rng.integers(1, 4))
            bath = _random_bath(rng, n)
            omega_big = 0.0 if regime == "pqml" else float(rng.uniform(0.1, 0.4))
            x = float(rng.uniform(-2.0, 2.0))
            sep = SystemSpec(1.0, omega_big, 0.0, float(rng.uniform(0.5, 2.0)))
            flat = SystemSpec(1.0, omega_big, x, x)
            env = EnvInitState(temperature=float(rng.uniform(0.05, 2.0)),
                               squeezing_r=0.0 if regime == "pqml"
                               else float(rng.uniform(0.0, 1.0)))
            g = gamma_pqml if regime == "pqml" else gamma_full
            b = b_pqml if regime == "pqml" else b_full
            vals = [g(0.0, bath, sep, env, units=UNITLESS),
                    b(0.0, bath, sep, env, units=UNITLESS),
                    g(t, bath, flat, env, units=UNITLESS),
                    b(t, bath, flat, env, units=UNITLESS)]
        worst = max(worst, max(abs(v - 1.0) for v in vals))
    _report("A1", worst <= 1e-12,
            f"Gamma(0)=B(0)=1 and X=X' => 1 over 100 cases, worst dev {worst:.2e}")


def test_a2_measured_limit_consistency():
    rng = np.random.default_rng(202)
    tt = rng.uniform(0.0, 20.0, 1000)
    worst = 0.0
    for _ in range(20):
        w = float(rng.uniform(0.5, 4.0))
        m = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.2, 1.5))
        full = alpha_sq_full(tt, w, 0.0, m, c, UNITLESS)
        ref = np.array([abs(pqml_propagator(float(t), w, m, c, UNITLESS).alpha) ** 2
                        for t in tt])
        scale = np.maximum(ref, ref.max() * 1e-12)
        worst = max(worst, float(np.max(np.abs(full - ref) / scale)))
    _report("A2", worst <= 1e-10,
            f"Omega=0 amplitude vs measured-limit amplitude, worst rel {worst:.2e}")


def test_a3_ergodic_average():
    bath = sample_bath(3, 4.5e9, 3e9, seed=7, mass_M=1e-5, gamma0=0.33e18,
                       prefactor=2)
    system = SystemSpec(1e-5, 0.0, 0.0, 1e-9)
    tau = 1e4 * 2 * math.pi / min(bath.omegas)
    n = default_sample_count(bath, system, tau)
    worst = 0.0
    for temp in (0.01, 0.1):
        env = EnvInitState(temperature=temp)
        ana = avg_analytic(bath, system, env)
        for factor, log_ref in (("gamma", ana.log_avg_gamma), ("b", ana.log_avg_b)):
            num = time_average_numeric(factor, bath, system, env, None, tau, n)
            ref = math.exp(log_ref)
            worst = max(worst, abs(num.value - ref) / ref)
    _report("A3", worst <= 5e-3,
            f"time average vs analytic e^-a I0(a), worst rel {worst:.2e}")


def test_a4_th_cth_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        bath = _random_bath(rng, 1)
        omega_big = float(rng.choice([0.0, rng.uniform(0.1, 0.4)]))
        system = SystemSpec(1.0, omega_big, 0.0, float(rng.uniform(0.5, 2.0)))
        env = EnvInitState(temperature=float(rng.uniform(0.05, 2.0)),
                           squeezing_r=float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(0.05, 5.0))
        lg = gamma_full(t, bath, system, env, log=True, units=UNITLESS)
        lb = b_full(t, bath, system, env, log=True, units=UNITLESS)
        amp = alpha_sq_squeezed(t, bath.omegas[0], omega_big, bath.masses[0],
                                bath.couplings[0], env.squeezing_r, UNITLESS)
        target = (0.5 * system.dx ** 2 * amp) ** 2
        worst = max(worst, abs(lg * lb - target) / max(target, 1e-300))
    _report("A4", worst <= 1e-10,
            f"(-ln Gamma)(-ln B) = [(dx^2/2) amplitude]^2, worst rel {worst:.2e}")


def test_a5_qml_timescales():
    dx, beta, c = 1.3, 0.8, 0.9
    size = 7
    params = QmlParams(dx=dx, beta_eff=beta, couplings=(c,) * size)
    ts = timescales(dx, beta, c * c)
    tt = np.linspace(0.1, 2.0, 40)
    logs = np.array([gamma_qml(float(t), params, log=True) for t in tt])
    slope = float(np.polyfit(tt ** 2, logs, 1)[0])
    expected = -size / ts.tau_d ** 2
    slope_ok = abs(slope - expected) / abs(expected) <= 1e-9
    order_ok = all(timescales(dx, float(b_), c * c).tau_b
                   >= timescales(dx, float(b_), c * c).tau_d
                   for b_ in np.logspace(-2, 2, 40))
    cold = timescales(dx, 50.0, c * c)
    limit_ok = abs(cold.tau_b / cold.tau_d - 1.0) <= 1e-6
    _report("A5", slope_ok and order_ok and limit_ok,
            f"ln Gamma slope {slope:.6e} vs -size/tau_d^2 {expected:.6e}; "
            f"tau_b >= tau_d on beta grid; ratio-1 at beta=50 "
            f"{cold.tau_b / cold.tau_d - 1.0:.2e}")


def test_a6_lln_scaling():
    size = 10_000
    c2_mean = 13.0 / 12.0
    t, dx, beta = 0.4, 1.0, 2.0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cs = rng.uniform(0.5, 1.5, size)
        params = QmlParams(dx=dx, beta_eff=beta, couplings=tuple(cs))
        exact = gamma_qml(t, params, log=True)
        approx = lln_factors(t, dx, beta, c2_mean, size=size, log=True)
        worst = max(worst, abs(exact - approx) / abs(approx))
    bound = 5.0 / math.sqrt(size)
    _report("A6", worst <= bound,
            f"exact vs LLN log factors over 20 seeds, worst rel {worst:.2e} "
            f"<= {bound:.2e}")


def test_a7_squeezing_algebra():
    w, o, m, c = 2.0, 0.7, 1.3, 0.9
    rng = np.random.default_rng(707)
    reduction = max(
        abs(alpha_sq_squeezed(t, w, o, m, c, 0.0, UNITLESS)
            - alpha_sq_full(t, w, o, m, c, UNITLESS))
        / max(alpha_sq_full(t, w, o, m, c, UNITLESS), 1e-300)
        for t in rng.uniform(0.1, 10.0, 100))
    v4 = alpha_sq_squeezed(1.1, w, o, m, c, 4.0, UNITLESS)
    v5 = alpha_sq_squeezed(1.1, w, o, m, c, 5.0, UNITLESS)
    growth_err = abs(v5 / v4 - math.e ** 2) / math.e ** 2
    min_val = min(alpha_sq_squeezed(float(t), w, o, m, c, float(r), UNITLESS)
                  for t, r in zip(rng.uniform(0.0, 50.0, 10_000),
                                  rng.uniform(-3.0, 3.0, 10_000)))
    at_zero = re_alpha_sq_full(0.0, w, o, m, c, UNITLESS)
    ok = (reduction <= 1e-12 and growth_err <= 0.05 and min_val >= -1e-18
          and at_zero == 0.0)
    _report("A7", ok,
            f"r=0 reduction {reduction:.1e}, e^2 growth err {growth_err:.3f}, "
            f"min squeezed amplitude {min_val:.2e}, Re alpha^2(0) = {at_zero}")


def test_a8_scan_qualitative():
    bath = sample_bath(20, 4.5e9, 3e9, seed=2, mass_M=1e-5, gamma0=0.33e18,
                       prefactor=2)
    system = SystemSpec(1e-5, 3e8, 0.0, 1e-9)
    part = make_partition(20, 10, [10])
    grid = scan_tr(bath, system, part,
                   {"min": 1e-4, "max": 1.0, "points": 5, "log": True},
                   {"values": [0.0, 0.01, 0.1, 0.3, 1.0, 3.0]})
    g = np.array(grid.avg_gamma)
    b = np.array(grid.avg_b)
    ordered = bool(np.all(g <= b))
    low_t = bool(np.min(g[0]) < 0.1 and np.min(b[0]) < 0.1)
    squeeze_wins = bool(b[-1, -1] < b[-1, 0])
    _report("A8", ordered and low_t and squeeze_wins,
            f"gamma<=b everywhere: {ordered}; lowest T minima "
            f"({np.min(g[0]):.3f}, {np.min(b[0]):.3f}) < 0.1: {low_t}; "
            f"b(high T, r=3) {b[-1, -1]:.3f} < b(high T, r=0) {b[-1, 0]:.3f}: "
            f"{squeeze_wins}")


def test_a9_large_separation_asymptotics():
    bath = sample_bath(5, 1.5, 0.8, seed=4, mass_M=1.0, gamma0=1.0, prefactor=1)
    system = SystemSpec(1.0, 0.0, 0.0, 30.0)
    env = EnvInitState(temperature=0.01)
    ratio = min(check_large_separation(system, w, 1.0, UNITLESS)
                for w in bath.omegas)
    asym = avg_asymptotic(bath, system, env, units=UNITLESS)
    ana = avg_analytic(bath, system, env, which="decoherence",
                       units=UNITLESS).log_avg_gamma
    w = np.asarray(bath.omegas)
    a = 0.5 * system.dx ** 2 * np.asarray(bath.couplings) ** 2 / w ** 3
    budget = bath.n / (8.0 * float(a.min()))
    budget_ok = abs(asym - ana) <= budget
    s3 = freq_averaged_scaling(system, env, 1.5, 0.1, mN=3, gamma0=1.0,
                               mc_samples=10, seed=1, units=UNITLESS)
    s6 = freq_averaged_scaling(system, env, 1.5, 0.1, mN=6, gamma0=1.0,
                               mc_samples=10, seed=1, units=UNITLESS)
    linear_err = abs(s6.log_predicted - 2 * s3.log_predicted) \
        / abs(s6.log_predicted)
    _report("A9", ratio >= 10 and budget_ok and linear_err <= 1e-10,
            f"min (L)-ratio {ratio:.2f} >= 10; |asym-analytic| "
            f"{abs(asym - ana):.3f} <= budget {budget:.3f}; mN linearity rel "
            f"err {linear_err:.1e}")


def test_a10_unit_convention_sanity():
    bath = sample_bath(1, 4.5e9, 0.0, seed=0, mass_M=1e-5, gamma0=0.33e18,
                       prefactor=2)
    system = SystemSpec(1e-5, 0.0, 0.0, 1e-9)
    in_band = True
    for temp in (0.01, 1.0):
        res = avg_analytic(bath, system, EnvInitState(temperature=temp))
        a = res.i0_arguments[0]
        in_band &= 0.01 <= a <= 100.0
    # beta -> infinity: coth -> 1, leaving the pinned geometric factor
    cold = avg_analytic(bath, system, EnvInitState(temperature=1e-6))
    geo = cold.i0_arguments[0]
    pinned = abs(geo - 0.21862) / 0.21862 <= 1e-3
    _report("A10", in_band and pinned,
            f"I0 argument in [0.01, 100] at T=0.01 K and 1 K: {in_band}; "
            f"zero-temperature value {geo:.5f} vs pinned 0.21862")


def test_a11_scan_determinism(tmp_path):
    doc = {
        "bath": {"n": 3, "omega_bar": 2.0, "delta": 0.6, "seed": 1,
                 "gamma0": 1.0, "coupling_prefactor": 1},
        "system": {"mass_M": 1.0, "omega_big": 0.4, "x1": 0.0, "x2": 2.0},
        "env": {"temperature": 0.1},
        "partition": {"unobserved_size": 2, "mac_sizes": [1]},
        "run": {"t_range": {"values": [0.1, 1.0]},
                "r_range": {"values": [0.0, 0.5]},
                "tau": 300.0, "n_samples": 4000},
        "units": {"hbar": 1.0, "k_boltzmann": 1.0},
    }
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(doc))
    outs = [tmp_path / f"scan{i}.csv" for i in range(3)]
    for out, threads in zip(outs, ("1", "1", "4")):
        code = main(["scan", "--config", str(cfg), "--out", str(out),
                     "--threads", threads])
        assert code == 0
    blobs = [out.read_bytes() for out in outs]
    identical = blobs[0] == blobs[1] == blobs[2]
    _report("A11", identical,
            "repeated scan runs (threads 1, 1, 4) byte-identical: "
            f"{identical}")
