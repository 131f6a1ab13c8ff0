import math

import numpy as np
import pytest

from qbmsbs.analysis import (evaluate_factors, formation_time,
                             macrofraction_scaling, resolve_axis, sbs_verdict,
                             scan_tr)
from qbmsbs.bath import BathSpec, EnvInitState, SystemSpec, make_partition
from qbmsbs.fullmodel import (ResonanceError, _log_sum_exp_rows,
                              default_sample_count, time_average_numeric,
                              torus_average)
from qbmsbs.pqml import avg_analytic
from qbmsbs.qml import QmlParams, b_qml, gamma_qml, timescales
from qbmsbs.units import DIMENSIONLESS_UNITS

UNITLESS = DIMENSIONLESS_UNITS


class TestVerdict:
    def test_formed(self):
        v = sbs_verdict(0.005, 0.008, epsilon=0.01)
        assert v.formed

    def test_decohered_but_indistinguishable(self):
        v = sbs_verdict(0.005, 0.5, epsilon=0.01)
        assert not v.formed

    def test_distinguishable_but_coherent(self):
        assert not sbs_verdict(0.5, 0.005, epsilon=0.01).formed

    def test_boundary_counts_as_formed(self):
        assert sbs_verdict(0.01, 0.01, epsilon=0.01).formed

    def test_epsilon_range(self):
        for eps in (0.0, -0.5, 2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                sbs_verdict(0.5, 0.5, eps)
        # epsilon = 1 is the trivial threshold: every state counts as formed
        assert sbs_verdict(0.5, 0.5, 1.0).formed


class TestEvaluateFactors:
    def test_qml_matches_scalar_functions(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(0.7, 1.1, 0.4, 0.9))
        part = make_partition(4, 2, [2])
        tt = np.linspace(0.0, 2.0, 9)
        g, b = evaluate_factors("qml", tt, partition=part, qml_params=params)
        for t, gv, bv in zip(tt, g, b):
            assert gv == pytest.approx(
                gamma_qml(float(t), params, idx=part.unobserved), rel=1e-12)
            assert bv == pytest.approx(
                b_qml(float(t), params, idx=part.macrofractions[0]), rel=1e-12)

    def test_no_macrofraction_gives_unit_b(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0, 1.0))
        part = make_partition(2, 2, [])
        _, b = evaluate_factors("qml", [0.0, 0.5, 1.0], partition=part,
                                qml_params=params)
        assert np.all(b == 1.0)

    def test_unknown_regime(self):
        part = make_partition(2, 1, [1])
        with pytest.raises(ValueError):
            evaluate_factors("markov", [0.0], partition=part)


class TestFormationTime:
    def test_qml_grid_matches_analytic(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0,) * 4)
        part = make_partition(4, 2, [2])
        ts = timescales(1.0, 2.0, 1.0)
        predicted = ts.tau_b * math.sqrt(math.log(1.0 / 0.01) / 2.0)
        res = formation_time("qml", partition=part, epsilon=0.01,
                             t_max=4 * predicted, t_steps=4001, qml_params=params)
        assert res.reached
        assert res.analytic_time == pytest.approx(predicted, rel=1e-12)
        step = 4 * predicted / 4000
        assert abs(res.time - predicted) <= step
        # monotone decay: nothing comes back above the threshold
        assert res.max_after_crossing <= 0.01

    def test_trivial_threshold_met_at_origin(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0, 1.0))
        part = make_partition(2, 1, [1])
        res = formation_time("qml", partition=part, epsilon=1.0, t_max=1.0,
                             t_steps=11, qml_params=params)
        assert res.reached and res.time == 0.0

    def test_bounded_exponent_never_reaches(self):
        bath = BathSpec(omegas=(2.0, 3.0), masses=(1.0, 1.0),
                        couplings=(0.01, 0.01))
        system = SystemSpec(1.0, 0.0, 0.0, 1.0)
        env = EnvInitState(temperature=0.5)
        part = make_partition(2, 1, [1])
        res = formation_time("pqml", partition=part, epsilon=0.01, t_max=50.0,
                             t_steps=2001, bath=bath, system=system,
                             env_state=env, units=UNITLESS)
        assert not res.reached and res.time is None

    def test_revival_reported(self):
        # equal frequencies: both factors return to 1 after a full period
        bath = BathSpec(omegas=(2.0, 2.0), masses=(1.0, 1.0), couplings=(1.0, 1.0))
        system = SystemSpec(1.0, 0.0, 0.0, 2.5)
        env = EnvInitState(temperature=0.5)
        part = make_partition(2, 1, [1])
        res = formation_time("pqml", partition=part, epsilon=0.5,
                             t_max=2 * math.pi / 2.0, t_steps=801, bath=bath,
                             system=system, env_state=env, units=UNITLESS)
        assert res.reached
        assert res.max_after_crossing > 0.9

    @pytest.mark.parametrize("regime", ["qml", "pqml", "full"])
    def test_partition_must_fit_the_bath(self, regime):
        bath = BathSpec(omegas=(2.0, 3.0), masses=(1.0, 1.0), couplings=(1.0, 1.0))
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=bath.couplings)
        with pytest.raises(ValueError, match="bath of size 2"):
            formation_time(regime, partition=make_partition(3, 1, [2]), epsilon=0.01,
                           t_max=1.0, t_steps=10, bath=bath,
                           system=SystemSpec(1.0, 0.5, 0.0, 1.0),
                           env_state=EnvInitState(temperature=0.5),
                           qml_params=params, units=UNITLESS)

    def test_bad_arguments(self):
        part = make_partition(2, 1, [1])
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0, 1.0))
        with pytest.raises(ValueError):
            formation_time("qml", partition=part, epsilon=0.01, t_max=0.0,
                           t_steps=10, qml_params=params)
        for eps in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                formation_time("qml", partition=part, epsilon=eps, t_max=1.0,
                               t_steps=10, qml_params=params)


class TestResolveAxis:
    def test_explicit_values(self):
        assert list(resolve_axis({"values": [0.1, 0.5]})) == [0.1, 0.5]

    def test_linear(self):
        got = resolve_axis({"min": 0.0, "max": 1.0, "points": 5})
        assert np.allclose(got, np.linspace(0.0, 1.0, 5))

    def test_log(self):
        got = resolve_axis({"min": 1e-3, "max": 1.0, "points": 4, "log": True})
        assert np.allclose(got, np.logspace(-3, 0, 4))

    def test_errors(self):
        with pytest.raises(ValueError):
            resolve_axis({"values": []})
        with pytest.raises(ValueError):
            resolve_axis({"min": 1.0, "points": 3})
        with pytest.raises(ValueError):
            resolve_axis({"min": 0.0, "max": 1.0, "points": 3, "log": True})
        with pytest.raises(ValueError):
            resolve_axis({"min": 2.0, "max": 1.0, "points": 3})
        for spec in ({"values": [1.0, math.nan]}, {"values": [True]},
                     {"values": ["1.0"]}, {"values": 1.0},
                     {"min": 0.0, "max": math.inf, "points": 3},
                     {"min": "a", "max": 1.0, "points": 3},
                     {"min": 0.0, "max": 1.0, "points": None},
                     {"min": 0.0, "max": 1.0, "points": 2.7},
                     {"min": 0.0, "max": 1.0, "points": "3"},
                     {"min": 0.0, "max": 1.0, "points": True}):
            with pytest.raises(ValueError):
                resolve_axis(spec)


@pytest.fixture
def scan_setup():
    bath = BathSpec(omegas=(1.7, 2.3, 2.9, 3.4), masses=(1.0,) * 4,
                    couplings=(0.8, 0.6, 0.7, 0.5))
    system = SystemSpec(mass_M=1.0, omega_big=0.5, x1=0.0, x2=2.0)
    part = make_partition(4, 2, [2])
    t_range = {"values": [0.05, 0.2, 1.0, 5.0]}
    r_range = {"values": [0.0, 0.5, 1.5]}
    return bath, system, part, t_range, r_range


class TestScan:
    def test_values_in_unit_interval(self, scan_setup):
        bath, system, part, t_range, r_range = scan_setup
        grid = scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)
        for row in grid.avg_gamma + grid.avg_b:
            assert all(0.0 < v <= 1.0 for v in row)

    def test_b_nondecreasing_in_temperature(self, scan_setup):
        bath, system, part, t_range, _ = scan_setup
        grid = scan_tr(bath, system, part, t_range, {"values": [0.0]},
                       units=UNITLESS)
        col = [row[0] for row in grid.avg_b]
        assert all(b2 >= b1 for b1, b2 in zip(col, col[1:]))

    def test_monotone_in_temperature_at_rounding_level(self, scan_setup):
        # temperatures a few ulps apart move the weights by rounding only;
        # the shared quadrature keeps both orderings exact even there
        bath, system, part, _, r_range = scan_setup
        temps = [0.2 * (1.0 + k * 1e-15) for k in range(20)]
        grid = scan_tr(bath, system, part, {"values": temps}, r_range, units=UNITLESS)
        assert np.all(np.diff(np.array(grid.avg_gamma), axis=0) <= 0.0)
        assert np.all(np.diff(np.array(grid.avg_b), axis=0) >= 0.0)

    def test_larger_unobserved_set_decoheres_more(self, scan_setup):
        bath, system, _, t_range, _ = scan_setup
        small = scan_tr(bath, system, make_partition(4, 2, []), t_range,
                        {"values": [0.0]}, units=UNITLESS)
        big = scan_tr(bath, system, make_partition(4, 4, []), t_range,
                      {"values": [0.0]}, units=UNITLESS)
        for i in range(len(small.t_values)):
            assert big.avg_gamma[i][0] <= small.avg_gamma[i][0]

    def test_csv_shape(self, scan_setup):
        bath, system, part, t_range, r_range = scan_setup
        grid = scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)
        lines = grid.to_csv_text().strip().split("\n")
        assert lines[0] == "T,r,avg_gamma,avg_b"
        assert len(lines) == 1 + 4 * 3

    def test_nonpositive_temperature_rejected(self, scan_setup):
        bath, system, part, _, r_range = scan_setup
        with pytest.raises(ValueError):
            scan_tr(bath, system, part, {"values": [0.0, 1.0]}, r_range,
                    units=UNITLESS)

    @pytest.mark.parametrize("axis", ["t_range", "r_range"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_axis_rejected(self, scan_setup, axis, bad):
        bath, system, part, t_range, r_range = scan_setup
        ranges = {"t_range": t_range, "r_range": r_range}
        ranges[axis] = {"values": [bad, 1.0]}
        with pytest.raises(ValueError, match="finite"):
            scan_tr(bath, system, part, units=UNITLESS, **ranges)

    def test_resonant_frequency_rejected(self, scan_setup):
        _, system, part, t_range, r_range = scan_setup
        near = system.omega_big * (1.0 + 5e-7)
        bath = BathSpec(omegas=(1.7, 2.3, near, 3.4), masses=(1.0,) * 4,
                        couplings=(0.8, 0.6, 0.7, 0.5))
        with pytest.raises(ResonanceError):
            scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)

    def test_duplicate_frequencies_warn(self, scan_setup):
        _, system, part, t_range, _ = scan_setup
        bath = BathSpec(omegas=(1.7, 1.7, 2.9, 3.4), masses=(1.0,) * 4,
                        couplings=(0.8, 0.6, 0.7, 0.5))
        with pytest.warns(UserWarning, match="duplicate"):
            scan_tr(bath, system, part, t_range, {"values": [0.0]}, units=UNITLESS)

    def test_quadrature_report(self, scan_setup):
        bath, system, part, t_range, r_range = scan_setup
        grid = scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)
        q = grid.quadrature
        assert q["average"] == "infinite-time torus quadrature"
        for factor in ("gamma", "b"):
            assert len(q["quadrature_nodes"][factor]) == 3
            assert q["quadrature_capped"][factor] == [False] * 3
            conv = np.array(q["convergence"][factor])
            assert conv.shape == (4, 3)
            assert np.all(conv <= q["quadrature_tolerance"])
        assert grid.to_json_dict()["convergence"] == q["convergence"]

    def test_empty_set_is_exactly_one(self, scan_setup):
        bath, system, _, t_range, r_range = scan_setup
        grid = scan_tr(bath, system, make_partition(4, 2, []), t_range, r_range,
                       units=UNITLESS)
        assert all(v == 1.0 for row in grid.avg_b for v in row)
        assert grid.quadrature["quadrature_nodes"]["b"] == [[0, 0]] * 3


class TestTorusAverage:
    def test_pqml_limit_matches_analytic(self):
        # Omega = 0 and r = 0: each phase mean is exp(-a) I0(a) exactly
        bath = BathSpec(omegas=(1.7, 2.3, 2.9), masses=(1.0, 1.3, 0.8),
                        couplings=(0.8, 0.6, 0.7))
        system = SystemSpec(1.0, 0.0, 0.0, 2.0)
        temps = (0.05, 0.5, 5.0)
        grid = scan_tr(bath, system, make_partition(3, 3, []),
                       {"values": list(temps)}, {"values": [0.0]}, units=UNITLESS)
        for i, temp in enumerate(temps):
            ref = avg_analytic(bath, system, EnvInitState(temperature=temp),
                               which="decoherence", units=UNITLESS).avg_gamma
            assert grid.avg_gamma[i][0] == pytest.approx(ref, rel=1e-10)
        assert grid.quadrature["quadrature_nodes"]["gamma"][0][0] == 1

    def test_matches_long_time_average(self):
        # frequencies rationally independent of each other and of Omega,
        # as the phase-torus average assumes
        bath = BathSpec(omegas=(1.7 * math.sqrt(2.0), 2.3 * math.sqrt(3.0)),
                        masses=(1.0, 1.0), couplings=(0.8, 0.6))
        system = SystemSpec(1.0, 0.5, 0.0, 2.0)
        env = EnvInitState(temperature=5.0, squeezing_r=1.5)
        part = make_partition(2, 2, [])
        grid = scan_tr(bath, system, part, {"values": [env.temperature]},
                       {"values": [env.squeezing_r]}, units=UNITLESS)
        tau = 4000 * 2 * math.pi / 0.5
        num = time_average_numeric("gamma", bath, system, env, part.unobserved,
                                   tau, default_sample_count(bath, system, tau),
                                   UNITLESS)
        assert abs(grid.avg_gamma[0][0] - num.value) <= num.convergence

    def test_log_sum_exp_keeps_row_order(self):
        # the scan's exact monotonicity in T rests on this: lowering a row's
        # largest entry by one ulp never raises its log-sum-exp
        rng = np.random.default_rng(5)
        for _ in range(2000):
            upper = rng.normal(-1.0, 0.5, 9)
            lower = upper.copy()
            top = np.argmax(upper)
            lower[top] = np.nextafter(upper[top], -np.inf)
            hi, lo = _log_sum_exp_rows(np.stack([upper, lower]))
            assert lo <= hi
        far = _log_sum_exp_rows(np.array([[0.0, -1.0], [-1400.0, -1401.0]]))
        assert far[1] == pytest.approx(far[0] - 1400.0, rel=1e-14)

    def test_engine_guards_resonance(self):
        system = SystemSpec(1.0, 0.5, 0.0, 2.0)
        bath = BathSpec(omegas=(1.7, 0.5 * (1.0 - 5e-7)), masses=(1.0,) * 2,
                        couplings=(0.8, 0.6))
        with pytest.raises(ResonanceError):
            torus_average(bath, system, [0, 1], np.ones((1, 2)), 0.0, UNITLESS)
        torus_average(bath, system, [0], np.ones((1, 1)), 0.0, UNITLESS)

    def test_engine_warns_on_duplicate_frequencies(self):
        system = SystemSpec(1.0, 0.5, 0.0, 2.0)
        bath = BathSpec(omegas=(1.7, 1.7), masses=(1.0,) * 2, couplings=(0.8, 0.6))
        with pytest.warns(UserWarning, match="duplicate"):
            torus_average(bath, system, [0, 1], np.ones((1, 2)), 0.0, UNITLESS)

    def test_bit_identical_reruns(self, scan_setup):
        bath, system, part, t_range, r_range = scan_setup
        one = scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)
        two = scan_tr(bath, system, part, t_range, r_range, units=UNITLESS)
        assert one == two


class TestMacrofractionScaling:
    def test_qml_exactly_linear(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0,) * 8)
        res = macrofraction_scaling("qml", [0, 2, 4, 8], t=0.7,
                                    qml_params=params, c2_mean=1.0)
        ts = timescales(1.0, 2.0, 1.0)
        slope_exact = -(0.7 / ts.tau_b) ** 2
        assert res.slope == pytest.approx(slope_exact, rel=1e-12)
        for size, lg in res.points:
            assert lg == pytest.approx(size * slope_exact, rel=1e-12, abs=1e-15)

    def test_size_zero_is_log_one(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0, 1.0))
        res = macrofraction_scaling("qml", [0], t=0.7, qml_params=params)
        assert res.points == ((0, 0.0),)
        assert math.isnan(res.slope)

    def test_pqml_prefix_sums(self):
        bath = BathSpec(omegas=(1.7, 2.3, 2.9), masses=(1.0,) * 3,
                        couplings=(0.8, 0.6, 0.7))
        system = SystemSpec(1.0, 0.0, 0.0, 2.0)
        env = EnvInitState(temperature=0.5)
        res = macrofraction_scaling("pqml", [0, 1, 2, 3], bath=bath,
                                    system=system, env_state=env, units=UNITLESS)
        logs = dict(res.points)
        for k in range(3):
            per = avg_analytic(bath, system, env, idx=[k],
                               which="distinguishability",
                               units=UNITLESS).log_avg_b
            assert logs[k + 1] - logs[k] == pytest.approx(per, rel=1e-10)

    @pytest.mark.parametrize("sizes", [[-5, 10], [-1], [-3, -2]])
    def test_negative_size_rejected(self, sizes):
        bath = BathSpec(omegas=(1.7, 2.3, 2.9) * 4, masses=(1.0,) * 12,
                        couplings=(0.8, 0.6, 0.7) * 4)
        with pytest.raises(ValueError, match="non-negative"):
            macrofraction_scaling("pqml", sizes, bath=bath,
                                  system=SystemSpec(1.0, 0.0, 0.0, 2.0),
                                  env_state=EnvInitState(temperature=0.5),
                                  units=UNITLESS)
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0,))
        with pytest.raises(ValueError, match="non-negative"):
            macrofraction_scaling("qml", sizes, t=0.5, qml_params=params)

    def test_errors(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0,))
        with pytest.raises(ValueError):
            macrofraction_scaling("qml", [2, 1], t=0.5, qml_params=params)
        with pytest.raises(ValueError):
            macrofraction_scaling("qml", [1], qml_params=params)  # t missing
        with pytest.raises(ValueError):
            macrofraction_scaling("pqml", [1])
        with pytest.raises(ValueError):
            macrofraction_scaling("boltzmann", [1])
