import math

import numpy as np
import pytest

from qbmsbs.bath import BathSpec, EnvInitState, SystemSpec, sample_bath
from qbmsbs.fullmodel import time_average_numeric
from qbmsbs import pqml
from qbmsbs.pqml import (avg_analytic, avg_asymptotic, b_pqml, bessel_arguments,
                         check_large_separation, freq_averaged_scaling, gamma_pqml,
                         log_factor_series, pqml_propagator)
from qbmsbs.specfun import bessel_i0
from qbmsbs.units import DIMENSIONLESS_UNITS, SI_UNITS

UNITLESS = DIMENSIONLESS_UNITS


@pytest.fixture
def bath():
    return sample_bath(3, 4.5e9, 3e9, seed=7, mass_M=1e-5, gamma0=0.33e18, prefactor=2)


@pytest.fixture
def system():
    return SystemSpec(mass_M=1e-5, omega_big=0.0, x1=0.0, x2=1e-9)


@pytest.fixture
def env():
    return EnvInitState(temperature=0.01)


class TestPropagator:
    def test_initial_values(self):
        prop = pqml_propagator(0.0, 4.5e9, 1.0, 2e6)
        assert prop.alpha == 0.0
        assert prop.zeta == 0.0

    def test_full_period_revival(self):
        w, m, c = 4.5e9, 1.0, 2e6
        prop = pqml_propagator(2 * math.pi / w, w, m, c)
        assert abs(prop.alpha) < 1e-7 * c / math.sqrt(2 * m * w ** 3 * SI_UNITS.hbar)
        assert prop.zeta == pytest.approx(c * c * 2 * math.pi / (m * w ** 3 * SI_UNITS.hbar),
                                          rel=1e-9)
        assert prop.zeta > 0

    def test_half_period_amplitude(self):
        # |e^{i pi} - 1|^2 = 4, so |alpha|^2 = 2 C^2/(m w^3 hbar)
        w, m, c = 4.5e9, 1.0, 2e6
        prop = pqml_propagator(math.pi / w, w, m, c)
        assert abs(prop.alpha) ** 2 == pytest.approx(
            2 * c * c / (m * w ** 3 * SI_UNITS.hbar), rel=1e-12)

    def test_amplitude_periodicity(self):
        w, m, c = 2.0, 1.0, 1.5
        for t in (0.3, 1.1, 2.9):
            a1 = abs(pqml_propagator(t, w, m, c, UNITLESS).alpha) ** 2
            a2 = abs(pqml_propagator(t + 2 * math.pi / w, w, m, c, UNITLESS).alpha) ** 2
            assert a2 == pytest.approx(a1, abs=1e-14)


class TestFactors:
    def test_t_zero(self, bath, system, env):
        assert gamma_pqml(0.0, bath, system, env) == 1.0
        assert b_pqml(0.0, bath, system, env) == 1.0

    def test_single_oscillator_revival(self, bath, system, env):
        w = bath.omegas[0]
        assert gamma_pqml(2 * math.pi / w, bath, system, env, idx=[0]) == \
            pytest.approx(1.0, abs=1e-9)

    def test_single_oscillator_half_period(self, bath, system, env):
        k = 1
        w, m, c = bath.omegas[k], bath.masses[k], bath.couplings[k]
        arg = SI_UNITS.hbar * w / (2 * SI_UNITS.k_boltzmann * env.temperature)
        expected = math.exp(-system.dx ** 2 / math.tanh(arg) * c * c
                            / (m * w ** 3 * SI_UNITS.hbar))
        assert gamma_pqml(math.pi / w, bath, system, env, idx=[k]) == \
            pytest.approx(expected, rel=1e-10)

    def test_b_ge_gamma_on_grid(self, bath, system, env):
        for t in np.linspace(0.0, 5e-9, 50):
            assert b_pqml(float(t), bath, system, env) >= \
                gamma_pqml(float(t), bath, system, env)

    def test_lower_bound_worst_case(self, bath, system, env):
        # cos = -1 worst case bounds both factors from below
        w, m, c = bath.arrays()
        arg = SI_UNITS.hbar * w / (2 * SI_UNITS.k_boltzmann * env.temperature)
        bound = math.exp(-system.dx ** 2 * float(np.sum(
            c * c / (np.tanh(arg) * m * w ** 3 * SI_UNITS.hbar))))
        for t in np.linspace(0.0, 1e-8, 40):
            assert gamma_pqml(float(t), bath, system, env) >= bound

    def test_squeezing_rejected(self, bath, system):
        squeezed = EnvInitState(temperature=0.01, squeezing_r=0.5)
        with pytest.raises(ValueError):
            gamma_pqml(1e-9, bath, system, squeezed)


class TestBlockedSeries:
    """log_factor_series takes the times in blocks of at most
    _SERIES_BLOCK_ENTRIES (oscillators x times) entries."""

    @pytest.mark.parametrize("block_entries", [None, 1, 7 * 2000 + 3])
    def test_matches_unblocked_product(self, monkeypatch, system, env, block_entries):
        if block_entries is not None:
            monkeypatch.setattr(pqml, "_SERIES_BLOCK_ENTRIES", block_entries)
        big = sample_bath(2000, 4.5e9, 3e9, seed=11, mass_M=1e-5, gamma0=0.33e18,
                          prefactor=2)
        times = np.linspace(0.0, 3e-9, 701)
        # 2000 x 701 entries: 2 blocks of 524 and 177 times at the default
        # size, 701 blocks of one time, or 100 blocks of 7 and one of 1
        assert big.n * times.size > pqml._SERIES_BLOCK_ENTRIES
        for which in ("decoherence", "distinguishability"):
            a = bessel_arguments(big, system, env, None, which)
            want = a @ (np.cos(np.outer(big.arrays()[0], times)) - 1.0)
            got = log_factor_series(times, big, system, env, None, which)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_index_set_and_scalar_time(self, bath, system, env):
        times = np.array([0.0, 1e-9, 2.5e-9])
        got = log_factor_series(times, bath, system, env, idx=[2, 0])
        a = bessel_arguments(bath, system, env, [2, 0])
        w = np.array([bath.omegas[2], bath.omegas[0]])
        np.testing.assert_allclose(got, a @ (np.cos(np.outer(w, times)) - 1.0),
                                   rtol=1e-14, atol=0.0)
        assert log_factor_series(1e-9, bath, system, env, idx=[2, 0]).tolist() == \
            [got[1]]
        assert log_factor_series([], bath, system, env).shape == (0,)


class TestAvgAnalytic:
    def test_zero_separation(self, bath, env):
        flat = SystemSpec(mass_M=1e-5, omega_big=0.0, x1=1e-9, x2=1e-9)
        res = avg_analytic(bath, flat, env)
        assert res.log_avg_gamma == 0.0
        assert res.log_avg_b == 0.0

    def test_product_structure(self, bath, system, env):
        res = avg_analytic(bath, system, env)
        total = sum(-a + bessel_i0(a).log_value for a in res.i0_arguments)
        assert res.log_avg_gamma == pytest.approx(total, rel=1e-12)
        assert res.i0_arguments.dtype == np.float64
        assert not res.i0_arguments.flags.writeable
        assert res == res and res != avg_analytic(bath, system, env)

    def test_matches_numeric_time_average(self, bath, system, env):
        tau = 1e4 * 2 * math.pi / min(bath.omegas)
        n = int(20 * tau * max(bath.omegas) / (2 * math.pi))
        for which, factor, attr in (("decoherence", "gamma", "log_avg_gamma"),
                                    ("distinguishability", "b", "log_avg_b")):
            num = time_average_numeric(factor, bath, system, env, None, tau, n)
            ana = math.exp(getattr(avg_analytic(bath, system, env, which=which), attr))
            assert abs(num.value - ana) / ana < 5e-3

    def test_duplicate_frequencies_warn(self, system, env):
        dup = BathSpec(omegas=(1e9, 1e9), masses=(1.0, 1.0), couplings=(1e6, 1e6))
        with pytest.warns(UserWarning):
            avg_analytic(dup, system, env)

    def test_adding_oscillator_never_increases(self, bath, system, env):
        one = avg_analytic(bath, system, env, idx=[0]).log_avg_gamma
        two = avg_analytic(bath, system, env, idx=[0, 1]).log_avg_gamma
        assert two <= one


def asymptotic_setup(dx=30.0, n=5, seed=4):
    bath = sample_bath(n, 1.5, 0.8, seed=seed, mass_M=1.0, gamma0=1.0, prefactor=1)
    system = SystemSpec(mass_M=1.0, omega_big=0.0, x1=0.0, x2=dx)
    env = EnvInitState(temperature=0.01)
    return bath, system, env


class TestAsymptotics:
    def test_ratio_doubles_with_dx(self):
        s1 = SystemSpec(1.0, 0.0, 0.0, 1.0)
        s2 = SystemSpec(1.0, 0.0, 0.0, 2.0)
        r1 = check_large_separation(s1, 2.0, 1.0, UNITLESS)
        r2 = check_large_separation(s2, 2.0, 1.0, UNITLESS)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_ratio_vanishes_at_large_frequency(self):
        s = SystemSpec(1.0, 0.0, 0.0, 1.0)
        assert check_large_separation(s, 1e12, 1.0, UNITLESS) < 1e-17

    def test_reference_parameters_ratio(self):
        # below the asymptotic threshold for the reference numbers
        s = SystemSpec(1e-5, 3e8, 0.0, 1e-9)
        ratio = check_large_separation(s, 4.5e9, 0.33e18)
        assert ratio == pytest.approx(
            1e-9 * math.sqrt(1e-5 * 0.33e18 / SI_UNITS.hbar) / 4.5e9 ** 1.5, rel=1e-12)
        assert ratio < 10.0

    def test_equal_frequency_display(self):
        # all omega_k = wbar: log result is -mN ln(sqrt(M g0) dx / wbar^1.5)
        n, wbar, dx = 4, 1.5, 30.0
        bath = sample_bath(n, wbar, 0.0, seed=0, mass_M=1.0, gamma0=1.0, prefactor=1)
        system = SystemSpec(1.0, 0.0, 0.0, dx)
        env = EnvInitState(temperature=0.01)
        got = avg_asymptotic(bath, system, env, units=UNITLESS)
        expected = -n * math.log(math.sqrt(1.0) * dx / wbar ** 1.5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dx_scaling_single_oscillator(self):
        for dx in (30.0,):
            bath = sample_bath(1, 1.5, 0.0, seed=0, mass_M=1.0, gamma0=1.0, prefactor=1)
            env = EnvInitState(temperature=0.01)
            a = avg_asymptotic(bath, SystemSpec(1.0, 0.0, 0.0, dx), env, units=UNITLESS)
            b = avg_asymptotic(bath, SystemSpec(1.0, 0.0, 0.0, 10 * dx), env,
                               units=UNITLESS)
            assert b - a == pytest.approx(-math.log(10.0), rel=1e-12)

    def test_matches_analytic_within_budget(self):
        bath, system, env = asymptotic_setup()
        asym = avg_asymptotic(bath, system, env, units=UNITLESS)
        ana = avg_analytic(bath, system, env, which="decoherence",
                           units=UNITLESS).log_avg_gamma
        w = np.asarray(bath.omegas)
        a = 0.5 * system.dx ** 2 * np.asarray(bath.couplings) ** 2 / w ** 3
        budget = len(w) / (8.0 * a.min())
        assert abs(asym - ana) <= budget

    def test_small_ratio_rejected(self):
        bath, system, env = asymptotic_setup(dx=1.0)
        with pytest.raises(ValueError):
            avg_asymptotic(bath, system, env, units=UNITLESS)

    def test_high_temperature_rejected(self):
        bath, system, _ = asymptotic_setup()
        with pytest.raises(ValueError):
            avg_asymptotic(bath, system, EnvInitState(temperature=10.0), units=UNITLESS)


class TestFreqAveragedScaling:
    def test_zero_width_band_exact(self):
        system = SystemSpec(1.0, 0.0, 0.0, 30.0)
        env = EnvInitState(temperature=0.01)
        res = freq_averaged_scaling(system, env, omega_bar=1.5, delta=0.0, mN=5,
                                    gamma0=1.0, mc_samples=50, seed=1, units=UNITLESS)
        assert res.log_empirical == pytest.approx(res.log_predicted, rel=1e-12)

    def test_prediction_linear_in_size(self):
        system = SystemSpec(1.0, 0.0, 0.0, 30.0)
        env = EnvInitState(temperature=0.01)
        one = freq_averaged_scaling(system, env, 1.5, 0.1, mN=3, gamma0=1.0,
                                    mc_samples=10, seed=1, units=UNITLESS)
        two = freq_averaged_scaling(system, env, 1.5, 0.1, mN=6, gamma0=1.0,
                                    mc_samples=10, seed=1, units=UNITLESS)
        assert two.log_predicted == pytest.approx(2 * one.log_predicted, rel=1e-12)

    def test_band_spread_bound(self):
        system = SystemSpec(1.0, 0.0, 0.0, 30.0)
        env = EnvInitState(temperature=0.01)
        wbar, delta, mN = 1.5, 0.15, 5
        res = freq_averaged_scaling(system, env, wbar, delta, mN, gamma0=1.0,
                                    mc_samples=1000, seed=2, units=UNITLESS)
        assert abs(res.log_empirical - res.log_predicted) <= mN * 1.5 * delta / wbar

    def test_wide_band_rejected(self):
        system = SystemSpec(1.0, 0.0, 0.0, 30.0)
        env = EnvInitState(temperature=0.01)
        with pytest.raises(ValueError):
            freq_averaged_scaling(system, env, 1.5, 1.0, 5, 1.0, 10, 1, units=UNITLESS)
