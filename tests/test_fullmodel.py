import math

import numpy as np
import pytest

from qbmsbs.bath import BathSpec, EnvInitState, SystemSpec, sample_bath
from qbmsbs.fullmodel import (ResonanceError, _amplitude, alpha_sq_full,
                              alpha_sq_squeezed, b_full, default_averaging_time,
                              default_sample_count,
                              gamma_full, re_alpha_sq_full,
                              time_average_numeric)
from qbmsbs.pqml import avg_analytic, b_pqml, gamma_pqml, pqml_propagator
from qbmsbs.units import DIMENSIONLESS_UNITS

UNITLESS = DIMENSIONLESS_UNITS

W, O, M, C = 2.0, 0.7, 1.3, 0.9


@pytest.fixture
def bath():
    return BathSpec(omegas=(1.7, 2.3, 3.1), masses=(1.0, 1.2, 0.8),
                    couplings=(0.6, 0.4, 0.5))


@pytest.fixture
def system():
    return SystemSpec(mass_M=1.0, omega_big=0.7, x1=0.0, x2=1.5)


@pytest.fixture
def env():
    return EnvInitState(temperature=0.5)


class TestAmplitudes:
    def test_initial_values(self):
        assert alpha_sq_full(0.0, W, O, M, C, UNITLESS) == 0.0
        assert re_alpha_sq_full(0.0, W, O, M, C, UNITLESS) == 0.0

    def test_commensurate_revival(self):
        # omega = 2 Omega: both motions close after one Omega period
        w, o = 2.0, 1.0
        t = 2.0 * math.pi / o
        assert alpha_sq_full(t, w, o, M, C, UNITLESS) == pytest.approx(0.0, abs=1e-24)

    def test_matches_measured_limit_at_zero_system_frequency(self):
        for t in (0.3, 1.7, 4.1):
            prop = pqml_propagator(t, W, M, C, UNITLESS)
            assert alpha_sq_full(t, W, 0.0, M, C, UNITLESS) == \
                pytest.approx(abs(prop.alpha) ** 2, rel=1e-12)
            assert re_alpha_sq_full(t, W, 0.0, M, C, UNITLESS) == \
                pytest.approx((prop.alpha ** 2).real, rel=1e-10, abs=1e-15)

    def test_real_part_bounded_by_modulus(self):
        tt = np.linspace(0.0, 50.0, 10_000)
        a2 = alpha_sq_full(tt, W, O, M, C, UNITLESS)
        re2 = re_alpha_sq_full(tt, W, O, M, C, UNITLESS)
        assert np.all(np.abs(re2) <= a2 * (1 + 1e-12) + 1e-18)

    def test_broadcast_matches_scalar(self):
        tt = np.array([0.0, 0.9, 2.2])
        arr = alpha_sq_full(tt, W, O, M, C, UNITLESS)
        for t, v in zip(tt, arr):
            assert v == alpha_sq_full(float(t), W, O, M, C, UNITLESS)

    def test_resonance_guard(self):
        with pytest.raises(ResonanceError):
            alpha_sq_full(1.0, 0.7 * (1 + 1e-9), 0.7, M, C, UNITLESS)
        # just outside the guard is fine
        alpha_sq_full(1.0, 0.7 * (1 + 1e-5), 0.7, M, C, UNITLESS)


class TestSqueezedAmplitude:
    def test_zero_squeezing_exact(self):
        for t in (0.4, 1.3, 6.6):
            assert alpha_sq_squeezed(t, W, O, M, C, 0.0, UNITLESS) == \
                alpha_sq_full(t, W, O, M, C, UNITLESS)

    def test_initial_value_zero(self):
        for r in (0.0, 0.5, 3.0, -2.0):
            assert alpha_sq_squeezed(0.0, W, O, M, C, r, UNITLESS) == 0.0

    def test_nonnegative_for_strong_squeezing(self):
        tt = np.linspace(0.0, 80.0, 10_000)
        for r in (0.5, 2.0, 5.0, -5.0):
            vals = np.array([alpha_sq_squeezed(float(t), W, O, M, C, r, UNITLESS)
                             for t in tt[:: 100]])
            assert np.all(vals >= -1e-18)

    def test_negative_r_squeezes_the_conjugate_quadrature(self):
        t, r = 0.9, 0.7
        s, zr, zi = _amplitude(t, W, O, M, C, UNITLESS)
        assert alpha_sq_squeezed(t, W, O, M, C, -r, UNITLESS) == \
            s * (math.exp(2 * r) * zr * zr + math.exp(-2 * r) * zi * zi)

    def test_exponential_growth_at_large_r(self):
        # th(2r) ~ 1 for r >= 4, so one more unit of r multiplies by ~e^2
        t = 1.1
        v4 = alpha_sq_squeezed(t, W, O, M, C, 4.0, UNITLESS)
        v5 = alpha_sq_squeezed(t, W, O, M, C, 5.0, UNITLESS)
        assert v5 / v4 == pytest.approx(math.e ** 2, rel=0.05)

    def test_container_consistency(self):
        # the three amplitudes at one point obey
        # squeezed = ch(2r) [|alpha|^2 - th(2r) Re alpha^2]
        t, r = 0.9, 0.7
        full = alpha_sq_full(t, W, O, M, C, UNITLESS)
        re = re_alpha_sq_full(t, W, O, M, C, UNITLESS)
        assert abs(re) <= full
        assert alpha_sq_squeezed(t, W, O, M, C, r, UNITLESS) == pytest.approx(
            math.cosh(2 * r) * (full - math.tanh(2 * r) * re), rel=1e-12)

    @pytest.mark.parametrize("r", [4.0, 8.0])
    def test_matches_high_precision_oracle(self, r):
        # s [e^{-2r} Re z^2 + e^{2r} Im z^2] at 50 digits, from the same
        # binary inputs; the ch - th Re bracket loses ~1e-11 here to cancellation
        mp = pytest.importorskip("mpmath")
        tt = np.linspace(0.0, 80.0, 2000)
        got = alpha_sq_squeezed(tt, W, O, M, C, r, UNITLESS)
        with mp.workdps(50):
            w, o, r_ = mp.mpf(W), mp.mpf(O), mp.mpf(r)
            s = mp.mpf(C) ** 2 / (2 * mp.mpf(M) * w * (w ** 2 - o ** 2) ** 2)
            ref = []
            for t in tt.tolist():
                phi, theta = w * mp.mpf(t), o * mp.mpf(t)
                z = mp.expj(phi) * (w * mp.cos(theta) - 1j * o * mp.sin(theta)) - w
                ref.append(float(s * (mp.exp(-2 * r_) * z.real ** 2
                                      + mp.exp(2 * r_) * z.imag ** 2)))
        ref = np.array(ref)
        assert got[0] == ref[0] == 0.0
        assert np.max(np.abs(got[1:] - ref[1:]) / ref[1:]) <= 5e-12


class TestFactors:
    def test_t_zero(self, bath, system, env):
        assert gamma_full(0.0, bath, system, env, units=UNITLESS) == 1.0
        assert b_full(0.0, bath, system, env, units=UNITLESS) == 1.0

    def test_reduces_to_measured_limit(self, bath, env):
        flat = SystemSpec(mass_M=1.0, omega_big=0.0, x1=0.0, x2=1.5)
        for t in (0.2, 0.9, 3.3):
            assert gamma_full(t, bath, flat, env, units=UNITLESS) == \
                pytest.approx(gamma_pqml(t, bath, flat, env, units=UNITLESS),
                              rel=1e-12)
            assert b_full(t, bath, flat, env, units=UNITLESS) == \
                pytest.approx(b_pqml(t, bath, flat, env, units=UNITLESS), rel=1e-12)

    def test_b_ge_gamma_for_all_squeezings(self, bath, system):
        for r in (0.0, 0.3, 1.5):
            st = EnvInitState(temperature=0.5, squeezing_r=r)
            for t in np.linspace(0.0, 10.0, 30):
                assert b_full(float(t), bath, system, st, units=UNITLESS) >= \
                    gamma_full(float(t), bath, system, st, units=UNITLESS)

    def test_b_increases_to_one_with_temperature(self, bath, system):
        temps = np.logspace(-1, 3, 25)
        vals = [b_full(1.4, bath, system, EnvInitState(temperature=float(tp)),
                       units=UNITLESS) for tp in temps]
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_product_over_subsets(self, bath, system, env):
        t = 2.7
        full = gamma_full(t, bath, system, env, log=True, units=UNITLESS)
        parts = sum(gamma_full(t, bath, system, env, idx=[k], log=True,
                               units=UNITLESS) for k in range(bath.n))
        assert parts == pytest.approx(full, rel=1e-12)

    def test_extra_oscillator_never_helps(self, bath, system, env):
        t = 1.9
        one = gamma_full(t, bath, system, env, idx=[0], units=UNITLESS)
        two = gamma_full(t, bath, system, env, idx=[0, 1], units=UNITLESS)
        assert two <= one

    def test_negative_time_rejected(self, bath, system, env):
        with pytest.raises(ValueError):
            gamma_full(-0.1, bath, system, env, units=UNITLESS)


class TestTimeAverage:
    def test_zero_separation_is_exactly_one(self, bath, env):
        flat = SystemSpec(mass_M=1.0, omega_big=0.7, x1=2.0, x2=2.0)
        res = time_average_numeric("gamma", bath, flat, env, None, 100.0, 2000,
                                   UNITLESS)
        assert res.value == 1.0
        assert res.convergence == 0.0

    def test_single_oscillator_matches_analytic(self, env):
        bath = BathSpec(omegas=(1.7,), masses=(1.0,), couplings=(0.6,))
        system = SystemSpec(mass_M=1.0, omega_big=0.0, x1=0.0, x2=1.5)
        tau = 1e4 * 2 * math.pi / 1.7
        n = default_sample_count(bath, system, tau)
        num = time_average_numeric("gamma", bath, system, env, None, tau, n,
                                   UNITLESS)
        ana = math.exp(avg_analytic(bath, system, env, which="decoherence",
                                    units=UNITLESS).log_avg_gamma)
        assert abs(num.value - ana) / ana < 5e-3

    def test_convergence_indicator_bounds_change(self, bath, system, env):
        tau = default_averaging_time(bath, periods=200)
        n = default_sample_count(bath, system, tau)
        res = time_average_numeric("b", bath, system, env, None, tau, n, UNITLESS)
        res2 = time_average_numeric("b", bath, system, env, None, 2 * tau, 2 * n,
                                    UNITLESS)
        assert abs(res2.value - res.value) < 10 * max(res.convergence,
                                                      res2.convergence) + 1e-8

    def test_argument_validation(self, bath, system, env):
        with pytest.raises(ValueError):
            time_average_numeric("phi", bath, system, env, None, 1.0, 2000, UNITLESS)
        with pytest.raises(ValueError):
            time_average_numeric("gamma", bath, system, env, None, -1.0, 2000,
                                 UNITLESS)
        with pytest.raises(ValueError):
            time_average_numeric("gamma", bath, system, env, None, 1.0, 10, UNITLESS)

    def test_default_grid_helpers(self, bath, system):
        tau = default_averaging_time(bath)
        assert tau == pytest.approx(1e4 * 2 * math.pi / 1.7, rel=1e-12)
        n = default_sample_count(bath, system, tau)
        assert n >= 1000
        # doubling tau doubles the sample budget
        assert default_sample_count(bath, system, 2 * tau) == \
            pytest.approx(2 * n, rel=1e-3)


class TestBathSampling:
    def test_sampled_bath_off_resonant(self):
        bath = sample_bath(50, 4.5e9, 3e9, seed=11, mass_M=1e-5, gamma0=0.33e18,
                           prefactor=2)
        assert all(w >= 3e9 for w in bath.omegas)
        # every bath line is far above the reference system frequency
        assert min(bath.omegas) / 3e8 >= 5.0
