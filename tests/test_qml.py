import math

import numpy as np
import pytest

from qbmsbs.qml import (QmlParams, b_qml, gamma_qml, lln_factors, set_timescales,
                        timescales)


def coth(x):
    return 1.0 / math.tanh(x)


@pytest.fixture
def params():
    return QmlParams(dx=1.0, beta_eff=2.0, couplings=(0.7, 1.1, 0.4))


class TestFactors:
    def test_t_zero_is_one(self, params):
        assert gamma_qml(0.0, params) == 1.0
        assert b_qml(0.0, params) == 1.0

    def test_dx_zero_is_one(self):
        p = QmlParams(dx=0.0, beta_eff=2.0, couplings=(1.0,))
        assert gamma_qml(3.7, p) == 1.0
        assert b_qml(3.7, p) == 1.0

    def test_zero_temperature_single_coupling(self):
        # C=1, dx=1, beta -> inf (cth -> 1), t=1: exp(-1/2)
        p = QmlParams(dx=1.0, beta_eff=1e3, couplings=(1.0,))
        assert gamma_qml(1.0, p) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert b_qml(1.0, p) == pytest.approx(gamma_qml(1.0, p), rel=1e-12)

    def test_th_cth_identity(self, params):
        # ln gamma * ln b = [(dx^2/2) t^2 sum C^2]^2 since th*cth = 1
        t = 0.9
        s = sum(c * c for c in params.couplings)
        target = (0.5 * params.dx ** 2 * t * t * s) ** 2
        prod = gamma_qml(t, params, log=True) * b_qml(t, params, log=True)
        assert prod == pytest.approx(target, rel=1e-12)

    def test_log_quadratic_in_t(self, params):
        lg1 = gamma_qml(0.3, params, log=True)
        lg2 = gamma_qml(0.6, params, log=True)
        assert lg2 / lg1 == pytest.approx(4.0, rel=1e-12)

    def test_index_subset(self, params):
        full = gamma_qml(1.0, params, log=True)
        parts = sum(gamma_qml(1.0, params, idx=[k], log=True) for k in range(3))
        assert parts == pytest.approx(full, rel=1e-12)

    def test_b_ge_gamma(self, params):
        for t in np.linspace(0.0, 3.0, 20):
            assert b_qml(float(t), params) >= gamma_qml(float(t), params)

    def test_monotone_in_temperature(self):
        # gamma non-increasing, b non-decreasing as T grows (beta shrinks)
        betas = np.linspace(0.1, 10.0, 30)[::-1]  # increasing temperature
        g = [gamma_qml(1.0, QmlParams(1.0, float(b), (1.0,))) for b in betas]
        b_ = [b_qml(1.0, QmlParams(1.0, float(b), (1.0,))) for b in betas]
        assert np.all(np.diff(g) <= 0)
        assert np.all(np.diff(b_) >= 0)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            gamma_qml(-1.0, params)


class TestTimescales:
    def test_zero_temperature_equality(self):
        ts = timescales(1.0, 1e3, 1.0)
        assert ts.tau_b == pytest.approx(ts.tau_d, rel=1e-12)

    def test_dx_doubling_halves_both(self):
        a = timescales(1.0, 2.0, 1.5)
        b = timescales(2.0, 2.0, 1.5)
        assert b.tau_d == pytest.approx(a.tau_d / 2, rel=1e-12)
        assert b.tau_b == pytest.approx(a.tau_b / 2, rel=1e-12)

    def test_direct_evaluation(self):
        # beta=2, dx=1, c2_mean=2: 1/tau_D = sqrt(cth(1)), 1/tau_B = sqrt(th(1))
        ts = timescales(1.0, 2.0, 2.0)
        assert 1.0 / ts.tau_d == pytest.approx(math.sqrt(coth(1.0)), rel=1e-12)
        assert 1.0 / ts.tau_b == pytest.approx(math.sqrt(math.tanh(1.0)), rel=1e-12)

    def test_tau_b_ge_tau_d_over_beta_grid(self):
        for beta in np.logspace(-2, 2, 40):
            ts = timescales(1.0, float(beta), 1.0)
            assert ts.tau_b >= ts.tau_d

    def test_never_decays_at_zero_separation(self):
        ts = timescales(0.0, 2.0, 1.0)
        assert math.isinf(ts.tau_d) and math.isinf(ts.tau_b)


    def test_tau_by_weight_kind(self):
        ts = timescales(1.0, 2.0, 1.0)
        assert ts.tau("decoherence") == ts.tau_d
        assert ts.tau("distinguishability") == ts.tau_b
        with pytest.raises(ValueError, match="which"):
            ts.tau("gamma")

    def test_set_timescales_use_the_set_mean(self):
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(0.5, 9.0, 1.5))
        assert set_timescales(params, np.array([0, 2])) == timescales(1.0, 2.0, 1.25)


class TestLln:
    def test_t_zero(self):
        assert lln_factors(0.0, 1.0, 2.0, 1.0, size=10) == 1.0

    def test_size_doubling_squares(self):
        v1 = lln_factors(0.5, 1.0, 2.0, 1.0, size=7)
        v2 = lln_factors(0.5, 1.0, 2.0, 1.0, size=14)
        assert v2 == pytest.approx(v1 * v1, rel=1e-12)

    def test_monte_carlo_agreement_with_exact_product(self):
        # i.i.d. C ~ U(0.5, 1.5): E[C^2] = 13/12
        c2_mean = 13.0 / 12.0
        n = 10_000
        t, dx, beta = 0.4, 1.0, 2.0
        rng = np.random.default_rng(99)
        cs = rng.uniform(0.5, 1.5, size=n)
        p = QmlParams(dx=dx, beta_eff=beta, couplings=tuple(cs))
        exact = gamma_qml(t, p, log=True)
        approx = lln_factors(t, dx, beta, c2_mean, size=n, log=True)
        assert abs(exact - approx) / abs(approx) < 5.0 / math.sqrt(n)
