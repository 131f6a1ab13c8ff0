import math

import numpy as np
import pytest

from qbmsbs.specfun import bessel_i0, bessel_i0_oracle, i0_asymptotic, log_i0e


def log_i0_oracle(z: float, panels: int = 20_000) -> float:
    """Independent log-space oracle: z + log (1/pi) int_0^pi e^{z(cos t - 1)} dt.

    The shifted integrand is bounded by 1, so this works far beyond the
    overflow range of the plain defining integral.
    """
    theta = np.linspace(0.0, math.pi, panels + 1)
    f = np.exp(z * (np.cos(theta) - 1.0))
    w = np.ones(panels + 1)
    w[0] = w[-1] = 0.5
    return z + math.log((math.pi / panels) * float(np.dot(w, f)) / math.pi)


class TestOracle:
    def test_zero(self):
        assert bessel_i0_oracle(0.0, 128) == pytest.approx(1.0, abs=1e-15)

    def test_self_convergence(self):
        a = bessel_i0_oracle(2.0, 10_000)
        b = bessel_i0_oracle(2.0, 20_000)
        assert abs(a - b) / b < 1e-13

    def test_cross_check_z10(self):
        assert bessel_i0(10.0).value == pytest.approx(bessel_i0_oracle(10.0, 10_000),
                                                      rel=1e-12)

    def test_min_panels(self):
        with pytest.raises(ValueError):
            bessel_i0_oracle(1.0, 32)


class TestBesselI0:
    def test_zero_is_one(self):
        res = bessel_i0(0.0)
        assert res.value == 1.0
        assert res.log_value == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)

    @pytest.mark.parametrize("z", [1e-8, 0.1, 1.0, 2.0, 17.0, 100.0, 650.0, 700.0])
    def test_matches_quadrature(self, z):
        assert bessel_i0(z).value == pytest.approx(bessel_i0_oracle(z, 20_000),
                                                   rel=1e-12)

    @pytest.mark.parametrize("z", [50.0, 300.0, 700.0, 701.0, 5000.0, 1e6])
    def test_log_value_matches_log_oracle(self, z):
        assert bessel_i0(z).log_value == pytest.approx(log_i0_oracle(z), rel=1e-10)

    def test_value_log_consistency(self):
        for z in (0.5, 5.0, 80.0):
            res = bessel_i0(z)
            assert res.value == pytest.approx(math.exp(res.log_value), rel=1e-14)

    def test_huge_argument_value_inf(self):
        res = bessel_i0(1e4)
        assert math.isinf(res.value)
        assert res.log_value == pytest.approx(log_i0_oracle(1e4), rel=1e-10)

    def test_strictly_increasing_and_log_convex(self):
        zs = np.linspace(0.0, 30.0, 200)
        logs = np.array([bessel_i0(float(z)).log_value for z in zs])
        assert np.all(np.diff(logs) > 0)
        assert np.all(np.diff(logs, 2) > -1e-12)

    def test_damped_factor_decreasing_in_unit_interval(self):
        # exp(-z) I0(z) is the per-oscillator time-averaged factor
        zs = np.linspace(0.0, 400.0, 300)
        vals = np.array([math.exp(-z + bessel_i0(float(z)).log_value) for z in zs])
        assert vals[0] == 1.0
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)


class TestAsymptotic:
    def test_leading_order_error_z100(self):
        approx = math.exp(i0_asymptotic(100.0))
        assert abs(approx - bessel_i0(100.0).value) / bessel_i0(100.0).value < 0.002

    def test_leading_order_error_z10(self):
        approx = math.exp(i0_asymptotic(10.0))
        assert abs(approx - bessel_i0(10.0).value) / bessel_i0(10.0).value < 0.02

    def test_ratio_monotone_to_one(self):
        zs = np.linspace(10.0, 600.0, 100)
        ratios = np.array([math.exp(i0_asymptotic(float(z)) - bessel_i0(float(z)).log_value)
                           for z in zs])
        assert np.all(np.diff(ratios) > 0)
        assert ratios[-1] < 1.0
        assert ratios[-1] > 1.0 - 1e-3

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            i0_asymptotic(0.0)


def loop_log_i0e(z: float) -> float:
    """Reference for the array kernel: the same series and asymptotic form
    evaluated one Python float at a time."""
    if z <= 700.0:
        q, term, total, k = 0.25 * z * z, 1.0, 1.0, 1
        while True:
            term *= q / (k * k)
            total += term
            if term <= 1e-18 * total or k > 2000:
                return math.log(total) - z
            k += 1
    corr, zk = 1.0, 1.0
    for a in (1 / 8, 9 / 128, 75 / 1024, 3675 / 32768, 59535 / 262144):
        zk *= z
        corr += a / zk
    return math.log(corr) - 0.5 * math.log(2.0 * math.pi * z)


class TestLogI0e:
    """The array kernel: every entry of one call against the scalar paths."""

    @staticmethod
    def grid():
        """[0, 2000] in one shuffled array, so that entries leave the series
        at different terms, with the cutoff 700 and the next float above."""
        rng = np.random.default_rng(3)
        z = np.concatenate([np.linspace(0.0, 2000.0, 401), rng.uniform(0.0, 2000.0, 100),
                            [1e-300, 5e-324, 699.999, 700.0, np.nextafter(700.0, np.inf)]])
        return rng.permutation(z)

    @pytest.mark.parametrize("scalar", [loop_log_i0e, lambda x: -x + bessel_i0(x).log_value],
                             ids=["loop", "bessel_i0"])
    def test_matches_scalar_path(self, scalar):
        z = self.grid()
        got = log_i0e(z)
        want = np.array([scalar(x) for x in z.tolist()])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-13

    def test_cutoff_neighbours(self):
        above = float(np.nextafter(700.0, np.inf))
        got = log_i0e([700.0, above])
        for g, x in zip(got.tolist(), (700.0, above)):
            assert g == pytest.approx(-x + log_i0_oracle(x), rel=1e-10)
        assert abs(got[1] - got[0]) < 1e-12

    def test_zero_exact(self):
        assert log_i0e(0.0) == 0.0
        assert log_i0e([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_empty(self):
        out = log_i0e([])
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("z", [3.0, np.float64(3.0), np.array(3.0), 900.0])
    def test_scalar_and_zero_d(self, z):
        out = log_i0e(z)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert float(out) == pytest.approx(-float(z) + bessel_i0(float(z)).log_value,
                                           rel=1e-15)

    def test_shape_kept(self):
        z = np.array([[0.5, 800.0], [3.0, 0.0]])
        out = log_i0e(z)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.ravel(), log_i0e(z.ravel()))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            log_i0e([1.0, bad, 2.0])
        with pytest.raises(ValueError):
            bessel_i0(bad)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        z = np.concatenate([self.grid(), [1e4, 1e6]])
        want = np.log(special.i0e(z))
        err = np.abs(log_i0e(z) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-13
