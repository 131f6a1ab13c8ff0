import math

import numpy as np
import pytest

from qbmsbs.bath import (BathSpec, EnvInitState, Partition, SystemSpec,
                         couplings_from_masses, make_partition, sample_bath,
                         sample_frequencies)
from qbmsbs.units import UnitContext


class TestSampleFrequencies:
    def test_zero_width_interval(self):
        assert sample_frequencies(3, 4.5e9, 0.0, 1) == (4.5e9, 4.5e9, 4.5e9)

    def test_deterministic_for_seed(self):
        a = sample_frequencies(10, 4.5e9, 3e9, seed=7)
        b = sample_frequencies(10, 4.5e9, 3e9, seed=7)
        assert a == b
        c = sample_frequencies(10, 4.5e9, 3e9, seed=8)
        assert a != c

    def test_sample_mean_within_three_sigma(self):
        # uniform on [3e9, 6e9]: sd = delta/sqrt(12)
        n, delta = 10_000, 3e9
        draws = sample_frequencies(n, 4.5e9, delta, seed=42)
        tol = 3.0 * (delta / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(np.mean(draws) - 4.5e9) < tol

    def test_band_inside_interval(self):
        draws = sample_frequencies(1000, 4.5e9, 3e9, seed=5)
        assert all(3e9 <= w <= 6e9 for w in draws)

    @pytest.mark.parametrize("omega_bar, delta", [(math.nan, 1.0), (math.inf, 1.0),
                                                  (4.5, math.nan), (4.5, math.inf)])
    def test_nonfinite_band_rejected(self, omega_bar, delta):
        with pytest.raises(ValueError, match="finite"):
            sample_frequencies(3, omega_bar, delta, seed=0)

    def test_nonpositive_band_edge_rejected(self):
        with pytest.raises(ValueError):
            sample_frequencies(3, 1.0, 2.5, seed=0)


class TestCouplings:
    def test_unit_value(self):
        assert couplings_from_masses([math.pi], 1.0, 1.0, prefactor=1) == (1.0,)
        assert couplings_from_masses([math.pi], 1.0, 1.0, prefactor=2) == (2.0,)

    def test_reference_parameters(self):
        got = couplings_from_masses([1e-20], 1e-5, 0.33e18, prefactor=2)[0]
        assert got == pytest.approx(2 * math.sqrt(1e-5 * 1e-20 * 0.33e18 / math.pi),
                                    rel=1e-15)

    def test_sqrt_mass_scaling(self):
        c1 = couplings_from_masses([1.0], 1e-5, 0.33e18, prefactor=2)[0]
        c2 = couplings_from_masses([2.0], 1e-5, 0.33e18, prefactor=2)[0]
        assert c2 == pytest.approx(c1 * math.sqrt(2.0), rel=1e-15)

    def test_bad_prefactor(self):
        with pytest.raises(ValueError):
            couplings_from_masses([1.0], 1.0, 1.0, prefactor=3)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["omegas", "masses", "couplings"])
    def test_bath(self, field, bad):
        values = {"omegas": (1.0, 2.0), "masses": (1.0, 1.0), "couplings": (1.0, 1.0)}
        values[field] = (1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            BathSpec(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mass_M", "omega_big", "x1", "x2"])
    def test_system(self, field, bad):
        values = {"mass_M": 1.0, "omega_big": 0.5, "x1": 0.0, "x2": 1.0}
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            SystemSpec(**values)

    @pytest.mark.parametrize("temperature, r", [
        (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf),
        (0.1, -math.inf)])
    def test_env(self, temperature, r):
        with pytest.raises(ValueError, match="finite"):
            EnvInitState(temperature=temperature, squeezing_r=r)

    def test_env_from_nan_beta(self):
        with pytest.raises(ValueError):
            EnvInitState.from_beta(math.nan, 1.0)

    @pytest.mark.parametrize("hbar, k_boltzmann", [(math.nan, 1.0), (1.0, math.inf)])
    def test_units(self, hbar, k_boltzmann):
        with pytest.raises(ValueError, match="finite"):
            UnitContext(hbar=hbar, k_boltzmann=k_boltzmann)


class TestPartition:
    def test_contiguous_assignment(self):
        p = make_partition(20, 10, [10])
        assert p.unobserved == tuple(range(10))
        assert p.macrofractions == (tuple(range(10, 20)),)

    def test_decoherence_only(self):
        p = make_partition(5, 5, [])
        assert p.unobserved == (0, 1, 2, 3, 4)
        assert p.macrofractions == ()

    def test_symmetric_split_30(self):
        p = make_partition(60, 30, [30])
        assert len(p.unobserved) == len(p.macrofractions[0]) == 30

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            make_partition(10, 6, [5])

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Partition(unobserved=(0, 1), macrofractions=((1, 2),))

    def test_groups_disjoint_random_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            u = int(rng.integers(0, n + 1))
            rest = n - u
            m1 = int(rng.integers(0, rest + 1))
            macs = [m1] if m1 else []
            p = make_partition(n, u, macs)
            groups = [set(p.unobserved)] + [set(m) for m in p.macrofractions]
            total = sum(len(g) for g in groups)
            assert len(set().union(*groups)) == total if groups else True


class TestSpecs:
    def test_bath_reproducible(self):
        a = sample_bath(8, 4.5e9, 3e9, 12, 1e-5, 0.33e18, 2)
        b = sample_bath(8, 4.5e9, 3e9, 12, 1e-5, 0.33e18, 2)
        assert a == b

    def test_bath_length_mismatch(self):
        with pytest.raises(ValueError):
            BathSpec(omegas=(1.0, 2.0), masses=(1.0,), couplings=(1.0, 1.0))

    def test_bath_positivity(self):
        with pytest.raises(ValueError):
            BathSpec(omegas=(1.0, -2.0), masses=(1.0, 1.0), couplings=(1.0, 1.0))

    def test_system_dx(self):
        assert SystemSpec(1.0, 0.0, 2.0, -1.0).dx == 3.0

    def test_mass_cancellation_in_coupling_ratio(self):
        # C_k^2/m_k is mass-independent for mass-proportional couplings
        for m in (1e-20, 1.0, 7.3):
            c = couplings_from_masses([m], 1e-5, 0.33e18, prefactor=2)[0]
            assert c * c / m == pytest.approx(4 * 1e-5 * 0.33e18 / math.pi, rel=1e-12)


class TestBathArrays:
    def test_built_once_and_read_only(self):
        bath = BathSpec(omegas=(1.0, 2.0), masses=(1.0, 3.0), couplings=(0.5, 0.7))
        arrays = bath.arrays()
        assert all(a is b for a, b in zip(arrays, bath.arrays()))
        for a, field in zip(arrays, (bath.omegas, bath.masses, bath.couplings)):
            assert a.dtype == float and a.tolist() == list(field)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 9.0
        assert bath.omegas == (1.0, 2.0)

    def test_indexed_arrays_are_copies(self):
        bath = BathSpec(omegas=(1.0, 2.0, 3.0), masses=(1.0,) * 3, couplings=(0.5,) * 3)
        w, m, c = bath.arrays([2, 0])
        assert w.tolist() == [3.0, 1.0] and m.tolist() == [1.0, 1.0]
        w[0] = 9.0
        assert bath.arrays()[0].tolist() == [1.0, 2.0, 3.0]

    def test_equality_and_hash(self):
        a = BathSpec(omegas=(1.0, 2.0), masses=(1.0, 1.0), couplings=(0.5, 0.7))
        b = BathSpec(omegas=(1.0, 2.0), masses=(1.0, 1.0), couplings=(0.5, 0.7))
        c = BathSpec(omegas=[1, 2], masses=np.ones(2), couplings=(0.5, 0.7))
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert type(c.omegas) is tuple and all(type(v) is float for v in c.omegas)
        assert a != BathSpec(omegas=(1.0, 2.5), masses=(1.0, 1.0), couplings=(0.5, 0.7))

    def test_empty_bath(self):
        bath = BathSpec(omegas=(), masses=(), couplings=())
        assert bath.n == 0 and all(a.shape == (0,) for a in bath.arrays())

    def test_nested_sequence_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(omegas=((1.0, 2.0),), masses=(1.0,), couplings=(1.0,))

    def test_builders_return_float_tuples(self):
        w = sample_frequencies(5, 4.5e9, 3e9, seed=2)
        c = couplings_from_masses([1.0, 2.0], 1e-5, 0.33e18, prefactor=2)
        for values in (w, c):
            assert type(values) is tuple and all(type(v) is float for v in values)
        assert c[1] == 2 * math.sqrt(1e-5 * 2.0 * 0.33e18 / math.pi)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_couplings_reject_bad_masses(self, bad):
        with pytest.raises(ValueError):
            couplings_from_masses([1.0, bad], 1e-5, 0.33e18)
