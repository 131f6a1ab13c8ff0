"""Identities the shared amplitude kernels must keep, checked on random inputs."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qbmsbs import fullmodel, pqml, qml  # noqa: E402
from qbmsbs.analysis import evaluate_factors  # noqa: E402
from qbmsbs.bath import BathSpec, EnvInitState, SystemSpec, make_partition  # noqa: E402
from qbmsbs.units import DIMENSIONLESS_UNITS as UNITLESS  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)

positive = st.floats(0.2, 5.0)
times = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=20)


@st.composite
def baths(draw, min_size=1, max_size=4):
    k = draw(st.integers(min_size, max_size))
    return BathSpec(omegas=draw(st.lists(positive, min_size=k, max_size=k)),
                    masses=draw(st.lists(positive, min_size=k, max_size=k)),
                    couplings=draw(st.lists(positive, min_size=k, max_size=k)))


def off_resonance(omegas, omega_big):
    return all(abs(w - omega_big) > 0.05 for w in omegas)


@SETTINGS
@given(bath=baths(), omega_big=st.floats(0.0, 3.0), temperature=positive,
       r=st.floats(-2.0, 3.0), dx=positive, tt=times,
       which=st.sampled_from(["decoherence", "distinguishability"]))
def test_series_is_weighted_sum_of_squeezed_amplitudes(bath, omega_big, temperature, r,
                                                       dx, tt, which):
    assume(off_resonance(bath.omegas, omega_big))
    system = SystemSpec(mass_M=1.0, omega_big=omega_big, x1=0.0, x2=dx)
    env = EnvInitState(temperature=temperature, squeezing_r=r)
    got = fullmodel.log_factor_series(tt, bath, system, env, None, which, UNITLESS)
    weights = pqml.thermal_weight(bath.omegas, temperature, UNITLESS, which)
    for t, value in zip(tt, got):
        terms = [g * fullmodel.alpha_sq_squeezed(t, w, omega_big, m, c, r, UNITLESS)
                 for g, w, m, c in zip(weights, bath.omegas, bath.masses, bath.couplings)]
        ref = -0.5 * dx ** 2 * math.fsum(terms)
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-300)


@SETTINGS
@given(w=positive, omega_big=st.floats(0.0, 3.0), m=positive, c=positive,
       r=st.floats(-4.0, 4.0), tt=times)
def test_squeezed_amplitude_nonnegative_and_thermal_at_zero_r(w, omega_big, m, c, r, tt):
    assume(off_resonance([w], omega_big))
    tt = np.array(tt)
    assert np.all(fullmodel.alpha_sq_squeezed(tt, w, omega_big, m, c, r, UNITLESS) >= 0.0)
    assert np.array_equal(fullmodel.alpha_sq_squeezed(tt, w, omega_big, m, c, 0.0, UNITLESS),
                          fullmodel.alpha_sq_full(tt, w, omega_big, m, c, UNITLESS))


@SETTINGS
@given(w=positive, m=positive, c=positive, tt=times)
def test_zero_system_frequency_amplitude_is_pqml(w, m, c, tt):
    got = fullmodel.alpha_sq_full(np.array(tt), w, 0.0, m, c, UNITLESS)
    ref = [abs(pqml.pqml_propagator(t, w, m, c, UNITLESS).alpha) ** 2 for t in tt]
    # both forms lose digits near phase revivals; compare on the amplitude's scale
    scale = 2.0 * c * c / (m * w ** 3)
    assert np.allclose(got, ref, rtol=1e-10, atol=1e-12 * scale)


@SETTINGS
@given(bath=baths(), temperature=positive, dx=positive, tt=times,
       which=st.sampled_from(["decoherence", "distinguishability"]))
def test_zero_system_frequency_series_is_pqml(bath, temperature, dx, tt, which):
    system = SystemSpec(mass_M=1.0, omega_big=0.0, x1=0.0, x2=dx)
    env = EnvInitState(temperature=temperature)
    full = fullmodel.log_factor_series(tt, bath, system, env, None, which, UNITLESS)
    flat = pqml.log_factor_series(tt, bath, system, env, None, which, UNITLESS)
    scale = 2.0 * float(np.sum(pqml.bessel_arguments(bath, system, env, None, which,
                                                     UNITLESS)))
    assert np.allclose(full, flat, rtol=1e-10, atol=1e-12 * scale)


@SETTINGS
@given(couplings=st.lists(positive, min_size=2, max_size=6), beta=positive,
       dx=positive, tt=times, data=st.data())
def test_qml_series_matches_scalar_factors(couplings, beta, dx, tt, data):
    n = len(couplings)
    unobserved = data.draw(st.integers(0, n - 1))
    partition = make_partition(n, unobserved, [n - unobserved])
    params = qml.QmlParams(dx=dx, beta_eff=beta, couplings=tuple(couplings))
    g, b = evaluate_factors("qml", tt, partition=partition, qml_params=params)
    for t, gv, bv in zip(tt, g, b):
        assert gv == pytest.approx(qml.gamma_qml(t, params, partition.unobserved),
                                   rel=1e-14)
        assert bv == pytest.approx(qml.b_qml(t, params, partition.macrofractions[0]),
                                   rel=1e-14)


def assert_unit_factor(log_values):
    """0 < factor <= 1, checked on the logs so that an underflowed factor
    does not hide a wrong sign."""
    log_values = np.asarray(log_values)
    assert np.all(np.isfinite(log_values)) and np.all(log_values <= 0.0)


def assert_gamma_below_b(log_gamma, log_b):
    """Gamma <= B on one index set: cth >= th weigh the same amplitudes."""
    log_gamma, log_b = np.asarray(log_gamma), np.asarray(log_b)
    assert np.all(log_gamma <= log_b + 1e-12 * np.abs(log_b))


@SETTINGS
@given(couplings=st.lists(positive, min_size=1, max_size=6), beta=positive,
       dx=positive, tt=times, data=st.data())
def test_qml_factors_ordered_and_in_unit_interval(couplings, beta, dx, tt, data):
    params = qml.QmlParams(dx=dx, beta_eff=beta, couplings=tuple(couplings))
    idx = data.draw(st.lists(st.sampled_from(range(len(couplings))), unique=True))
    log_g, log_b = qml.log_gamma_qml(tt, params, idx), qml.log_b_qml(tt, params, idx)
    assert_unit_factor(log_g)
    assert_unit_factor(log_b)
    assert_gamma_below_b(log_g, log_b)


@SETTINGS
@given(bath=baths(), omega_big=st.floats(0.0, 3.0), temperature=positive,
       r=st.floats(-2.0, 3.0), dx=positive, tt=times,
       regime=st.sampled_from(["pqml", "full"]))
def test_series_factors_ordered_and_in_unit_interval(bath, omega_big, temperature, r,
                                                     dx, tt, regime):
    model = {"pqml": pqml, "full": fullmodel}[regime]
    if regime == "pqml":
        omega_big, r = 0.0, 0.0
    assume(off_resonance(bath.omegas, omega_big))
    system = SystemSpec(mass_M=1.0, omega_big=omega_big, x1=0.0, x2=dx)
    env = EnvInitState(temperature=temperature, squeezing_r=r)
    log_g, log_b = (model.log_factor_series(tt, bath, system, env, None, which, UNITLESS)
                    for which in ("decoherence", "distinguishability"))
    assert_unit_factor(log_g)
    assert_unit_factor(log_b)
    assert_gamma_below_b(log_g, log_b)


@settings(max_examples=15, deadline=None)
@given(bath=baths(max_size=3), omega_big=st.floats(0.0, 3.0), temperature=positive,
       r=st.floats(-1.5, 1.5), dx=st.floats(0.2, 1.5))
def test_torus_average_ordered_and_in_unit_interval(bath, omega_big, temperature, r, dx):
    assume(off_resonance(bath.omegas, omega_big))
    assume(len(set(bath.omegas)) == bath.n)
    system = SystemSpec(mass_M=1.0, omega_big=omega_big, x1=0.0, x2=dx)
    weights = np.stack([pqml.thermal_weight(bath.omegas, temperature, UNITLESS, which)
                        for which in ("decoherence", "distinguishability")])
    avg = fullmodel.torus_average(bath, system, range(bath.n), weights, r, UNITLESS)
    assert_unit_factor(avg.log_value)
    assert_gamma_below_b(avg.log_value[0], avg.log_value[1])
