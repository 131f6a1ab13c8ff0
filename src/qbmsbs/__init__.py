"""Decoherence and distinguishability factors for a central oscillator
coupled to a finite random bath, with spectrum-broadcast-structure detection."""

from .analysis import (FormationResult, SbsVerdict, ScanGrid, ScalingResult,
                       evaluate_factors, formation_time, macrofraction_scaling,
                       sbs_verdict, scan_tr)
from .bath import (BathSpec, EnvInitState, Partition, SystemSpec,
                   couplings_from_masses, make_partition, sample_bath,
                   sample_frequencies)
from .fullmodel import (ResonanceError, TimeAverage, TorusAverage, alpha_sq_full,
                        alpha_sq_squeezed, b_full, gamma_full, re_alpha_sq_full,
                        time_average_numeric, torus_average)
from .pqml import (AvgResult, PqmlPropagator, ScalingPrediction, avg_analytic,
                   avg_asymptotic, b_pqml, check_large_separation,
                   freq_averaged_scaling, gamma_pqml, pqml_propagator)
from .qml import QmlParams, Timescales, b_qml, gamma_qml, lln_factors, timescales
from .specfun import I0Result, bessel_i0, bessel_i0_oracle, i0_asymptotic, log_i0e
from .units import DIMENSIONLESS_UNITS, HBAR_SI, KB_SI, SI_UNITS, UnitContext

__version__ = "0.1.0"
