import pytest

from qbmsbs.config import (ConfigError, RunConfig, build_bath, build_env,
                           build_partition, build_system, build_units)
from qbmsbs.units import HBAR_SI, KB_SI


def minimal_scan_doc():
    return {
        "regime": "scan",
        "env": {"temperature": 0.1},
        "run": {"t_range": {"values": [0.1, 1.0]},
                "r_range": {"values": [0.0]}},
    }


class TestParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.bath.n == 20
        assert cfg.bath.omega_bar == 4.5e9
        assert cfg.system.mass_M == 1e-5
        assert cfg.system.omega_big == 3e8
        assert cfg.system.x2 == 1e-9
        assert cfg.bath.gamma0 == 0.33e18
        assert cfg.run.epsilon == 0.01

    def test_round_trip(self):
        cfg = RunConfig.from_dict(minimal_scan_doc())
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_round_trip_with_overrides(self):
        doc = minimal_scan_doc()
        doc["bath"] = {"n": 4, "seed": 9, "couplings": [1.0, 1.0, 1.0, 1.0]}
        doc["partition"] = {"unobserved_size": 2, "mac_sizes": [2]}
        cfg = RunConfig.from_dict(doc)
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert cfg.bath.couplings == [1.0, 1.0, 1.0, 1.0]

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="bathh"):
            RunConfig.from_dict({"bathh": {}})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="omega_barr"):
            RunConfig.from_dict({"bath": {"omega_barr": 1.0}})

    def test_bad_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            RunConfig.from_dict({"regime": "lindblad"})

    def test_non_object_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"bath": [1, 2]})

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json("{not json")


class TestValidation:
    def test_scan_doc_valid(self):
        RunConfig.from_dict(minimal_scan_doc()).validate()

    def test_series_needs_time_grid(self):
        cfg = RunConfig.from_dict({"regime": "full", "env": {"temperature": 0.1}})
        with pytest.raises(ConfigError, match="t_max"):
            cfg.validate()

    def test_qml_needs_beta_or_temperature(self):
        cfg = RunConfig.from_dict(
            {"regime": "qml", "run": {"t_max": 1.0, "t_steps": 5}})
        with pytest.raises(ConfigError, match="beta"):
            cfg.validate()

    def test_scan_needs_ranges(self):
        cfg = RunConfig.from_dict({"regime": "scan", "env": {"temperature": 0.1}})
        with pytest.raises(ConfigError, match="t_range"):
            cfg.validate()

    def test_output_format_checked(self):
        doc = minimal_scan_doc()
        doc["output"] = {"format": "xml"}
        with pytest.raises(ConfigError, match="format"):
            RunConfig.from_dict(doc).validate()

    def test_threads_positive(self):
        doc = minimal_scan_doc()
        doc["run"]["threads"] = 0
        with pytest.raises(ConfigError, match="threads"):
            RunConfig.from_dict(doc).validate()

    @pytest.mark.parametrize("field, value", [
        ("tau", -1.0), ("tau", 0.0), ("tau", float("nan")), ("tau", float("inf")),
        ("n_samples", 999)])
    def test_inert_run_knobs_still_validated(self, field, value):
        doc = minimal_scan_doc()
        doc["run"][field] = value
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict(doc).validate()

    @pytest.mark.parametrize("value", [1.5, float("nan"), float("inf"), 0.0, -1.0])
    def test_epsilon_in_unit_interval(self, value):
        doc = minimal_scan_doc()
        doc["run"]["epsilon"] = value
        with pytest.raises(ConfigError, match=r"run\.epsilon must lie in \(0, 1\]"):
            RunConfig.from_dict(doc).validate()

    def test_epsilon_one_accepted(self):
        doc = minimal_scan_doc()
        doc["run"]["epsilon"] = 1.0
        RunConfig.from_dict(doc).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_t_max_finite(self, value):
        cfg = RunConfig.from_dict({"regime": "full", "env": {"temperature": 0.1},
                                   "run": {"t_max": value, "t_steps": 5}})
        with pytest.raises(ConfigError, match="t_max"):
            cfg.validate()


class TestBuilders:
    def test_units_defaults_are_si(self):
        units = build_units(RunConfig())
        assert units.hbar == HBAR_SI
        assert units.k_boltzmann == KB_SI

    def test_bath_reproducible_and_sized(self):
        cfg = RunConfig.from_dict({"bath": {"n": 6, "seed": 5}})
        b1, b2 = build_bath(cfg), build_bath(cfg)
        assert b1 == b2
        assert b1.n == 6

    def test_explicit_couplings_used(self):
        cfg = RunConfig.from_dict(
            {"bath": {"n": 2, "couplings": [1.5, 2.5]}})
        assert build_bath(cfg).couplings == (1.5, 2.5)

    def test_coupling_length_mismatch(self):
        cfg = RunConfig.from_dict({"bath": {"n": 3, "couplings": [1.0]}})
        with pytest.raises(ConfigError):
            build_bath(cfg)

    def test_pqml_regime_zeroes_system_frequency(self):
        cfg = RunConfig.from_dict({"regime": "pqml"})
        assert build_system(cfg).omega_big == 0.0
        cfg_full = RunConfig.from_dict({"regime": "full"})
        assert build_system(cfg_full).omega_big == 3e8

    def test_env_from_temperature(self):
        cfg = RunConfig.from_dict({"env": {"temperature": 0.3, "squeezing_r": 0.7}})
        env = build_env(cfg, build_units(cfg))
        assert env.temperature == 0.3
        assert env.squeezing_r == 0.7

    def test_env_from_beta(self):
        cfg = RunConfig.from_dict({"env": {"beta": 2.0}})
        units = build_units(cfg)
        env = build_env(cfg, units)
        assert env.temperature == pytest.approx(1.0 / (units.k_boltzmann * 2.0),
                                                rel=1e-15)

    def test_env_requires_some_temperature(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            build_env(cfg, build_units(cfg))

    def test_partition_from_sizes(self):
        cfg = RunConfig.from_dict(
            {"bath": {"n": 6}, "partition": {"unobserved_size": 2, "mac_sizes": [3]}})
        part = build_partition(cfg)
        assert part.unobserved == (0, 1)
        assert part.macrofractions == ((2, 3, 4),)
