import json
import math

import pytest

from qbmsbs import fullmodel
from qbmsbs.cli import main
from qbmsbs.config import RunConfig, build_bath, build_env, build_partition, \
    build_system, build_units
from qbmsbs.qml import QmlParams, b_qml, gamma_qml


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


QML_DOC = {
    "bath": {"n": 4, "couplings": [1.0, 1.0, 1.0, 1.0]},
    "system": {"x1": 0.0, "x2": 1.0},
    "env": {"beta": 2.0},
    "partition": {"unobserved_size": 2, "mac_sizes": [2]},
    "run": {"t_max": 2.0, "t_steps": 5},
}

SCAN_DOC = {
    "bath": {"n": 3, "omega_bar": 2.0, "delta": 0.6, "seed": 1, "gamma0": 1.0,
             "coupling_prefactor": 1},
    "system": {"mass_M": 1.0, "omega_big": 0.4, "x1": 0.0, "x2": 2.0},
    "env": {"temperature": 0.1},
    "partition": {"unobserved_size": 2, "mac_sizes": [1]},
    "run": {"t_range": {"values": [0.1, 1.0]},
            "r_range": {"values": [0.0, 0.5]},
            "tau": 300.0, "n_samples": 4000},
    "units": {"hbar": 1.0, "k_boltzmann": 1.0},
}


FULL_DOC = {
    "bath": {"n": 3, "omega_bar": 2.0, "delta": 0.6, "seed": 1, "gamma0": 4.0,
             "coupling_prefactor": 1},
    "system": {"mass_M": 1.0, "omega_big": 0.4, "x1": 0.0, "x2": 2.0},
    "env": {"temperature": 1.0, "squeezing_r": 0.5},
    "partition": {"unobserved_size": 2, "mac_sizes": [1]},
    "run": {"t_max": 20.0, "t_steps": 50},
    "units": {"hbar": 1.0, "k_boltzmann": 1.0},
}


def read_sidecar(path):
    side = json.loads(path.read_text())
    side.pop("generated_at")
    side.pop("config")
    return side


class TestQmlCommand:
    def test_series_matches_library(self, tmp_path):
        out = tmp_path / "series.csv"
        cfg = write_config(tmp_path, QML_DOC)
        assert main(["qml", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "gamma", "b"]
        assert len(rows) == 5
        params = QmlParams(dx=1.0, beta_eff=2.0, couplings=(1.0,) * 4)
        for t, g, b in rows:
            assert g == pytest.approx(gamma_qml(t, params, idx=[0, 1]), rel=1e-14)
            assert b == pytest.approx(b_qml(t, params, idx=[2, 3]), rel=1e-14)
        assert rows[0][1] == 1.0 and rows[0][2] == 1.0

    def test_sidecar_contents(self, tmp_path):
        out = tmp_path / "series.csv"
        cfg = write_config(tmp_path, QML_DOC)
        main(["qml", "--config", cfg, "--out", str(out)])
        side = json.loads((tmp_path / "series.csv.json").read_text())
        assert side["config"]["env"]["beta"] == 2.0
        # beta = 2, C^2 mean = 1, dx = 1: 1/tau_d = sqrt(coth(1)/2)
        assert side["tau_d_unobserved"] == pytest.approx(
            math.sqrt(2.0 * math.tanh(1.0)), rel=1e-12)
        assert side["tau_b_macrofraction"] >= side["tau_d_macrofraction"]
        assert side["formation_time_analytic"] > 0
        assert "generated_at" in side

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "series.csv"
        doc = {k: v for k, v in QML_DOC.items() if k != "run"}
        cfg = write_config(tmp_path, doc)
        assert main(["qml", "--config", cfg, "--out", str(out),
                     "--t-max", "1.0", "--t-steps", "3"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert rows[-1][0] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, QML_DOC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["qml", "--config", cfg, "--out", str(out1)])
        main(["qml", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestPqmlCommand:
    def test_run_and_sidecar_averages(self, tmp_path):
        doc = {
            "bath": {"n": 4, "seed": 3},
            "env": {"temperature": 0.1},
            "partition": {"unobserved_size": 2, "mac_sizes": [2]},
            "run": {"t_max": 1e-9, "t_steps": 7},
        }
        out = tmp_path / "pqml.csv"
        cfg = write_config(tmp_path, doc)
        assert main(["pqml", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 7
        assert all(0.0 < g <= 1.0 and 0.0 < b <= 1.0 for _, g, b in rows)
        side = json.loads((tmp_path / "pqml.csv.json").read_text())
        assert side["log_avg_gamma"] < 0.0
        assert len(side["i0_arguments_gamma"]) == 2
        assert all(a > 0 for a in side["i0_arguments_b"])


class TestFullCommand:
    def test_sidecar_averages_without_tau(self, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["full", "--config", write_config(tmp_path, FULL_DOC),
                     "--out", str(out)]) == 0
        side = read_sidecar(tmp_path / "full.csv.json")
        assert 0.0 < side["avg_gamma"] < side["avg_b"] < 1.0
        assert side["average"] == "infinite-time torus quadrature"
        assert side["quadrature_tolerance"] == fullmodel.TORUS_TOLERANCE
        for factor in ("gamma", "b"):
            assert len(side["quadrature_nodes"][factor]) == 2
            assert side["quadrature_capped"][factor] is False
            assert side["convergence"][factor] <= side["quadrature_tolerance"]

    def test_tau_and_n_samples_have_no_effect(self, tmp_path):
        cfg = write_config(tmp_path, FULL_DOC)
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        assert main(["full", "--config", cfg, "--out", str(plain)]) == 0
        assert main(["full", "--config", cfg, "--out", str(timed),
                     "--tau", "300", "--n-samples", "4000"]) == 0
        assert plain.read_bytes() == timed.read_bytes()
        assert read_sidecar(tmp_path / "plain.csv.json") == \
            read_sidecar(tmp_path / "timed.csv.json")

    def test_averages_match_long_time_average(self, tmp_path):
        # the frequencies are uniform draws, rationally independent of each
        # other and of Omega, as the phase-torus average assumes
        out = tmp_path / "full.csv"
        assert main(["full", "--config", write_config(tmp_path, FULL_DOC),
                     "--out", str(out)]) == 0
        side = read_sidecar(tmp_path / "full.csv.json")
        cfg = RunConfig.from_dict(dict(FULL_DOC, regime="full"))
        units = build_units(cfg)
        bath, system, env = build_bath(cfg), build_system(cfg), build_env(cfg, units)
        part = build_partition(cfg)
        tau = 4000 * 2 * math.pi / system.omega_big
        n = fullmodel.default_sample_count(bath, system, tau)
        for factor, idx in (("gamma", part.unobserved), ("b", part.macrofractions[0])):
            num = fullmodel.time_average_numeric(factor, bath, system, env, idx, tau,
                                                 n, units)
            # the tau vs tau/2 difference estimates the finite-horizon error
            # to within a factor of order one
            assert abs(side[f"avg_{factor}"] - num.value) <= 2.0 * num.convergence

    def test_unconverged_average_warns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fullmodel, "TORUS_TOLERANCE", -1.0)
        out = tmp_path / "full.csv"
        with pytest.warns(UserWarning, match="not converged"):
            assert main(["full", "--config", write_config(tmp_path, FULL_DOC),
                         "--out", str(out)]) == 0
        side = read_sidecar(tmp_path / "full.csv.json")
        assert side["quadrature_capped"] == {"gamma": True, "b": True}


class TestScanCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, SCAN_DOC)
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["T", "r", "avg_gamma", "avg_b"]
        assert len(rows) == 4
        assert all(0.0 < g <= 1.0 and 0.0 < b <= 1.0 for _, _, g, b in rows)

    def test_thread_count_gives_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_DOC)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s3.csv"
        main(["scan", "--config", cfg, "--out", str(out1), "--threads", "1"])
        main(["scan", "--config", cfg, "--out", str(out2), "--threads", "3"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_sidecar_reports_quadrature(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = write_config(tmp_path, SCAN_DOC)
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        side = json.loads((tmp_path / "scan.csv.json").read_text())
        assert side["average"] == "infinite-time torus quadrature"
        for factor in ("gamma", "b"):
            assert len(side["quadrature_nodes"][factor]) == 2
            assert len(side["quadrature_capped"][factor]) == 2
            assert len(side["convergence"][factor]) == 2
            assert all(len(row) == 2 for row in side["convergence"][factor])

    def test_json_format(self, tmp_path):
        doc = dict(SCAN_DOC)
        doc["output"] = {"path": "unused", "format": "json"}
        out = tmp_path / "scan.json"
        cfg = write_config(tmp_path, doc)
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        grid = json.loads(out.read_text())
        assert grid["t_values"] == [0.1, 1.0]
        assert grid["r_values"] == [0.0, 0.5]
        assert len(grid["avg_gamma"]) == 2 and len(grid["avg_gamma"][0]) == 2
        assert grid["bath_fingerprint"]["seed"] == 1

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_DOC)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["scan", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["scan", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("regime", ["qml", "pqml", "full", "scan"])
def test_b_uses_only_the_first_macrofraction(tmp_path, regime):
    # a second macrofraction is validated but changes no number
    doc = {**FULL_DOC, "bath": {**FULL_DOC["bath"], "n": 8},
           "env": {"temperature": 1.0}, "run": {**FULL_DOC["run"], **SCAN_DOC["run"]}}
    outs = []
    for macs in ([3, 4], [3]):
        doc["partition"] = {"unobserved_size": 1, "mac_sizes": macs}
        out = tmp_path / f"{len(macs)}.csv"
        assert main([regime, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, {"bath": {"bogus": 1}})
        assert main(["qml", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["qml", "--config", str(tmp_path / "nope.json")]) == 2

    def test_incomplete_config(self, tmp_path):
        cfg = write_config(tmp_path, {"env": {"temperature": 0.1}})
        assert main(["full", "--config", cfg]) == 2

    def test_resonance_guard(self, tmp_path):
        doc = {
            "bath": {"n": 2, "omega_bar": 3e8, "delta": 0.0},
            "env": {"temperature": 0.1},
            "partition": {"unobserved_size": 1, "mac_sizes": [1]},
            "run": {"t_max": 1e-9, "t_steps": 3},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "full.csv"
        assert main(["full", "--config", cfg, "--out", str(out)]) == 3

    @pytest.mark.parametrize("section, fields", [
        ("bath", {"n": "3"}),
        ("bath", {"n": True}),
        ("bath", {"seed": 1.5}),
        ("system", {"x2": "1e-9"}),
        ("run", {"threads": "2"}),
    ])
    def test_mistyped_field(self, tmp_path, capsys, section, fields):
        doc = json.loads(json.dumps(SCAN_DOC))
        doc[section].update(fields)
        cfg = write_config(tmp_path, doc)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err

    @pytest.mark.parametrize("axis", ["t_range", "r_range"])
    def test_nonfinite_scan_axis(self, tmp_path, axis):
        doc = json.loads(json.dumps(SCAN_DOC))
        doc["run"][axis] = {"values": [float("nan"), 1.0]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, fields", [
        ("env", {"temperature": math.nan}),
        ("env", {"temperature": math.inf}),
        ("env", {"squeezing_r": math.nan}),
        ("system", {"x2": math.inf}),
        ("system", {"omega_big": math.nan}),
        ("bath", {"omega_bar": math.nan}),
        ("run", {"t_max": math.nan}),
        ("units", {"hbar": math.nan}),
    ])
    def test_nonfinite_input(self, tmp_path, capsys, section, fields):
        doc = json.loads(json.dumps(FULL_DOC))
        doc[section].update(fields)
        out = tmp_path / "full.csv"
        assert main(["full", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["qml", "pqml", "full"])
    @pytest.mark.parametrize("flags", [["--t-max=-1e-9"], ["--t-steps", "0"],
                                       ["--t-steps", "1"]],
                             ids=["negative_t_max", "t_steps_0", "t_steps_1"])
    def test_unphysical_time_grid(self, tmp_path, capsys, regime, flags):
        doc = QML_DOC if regime == "qml" else FULL_DOC
        out = tmp_path / "series.csv"
        assert main([regime, "--config", write_config(tmp_path, doc),
                     "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "nan", "0", "-1"])
    def test_epsilon_out_of_range(self, tmp_path, capsys, value):
        out = tmp_path / "qml.csv"
        assert main(["qml", "--config", write_config(tmp_path, QML_DOC),
                     "--out", str(out), f"--epsilon={value}"]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_epsilon_one_accepted(self, tmp_path):
        out = tmp_path / "qml.csv"
        assert main(["qml", "--config", write_config(tmp_path, QML_DOC),
                     "--out", str(out), "--epsilon=1"]) == 0
        side = json.loads((tmp_path / "qml.csv.json").read_text())
        assert side["formation_time"] == 0.0

    @pytest.mark.parametrize("flags", [["--tau", "-1"], ["--tau", "nan"],
                                       ["--tau", "inf"], ["--n-samples", "999"]])
    def test_inert_flags_still_validated(self, tmp_path, flags):
        out = tmp_path / "full.csv"
        assert main(["full", "--config", write_config(tmp_path, FULL_DOC),
                     "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) >= 5
        assert all(line.startswith("PASS") for line in lines)
