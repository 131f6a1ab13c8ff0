"""The three workloads: one op each, and the checks every op must pass.

An op calls the public entry points in process: `qbmsbs.cli.main([...])`
and the README library functions. Its check fails it on an exception or a
nonzero exit code, missing or unparseable output, a factor outside (0, 1],
output bytes that differ from the run's first op, or a relative error above
the workload's tolerance against the stored reference. scan_grid also fails
an op whose avg_gamma rises or avg_b falls along T at fixed r.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relative differences below this are rounding between equally exact
# methods; they move 10x with summation order (macro_avg measures 0 to
# 1.4e-14 over bath seeds 1-6), so max_rel_err adds this floor to the
# measured error instead of reading them as regressions.
ERR_FLOOR = 1e-12

_LOG_TINY = math.log(5e-324)  # exp() of anything below rounds to 0.0


@dataclass
class Check:
    items: int = 0
    rel_err: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def compare(self, what: str, out, ref, tol: float, rel_floor: float = 0.0) -> None:
        """Relative error of out against ref, over entries with |ref| >=
        rel_floor, kept in rel_err; records a problem above tol."""
        out, ref = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
        if out.shape != ref.shape:
            self.problems.append(f"{what}: shape {out.shape} != reference {ref.shape}")
            return
        mask = (np.abs(ref) >= rel_floor) & (ref != 0.0)
        if not mask.any():
            return
        err = float(np.max(np.abs(out[mask] - ref[mask]) / np.abs(ref[mask])))
        if not err <= tol:
            self.problems.append(f"{what}: relative error {err:.3e} above {tol:g}")
        self.rel_err = max(self.rel_err, err)

    def compare_log(self, what: str, values, log_ref, tol: float) -> None:
        """Error of log(values) against log_ref relative to max(1, |log_ref|):
        the factor's relative error while it is near 1, its exponent's once
        it has decayed. Exact zeros (checked by factors) are skipped."""
        v, lr = np.asarray(values, dtype=float), np.asarray(log_ref, dtype=float)
        if v.shape != lr.shape:
            self.problems.append(f"{what}: shape {v.shape} != reference {lr.shape}")
            return
        keep = v > 0.0
        err = float(np.max(np.abs(np.log(v[keep]) - lr[keep])
                           / np.maximum(1.0, np.abs(lr[keep])), initial=0.0))
        if not err <= tol:
            self.problems.append(f"{what}: relative error {err:.3e} above {tol:g}")
        self.rel_err = max(self.rel_err, err)

    def same(self, what: str, out, ref) -> None:
        if not np.allclose(out, ref, rtol=1e-12, atol=0.0):
            self.problems.append(f"{what} differs from the requested values")

    def factors(self, what: str, values, log_ref=None) -> None:
        """Every factor in (0, 1]; with log_ref, an exact 0.0 is accepted
        where the reference factor is below the smallest float64."""
        v = np.asarray(values, dtype=float)
        ok = (v > 0.0) & (v <= 1.0)
        if log_ref is not None:
            ok |= (v == 0.0) & (np.asarray(log_ref) < _LOG_TINY)
        if v.size == 0 or not np.all(ok):
            self.problems.append(f"{what}: factor outside (0, 1]")


def _csv(path: Path, header: str) -> np.ndarray:
    text = path.read_text()
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not '{header}'")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != header.count(",") + 1:
        raise ValueError(f"{path.name}: malformed rows")
    return data


def _sidecar(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("generated_at")  # the one field allowed to differ between ops
    return doc


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class Workload:
    name = ""
    item_unit = ""
    tolerance = 0.0

    def __init__(self, q, paths: dict[str, Path], inp: dict, out_dir: Path):
        self.q, self.paths, self.inp, self.out = q, paths, inp, out_dir

    def out_files(self) -> list[Path]:
        raise NotImplementedError

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict, ref: dict) -> Check:
        raise NotImplementedError

    def resolved(self) -> dict:
        """The averaging horizon and sample count the op resolves, if any."""
        return {"tau_s": None, "n_samples": None}

    def _main(self, *argv) -> int:
        return self.q.cli.main([str(a) for a in argv])

    def _config(self, name: str):
        """The RunConfig the CLI builds from the stored config `name`."""
        return self.q.config.RunConfig.from_json(Path(self.paths[name]).read_text())


class ScanGrid(Workload):
    name, item_unit = "scan_grid", "(T, r) cells"
    tolerance = 5e-2
    rel_floor = 1e-2  # smaller cells at high T are start-up transient

    def out_files(self):
        return [self.out / "grid.csv", self.out / "grid.csv.json"]

    def op(self):
        return {"rc": [self._main("scan", "--config", self.paths["scan"],
                                  "--out", self.out / "grid.csv")]}

    def check(self, result, ref):
        c = Check()
        csv_path, side = self.out_files()
        data = _csv(csv_path, "T,r,avg_gamma,avg_b")
        values = ref["values"]
        nt, nr = len(values["t_values"]), len(values["r_values"])
        if data.shape[0] != nt * nr:
            raise ValueError(f"{csv_path.name}: {data.shape[0]} rows, expected {nt * nr}")
        g = data[:, 2].reshape(nt, nr)
        b = data[:, 3].reshape(nt, nr)
        c.same("T axis", data[::nr, 0], values["t_values"])
        c.same("r axis", data[:nr, 1], values["r_values"])
        c.factors("avg_gamma", g)
        c.factors("avg_b", b)
        if np.any(np.diff(g, axis=0) > 0.0):
            c.problems.append("avg_gamma increases along T")
        if np.any(np.diff(b, axis=0) < 0.0):
            c.problems.append("avg_b decreases along T")
        c.compare("avg_gamma", g, values["avg_gamma"], self.tolerance, self.rel_floor)
        c.compare("avg_b", b, values["avg_b"], self.tolerance, self.rel_floor)
        c.items = g.size
        c.digest = _digest(csv_path.read_bytes(), _sidecar(side))
        return c

    def resolved(self):
        cfg = self._config("scan")
        bath, system = self.q.config.build_bath(cfg), self.q.config.build_system(cfg)
        tau = self.q.fullmodel.default_averaging_time(bath)
        return {"tau_s": tau,
                "n_samples": self.q.fullmodel.default_sample_count(bath, system, tau)}


class SeriesFull(Workload):
    name, item_unit = "series_full", "time points written"
    tolerance = 5e-2

    def out_files(self):
        return [self.out / f"{r}.csv" for r in ("full", "pqml", "qml")] + \
            [self.out / f"{r}.csv.json" for r in ("full", "pqml", "qml")]

    def op(self):
        q, p = self.q, self.inp["params"]
        rc = [self._main("full", "--config", self.paths["full"], "--out",
                         self.out / "full.csv", "--tau", repr(p["full_tau"])),
              self._main("pqml", "--config", self.paths["pqml"], "--out",
                         self.out / "pqml.csv"),
              self._main("qml", "--config", self.paths["qml"], "--out",
                         self.out / "qml.csv")]
        f = p["formation"]
        bath = q.pkg.sample_bath(f["n"], f["omega_bar"], f["delta"], seed=f["seed"],
                                 mass_M=f["mass_M"], gamma0=f["gamma0"],
                                 prefactor=f["prefactor"])
        system = q.pkg.SystemSpec(mass_M=f["mass_M"], omega_big=f["omega_big"],
                                  x1=0.0, x2=f["x2"])
        env = q.pkg.EnvInitState(temperature=f["temperature"], squeezing_r=0.0)
        part = q.pkg.make_partition(f["n"], f["unobserved_size"], [f["mac_size"]])
        res = q.pkg.formation_time("full", partition=part, epsilon=f["epsilon"],
                                   t_max=f["t_max"], t_steps=f["t_steps"], bath=bath,
                                   system=system, env_state=env)
        return {"rc": rc, "formation": [res.reached, res.time, res.max_after_crossing]}

    def check(self, result, ref):
        c = Check()
        values = ref["values"]
        sidecars = []
        for regime in ("full", "pqml", "qml"):
            run = self.inp["configs"][regime]["run"]
            data = _csv(self.out / f"{regime}.csv", "t,gamma,b")
            if data.shape[0] != run["t_steps"]:
                raise ValueError(f"{regime}.csv: {data.shape[0]} rows, "
                                 f"expected {run['t_steps']}")
            c.same(f"{regime} t", data[:, 0],
                   np.linspace(0.0, run["t_max"], run["t_steps"]))
            c.factors(f"{regime} gamma", data[:, 1])
            c.factors(f"{regime} b", data[:, 2])
            idx = values[regime]["index"]
            c.compare_log(f"{regime} gamma(t)", data[idx, 1],
                          values[regime]["log_gamma"], 1e-9)
            c.compare_log(f"{regime} b(t)", data[idx, 2], values[regime]["log_b"], 1e-9)
            c.items += data.shape[0]
            sidecars.append(_sidecar(self.out / f"{regime}.csv.json"))
        full = sidecars[0]
        c.factors("sidecar averages", [full["avg_gamma"], full["avg_b"]])
        c.compare("avg_gamma", full["avg_gamma"], values["avg_gamma"], self.tolerance)
        c.compare("avg_b", full["avg_b"], values["avg_b"], self.tolerance)
        reached, time, _ = result["formation"]
        if reached != (values["formation_time"] is not None) or (
                reached and not math.isclose(time, values["formation_time"],
                                             rel_tol=1e-12)):
            c.problems.append(f"formation time {time} != reference "
                              f"{values['formation_time']}")
        c.digest = _digest(*(p.read_bytes() for p in self.out_files()[:3]),
                           sidecars, result["formation"])
        return c

    def resolved(self):
        cfg = self._config("full")
        tau = self.inp["params"]["full_tau"]
        return {"tau_s": tau, "n_samples": self.q.fullmodel.default_sample_count(
            self.q.config.build_bath(cfg), self.q.config.build_system(cfg), tau)}


class MacroAvg(Workload):
    name, item_unit = "macro_avg", "oscillator factors averaged"
    tolerance = 1e-9

    def out_files(self):
        return [self.out / "macro.csv", self.out / "macro.csv.json"]

    def op(self):
        q = self.q
        rc = self._main("pqml", "--config", self.paths["macro"],
                        "--out", self.out / "macro.csv")
        cfg = self._config("macro")
        cfg.validate()
        units = q.config.build_units(cfg)
        scaling = q.analysis.macrofraction_scaling(
            "pqml", self.inp["params"]["sizes"], bath=q.config.build_bath(cfg),
            system=q.config.build_system(cfg), env_state=q.config.build_env(cfg, units),
            units=units)
        return {"rc": [rc], "scaling": [list(p) for p in scaling.points]}

    def check(self, result, ref):
        c = Check()
        values = ref["values"]
        csv_path, side_path = self.out_files()
        data = _csv(csv_path, "t,gamma,b")
        # 5e4 oscillators drive gamma below the smallest float64 within a
        # few steps; the CSV then holds the correctly rounded 0.0
        for col, key in ((1, "gamma"), (2, "b")):
            log_ref = values[f"log_{key}_series"]
            c.factors(key, data[:, col], log_ref)
            c.compare_log(f"{key}(t)", data[:, col], log_ref, self.tolerance)
        side = _sidecar(side_path)
        logs = [side["log_avg_gamma"], side["log_avg_b"]] + \
            [v for _, v in result["scaling"]]
        if not all(math.isfinite(v) and v <= 0.0 for v in logs):
            c.problems.append("log average outside (-inf, 0]")
        for key in ("i0_arguments_gamma", "i0_arguments_b", "log_avg_gamma", "log_avg_b"):
            c.compare(key, side[key], values[key], self.tolerance)
        if [s for s, _ in result["scaling"]] != [s for s, _ in values["scaling"]]:
            c.problems.append("scaling sizes differ from the request")
        else:
            c.compare("scaling", [v for _, v in result["scaling"]],
                      [v for _, v in values["scaling"]], self.tolerance)
        c.items = (len(side["i0_arguments_gamma"]) + len(side["i0_arguments_b"])
                   + max(s for s, _ in result["scaling"]))
        c.digest = _digest(csv_path.read_bytes(), side, result["scaling"])
        return c


WORKLOADS = {w.name: w for w in (ScanGrid, SeriesFull, MacroAvg)}
