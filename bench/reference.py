"""Independent references for the benchmark's max_rel_err, one per workload
input set.

The references are written here from the paper's formulas rather than taken
from qbmsbs, so a change to the library cannot move its own yardstick. The
one exception is the I0 quadrature oracle, `specfun.bessel_i0_oracle`,
which the library keeps as its test oracle.

- scan_grid: the same time-sampled average as the scan, at 10x the default
  horizon and the same sample density.
- series_full: the factors at a fixed subsample of the series times, the
  README formation time, and the sidecar averages at 10x their horizon.
- macro_avg: the log factor series, the I0 arguments, and the log averages
  and scaling points summed with math.fsum over oracle log-I0 values.

A reference takes seconds to minutes, so it runs in a child process (which
keeps its memory out of the benchmark's peak RSS) and is stored under
.bench_work/refs, keyed by this file and the workload inputs. Regenerate one
with

    python3 bench/reference.py --workload scan_grid --seed 7 [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs as workload_inputs

HORIZON = 10          # reference horizon as a multiple of the checked one
ORACLE_PANELS = 256   # trapezoid panels; spectrally converged for a < 100
_CHUNK = 1 << 15


class Model:
    """Bath and system arrays rebuilt from a config document, with the
    config's default unit oscillator masses."""

    def __init__(self, cfg: dict, omega_big: float | None = None):
        b, s, u = cfg["bath"], cfg["system"], cfg["units"]
        rng = np.random.default_rng(b["seed"])
        self.w = rng.uniform(b["omega_bar"] - b["delta"] / 2.0,
                             b["omega_bar"] + b["delta"] / 2.0, size=b["n"])
        self.c = np.full(b["n"], b["coupling_prefactor"]
                         * math.sqrt(s["mass_M"] * 1.0 * b["gamma0"] / math.pi))
        self.m = np.ones(b["n"])
        self.omega_big = s["omega_big"] if omega_big is None else omega_big
        self.dx = abs(s["x2"] - s["x1"])
        self.hbar, self.kb = u["hbar"], u["k_boltzmann"]
        p = cfg["partition"]
        self.unobserved = np.arange(p["unobserved_size"])
        self.mac = np.arange(p["unobserved_size"],
                             p["unobserved_size"] + p["mac_sizes"][0])

    def weight(self, idx, temperature, which: str) -> np.ndarray:
        th = np.tanh(self.hbar * self.w[idx] / (2.0 * self.kb * temperature))
        return 1.0 / th if which == "gamma" else th

    def amplitude_parts(self, idx, t):
        """(P, Q) with the squeezed amplitude e^{-2r} P + e^{2r} Q, from the
        complex displacement z = e^{iwt}(w cos Ot - iO sin Ot) - w."""
        w, c, m = self.w[idx, None], self.c[idx, None], self.m[idx, None]
        o = self.omega_big
        wt = w * t
        cw, sw = np.cos(wt), np.sin(wt)
        co, so = np.cos(o * t), np.sin(o * t)
        zr = w * (cw * co - 1.0) + o * sw * so
        zi = w * sw * co - o * cw * so
        s = c * c / (2.0 * m * w * (w * w - o * o) ** 2 * self.hbar)
        return s * zr * zr, s * zi * zi

    def log_factor(self, idx, t, temperature, r, which: str) -> np.ndarray:
        """log factor at each time, the oscillator sum taken with math.fsum."""
        p, q = self.amplitude_parts(idx, np.asarray(t, dtype=float))
        terms = self.weight(idx, temperature, which)[:, None] * (
            math.exp(-2.0 * r) * p + math.exp(2.0 * r) * q)
        half_dx2 = 0.5 * self.dx ** 2
        return np.array([-half_dx2 * math.fsum(col) for col in terms.T.tolist()])

    def default_horizon(self) -> tuple[float, int]:
        """1e4 periods of the slowest oscillator, 20 samples per period of
        the fastest harmonic."""
        tau = 1e4 * 2.0 * math.pi / self.w.min()
        return tau, self.sample_count(tau)

    def sample_count(self, tau: float) -> int:
        f_max = 2.0 * (self.w.max() + self.omega_big)
        return max(1000, math.ceil(20.0 * tau * f_max / (2.0 * math.pi)))


def _time_average(model: Model, tau: float, n: int, groups, rs) -> list[np.ndarray]:
    """Midpoint-rule average over [0, tau] of exp(-(dx^2/2) W A_r) for each
    (idx, W) group, W a (rows, k) weight matrix, and each squeeze r in rs.
    Returns one (rows, len(rs)) array per group."""
    sums = [np.zeros((wm.shape[0], len(rs))) for _, wm in groups]
    half_dx2 = 0.5 * model.dx ** 2
    dt = tau / n
    for start in range(0, n, _CHUNK):
        t = (np.arange(start, min(start + _CHUNK, n)) + 0.5) * dt
        for total, (idx, wm) in zip(sums, groups):
            p, q = model.amplitude_parts(idx, t)
            wp, wq = wm @ p, wm @ q
            for j, r in enumerate(rs):
                x = math.exp(-2.0 * r) * wp + math.exp(2.0 * r) * wq
                total[:, j] += np.exp(-half_dx2 * x).sum(axis=1)
    return [total / n for total in sums]


def scan_reference(inp: dict) -> dict:
    cfg = inp["configs"]["scan"]
    model = Model(cfg)
    run = cfg["run"]
    tr = run["t_range"]
    temps = np.logspace(math.log10(tr["min"]), math.log10(tr["max"]), tr["points"])
    rs = run["r_range"]["values"]
    if run.get("tau") is not None:
        tau, n = run["tau"], run["n_samples"]
    else:
        tau, n = model.default_horizon()
    groups = [(model.unobserved,
               np.stack([model.weight(model.unobserved, T, "gamma") for T in temps])),
              (model.mac, np.stack([model.weight(model.mac, T, "b") for T in temps]))]
    avg_g, avg_b = _time_average(model, HORIZON * tau, HORIZON * n, groups, rs)
    return {"t_values": temps.tolist(), "r_values": list(rs),
            "avg_gamma": avg_g.tolist(), "avg_b": avg_b.tolist(),
            "tau": HORIZON * tau, "n_samples": HORIZON * n}


def series_reference(inp: dict) -> dict:
    def subsample(run):  # 64 fixed, evenly spread indices of the series
        idx = sorted(set(np.linspace(0, run["t_steps"] - 1, 64).round().astype(int).tolist()))
        return idx, np.linspace(0.0, run["t_max"], run["t_steps"])[idx]

    out: dict = {}
    for regime in ("full", "pqml"):
        cfg = inp["configs"][regime]
        env, run = cfg["env"], cfg["run"]
        model = Model(cfg, omega_big=0.0 if regime == "pqml" else None)
        idx, t = subsample(run)
        r = env.get("squeezing_r", 0.0)
        out[regime] = {
            "index": idx,
            "log_gamma": model.log_factor(model.unobserved, t, env["temperature"],
                                          r, "gamma").tolist(),
            "log_b": model.log_factor(model.mac, t, env["temperature"], r, "b").tolist()}

    cfg = inp["configs"]["qml"]
    model = Model(cfg)
    run, beta = cfg["run"], cfg["env"]["beta"]
    idx, t = subsample(run)
    half_dx2 = 0.5 * model.dx ** 2
    c2g = math.fsum((model.c[model.unobserved] ** 2).tolist())
    c2b = math.fsum((model.c[model.mac] ** 2).tolist())
    out["qml"] = {"index": idx,
                  "log_gamma": (-half_dx2 * t * t * c2g / math.tanh(beta / 2)).tolist(),
                  "log_b": (-half_dx2 * t * t * c2b * math.tanh(beta / 2)).tolist()}

    # the README formation_time call: first grid time with both factors <= eps
    f = inp["params"]["formation"]
    fcfg = {"bath": {"n": f["n"], "omega_bar": f["omega_bar"], "delta": f["delta"],
                     "seed": f["seed"], "gamma0": f["gamma0"],
                     "coupling_prefactor": f["prefactor"]},
            "system": {"mass_M": f["mass_M"], "omega_big": f["omega_big"],
                       "x1": 0.0, "x2": f["x2"]},
            "partition": {"unobserved_size": f["unobserved_size"],
                          "mac_sizes": [f["mac_size"]]},
            "units": inp["configs"]["full"]["units"]}
    model = Model(fcfg)
    t = np.linspace(0.0, f["t_max"], f["t_steps"])
    g = np.exp(model.log_factor(model.unobserved, t, f["temperature"], 0.0, "gamma"))
    b = np.exp(model.log_factor(model.mac, t, f["temperature"], 0.0, "b"))
    hits = np.nonzero((g <= f["epsilon"]) & (b <= f["epsilon"]))[0]
    out["formation_time"] = float(t[hits[0]]) if hits.size else None

    # the full sidecar's numeric averages, at 10x their horizon
    cfg = inp["configs"]["full"]
    model = Model(cfg)
    env = cfg["env"]
    tau = inp["params"]["full_tau"]
    n = model.sample_count(tau)
    groups = [(idx, model.weight(idx, env["temperature"], which)[None, :])
              for idx, which in ((model.unobserved, "gamma"), (model.mac, "b"))]
    avg_g, avg_b = _time_average(model, HORIZON * tau, HORIZON * n, groups,
                                 [env["squeezing_r"]])
    out["avg_gamma"], out["avg_b"] = float(avg_g[0, 0]), float(avg_b[0, 0])
    return out


def macro_reference(inp: dict) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from qbmsbs.specfun import bessel_i0_oracle

    cfg = inp["configs"]["macro"]
    model = Model(cfg, omega_big=0.0)
    temperature = cfg["env"]["temperature"]
    every = np.arange(len(model.w))

    def args(idx, which):
        w, c, m = model.w[idx], model.c[idx], model.m[idx]
        return (0.5 * model.dx ** 2 * c * c * model.weight(idx, temperature, which)
                / (m * w ** 3 * model.hbar))

    def log_terms(a):
        return [-z + math.log(bessel_i0_oracle(z, ORACLE_PANELS)) for z in a.tolist()]

    run = cfg["run"]
    t = np.linspace(0.0, run["t_max"], run["t_steps"])
    series = {f"log_{which}_series": model.log_factor(idx, t, temperature, 0.0,
                                                       which).tolist()
              for idx, which in ((model.unobserved, "gamma"), (model.mac, "b"))}
    a_g, a_b = args(model.unobserved, "gamma"), args(every, "b")
    terms_g, terms_b = log_terms(a_g), log_terms(a_b)
    mac = model.mac.tolist()
    return {"i0_arguments_gamma": a_g.tolist(),
            "i0_arguments_b": a_b[mac[0]:mac[-1] + 1].tolist(),
            "log_avg_gamma": math.fsum(terms_g),
            "log_avg_b": math.fsum(terms_b[mac[0]:mac[-1] + 1]),
            "scaling": [[s, math.fsum(terms_b[:s])] for s in inp["params"]["sizes"]],
            **series}


BUILDERS = {"scan_grid": scan_reference, "series_full": series_reference,
            "macro_avg": macro_reference}


def _key(workload: str, inp: dict) -> str:
    text = Path(__file__).read_text() + json.dumps([workload, inp], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def regenerate_command(workload: str, seed: int, smoke: bool) -> str:
    return (f"python3 bench/reference.py --workload {workload} --seed {seed}"
            + (" --smoke" if smoke else ""))


def _path(root: Path, workload: str, key: str) -> Path:
    # keyed by the inputs, so seeds that share their inputs share the file
    return root / "refs" / f"{workload}-{key[:16]}.json"


def write(root: Path, workload: str, seed: int, smoke: bool) -> Path:
    inp = workload_inputs.generate(workload, seed, smoke)
    key = _key(workload, inp)
    doc = {"workload": workload, "seed": seed, "smoke": smoke, "key": key,
           "command": regenerate_command(workload, seed, smoke),
           "values": BUILDERS[workload](inp)}
    path = _path(root, workload, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)
    return path


def load(root: Path, workload: str, seed: int, smoke: bool, timeout: float) -> dict:
    """The stored reference, regenerated in a child process when missing."""
    path = _path(root, workload,
                 _key(workload, workload_inputs.generate(workload, seed, smoke)))
    if not path.exists():
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(seed), "--root", str(root)] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--root", default=".bench_work")
    args = ap.parse_args(argv)
    print(write(Path(args.root), args.workload, args.seed, args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
