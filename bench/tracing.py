"""Tracing from outside the library: wrap qbmsbs functions, restore after.

Every public function of every qbmsbs module is replaced by a timing
wrapper, under its own module and under every module that rebinds it by
name (`pqml.bessel_i0` and `analysis.bessel_i0` are one function), together
with the config and serialisation methods the layers name. Each wrapper adds
its call count, inclusive time and the time of its wrapped children to
per-function totals in place; self time is inclusive minus children.

Per-oscillator functions (HOT) only update those totals. Every other call
also records a span (name, start, end, parent span) in memory, which the
benchmark writes into its result file.

The benchmark runs single-threaded, so no layer waits on a queue or a lock:
there is no waiting time to report, only busy time.
"""

from __future__ import annotations

import time
import types

import numpy as np

HOT = frozenset({
    "specfun.bessel_i0", "specfun.i0_asymptotic", "specfun.bessel_i0_oracle",
    "fullmodel.alpha_sq_full", "fullmodel.re_alpha_sq_full",
    "fullmodel.alpha_sq_squeezed", "fullmodel.full_amplitude",
    "pqml.pqml_propagator",
})

METHODS = {
    "config": {"RunConfig": ("from_json", "validate")},
    "analysis": {"ScanGrid": ("to_csv_text", "to_json_dict")},
}

_SERIES_CUTOFF = 700.0  # specfun switches to the asymptotic branch above it


def _points(stat, args, kwargs, result):
    t = args[0] if args else kwargs["t"]
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    stat["points"] += np.size(t) * np.size(omega)


def _asymptotic(stat, args, kwargs, result):
    if (args[0] if args else kwargs["z"]) > _SERIES_CUTOFF:
        stat["asymptotic"] += 1


def _value(stat, args, kwargs, result):
    stat["value"] = float(result)


def _samples(stat, args, kwargs, result):
    stat["samples"] += result.n_samples


def _cells(stat, args, kwargs, result):
    stat["cells"] += len(result.t_values) * len(result.r_values)


def _oscillators(stat, args, kwargs, result):
    stat["oscillators"] += result.n


HOOKS = {
    "fullmodel.alpha_sq_full": ("points", _points),
    "fullmodel.re_alpha_sq_full": ("points", _points),
    "specfun.bessel_i0": ("asymptotic", _asymptotic),
    "fullmodel.default_averaging_time": ("value", _value),
    "fullmodel.default_sample_count": ("value", _value),
    "fullmodel.time_average_numeric": ("samples", _samples),
    "analysis.scan_tr": ("cells", _cells),
    "config.build_bath": ("oscillators", _oscillators),
    "bath.sample_bath": ("oscillators", _oscillators),
}


class Tracer:
    """Installs wrappers on the given qbmsbs modules; use as a context
    manager so the originals come back even when an op raises."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.stats: dict[str, dict] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            for key in stat:
                stat[key] = 0
        self.spans = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "incl": 0.0, "child": 0.0})
        extra, hook = HOOKS.get(name, (None, None))
        if extra:
            stat[extra] = 0
        stack, clock, hot = self._stack, time.perf_counter, name in HOT
        tracer = self

        def traced(*args, **kwargs):
            if hot:
                frame = [0.0, stack[-1][1] if stack else None]
            else:
                frame = [0.0, len(tracer.spans)]
                tracer.spans.append([name, clock(), None,
                                     stack[-1][1] if stack else None])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                stat["calls"] += 1
                stat["incl"] += t1 - t0
                stat["child"] += frame[0]
                if not hot:
                    tracer.spans[frame[1]][2] = t1
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for short, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in self.modules.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and wrappers[id(fn)][0] is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)][1])
        for short, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(self.modules[short], cls_name)
                for attr in names:
                    raw = cls.__dict__[attr]
                    self._restore.append((cls, attr, raw))
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the ops traced since the last reset."""
        def get(name, key):
            # a function a later version renames or removes reads as 0
            return self.stats.get(name, {}).get(key, 0)

        def incl(*names):
            return sum(get(n, "incl") for n in names)

        def self_time(name):
            return get(name, "incl") - get(name, "child")

        amp = ("fullmodel.alpha_sq_full", "fullmodel.re_alpha_sq_full")
        return {
            "fullmodel.amp_s": incl(*amp),
            "fullmodel.amp_calls": sum(get(n, "calls") for n in amp),
            "fullmodel.amp_points": sum(get(n, "points") for n in amp),
            "fullmodel.series_self_s": self_time("fullmodel.log_factor_series"),
            "fullmodel.avg_numeric_self_s": self_time("fullmodel.time_average_numeric"),
            "fullmodel.avg_numeric_samples": get("fullmodel.time_average_numeric", "samples"),
            "fullmodel.tau_s": get("fullmodel.default_averaging_time", "value"),
            "fullmodel.n_samples": get("fullmodel.default_sample_count", "value"),
            "analysis.scan_self_s": self_time("analysis.scan_tr"),
            "analysis.scan_cells": get("analysis.scan_tr", "cells"),
            "analysis.formation_s": incl("analysis.formation_time"),
            "analysis.evaluate_self_s": self_time("analysis.evaluate_factors"),
            "analysis.scaling_self_s": self_time("analysis.macrofraction_scaling"),
            "specfun.i0_s": incl("specfun.bessel_i0"),
            "specfun.i0_calls": get("specfun.bessel_i0", "calls"),
            "specfun.i0_asymptotic_calls": get("specfun.bessel_i0", "asymptotic"),
            "pqml.series_s": incl("pqml.log_factor_series"),
            "pqml.bessel_args_s": incl("pqml.bessel_arguments"),
            "pqml.avg_self_s": self_time("pqml.avg_analytic"),
            "bath.build_s": incl("config.build_bath", "bath.sample_bath"),
            "bath.oscillators": get("config.build_bath", "oscillators")
            + get("bath.sample_bath", "oscillators"),
            "config.load_s": incl("config.RunConfig.from_json", "config.RunConfig.validate"),
            "cli.write_s": incl("cli.write_series_csv", "cli.write_sidecar",
                                "analysis.ScanGrid.to_csv_text",
                                "analysis.ScanGrid.to_json_dict"),
            "qml.s": sum(self_time(n) for n in self.stats if n.startswith("qml.")),
        }

    def span_records(self, origin: float) -> list[list]:
        return [[name, round(start - origin, 6), round(end - origin, 6), parent]
                for name, start, end, parent in self.spans]
