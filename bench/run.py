"""qbmsbs benchmark: one workload per run, single process, single thread.

    python3 bench/run.py --workload scan_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ./src. A run

1. sets up: imports qbmsbs and validates and writes the workload's
   generated configs and call parameters. It times the same set-up in 4
   more fresh processes and reports the median of the 5 as setup_s. numpy
   is imported before, by the benchmark itself.
2. loads the workload's stored reference, computing it in a child process
   if it is missing (see reference.py);
3. runs one warm-up op, which is checked but not timed;
4. runs ops in a closed loop, each started when the previous one and its
   check have finished, until the ops have taken --seconds in total.

With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
half the window untraced and half with every qbmsbs function wrapped (see
tracing.py), and prints the per-layer metrics: the medians over the traced
ops, plus the tracing overhead as traced minus untraced op_p50_s.

Every attempted op, warm-up included, is checked (see workloads.py) and
counted in `attempted` and, if it fails, in `failed`; fail_ratio is their
quotient. The last line of stdout is the result as JSON; a fuller record,
with run facts, per-op times and trace spans, goes to
.bench_work/results/<workload>-seed<seed>-trace<0|1>.json.

--smoke runs every workload at tiny sizes and checks that each metric of
BENCHMARK.json is printed with its unit and that a deliberately corrupted
output is counted as a failed op. --setup-only is the set-up timing child.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import inputs
import reference
from tracing import Tracer
from workloads import ERR_FLOOR, WORKLOADS, Check

SETUP_PROCESSES = 5
TAIL_BEYOND = 10
REFERENCE_TIMEOUT_S = 150.0
MODULES = ("analysis", "bath", "cli", "config", "fullmodel", "pqml", "qml",
           "specfun", "units")

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "items_per_s": "items/s", "peak_rss_mb": "MB", "max_rel_err": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes_out") else "count"


def setup(workload: str, seed: int, smoke: bool, work: Path):
    """Import qbmsbs, then validate and write the workload's configs and call
    parameters; returns the modules, the inputs, their paths and the time."""
    t0 = time.perf_counter()
    q = types.SimpleNamespace(pkg=importlib.import_module("qbmsbs"))
    for name in MODULES:
        setattr(q, name, importlib.import_module(f"qbmsbs.{name}"))
    inp = inputs.generate(workload, seed, smoke)
    paths = {}
    for name, doc in inp["configs"].items():
        cfg = q.config.RunConfig.from_dict(doc)
        cfg.validate()
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if q.config.RunConfig.from_json(paths[name].read_text()) != cfg:
            raise RuntimeError(f"config {name} does not survive a round trip")
    (work / "params.json").write_text(json.dumps(inp["params"], sort_keys=True))
    return q, inp, paths, time.perf_counter() - t0


def setup_times(root: Path, workload: str, seed: int, smoke: bool) -> list[float]:
    """Set-up times of SETUP_PROCESSES - 1 fresh processes. Each process
    draws its own string-hash seed, which alone moves one set-up by up to
    60%, so set-up is sampled across processes rather than repeated in one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "tiny" if smoke else "full", "--workload", workload, "--seed", str(seed)]
    return [float(subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                                 text=True, timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROCESSES - 1)]


def _work_dir(root: Path, workload: str, seed: int) -> Path:
    work = root / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def _corrupt(path: Path) -> None:
    """Set the last field of the first data row to 1.5, outside (0, 1]."""
    lines = path.read_text().splitlines()
    head, _, _ = lines[1].rpartition(",")
    lines[1] = f"{head},1.5"
    path.write_text("\n".join(lines) + "\n")


def run_op(wl, ref: dict, first_digest: str | None, corrupt: bool) -> dict:
    for path in wl.out_files():
        path.unlink(missing_ok=True)
    # start every op from the same collector state, not from the garbage
    # the previous check left behind
    gc.collect()
    t0 = time.perf_counter()
    try:
        result, error = wl.op(), None
    except Exception:  # an op that raises is a failed op, not a failed run
        result, error = None, traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - t0
    if error is not None:
        check = Check(problems=[error])
    elif any(rc != 0 for rc in result["rc"]):
        check = Check(problems=[f"exit codes {result['rc']}"])
    else:
        if corrupt:
            _corrupt(wl.out_files()[0])
        try:
            check = wl.check(result, ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            check = Check(problems=[f"missing or unparseable output: {exc!r}"])
        if first_digest is not None and check.digest != first_digest:
            check.problems.append("output differs from the run's first op")
    return {"seconds": seconds, "ok": not check.problems, "items": check.items,
            "rel_err": check.rel_err, "digest": check.digest,
            "bytes_out": sum(p.stat().st_size for p in wl.out_files() if p.exists()),
            "problems": check.problems}


def tail(times: list[float]) -> dict:
    """The op time with TAIL_BEYOND slower ops beyond it. A run has 8 to 30
    timed ops, too few for that to lie above the median, so below 4 *
    TAIL_BEYOND ops the tail keeps a quarter of the ops beyond it (the
    upper quartile) instead."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return {"value": ordered[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "beyond": beyond, "ops": n}


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, corrupt_op: int | None = None, min_ops: int = 1) -> dict:
    work_root = root / ".bench_work"
    work = _work_dir(root, workload, seed)
    try:
        q, inp, paths, own_setup = setup(workload, seed, smoke, work)
        setups = [own_setup] + setup_times(root, workload, seed, smoke)
        ref = reference.load(work_root, workload, seed, smoke, REFERENCE_TIMEOUT_S)
        wl = WORKLOADS[workload](q, paths, inp, work)

        ops = [dict(run_op(wl, ref, None, corrupt_op == 0), phase="warm-up")]
        first = ops[0]["digest"]

        def window(phase: str, budget: float, tracer: Tracer | None = None) -> None:
            spent, count = 0.0, 0
            while spent < budget or count < min_ops:
                if tracer is not None:
                    tracer.reset()
                    origin = time.perf_counter()
                op = run_op(wl, ref, first, corrupt_op == len(ops))
                op["phase"] = phase
                if tracer is not None:
                    op["layers"] = tracer.layer_metrics()
                    op["spans"] = tracer.span_records(origin)
                ops.append(op)
                spent += op["seconds"]
                count += 1

        if trace:
            window("untraced", seconds / 2.0)
            with Tracer({"qbmsbs": q.pkg, **{m: getattr(q, m) for m in MODULES}}) as tr:
                window("traced", seconds / 2.0, tr)
        else:
            window("timed", seconds)
        facts = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "git_sha": git_sha(root), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "qbmsbs": q.pkg.__version__, "threads": 1, "loop": "closed, 1 client",
            "items": wl.item_unit,
            "reference_command": reference.regenerate_command(workload, seed, smoke),
            **wl.resolved()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [op for op in ops if op["phase"] in ("timed", "untraced")]
    times = [op["seconds"] for op in untraced]
    failed = sum(not op["ok"] for op in ops)
    op_tail = tail(times)
    if trace:
        traced = [op for op in ops if op["phase"] == "traced"]
        layers = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        layers["cli.bytes_out"] = statistics.median(op["bytes_out"] for op in traced)
        layers["trace.op_p50_s"] = statistics.median(op["seconds"] for op in traced)
        layers["trace.overhead_s"] = layers["trace.op_p50_s"] - statistics.median(times)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": op_tail["value"],
            "items_per_s": sum(op["items"] for op in untraced if op["ok"]) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_err": ERR_FLOOR + max(op["rel_err"] for op in ops),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {"facts": facts, "correct": failed == 0, "attempted": len(ops),
              "failed": failed, "fail_ratio": failed / len(ops), "op_tail": op_tail,
              "setup_times_s": setups, "metrics": metrics,
              "ops": [{k: v for k, v in op.items() if k != "digest"} for op in ops]}
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    record["result_file"] = str((results / f"{workload}-seed{seed}-trace{int(trace)}"
                                 f"{'-smoke' if smoke else ''}.json").relative_to(root))
    (root / record["result_file"]).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    f = record["facts"]
    print(f"workload {f['workload']}  seed {f['seed']}  trace {int(f['trace'])}  "
          f"{record['attempted']} ops, {record['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.3g})")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:<14.6g} {m['unit']}")
    t = record["op_tail"]
    print(f"  op_tail: p{t['percentile']:.1f} of {t['ops']} timed ops, "
          f"{t['beyond']} beyond; items are {f['items']}")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"  failed {op['phase']} op: {problem.strip()}")
    print("facts " + json.dumps(f, sort_keys=True))
    print(f"record {record['result_file']}")


def smoke(root: Path) -> int:
    """Tiny-size self-test of the benchmark itself."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((False, e2e), (True, layer)):
            rec = run(root, workload, 1, 0.2, trace, smoke=True)
            got = {k: m["unit"] for k, m in rec["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {int(trace)}: metrics {got} "
                                f"!= BENCHMARK.json {expected}")
            if rec["failed"]:
                problems.append(f"{workload} trace {int(trace)}: {rec['failed']} failed ops")
        rec = run(root, workload, 1, 0.0, False, smoke=True, corrupt_op=2, min_ops=3)
        if rec["failed"] != 1 or rec["correct"] or rec["ops"][2]["ok"]:
            problems.append(f"{workload}: corrupted op 2 not counted as the one failure")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test every workload at tiny sizes")
    ap.add_argument("--setup-only", choices=("full", "tiny"),
                    help="time one set-up at these sizes and print it")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qbmsbs" / "__init__.py").is_file():
        print("error: run from the repository root; src/qbmsbs not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.smoke:
        return smoke(root)
    if args.setup_only:
        work = _work_dir(root, args.workload, args.seed)
        try:
            print(setup(args.workload, args.seed, args.setup_only == "tiny", work)[3])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        ap.error("--workload, a non-negative --seed and positive --seconds are required")
    record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
