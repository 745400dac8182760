"""figplane benchmark: ``figplane verify`` end to end, and per layer when traced.

    python3 perfbench/run.py --workload maps-q7 --seed 1 --seconds 50 --trace 0

Run from the root of a figplane checkout; the program is imported from
``src``.  The load is a closed loop with one client: one ``figplane``
process at a time, no ``--jobs``.  Users pay interpreter start, import
and table set-up on every invocation, so every timed run is a fresh
process, timed from spawn to exit, with its CPU time and peak RSS taken
from ``wait4``.  Processes run back to back, at least two, while the
next one is expected to end within ``--seconds``; each report is checked.

``--trace 0`` also times set-up three times after each of those
processes: a fresh interpreter that imports figplane, builds the field
tables and enumerates the plane.  It prints the end-to-end metrics.
``--trace 1`` adds one traced run: a child that wraps the figplane
layers from outside (``tracer.py``) and calls the CLI in-process; it
prints the per-layer metrics and the tracing overhead.

Timings are medians over the run.  A run holds fewer than eleven
``figplane`` processes, so no tail percentile has the ten samples beyond
it that would support it.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when any report fails its check and 2 when the figplane
sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import layer_metrics, layer_seconds

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
MIN_RUNS = 2
SETUPS_PER_RUN = 3
DEADLINE_S = 170.0   # a run must end within 180 s

# name -> (q, suite).  Each names its suite, so none relies on the q >= 7
# default that skips suites.  BENCHMARK.json lists maps-q7 and all-q4; the
# other two are for runs by hand.  all-q5 takes about 55 s a process, too
# long for the benchmark's time budget, and census-q8 was left out so that
# the two listed workloads can run longer and read steadier.
WORKLOADS = {
    "census-q8": (8, "census"),
    "maps-q7": (7, "maps"),
    "all-q4": (4, "all"),
    "all-q5": (5, "all"),
}
EXPECTED = json.loads((HERE / "expected.json").read_text())

SETUP_CODE = ("import figplane; from figplane import context_for_q, ProjectivePlane; "
              "ctx = context_for_q({q}); ProjectivePlane(ctx)")


def check_report(workload: str, code: int, text: str) -> list[str]:
    """Problems with one ``verify --format json`` run; empty when it passed.

    Every entry must pass, and the invariant counts stored in
    expected.json (closed forms, taken from the seed reports) must match.
    Only the stored keys are compared, so sampled-mode fields such as
    ``mode`` and ``checked_pairs`` are free to change.
    """
    problems = [f"exit code {code}"] if code != 0 else []
    try:
        doc = json.loads(text)
        q = doc["header"]["q"]
        checks = {e["id"]: e for e in doc["checks"]}
        statuses = [(e["id"], e["status"]) for e in doc["checks"]]
        status = doc["status"]
    except (ValueError, KeyError, TypeError):
        return problems + ["unparsable report"]
    if q != WORKLOADS[workload][0]:
        problems.append(f"report is for q = {q}")
    if status != "pass":
        problems.append(f"report status {status}")
    problems += [f"{cid}: {st}" for cid, st in statuses if st != "pass"]
    for cid, want in EXPECTED[workload].items():
        counts = checks.get(cid, {}).get("counts")
        if not isinstance(counts, dict):
            problems.append(f"{cid}: missing")
            continue
        for key, value in want.items():
            if counts.get(key) != value:
                problems.append(f"{cid}: {key} = {counts.get(key)}, expected {value}")
    return problems


class Tally:
    """Attempted and failed runs; a failed run is left out of the timings."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, code: int, text: str) -> bool:
        self.attempted += 1
        problems = check_report(self.workload, code, text)
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def spawn(cmd: list[str], env: dict, timeout: float):
    """Run ``cmd`` to completion: (wall s, user+sys CPU s, peak RSS MiB, exit code, stdout)."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env)
        watchdog = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, text)


def blas_threads() -> int | None:
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    q, suite = WORKLOADS[workload]
    return {"workload": workload, "command": f"verify --q {q} --suite {suite}",
            "seed": seed, "q": q, "n": q ** 6 + q ** 3 + 1,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path("src")
    if not (src / "figplane" / "cli.py").is_file():
        print("perfbench: src/figplane not found; run from the root of a figplane checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    q, suite = WORKLOADS[args.workload]
    verify = ["verify", "--q", str(q), "--suite", suite, "--format", "json",
              "--seed", str(args.seed)]
    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    print("env " + json.dumps(environment(args.workload, args.seed)))
    tally = Tally(args.workload)
    walls, cpus, rsss, setups = [], [], [], []
    while True:
        lap = time.perf_counter()
        wall, cpu, rss, code, text = spawn(
            [sys.executable, "-m", "figplane.cli", *verify], env, remaining())
        if tally.record(code, text):
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
        for _ in range(0 if args.trace else SETUPS_PER_RUN):
            setup, _, _, code, _ = spawn(
                [sys.executable, "-c", SETUP_CODE.format(q=q)], env, remaining())
            if code != 0:
                print(f"set-up exited with {code}", file=sys.stderr)
                return 1
            setups.append(setup)
        # stop before a lap that would end past --seconds, as the last one
        # predicts, but after two at least: on a shared host CPU speed drifts
        # over tens of seconds, which one long process alone cannot average
        lap = time.perf_counter() - lap
        if (tally.attempted >= MIN_RUNS
                and time.perf_counter() - started + lap > args.seconds):
            break

    metrics = {}
    if walls and args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        wall, _, _, code, text = spawn(
            [sys.executable, str(HERE / "tracer.py"), "--out", spans_path,
             "--run-id", run_id, "--", *verify], env, remaining())
        if tally.record(code, text):
            with open(spans_path) as fh:
                spans = [json.loads(line) for line in fh]
            metrics = layer_metrics(spans)
            metrics["trace.wall_s"] = wall
            metrics["trace.overhead_s"] = wall - statistics.median(walls)
            shares = sorted(layer_seconds(spans).items(), key=lambda kv: -kv[1])
            print("layer self time, share of trace.wall_s: " + ", ".join(
                f"{layer} {sec:.3f} s ({sec / wall:.0%})" for layer, sec in shares))
    elif walls:
        metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                   "peak_rss_mb": statistics.median(rsss), "setup_s": statistics.median(setups)}

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    print(f"{args.workload}: fail_ratio {tally.failed}/{tally.attempted}; timings are "
          f"medians of n = {len(walls)} untraced runs"
          + ("" if args.trace else f", setup_s of n = {len(setups)}"))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:>14.6g} {unit}")
    result = {"correct": tally.failed == 0 and bool(metrics),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
