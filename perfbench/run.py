"""mialab benchmark: back-to-back `mialab run` processes on one workload.

    python3 perfbench/run.py --workload cluster-demo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a source checkout; nothing needs installing. For
one workload the script generates the inputs from --seed, times a few
set-up probes, then runs `python -m mialab.cli run --jobs 1` as a closed
loop with one client for about --seconds. Every run's output is checked.
With --trace 1 every other run goes through traced_cli.py, which wraps
the library's public functions, and the per-layer metrics come from those
spans. The last line of stdout is the JSON result; the lines before it
print the environment and every metric with its unit and sample count.
`--workload all` runs every workload in turn and prints only the tables.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 8  # timed set-up probes per run, after one untimed warm-up
RUN_BUDGET_S = 170.0  # a child still running this long after start is killed

RESULT_HEADER = [
    "epsilon", "attack", "scenario", "repetition", "tpr", "fpr", "advantage",
    "member_acc", "nonmember_acc", "validation_acc", "sigma", "realized_epsilon",
]
SHADOW_SKIP_NOTE = re.compile(r"^rep \d+ \S+ eps=\S+: shadow attack skipped")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cells_per_s": "1/s", "rss_peak_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ms", "_ms_tail")):
        return "ms"
    if name.endswith(("_share", "_ratio", "_skipped")):
        return "ratio"
    return "count"


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    traced: bool
    error: "str | None" = None
    sha: str = ""
    campaign_s: float = math.nan
    layer_metrics: dict = field(default_factory=dict)


# Children run single-threaded BLAS, so one run uses one core. On 2 cores
# with a second busy process, wide-dp took 23-27 s with OpenBLAS's default
# of one thread per core and 5.7-6.0 s with one thread; on an idle machine
# the two settings ran within noise of each other.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list, cwd: Path, env: dict, log: Path, timeout: float):
    """Run one child to completion; return (wall seconds, exit code, peak
    RSS in MB). The child is timed until it exits and its own peak memory
    is read with wait4. It is killed if it outlives `timeout`."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            # Wait without reaping, so a late kill can only hit the zombie.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def expected_cells(doc: dict) -> int:
    return doc.get("repetitions", 1) * 2 * len(doc["epsilon_grid"])


def check_output(out: Path, doc: dict) -> tuple["str | None", dict, str]:
    """Check one run's artifacts; return (error or None, manifest, sha256
    of results.csv)."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        data = (out / "results.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return f"missing or unreadable output: {exc}", {}, ""
    sha = hashlib.sha256(data).hexdigest()
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != RESULT_HEADER:
        return f"unexpected results.csv header {rows[:1]}", manifest, sha
    skips = sum(1 for note in manifest.get("notes", ()) if SHADOW_SKIP_NOTE.match(note))
    want = expected_cells(doc) * len(doc["attacks"]) - skips
    if len(rows) - 1 != want:
        return f"results.csv has {len(rows) - 1} rows, expected {want}", manifest, sha
    for i, row in enumerate(rows[1:], start=2):
        rec = dict(zip(RESULT_HEADER, row))
        advantage = float(rec["advantage"])
        if not -1.0 <= advantage <= 1.0:
            return f"results.csv line {i}: advantage {advantage} outside [-1, 1]", manifest, sha
        eps = float(rec["epsilon"])
        realized = float(rec["realized_epsilon"])
        if math.isfinite(eps) and not 0.99 * eps <= realized <= eps:
            return (
                f"results.csv line {i}: realized epsilon {realized} outside "
                f"[0.99 * {eps}, {eps}]"
            ), manifest, sha
    return None, manifest, sha


def one_run(wl: workloads.Workload, seed: int, env: dict, index: int, traced: bool,
            reference_sha: "str | None", timeout: float) -> Run:
    out = wl.cwd / f"run{index}"
    spans = wl.cwd / f"spans{index}.json"
    args = ["run", "--config", str(wl.config), "--out", str(out),
            "--seed", str(seed), "--jobs", "1"]
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
    else:
        cmd = [sys.executable, "-m", "mialab.cli", *args]
    log = wl.cwd / f"run{index}.stderr"
    wall, code, rss = spawn(cmd, wl.cwd, env, log, timeout)
    run = Run(wall_s=wall, rss_mb=rss, traced=traced)
    if code != 0:
        run.error = f"exit code {code}: {log.read_text(errors='replace').strip()[-500:]}"
        return run
    run.error, manifest, run.sha = check_output(out, wl.doc)
    if run.error is None and reference_sha is not None and run.sha != reference_sha:
        run.error = "results.csv differs from the first run at this seed"
    if run.error is not None:
        return run
    timings = manifest["timings_seconds"]
    run.campaign_s = timings["campaign"]
    if traced:
        skips = sum(1 for n in manifest["notes"] if SHADOW_SKIP_NOTE.match(n))
        run.layer_metrics = layers.run_metrics(
            json.loads(spans.read_text(encoding="utf-8")), timings["write"], skips
        )
        spans.unlink()
    shutil.rmtree(out)
    log.unlink()
    return run


def _read(path: str) -> "str | None":
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """What the numbers depend on: cores and CPU limit, CPU model, library
    versions, BLAS, and the code's revision."""
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:  # cgroup v1
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = None if quota is None else f"{quota} {period} (cgroup v1)"
    model = next(
        (line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mialab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max,
        "cpu_model": model,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_default_threads": _blas_threads(),
        "run_thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _tail(values) -> str:
    p = layers.tail_percentile(len(values))
    if p is None:
        return "n/a (n<20)"
    return f"p{p:g}={layers.percentile(values, p):.6g}"


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> "dict | None":
    """Benchmark one workload; print its table and return the result."""
    started = time.perf_counter()
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.generate(name, ROOT, seed, work, tiny)
    env = child_env()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    errors: list[str] = []
    probes = []
    probe_cmd = [sys.executable, str(HERE / "setup_probe.py"), str(wl.config), str(seed)]
    for i in range(SETUP_PROBES + 1):
        wall, code, _ = spawn(probe_cmd, work, env, work / "probe.stderr", remaining())
        if code != 0:
            errors.append(f"setup probe exit code {code}: "
                          f"{(work / 'probe.stderr').read_text(errors='replace')[-500:]}")
        elif i > 0:  # the first probe warms the file cache and bytecode
            probes.append(wall)

    runs: list[Run] = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        ref = next((r.sha for r in runs if r.error is None), None)
        run = one_run(wl, seed, env, len(runs), traced, ref, remaining())
        runs.append(run)
        if run.error is not None:
            errors.append(f"run {len(runs) - 1}{' (traced)' if traced else ''}: {run.error}")
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(r.wall_s for r in runs)
        if len(runs) >= (2 if trace else 1) and (
            elapsed + typical > seconds or typical > remaining()
        ):
            break

    attempted = len(runs) + SETUP_PROBES + 1
    failed = len(errors)
    ok = [r for r in runs if r.error is None]
    plain = [r for r in ok if not r.traced]
    traced_runs = [r for r in ok if r.traced]
    for line in errors:
        print(f"FAILED {name}: {line}")
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(runs)} runs "
          f"({len(runs) - len(traced_runs)} untraced, {len(traced_runs)} traced) in "
          f"{time.perf_counter() - loop_start:.1f} s, {len(probes)} set-up probes")
    print(f"  error_rate       {failed / attempted:.4g}  ({failed} of {attempted} attempted)")
    if not plain or not probes or (trace and not traced_runs):
        print(f"{name}: no successful runs to measure", file=sys.stderr)
        return None

    samples = {
        "run_s": [r.wall_s for r in plain],
        "setup_s": probes,
        "cells_per_s": [expected_cells(wl.doc) / r.campaign_s for r in plain],
        "rss_peak_mb": [r.rss_mb for r in plain],
    }
    end_to_end = {k: statistics.median(v) for k, v in samples.items()}
    for key, values in samples.items():
        print(f"  {key:<16} {end_to_end[key]:<12.6g} {END_TO_END_UNITS[key]:<5} "
              f"n={len(values):<3} tail {_tail(values)}")

    if trace:
        keys = traced_runs[0].layer_metrics.keys()
        per_layer = {k: statistics.median(r.layer_metrics[k] for r in traced_runs) for k in keys}
        per_layer["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced_runs) - end_to_end["run_s"]
        )
        campaign = per_layer["experiments.campaign_s"]
        for key in sorted(per_layer):
            unit = per_layer_unit(key)
            share = (f"{100 * per_layer[key] / campaign:5.1f}% of campaign"
                     if unit == "s" and campaign and not key.startswith(("cli.", "trace."))
                     else "")
            print(f"  {key:<28} {per_layer[key]:<12.6g} {unit:<5} "
                  f"n={len(traced_runs):<3} {share}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    if not errors:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to about a second per run (smoke test)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/mialab/cli.py", "configs/cluster_amplification.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a mialab source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [bench(n, args.seed, args.seconds, bool(args.trace), args.tiny) for n in names]
    if any(r is None for r in results):
        return 1
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
