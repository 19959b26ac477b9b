"""Smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload shrunk to a tiny size (`--tiny`), once untraced and
once traced, and checks that each run passes its output check and emits
exactly the metrics BENCHMARK.json names, with the units it gives. Then
checks that the benchmark fails, without printing a result, when the
checkout holds nothing but BENCHMARK.json and this directory.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, wanted: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    for name in sorted(set(wanted) ^ set(metrics)):
        problems.append(f"metric {name} is {'missing' if name in wanted else 'not in BENCHMARK.json'}")
    for name in sorted(set(wanted) & set(metrics)):
        value, unit = metrics[name]["value"], metrics[name]["unit"]
        if unit != wanted[name]:
            problems.append(f"{name}: unit {unit!r}, BENCHMARK.json says {wanted[name]!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "cluster-demo", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit code {proc.returncode}, last line {last[:80]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run_bench(ROOT, workload, trace), wanted[trace])
            failures += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
