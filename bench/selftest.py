"""Self-test of the benchmark: a few ops per workload, in both modes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the last line is the result object, that the traced run writes its spans
when it ends, and that the benchmark refuses to run without the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OPS = 4


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "60", "--trace", str(trace), "--ops", str(OPS)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list:
    spans_file = BENCH / "out" / f"spans-{workload}-seed7.json"
    spans_file.unlink(missing_ok=True)
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] != OPS:
        problems.append(f"attempted {result['attempted']}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in named}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in named:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {m['name']}: {got}")
        if not any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            problems.append(f"metric {m['name']} not printed with its unit")
    if trace and not spans_file.is_file():
        problems.append(f"no spans file {spans_file.name}")
    elif trace:
        # every other op is traced
        spans = json.loads(spans_file.read_text(encoding="utf-8"))
        ops = [s for s in spans if s["name"] == "op"]
        calls = [s for s in spans if s["parent"] is not None]
        if (len(ops) != OPS // 2 or not calls
                or any(s["end_ns"] < s["start_ns"] for s in spans)):
            problems.append(f"spans file {spans_file.name}: {len(ops)} op spans")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def check_bare() -> list:
    """Without the library sources the benchmark must fail and print no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = _run(bare, "process_sweep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare checkout: benchmark did not refuse to run"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
