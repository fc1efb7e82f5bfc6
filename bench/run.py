"""Benchmark entry point.

    python3 bench/run.py --workload process_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each workload runs in fresh
interpreters with BLAS pinned to one thread: several set-up-only processes
give the median `setup_s`, then one process measures. With --trace 0 the
last stdout line holds the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, and the spans are written under
bench/out/. Exits non-zero without a result when the checkout lacks the
isotherm sources or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # fresh interpreters whose median is setup_s
TIME_LIMIT_S = 170.0  # the whole run, set-ups included
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (ROOT / "src" / "isotherm").resolve()
    if Path(result["isotherm_file"]).resolve().parent != src:
        raise BenchError(f"imported isotherm from {result['isotherm_file']}, not {src}")
    return result


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"], "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: int,
            max_ops: int | None) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    extra = ["--trace", str(trace), "--spans", str(spans_path)]
    if max_ops is not None:
        extra += ["--max-ops", str(max_ops)]
    main = _worker(base + extra, deadline)
    setups.append(main)
    values = {
        "ops_per_s": main["ops_per_s"],
        "op_ms_p50": main["op_ms_p50"],
        "op_ms_p90": main["op_ms_p90"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "fail_frac": len(main["failures"]) / main["ops"],
        "import.numpy_s": statistics.median(s["import.numpy_s"] for s in setups),
        "import.isotherm_s": statistics.median(s["import.isotherm_s"] for s in setups),
        **main.get("layers", {}),
    }
    return values, main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, help="stop after this many ops (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "isotherm" / "__init__.py").is_file():
        print(f"error: no isotherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        values, main_run = measure(args.workload, args.seed, args.seconds, args.trace,
                                   args.ops)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    named = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in named if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    failures = main_run["failures"]
    env = environment(args.seed)
    print("environment " + json.dumps(env))
    print(f"workload {args.workload}: {main_run['ops']} ops on {main_run['inputs']} "
          f"inputs, {main_run['inputs_above_p90']} inputs above p90, {len(failures)} failed; "
          f"median wall time {main_run['wall_op_ms_p50']:.4g} ms per op, "
          f"{main_run['block_ms_p50']:.4g} ms per reference block")
    for f in failures:
        print("FAIL " + json.dumps(f))
    shown = named if args.trace else named + [
        m for m in spec["per_layer"] if m["name"] == "fail_frac"]
    for m in shown:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "ops": main_run["ops"], "values": values, "failures": failures}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    # only a wrong returned value makes a run incorrect; a call that raised or
    # flagged its own result as uncertified fails its op without that
    correct = not any(f["violated"] for f in failures)
    print(json.dumps({"correct": correct, "attempted": main_run["ops"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
