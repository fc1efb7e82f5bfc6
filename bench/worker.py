"""One workload in a fresh interpreter; started by run.py, never imported.

The clock starts before numpy is imported, so `setup_s` covers `import
isotherm` plus building the seeded inputs, up to the first op. With
--setup-only the process stops there. Otherwise it runs ops in a closed
loop (one client, the next op starts when the previous one and its check
are done) and prints one JSON object with the measurements.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

T_NUMPY = time.perf_counter()

import isotherm  # noqa: E402

T_ISOTHERM = time.perf_counter()

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a run times at least this many ops however slow the code is
MIN_OPS = 100
# ops keep running past --seconds until MIN_OPS, but never past this
HARD_LIMIT_S = 120.0

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_ops(setup, ref, seed, seconds, max_ops, min_ops, tracer=None):
    """Closed loop over the input pool for `seconds`, then to the end of the
    round (at least `min_ops` ops, at most `max_ops`). A reference block is
    timed before every `ref.every`-th op and after the last. With a tracer, every other op is traced,
    switching at each round and at each pass over the pool, so that every
    input class is traced in alternate rounds and every input is timed both
    ways when the pool repeats. Returns (pool index, wall seconds, traced)
    per op, the block times, the failures and the outcome counts."""
    workload = setup.workload
    op = workloads.OPS[workload]
    durations, blocks, failures = [], [], []
    counts = collections.Counter()
    begin = time.perf_counter()
    deadline = begin + seconds
    i = 0
    while i < max_ops:
        now = time.perf_counter()
        if now >= begin + HARD_LIMIT_S or (
                now >= deadline and i >= min_ops and i % setup.round == 0):
            break
        index = i % len(setup.pool)
        inp = setup.pool[index]
        traced = tracer is not None and (
            i + i // setup.round + i // len(setup.pool)) % 2 == 1
        call = tracer if traced else workloads.direct
        if traced:
            tracer.op, tracer.inside_op = i, True
        refused, out = [], None
        if i % ref.every == 0:
            blocks.append(ref.time())
        start = time.perf_counter_ns()
        try:
            out = op(inp, call, setup)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            refused.append(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter_ns()
        violated = []
        if out is not None:
            refused += out["errors"]
            violated = workloads.check(workload, out)
            workloads.tally(workload, out, counts)
        if traced:
            tracer.inside_op = False
            tracer.record_op(i, start, end, not (refused or violated))
            if out is not None:
                counts["probe.calls"] += 1
                counts["probe.inverted"] += workloads.probe(tracer, out) < 0
        durations.append((index, (end - start) * 1e-9, traced))
        if refused or violated:
            failures.append({"seed": seed, "op": i, "pool_index": index,
                             "input": workloads.describe(workload, inp),
                             "refused": refused, "violated": violated})
        i += 1
    blocks.append(ref.time())
    return durations, blocks, failures, counts


def _ratio(num, den):
    return num / den if den else 0.0


def timing_metrics(indices, times):
    """Metrics over per-input op times in reference seconds (reference.py).

    An input's time is the median of its repeats, which removes most of the
    op-to-op jitter the reference blocks are too coarse to follow; in
    process_sweep that jitter alone set p90. Inputs that do not repeat (the
    charges pool outlasts a run) count once.
    """
    per_input = collections.defaultdict(list)
    for index, t in zip(indices, times):
        per_input[index].append(t)
    d = np.array([np.median(v) for v in per_input.values()])
    p90 = float(np.percentile(d, 90))
    return {
        "ops_per_s": len(d) / float(d.sum()),
        "op_ms_p50": float(np.median(d)) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "inputs": len(d),
        "inputs_above_p90": int(np.sum(d > p90)),
    }


def layer_metrics(tracer, counts, untraced, traced):
    by_name = collections.defaultdict(list)
    module_busy = collections.Counter()
    op_time = 0.0
    for name, _op, parent, start, end, _ok in tracer.spans:
        dt = (end - start) * 1e-9
        if name == "op":
            op_time += dt
            continue
        by_name[name].append(dt)
        if parent is not None:
            module_busy[name.split(".")[0]] += dt
    # the functions and modules to report are the ones BENCHMARK.json names
    named = [m["name"] for m in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]]
    out = {}
    for name in (n.removesuffix(".calls") for n in named if n.endswith(".calls")):
        d = by_name.get(name, [])
        out[f"{name}.calls"] = len(d)
        out[f"{name}.busy_s"] = float(sum(d))
        out[f"{name}.ms_p50"] = float(np.median(d)) * 1e3 if d else 0.0
    for module in (n.removesuffix(".share") for n in named if n.endswith(".share")):
        out[f"{module}.share"] = _ratio(module_busy[module], op_time)
    out["processes.clausius_check.applicable_frac"] = _ratio(
        counts["clausius.applicable"], counts["clausius.calls"])
    out["charges.bound_charge.certified_frac"] = _ratio(
        counts["bound_charge.certified"], counts["bound_charge.calls"])
    out["inputs.inverted_frac"] = _ratio(counts["probe.inverted"], counts["probe.calls"])
    out["rates.conversion_rate.pure_frac"] = _ratio(
        counts["rate.pure"], counts["rate.calls"])
    out["charges.conversion_rate_charges.pure_frac"] = _ratio(
        counts["rate_charges.pure"], counts["rate_charges.calls"])
    out["trace.overhead_frac"] = (
        (traced["ops_per_s"] - untraced["ops_per_s"]) / untraced["ops_per_s"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=sys.maxsize)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args(argv)

    setup = workloads.build(args.workload, args.seed)
    result = {
        "setup_s": time.perf_counter() - T_START,
        "import.numpy_s": T_NUMPY - T_START,
        "import.isotherm_s": T_ISOTHERM - T_NUMPY,
        "isotherm_file": isotherm.__file__,
    }
    if not args.setup_only:
        ref = reference.Reference(args.workload)
        if args.trace:
            tracer = spans.Tracer()
            durations, blocks, failures, counts = run_ops(
                setup, ref, args.seed, args.seconds, args.max_ops, 0, tracer)
            tracer.write(args.spans)
        else:
            durations, blocks, failures, _ = run_ops(
                setup, ref, args.seed, args.seconds, args.max_ops, min(MIN_OPS, args.max_ops))
        indices, wall, traced = zip(*durations)
        times = ref.to_reference(wall, blocks)
        if args.trace:
            halves = [[(i, t) for i, t, tr in zip(indices, times, traced) if tr == half]
                      for half in (False, True)]
            result["layers"] = layer_metrics(
                tracer, counts, *(timing_metrics(*zip(*h)) for h in halves))
        result.update(timing_metrics(indices, times))
        result.update(ops=len(times), wall_op_ms_p50=float(np.median(wall)) * 1e3,
                      block_ms_p50=float(np.median(blocks)) * 1e3)
        result["failures"] = failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
