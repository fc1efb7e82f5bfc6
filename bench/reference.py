"""Reference ops that convert measured times to reference time.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU Xeon guest the same op loop ran at 1.3-3x its fastest pass time from
one second to the next, for minutes at a time, and process CPU time slowed
with it (the process is not descheduled; it executes more slowly). Wall
times of whole runs therefore moved by 20-30% between runs of the same code.

Dividing by the time of a fixed calibration kernel removes most of that only
when the kernel slows down exactly as much as the ops do. Synthetic kernels
did not: over pool passes on that guest the log of the op time followed the
log of the kernel time with slopes from 0.66 to 1.47, depending on the kernel
(small `eigh`s, a d = 64 `eigh`, scalar `math` loops, `brentq` on a numpy
callback, large-array traffic, object churn), on the workload and on the
hour, so slow runs still read slower after dividing. The workload's own op
on fixed inputs followed with slope 0.98-1.04 and correlation 0.995-0.997.

So the reference is the workload's own op, on fixed inputs (drawn from
`SEED`), calling a frozen copy of the library: `frozen/isotherm_frozen/`
holds `src/isotherm` as it was when this benchmark was added, minus the
CLI, and is never edited. A change to the library moves the timed ops and
not the reference. Before every `every`-th op (and once after the last) the
run times one reference block; an op's reference time is its wall time times
the block's `nominal_s` over the median of the three blocks around it, i.e.
the time the op would take on a machine that runs the frozen block in
`nominal_s`, which is that guest in its fast spells.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

import workloads

FROZEN = Path(__file__).resolve().parent / "frozen"
SEED = 1707
# workload: (pool indices of one reference block, ops between blocks, the
# block's 10th-percentile time on the 2-vCPU Xeon guest the benchmark was
# tuned on). A block is one round where a round is cheap, so it weighs the
# input classes as the run does; in charges a round takes seconds, and one
# d = 8, q = 2 op runs before every op instead.
BLOCKS = {
    "process_sweep": (range(4), 16, 40e-3),
    "state_report": (range(8), 32, 95e-3),
    "charges": ((2,), 1, 40e-3),
}


def frozen_library():
    if str(FROZEN) not in sys.path:
        sys.path.insert(0, str(FROZEN))
    return importlib.import_module("isotherm_frozen")


class Reference:
    def __init__(self, workload: str):
        indices, self.every, self.nominal_s = BLOCKS[workload]
        self.setup = workloads.build(workload, SEED, frozen_library())
        self.inputs = [self.setup.pool[i] for i in indices]
        self.op = workloads.OPS[workload]

    def time(self) -> float:
        """Seconds one reference block takes now."""
        start = time.perf_counter_ns()
        for inp in self.inputs:
            self.op(inp, workloads.direct, self.setup)
        return (time.perf_counter_ns() - start) * 1e-9

    def to_reference(self, seconds: list, blocks: list) -> list:
        """Each op's wall time in reference seconds. blocks[k] was timed
        just before op k * every; the last block after the last op."""
        out = []
        for i, s in enumerate(seconds):
            k = i // self.every
            out.append(s * self.nominal_s / statistics.median(blocks[max(0, k - 1):k + 2]))
        return out
