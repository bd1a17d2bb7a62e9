"""Host-speed calibration for the closed loops' time metrics.

The benchmark's hosts share their cores with other tenants. On a
2-core x86-64 Linux VM the same op's time swung by up to 2x within
tens of seconds, and the median of a ten-run set moved by up to 46%
between two sets run 20 minutes apart: more than any bound could allow.
So a closed-loop run times a fixed calibration kernel before each op
and reports its time metrics at a reference host speed: measured
seconds times ``REFERENCE_S / median(kernel seconds)``. The kernel is
none of the program's code, so a change to the program moves a metric
exactly as much as it moves the measured time, while a busier host
moves it far less. The unscaled values and the factor stay in the
result detail.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Median kernel time on a 2-core x86-64 Linux VM (Python 3.11, numpy 2)
#: when its cores are least contended: a scaled time is the time that
#: host would have measured.
REFERENCE_S = 0.024


class _Node:
    __slots__ = ("name", "size", "deps")

    def __init__(self, name, size, deps):
        self.name, self.size, self.deps = name, size, deps


def kernel() -> float:
    """Fixed work in the program's mix: Python object churn, dict
    lookups and a sort, then numpy passes over a 256 KB array. Small,
    so it adds little to the process's peak memory (under 3 MB)."""
    total = 0
    for _ in range(3):
        nodes = [_Node(f"n{i}", (i * 7919) % 10007, (i - 1, i - 2))
                 for i in range(2000)]
        index = {node.name: node for node in nodes}
        for node in nodes:
            for dep in node.deps:
                if dep >= 0:
                    total += index[f"n{dep}"].size
        total += len(sorted(nodes, key=lambda node: (node.size, node.name)))
    values = np.arange(32_768, dtype=np.float64)
    for _ in range(12):
        values = np.cumsum(values[::-1]) % 1013.0
        perm = np.argsort(values[:8192], kind="stable")
        values[:8192] = values[perm]
    return total + float(values[0])


class HostSpeed:
    """Kernel timings of one run and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, with the garbage collector
        off so the program's heap size cannot slow it down."""
        was = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - start)
        finally:
            if was:
                gc.enable()

    def factor(self) -> float:
        """Reference over measured kernel time: < 1 on a slow host."""
        return REFERENCE_S / statistics.median(self.samples)
