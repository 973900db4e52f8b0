"""How fast the host runs, from a fixed reference kernel timed beside the work.

The benchmark shares its host.  Measured on a 2-vCPU virtual machine, the
same pure-Python work took 1.3x to 2x as long in spells that lasted from
under a second to over a minute, and a whole 30 s run could fall in one.
Taking each window's fastest time over a run's units (see
:meth:`perfbench.common.Windows.fastest`) removes the short spells, not
the long ones.

So each unit also times a fixed reference kernel that uses nothing of the
program under test, at fixed points between its windows.  The kernel has
three parts, one for each kind of work the workloads do: a numpy pass over
an array, small Python objects, and a C hash over a buffer.  A run takes
each part's fastest time at each point over its units, as for the
windows; the run's kernel time is the sum over the parts of the median
over the points.  Its timings are then reported as on a host where the
kernel takes :data:`REFERENCE_S`: a time is divided, and a rate
multiplied, by ``kernel time / REFERENCE_S``, the run's *slowdown*.  A
change to the program moves the windows and not the kernel, so it shows in
full.

No kernel slows exactly as the program does.  In ten 30 s runs per
workload on the host above, the headline rate of ``tunnel``, ``soak`` and
``distill`` spread (interquartile range over median) by 0.08 to 0.21 with
fastest-window times alone, by 0.01 to 0.05 once scaled by this kernel,
and by 0.03 to 0.09 when scaled by a tight pure-Python loop instead.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import numpy as np

#: The kernel's time on the host this benchmark was written on (2 vCPUs
#: of a shared x86-64 host, Python 3.11, numpy 2.4) in its fast spells.
REFERENCE_S = 0.0022

_INDEX = np.arange(50_000, dtype=np.float64)
_BUFFER = bytes(256 * 1024)


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right


def _array_pass() -> int:
    values = np.random.default_rng(7).random(_INDEX.size)
    return int(((values < 0.3) & (_INDEX % 3 == 0)).sum())


def _objects() -> int:
    pairs = [_Pair(index, index + 1) for index in range(1_500)]
    return sum(pair.left + pair.right for pair in pairs)


def _hash() -> int:
    return hashlib.sha1(_BUFFER).digest()[0]


#: The kernel's parts, each timed on its own.
KERNEL: Dict[str, Callable[[], int]] = {
    "array_pass": _array_pass,
    "objects": _objects,
    "hash": _hash,
}


class HostProbe:
    """Times the kernel's parts each time it is called; one per unit."""

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = {part: [] for part in KERNEL}

    def __call__(self) -> None:
        for part, run in KERNEL.items():
            started = perf_counter()
            run()
            self.seconds[part].append(perf_counter() - started)

    @property
    def points(self) -> int:
        return len(self.seconds["hash"])


def slowdown(probes: Sequence[HostProbe]) -> float:
    """How much slower than the reference the host ran over a run's units."""
    kernel_s = 0.0
    for part in KERNEL:
        fastest = [min(column) for column in zip(*(probe.seconds[part] for probe in probes))]
        kernel_s += statistics.median(fastest)
    return kernel_s / REFERENCE_S
