"""Helpers shared by the workloads: statistics, memory, seeded inputs."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import math
import resource
import statistics
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.hostspeed import HostProbe
from repro import KmsConfig
from repro.kms.store import KeyStore
from repro.util.bits import BitString

Pair = Tuple[str, str]

#: The netkms stores are kept filled as the KMS fills its stores: in blocks
#: of ``transport_key_bits`` (2048 bits), topped up whenever a draw leaves
#: fewer than ``trunk_high_water_bits`` (262144 bits, 128 blocks), the high
#: water of the KMS's shared trunk stores.  The block size sets how many
#: blocks a draw crosses, and the depth how many blocks a store scans to
#: count its key.  The depth covers up to 16 in-flight 16384-bit
#: reservations on one pair, so no reservation is denied.  The top-up looks
#: at the bits present, not the unreserved ones, so how many blocks are
#: deposited does not depend on how requests interleave.
NETKMS_BLOCK_BITS = KmsConfig().transport_key_bits
NETKMS_REFILL_BITS = KmsConfig().trunk_high_water_bits
NETKMS_PAIRS = 4
#: A served 64-bit word is ``tag << COUNTER_BITS | counter``.
COUNTER_BITS = 40


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc: freed heap stays mapped
    _malloc_trim = None


def release_memory() -> None:
    """Collect garbage and hand the freed heap back to the system.

    Called outside the timed phases, before each unit and between phases,
    so that neither a phase's peak memory nor the collector's pauses depend
    on what earlier work left behind.  Without it the distill fleet phase
    peaked at either about 215 or about 242 MiB, depending on how much of
    the link phase's freed heap the allocator still held.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Windows:
    """Wall seconds of a figure's windows of work, in the order they ran.

    A rate figure (``work`` set: slots, rekeys, bytes done over all the
    windows) is ``work / sum(seconds)``; a time figure (``work`` None) is
    the median, in milliseconds, over runs of ``group`` consecutive windows
    of their summed time, divided by the run's ``group_work`` where that is
    given (runs with no work are left out).
    """

    seconds: List[float]
    work: Optional[float] = None
    group: int = 1
    group_work: Optional[List[float]] = None

    def figure(self, seconds: Optional[Sequence[float]] = None, slowdown: float = 1.0) -> float:
        """The figure from ``seconds`` (by default this unit's own), as on
        a host ``slowdown`` times faster than the one that timed them."""
        seconds = self.seconds if seconds is None else seconds
        if self.work is not None:
            return self.work / sum(seconds) * slowdown
        sums = [
            sum(seconds[first:first + self.group])
            for first in range(0, len(seconds), self.group)
        ]
        if self.group_work is not None:
            sums = [total / work for total, work in zip(sums, self.group_work) if work]
        return statistics.median(sums) * 1e3 / slowdown

    @staticmethod
    def fastest(runs: Sequence["Windows"]) -> List[float]:
        """Each window's fastest time over ``runs`` of the same work.

        The same work is timed once per unit.  A time is the work plus
        whatever the host took from it meanwhile; on a shared host that can
        be a third more to twice as long, in spells from under a second to
        over a minute.  The fastest of a window's times is the one least
        disturbed, so a figure made from them follows the program more
        closely than the host (see :mod:`perfbench.hostspeed` for the long
        spells).
        """
        return [min(column) for column in zip(*(run.seconds for run in runs))]


@dataclass
class Rep:
    """One unit of a workload: set-up, then the timed phases."""

    #: Set-up times, several where set-up is repeated for a steadier median.
    setups: List[float]
    #: Wall time of the timed phases, the budget table's denominator.
    wall_s: float
    #: The workload's own end-to-end figures (e.g. ``key_bits_per_s``); run.py
    #: maps some of them onto the generic end-to-end metric names.
    figures: Dict[str, float]
    attempted: int
    failed: int
    digest: str
    #: The host's speed, timed at fixed points between the windows.
    probe: HostProbe
    checks: List[Check] = field(default_factory=list)
    #: Per-window timings behind a figure (blocks, epochs, packets, windows
    #: of completions); window ``i`` does the same work in every unit of a
    #: seed, so a run can take each window's fastest time over its units.
    windows: Dict[str, Windows] = field(default_factory=dict)
    #: Per-layer figures the program reports itself (not from spans).
    layer_figures: Dict[str, float] = field(default_factory=dict)
    #: Span aggregates and counters of the timed phases, when traced; a
    #: second process's aggregates (the netkms server) sit under "server".
    spans: Optional[dict] = None
    counters: Optional[Dict[str, float]] = None
    server_spans: Optional[dict] = None
    server_counters: Optional[Dict[str, float]] = None
    peak_rss_mib: float = 0.0


# --------------------------------------------------------------------------- #
# netkms inputs
# --------------------------------------------------------------------------- #


def netkms_pairs() -> List[Pair]:
    return [(f"sae-{index}a", f"sae-{index}b") for index in range(NETKMS_PAIRS)]


def netkms_tags(seed: int) -> Dict[Pair, int]:
    """A distinct 24-bit stream tag per pair, derived from the seed."""
    tags: Dict[Pair, int] = {}
    for index, pair in enumerate(netkms_pairs()):
        digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=3).digest()
        tag = int.from_bytes(digest, "big")
        while tag in tags.values():
            tag = (tag + 1) & 0xFFFFFF
        tags[pair] = tag
    return tags


class CounterRefill:
    """Keeps one store topped up with its pair's counter stream.

    Every 64-bit word is ``tag << 40 | counter`` with a per-pair tag, so
    every word in the run is unique and names the pair it came from.
    Installed as the store's ``on_level_change`` hook; draws fire it.
    """

    def __init__(self, store: KeyStore, tag: int):
        self.base = tag << COUNTER_BITS
        self.next_word = 0
        self.filling = False
        store.on_level_change = self

    def __call__(self, store: KeyStore) -> None:
        if self.filling:
            return
        self.filling = True
        try:
            words = NETKMS_BLOCK_BITS // 64
            while store.available_bits < NETKMS_REFILL_BITS:
                first = self.base | self.next_word
                material = struct.pack(f">{words}Q", *range(first, first + words))
                store.deposit(BitString.from_bytes(material))
                self.next_word += words
        finally:
            self.filling = False


def netkms_stores(seed: int) -> Dict[Pair, KeyStore]:
    """One store per pair, filled with that pair's counter stream."""
    config = KmsConfig()
    stores: Dict[Pair, KeyStore] = {}
    for pair, tag in netkms_tags(seed).items():
        store = KeyStore(
            pair,
            capacity_bits=config.trunk_capacity_bits,
            low_water_bits=config.trunk_low_water_bits,
            high_water_bits=config.trunk_high_water_bits,
        )
        CounterRefill(store, tag)(store)
        stores[pair] = store
    return stores
