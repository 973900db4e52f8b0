"""Workload ``distill``: photons to distilled key, no KMS, IPsec or netkms.

Phase one runs one link at the paper operating point through the scalar
path that ``link()`` and ``vpn()`` users call,
``QKDSystem(seed).link().run_seconds(LINK_SECONDS)``.  Phase two runs a
fleet through the lane path that Monte-Carlo KMS refill uses,
``QKDSystem(seed).lanes(FLEET_LANES).run_slots(FLEET_SLOTS)``.  Each phase is
sized to distill at least 20 blocks (a block is ``block_size_bits`` = 2048
sifted bits).

The rate figures are channel slots carried through the whole
photons-to-key path per wall second: every seed sends the same slots, so
they follow the program's speed.  The distilled-key rates
(``key_bits_per_s``, ``fleet_key_bits_per_s``) are printed too, but they
also follow the seed: on five seeds the fleet distilled between 2371 and
3886 bits from 22 to 24 blocks, since each block's privacy amplification
keeps a share that depends on that block's estimated error rate.

The latency figure, ``block_ms``, is the median time the link's
post-processing pipeline spends on one block, summed over its stages as the
pipeline's own hooks report them; optics and the channel time before a
block is complete are not part of it.

A phase is timed in windows that end where a pipeline stage ends, as the
pipelines' hooks see it, on the link and on every lane of the fleet.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from time import perf_counter
from typing import List

from perfbench import common
from perfbench.common import Check, Rep, Windows
from perfbench.hostspeed import HostProbe
from repro import QKDSystem

#: Channel seconds of the single link: ~0.8 blocks per channel second.
LINK_SECONDS = 28.0
FLEET_LANES = 8
#: Slots per lane of the fleet: ~0.8 blocks per lane per million slots.
FLEET_SLOTS = 3_200_000
MIN_BLOCKS = 20
#: Set-up is milliseconds here, so it is repeated for a steadier median.
SETUP_REPEATS = 25


def _pool_digest(engine, digest) -> bool:
    """Fold Alice's pool into ``digest``; True when Bob's is identical."""
    alice, bob = engine.alice_pool.blocks, engine.bob_pool.blocks
    same = engine.keys_match and len(alice) == len(bob)
    for mine, theirs in zip(alice, bob):
        same = same and mine.bits == theirs.bits
        digest.update(len(mine.bits).to_bytes(4, "big"))
        digest.update(mine.bits.to_bytes())
    return same


class _BlockClock:
    """Watches pipelines through their own hooks, stage by stage.

    Per block (keyed ``(pipeline, block)``) it sums the stage seconds the
    pipeline reports.  After every stage it notes the wall time; the
    windows run between these marks.  When a block's first stage has run it
    times the host probe, and keeps the time that took out of the windows.
    """

    def __init__(self, pipelines, probe: HostProbe) -> None:
        self.seconds = defaultdict(float)
        self.probe = probe
        self.probing_s = 0.0
        #: ``(wall, probe seconds so far)`` after each stage.
        self.marks = []
        for index, pipeline in enumerate(pipelines):
            pipeline.add_hook(self._hook(index, pipeline))

    def _hook(self, index: int, pipeline):
        def hook(stage, ctx, elapsed: float) -> None:
            # ``blocks_processed`` counts up after a block's last hook call.
            key = (index, pipeline.telemetry.blocks_processed)
            if key not in self.seconds:
                started = perf_counter()
                self.probe()
                self.probing_s += perf_counter() - started
            self.seconds[key] += elapsed
            self.marks.append((perf_counter(), self.probing_s))

        return hook

    def windows(self, started: float, ended: float) -> List[float]:
        """Wall seconds from ``started`` to the first mark, between marks,
        and from the last mark to ``ended``, less the probe's time in each."""
        marks = [(started, 0.0), *self.marks, (ended, self.probing_s)]
        return [
            (later - earlier) - (probed_later - probed_earlier)
            for (earlier, probed_earlier), (later, probed_later) in zip(marks, marks[1:])
        ]


def _build(seed: int):
    system = QKDSystem(seed=seed)
    return system.link(), system.lanes(FLEET_LANES)


def run_rep(seed: int, tracer=None) -> Rep:
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        link, fleet = _build(seed)
        setups.append(perf_counter() - started)
    common.release_memory()  # the repeated set-ups' garbage
    since = tracer.mark() if tracer is not None else None
    telemetry_before = _stage_seconds(link, fleet)
    probe = HostProbe()
    link_clock = _BlockClock([link.engine.pipeline], probe)
    fleet_clock = _BlockClock([lane.engine.pipeline for lane in fleet.links], probe)

    started = perf_counter()
    report = link.run_seconds(LINK_SECONDS)
    link_windows = link_clock.windows(started, perf_counter())
    common.release_memory()
    started = perf_counter()
    lane_reports = fleet.run_slots(FLEET_SLOTS)
    fleet_windows = fleet_clock.windows(started, perf_counter())
    traced = tracer.aggregate(since) if tracer is not None else None

    digest = hashlib.sha256()
    link_match = _pool_digest(link.engine, digest)
    lanes_match = [_pool_digest(lane.engine, digest) for lane in fleet.links]
    fleet_bits = sum(r.distilled_bits for r in lane_reports)
    fleet_blocks = sum(r.blocks_distilled + r.blocks_aborted for r in lane_reports)
    link_blocks = report.blocks_distilled + report.blocks_aborted
    aborted = report.blocks_aborted + sum(r.blocks_aborted for r in lane_reports)
    sifted = report.sifted_bits + sum(r.sifted_bits for r in lane_reports)
    distilled = report.distilled_bits + fleet_bits
    checks = [
        Check("distill.link_keys_match", link_match, "Alice and Bob pools differ"),
        Check("distill.lane_keys_match", all(lanes_match),
              f"lanes with differing pools: {[i for i, ok in enumerate(lanes_match) if not ok]}"),
        Check("distill.link_blocks", link_blocks >= MIN_BLOCKS, f"{link_blocks} blocks"),
        Check("distill.fleet_blocks", fleet_blocks >= MIN_BLOCKS, f"{fleet_blocks} blocks"),
        Check("distill.key_distilled", report.distilled_bits > 0 and fleet_bits > 0, "no key"),
    ]
    windows = {
        "link_slots_per_s": Windows(link_windows, report.slots_transmitted),
        "fleet_slots_per_s": Windows(
            fleet_windows, sum(r.slots_transmitted for r in lane_reports)
        ),
        "key_bits_per_s": Windows(link_windows, report.distilled_bits),
        "fleet_key_bits_per_s": Windows(fleet_windows, fleet_bits),
        "block_ms": Windows(list(link_clock.seconds.values())),
    }
    rep = Rep(
        setups=setups,
        wall_s=sum(link_windows) + sum(fleet_windows),
        figures={
            **{key: entry.figure() for key, entry in windows.items()},
            "failed_share": aborted / max(link_blocks + fleet_blocks, 1),
        },
        windows=windows,
        attempted=link_blocks + fleet_blocks,
        failed=aborted,
        digest=digest.hexdigest(),
        probe=probe,
        checks=checks,
        layer_figures={"distill.secret_fraction": distilled / sifted if sifted else 0.0},
    )
    if traced is not None:
        rep.spans, rep.counters = traced
        rep.layer_figures["telemetry.stage_s"] = (
            _stage_seconds(link, fleet) - telemetry_before
        )
    return rep


def _stage_seconds(link, fleet) -> float:
    """Stage seconds the program's own ``PipelineTelemetry`` has recorded."""
    engines = [link.engine] + [lane.engine for lane in fleet.links]
    return sum(
        timing.seconds
        for engine in engines
        for timing in engine.pipeline.telemetry.summary()
    )
