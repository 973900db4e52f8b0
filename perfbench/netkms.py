"""Workload ``netkms``: key served over the wire from a child-process server.

A :class:`~repro.netkms.server.NetworkKmsServer` runs in a child process
(:mod:`perfbench.netkms_server`) over :data:`~perfbench.common.NETKMS_PAIRS`
stores kept topped up with counter streams; this process generates the load
over two pipelined :class:`~repro.netkms.client.NetworkKmsClient`
connections on loopback (traffic crosses the loopback interface, not a real
link).  Key sizes of 256, 1024 and 16384 bits are mixed 6:3:1 in a request
order drawn from the seed.

Both processes are pinned to one CPU for the unit.  On a virtual machine a
wake-up sent to another virtual CPU costs a variable, often large, delay:
measured on a 2-CPU microVM, closed-loop throughput of identical units
ranged over 4x with the processes on separate or unpinned CPUs, and
within about 15% on one shared CPU.

* Phase one is an open loop: request ``i`` is due at ``i / OFFERED_RATE``
  seconds whatever the state of earlier ones, and its latency is timed from
  that due time, so a stall is charged to every request it delays.
* Phase two is a closed loop: each connection sends its next request only
  when its previous one has completed, which gives saturated throughput.
  It runs in windows of ``CLOSED_WINDOW`` requests, each drained before the
  next starts, so that the host probe can be timed between windows with
  no request in flight.  The open loop is not probed: a probe there would
  delay the requests that fall due meanwhile.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from perfbench import common
from perfbench.common import Check, Pair, Rep, Windows
from perfbench.hostspeed import HostProbe
from repro.netkms import NetworkKmsClient, RequestTimeoutError, ServerError

#: Offered rate of the open-loop phase, get_key/s, fixed so latency is
#: compared at the same load across versions.  The closed-loop capacity
#: measured when this benchmark was written is 0.45k-1k get_key/s
#: (generator and server sharing one CPU of a 2-CPU microVM, Python 3.11).
#: 300/s put the open loop close to saturation whenever the host ran slow,
#: and its p50 then moved 5x between runs; 200/s, under half of even the
#: slowest capacity, does not.
OFFERED_RATE = 200.0
#: 2 s at the offered rate, kept short so that a run holds several units.
OPEN_REQUESTS = 400
#: The tail reported: the highest percentile with ten samples beyond it
#: (p97.5 of 400; a p99 would have four).
TAIL_PERCENTILE = 100.0 * (1 - 10 / OPEN_REQUESTS)
TAIL_FIGURE = f"get_key_p{TAIL_PERCENTILE:g}_ms"
CLOSED_REQUESTS = 2100
#: The closed loop runs in windows of this many requests, a whole number
#: of them and of ``SIZE_MIX``; the host probe is timed between windows.
CLOSED_WINDOW = 20
CONNECTIONS = 2
SIZE_MIX = (256,) * 6 + (1024,) * 3 + (16384,)
REQUEST_TIMEOUT_S = 10.0
SERVER_STOP_TIMEOUT_S = 60.0

SERVER_SCRIPT = Path(__file__).with_name("netkms_server.py")


def request_plan(seed: int) -> List[Tuple[Pair, int]]:
    """The run's requests, ``(pair, bits)`` in order: open loop, then closed.

    Every run of ``len(SIZE_MIX)`` requests holds the sizes of ``SIZE_MIX``
    exactly, in an order drawn from the seed, so every seed asks for the
    same key bits and every closed-loop window holds the same sizes.
    """
    rng = random.Random(f"netkms/{seed}")
    pairs = common.netkms_pairs()
    sizes: List[int] = []
    while len(sizes) < OPEN_REQUESTS + CLOSED_REQUESTS:
        sizes.extend(rng.sample(SIZE_MIX, len(SIZE_MIX)))
    return [(rng.choice(pairs), bits) for bits in sizes]


class ServerProcess:
    """The child-process server: started, asked for its port, stopped."""

    def __init__(self, seed: int, trace: bool):
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(SERVER_SCRIPT),
                "--seed", str(seed),
                "--trace", "1" if trace else "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_port(self) -> int:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("netkms server exited before reporting its port")
        return json.loads(line)["port"]

    def stop(self) -> dict:
        """Ask the server to drain and return its final report."""
        output, _ = self.process.communicate("stop\n", timeout=SERVER_STOP_TIMEOUT_S)
        if self.process.returncode != 0:
            raise RuntimeError(f"netkms server exited with {self.process.returncode}")
        return json.loads(output.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Served:
    """What the clients received, for the correctness checks."""

    def __init__(self) -> None:
        self.words: Dict[Pair, List[int]] = {}
        self.wrong_size = 0
        self.errors = 0
        self.timeouts = 0

    def record(self, pair: Pair, bits: int, key_bytes: bytes) -> None:
        if len(key_bytes) * 8 != bits:
            self.wrong_size += 1
        count = len(key_bytes) // 8
        self.words.setdefault(pair, []).extend(struct.unpack(f">{count}Q", key_bytes[: 8 * count]))


async def _get_key(client, pair, bits, served: Served) -> bool:
    try:
        key = await client.get_key(pair, bits)
    except RequestTimeoutError:
        served.timeouts += 1
        return False
    except (ServerError, ConnectionError):
        served.errors += 1
        return False
    served.record(pair, bits, key.key_bytes)
    return True


async def _open_loop(clients, plan, served: Served):
    """Launch each request at its due time; latency runs from the due time."""
    loop = asyncio.get_running_loop()
    latencies = [math.inf] * len(plan)
    late: List[float] = []
    in_flight = 0
    in_flight_max = 0

    async def one(index: int, due: float) -> None:
        nonlocal in_flight, in_flight_max
        in_flight += 1
        in_flight_max = max(in_flight_max, in_flight)
        late.append(loop.time() - due)
        pair, bits = plan[index]
        ok = await _get_key(clients[index % len(clients)], pair, bits, served)
        in_flight -= 1
        if ok:
            latencies[index] = loop.time() - due

    tasks = []
    start = loop.time()
    for index in range(len(plan)):
        due = start + index / OFFERED_RATE
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, due)))
    await asyncio.gather(*tasks)
    return latencies, late, in_flight_max, loop.time() - start


async def _closed_loop(
    clients, plan, served: Served, probe: HostProbe
) -> Tuple[List[float], int, int]:
    """Wall seconds of each window of ``CLOSED_WINDOW`` requests, and the
    completions and key bits of the phase.

    A window is a closed loop of its own over its slice of the plan: it
    starts when the host probe has been timed with no request in flight and
    ends when its last request completes.  So every unit of a seed puts the
    same requests in window ``i``.
    """
    seconds: List[float] = []
    completed = [0, 0]

    async def connection(offset: int, window) -> None:
        for index in range(offset, len(window), len(clients)):
            pair, bits = window[index]
            if await _get_key(clients[offset], pair, bits, served):
                completed[0] += 1
                completed[1] += bits

    for first in range(0, len(plan), CLOSED_WINDOW):
        window = plan[first:first + CLOSED_WINDOW]
        probe()
        started = perf_counter()
        await asyncio.gather(*(connection(offset, window) for offset in range(len(clients))))
        seconds.append(perf_counter() - started)
    return seconds, completed[0], completed[1]


async def _drive(port: int, plan, served: Served, tracer, probe: HostProbe):
    clients = [
        NetworkKmsClient(
            "127.0.0.1", port, client_id=f"bench-{index}", request_timeout=REQUEST_TIMEOUT_S
        )
        for index in range(CONNECTIONS)
    ]
    for client in clients:
        await client.connect()
    try:
        setup_done = perf_counter()
        since = tracer.mark() if tracer is not None else None
        open_plan, closed_plan = plan[:OPEN_REQUESTS], plan[OPEN_REQUESTS:]
        latencies, late, in_flight_max, open_wall = await _open_loop(clients, open_plan, served)
        closed = await _closed_loop(clients, closed_plan, served, probe)
        traced = tracer.aggregate(since) if tracer is not None else None
    finally:
        for client in clients:
            await client.close()
    return setup_done, latencies, late, in_flight_max, open_wall, closed, traced


def _check_served(seed: int, plan, served: Served, report: dict) -> Tuple[List[Check], str]:
    tags = common.netkms_tags(seed)
    demanded: Dict[Pair, int] = {}
    for pair, bits in plan:
        demanded[pair] = demanded.get(pair, 0) + bits // 64
    digest = hashlib.sha256()
    foreign = duplicates = gaps = 0
    for pair in common.netkms_pairs():
        words = served.words.get(pair, [])
        tag = tags[pair]
        counters = sorted(word & ((1 << common.COUNTER_BITS) - 1) for word in words)
        foreign += sum(1 for word in words if word >> common.COUNTER_BITS != tag)
        duplicates += len(counters) - len(set(counters))
        # Every reservation was consumed, so each pair's stream was served
        # as one gap-free prefix.
        gaps += 0 if counters == list(range(demanded.get(pair, 0))) else 1
        digest.update(struct.pack(">I", tag))
        digest.update(struct.pack(f">{len(counters)}Q", *counters))
    checks = [
        Check("netkms.words_unique", duplicates == 0, f"{duplicates} repeated words"),
        Check("netkms.words_in_pair_stream", foreign == 0, f"{foreign} foreign words"),
        Check("netkms.streams_served_as_prefix", gaps == 0, f"{gaps} pairs with gaps"),
        Check("netkms.key_sizes", served.wrong_size == 0, f"{served.wrong_size} wrong sizes"),
        Check("netkms.no_protocol_errors", report["protocol_errors"] == 0,
              f"{report['protocol_errors']} protocol errors"),
        Check("netkms.no_held_reservations", report["held_reservations"] == 0,
              f"{report['held_reservations']} held after drain"),
        Check("netkms.keys_served", report["keys_served"] == len(plan),
              f"{report['keys_served']} of {len(plan)}"),
    ]
    return checks, digest.hexdigest()


def run_rep(seed: int, tracer=None) -> Rep:
    plan = request_plan(seed)
    affinity = os.sched_getaffinity(0)
    cpu = {min(affinity)}
    probe = HostProbe()
    started = perf_counter()
    server = ServerProcess(seed, tracer is not None)
    try:
        os.sched_setaffinity(server.process.pid, cpu)
        os.sched_setaffinity(0, cpu)
        port = server.wait_port()
        served = Served()
        setup_done, latencies, late, in_flight_max, open_wall, closed, traced = (
            asyncio.run(_drive(port, plan, served, tracer, probe))
        )
        report = server.stop()
    finally:
        server.kill()
        os.sched_setaffinity(0, affinity)
    checks, digest = _check_served(seed, plan, served, report)
    failed = served.errors + served.timeouts
    closed_seconds, closed_completions, closed_bits = closed
    answered = [latency for latency in latencies if latency != math.inf]
    windows = {
        # A request that failed has an infinite latency in its unit.
        "get_key_p50_ms": Windows(latencies),
        "get_key_per_s": Windows(closed_seconds, closed_completions),
        "closed_key_bits_per_s": Windows(closed_seconds, closed_bits),
    }
    figures = {
        **{key: entry.figure() for key, entry in windows.items()},
        TAIL_FIGURE: common.percentile(answered, TAIL_PERCENTILE) * 1e3 if answered else 0.0,
        "get_key_samples": len(answered),
        "failed_share": failed / len(plan),
    }
    rep = Rep(
        setups=[setup_done - started],
        wall_s=open_wall + sum(closed_seconds),
        figures=figures,
        windows=windows,
        attempted=len(plan),
        failed=failed,
        digest=digest,
        probe=probe,
        checks=checks,
        layer_figures={
            "server.reserve_p50_us": report["reserve_p50_us"],
            "server.protocol_errors": report["protocol_errors"],
            "server.reservations_denied": report["reservations_denied"],
            "generator.in_flight_max": in_flight_max,
            "generator.late_ms": common.percentile(late, 99) * 1e3,
        },
        peak_rss_mib=max(common.peak_rss_mib(), report["maxrss_kib"] / 1024.0),
    )
    if traced is not None:
        rep.spans, rep.counters = traced
        rep.server_spans = report.get("spans")
        rep.server_counters = report.get("counters")
    return rep
