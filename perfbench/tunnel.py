"""Workload ``tunnel``: ESP traffic through a QKD-keyed IPsec tunnel.

``QKDSystem(seed).vpn(distill_seconds=0, prefill_key_bits=PREFILL_BITS)``
brings up two gateways on a prefilled key reservoir with an
``AES_QKD_RESEED`` tunnel; packets alternate between the two directions.
Phase one sends 64-byte payloads and phase two 1400-byte payloads.
Between SA epochs the simulated clock jumps past the SA lifetime, so the
SA rolls over (a fresh IKE phase 2 on QKD bits) ``SA_EPOCHS - 1`` times
per phase.  AES-CBC and the ESP framing are measured nowhere else; SHA-1
runs here once per packet on a packet-sized ICV input, where the soak feeds
it many short PRF inputs.
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter
from typing import List

from perfbench import common
from perfbench.common import Check, Rep, Windows
from perfbench.hostspeed import HostProbe
from repro import QKDSystem
from repro.ipsec.spd import CipherSuite

SMALL_BYTES = 64
LARGE_BYTES = 1400
SA_EPOCHS = 4
SMALL_PER_EPOCH = 40
LARGE_PER_EPOCH = 6
#: Covers every rekey of a rep (1024 QKD bits per direction per rekey).
PREFILL_BITS = 65_536
#: Set-up is about a millisecond, so it is repeated for a steadier median.
SETUP_REPEATS = 25
ALICE_HOST, BOB_HOST = "10.1.0.9", "10.2.0.7"


def _build(seed: int):
    vpn = QKDSystem(seed=seed).vpn(distill_seconds=0, prefill_key_bits=PREFILL_BITS)
    vpn.secure_tunnel(
        "bench", "10.1.0.0/16", "10.2.0.0/16", cipher_suite=CipherSuite.AES_QKD_RESEED
    )
    return vpn


def _phase(vpn, payloads: List[bytes], per_epoch: int, digest, probe: HostProbe):
    """Send ``payloads`` alternately each way, one SA epoch at a time,
    timing the host probe before each send.

    Returns the wall seconds of each send, of each jump of the clock to the
    next SA epoch (the rollovers), and how many packets arrived intact.
    """
    sends: List[float] = []
    jumps: List[float] = []
    intact = 0
    for index, payload in enumerate(payloads):
        if index and index % per_epoch == 0:
            started = perf_counter()
            vpn.advance_time(vpn.config.rekey_seconds + 1.0)
            jumps.append(perf_counter() - started)
        from_alice = index % 2 == 0
        source, destination = (ALICE_HOST, BOB_HOST) if from_alice else (BOB_HOST, ALICE_HOST)
        probe()
        started = perf_counter()
        delivered = vpn.send(source, destination, payload, from_alice=from_alice)
        sends.append(perf_counter() - started)
        if (
            delivered is not None
            and delivered.payload == payload
            and delivered.source == source
            and delivered.destination == destination
        ):
            intact += 1
            digest.update(delivered.payload)
    vpn.advance_time(vpn.config.rekey_seconds + 1.0)
    return sends, jumps, intact


def run_rep(seed: int, tracer=None) -> Rep:
    rng = random.Random(f"tunnel/{seed}")
    small = [rng.randbytes(SMALL_BYTES) for _ in range(SA_EPOCHS * SMALL_PER_EPOCH)]
    large = [rng.randbytes(LARGE_BYTES) for _ in range(SA_EPOCHS * LARGE_PER_EPOCH)]
    setups = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        vpn = _build(seed)
        setups.append(perf_counter() - started)
    common.release_memory()  # the repeated set-ups' garbage
    since = tracer.mark() if tracer is not None else None
    alice, bob = vpn.gateways.alice.statistics, vpn.gateways.bob.statistics
    digest = hashlib.sha256()
    probe = HostProbe()
    rollovers = [alice.rollovers + bob.rollovers]
    small_sends, small_jumps, small_intact = _phase(vpn, small, SMALL_PER_EPOCH, digest, probe)
    rollovers.append(alice.rollovers + bob.rollovers)
    large_sends, large_jumps, large_intact = _phase(vpn, large, LARGE_PER_EPOCH, digest, probe)
    rollovers.append(alice.rollovers + bob.rollovers)
    traced = tracer.aggregate(since) if tracer is not None else None
    digest.update(vpn.available_key_bits.to_bytes(8, "big"))

    sent = len(small) + len(large)
    intact = small_intact + large_intact
    # The first epoch of a phase may reuse a live SA; every later one rolls over.
    wanted = SA_EPOCHS - 1
    checks = [
        Check("tunnel.packets_intact", intact == sent, f"{sent - intact} of {sent} lost or altered"),
        Check("tunnel.small_rollovers", rollovers[1] - rollovers[0] >= wanted,
              f"{rollovers[1] - rollovers[0]} rollovers"),
        Check("tunnel.large_rollovers", rollovers[2] - rollovers[1] >= wanted,
              f"{rollovers[2] - rollovers[1]} rollovers"),
    ]
    windows = {
        "small_packets_per_s": Windows(small_sends + small_jumps, small_intact),
        "large_goodput_bytes_per_s": Windows(
            large_sends + large_jumps, large_intact * LARGE_BYTES
        ),
        "small_packet_p50_ms": Windows(small_sends),
    }
    rep = Rep(
        setups=setups,
        wall_s=sum(small_sends + small_jumps + large_sends + large_jumps),
        figures={
            **{key: entry.figure() for key, entry in windows.items()},
            "failed_share": (sent - intact) / sent,
        },
        windows=windows,
        attempted=sent,
        failed=sent - intact,
        digest=digest.hexdigest(),
        probe=probe,
        checks=checks,
    )
    if traced is not None:
        rep.spans, rep.counters = traced
    return rep
