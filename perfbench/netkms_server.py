"""Child-process entry point of the ``netkms`` workload: one key server.

Usage (started by :mod:`perfbench.netkms`, not by hand)::

    python3 perfbench/netkms_server.py --seed N --trace 0|1

Builds the workload's per-pair :class:`~repro.kms.store.KeyStore`\\ s from
the seed, serves them with a :class:`~repro.netkms.server.NetworkKmsServer`
on an ephemeral loopback port, and prints ``{"port": P}`` as one JSON line.
It then serves until a line arrives on standard input (or input closes),
drains the server, and prints one JSON line with the server's own metrics,
its peak resident memory and, when tracing, the per-span aggregates of the
server-side layers.  With ``--trace 1`` the span wrappers are installed in
this process after the stores are built, so only serving is traced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402  (path set up above)
from perfbench.layers import TARGETS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.netkms import NetworkKmsServer  # noqa: E402


async def serve(args: argparse.Namespace) -> dict:
    stores = common.netkms_stores(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(TARGETS)
    server = NetworkKmsServer(stores, host="127.0.0.1", port=0)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    try:
        await reader.readline()
    finally:
        transport.close()
    await server.stop()
    report = server.metrics.report()
    result = {
        "keys_served": report.keys_served,
        "key_bits_served": report.key_bits_served,
        "reserve_p50_us": report.reserve_latency_p50_seconds * 1e6,
        "protocol_errors": sum(report.protocol_errors.values()),
        "reservations_denied": report.reservations_denied,
        "held_reservations": server.held_reservations,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        stats, counters = tracer.aggregate()
        result["spans"] = {name: vars(entry) for name, entry in stats.items()}
        result["counters"] = counters
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = asyncio.run(serve(args))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
