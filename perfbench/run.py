"""The benchmark: one command per workload, from photons to served key.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each module's docstring says what it runs and why):

* ``distill`` — optics, sifting, Cascade, privacy amplification,
  Wegman-Carter and the public-channel codec on one link and on a fleet;
* ``soak``    — the KMS on the flat relay mesh under rekey storms, a link
  cut and an eavesdropper (store, scheduler, relay, routing, event loop,
  IKE phase 2 and its HMAC-SHA1 PRF);
* ``netkms``  — key served over loopback from a child-process server
  (wire codec, server dispatch, store reserve/consume);
* ``tunnel``  — 64 B and 1400 B ESP packets through an AES tunnel.

A run repeats the workload's unit of work, each unit built afresh from
``--seed``, as often as fits in ``--seconds`` (at least once).  Every unit
does the same work; every unit's outputs are checked, and all units must
report the same digest.  A unit times its work in windows (blocks, epochs,
packets, windows of completions), the same windows in every unit, and a
figure is made from each window's fastest time over the run's units (see
:meth:`perfbench.common.Windows.fastest`).  Set-up is repeated in each unit,
and set-up time is the median over the repeats of each one's fastest time
over the units.  Both are reported as on a reference host: scaled by the
run's host slowdown, timed on a fixed kernel between the windows (see
:mod:`perfbench.hostspeed`).

With ``--trace 0`` the last line is the end-to-end metrics.  With
``--trace 1`` the unit runs four times, alternately without and with
span wrappers installed on every layer's entry points, and the last line is
the per-layer metrics: per unit, averaged over the traced units.  The traced run
also checks that tracing changed no output (equal digests), that counted
per-layer metrics repeat exactly, and that every span the layer table
expects on this workload recorded calls; it prints the layer budget table,
the tracing overhead and, on ``distill``, the gap between traced stage
spans and the program's own ``PipelineTelemetry``.

The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every check holds.
Where the program under test cannot be imported the run fails at once,
printing no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Without the program under test these imports fail, and so does the run.
from perfbench import common, distill, hostspeed, layers, netkms, soak, tunnel  # noqa: E402
from perfbench.common import Check, Rep, Windows  # noqa: E402
from perfbench.tracing import SpanStats, Tracer  # noqa: E402

#: Traced runs: this many untraced and this many traced units.
TRACED_UNITS = 2


@dataclass(frozen=True)
class Workload:
    run_rep: Callable
    #: End-to-end metric name -> the workload's own figure it reports.
    e2e: Dict[str, str]
    #: Units of each figure the workload prints, by figure name.
    units: Dict[str, str]


#: End-to-end metrics: ``(name, unit)``; BENCHMARK.json holds the bounds.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("served_share", "ratio"),
    ("throughput_per_s", "1/s"),
    ("bulk_throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
)


WORKLOADS: Dict[str, Workload] = {
    "distill": Workload(
        distill.run_rep,
        {"throughput_per_s": "link_slots_per_s",
         "bulk_throughput_per_s": "fleet_slots_per_s",
         "latency_ms": "block_ms"},
        {"link_slots_per_s": "1/s", "fleet_slots_per_s": "1/s",
         "key_bits_per_s": "bit/s", "fleet_key_bits_per_s": "bit/s", "block_ms": "ms"},
    ),
    "soak": Workload(
        soak.run_rep,
        {"throughput_per_s": "rekeys_per_s",
         "bulk_throughput_per_s": "delivered_key_bits_per_s",
         "latency_ms": "rekey_ms"},
        {"rekeys_per_s": "1/s", "delivered_key_bits_per_s": "bit/s", "rekey_ms": "ms"},
    ),
    "netkms": Workload(
        netkms.run_rep,
        {"throughput_per_s": "get_key_per_s",
         "bulk_throughput_per_s": "closed_key_bits_per_s",
         "latency_ms": "get_key_p50_ms"},
        {"get_key_p50_ms": "ms", netkms.TAIL_FIGURE: "ms", "get_key_samples": "count",
         "get_key_per_s": "1/s", "closed_key_bits_per_s": "bit/s"},
    ),
    "tunnel": Workload(
        tunnel.run_rep,
        {"throughput_per_s": "small_packets_per_s",
         "bulk_throughput_per_s": "large_goodput_bytes_per_s",
         "latency_ms": "small_packet_p50_ms"},
        {"small_packets_per_s": "1/s", "large_goodput_bytes_per_s": "B/s",
         "small_packet_p50_ms": "ms"},
    ),
}


def _failed_checks(reps: List[Rep]) -> List[str]:
    return [
        f"{check.name}: {check.detail}"
        for rep in reps
        for check in rep.checks
        if not check.ok
    ]


def _run_unit(workload: Workload, seed: int, tracer=None) -> Rep:
    common.release_memory()
    return workload.run_rep(seed, tracer)


def _run_figure(reps: List[Rep], key: str) -> float:
    """A figure over a run's units: from each window's fastest time, as on
    the reference host, where the units time windows; else the median over
    the units' figures, as measured."""
    if key in reps[0].windows:
        runs = [rep.windows[key] for rep in reps]
        return runs[0].figure(Windows.fastest(runs), _slowdown(reps))
    return statistics.median(rep.figures[key] for rep in reps)


def _slowdown(reps: List[Rep]) -> float:
    return hostspeed.slowdown([rep.probe for rep in reps])


def _setup_s(reps: List[Rep]) -> float:
    """The median over a unit's set-ups of each one's fastest time over
    the units, as on the reference host."""
    fastest = [min(column) for column in zip(*(rep.setups for rep in reps))]
    return statistics.median(fastest) / _slowdown(reps)


def _windows_repeat(reps: List[Rep]) -> Check:
    uneven = sorted(
        key for key in reps[0].windows
        if len({len(rep.windows[key].seconds) for rep in reps}) > 1
    )
    if len({rep.probe.points for rep in reps}) > 1:
        uneven.append("host probe")
    return Check("windows_repeat", not uneven, f"units timed different windows: {uneven}")


def _print_figures(name: str, workload: Workload, reps: List[Rep]) -> Dict[str, float]:
    figures = {key: _run_figure(reps, key) for key in reps[0].figures}
    print(f"workload {name}: {len(reps)} unit(s), digest {reps[0].digest}")
    for key, value in figures.items():
        unit = workload.units.get(key, "ratio")
        mapped = [metric for metric, figure in workload.e2e.items() if figure == key]
        also = f"  (reported as {mapped[0]})" if mapped else ""
        print(f"  {key:<28} {value:>16.6g} {unit}{also}")
    return figures


def run_untraced(name: str, workload: Workload, seed: int, seconds: float):
    reps = []
    started = perf_counter()
    while True:
        unit_started = perf_counter()
        rep = _run_unit(workload, seed)
        rep.peak_rss_mib = max(rep.peak_rss_mib, common.peak_rss_mib())
        reps.append(rep)
        now = perf_counter()
        # Start another unit only if one as long as this one ends in time.
        if now - started + (now - unit_started) > seconds:
            break
    digests = {rep.digest for rep in reps}
    reps[0].checks.extend([
        Check("digest_repeats", len(digests) == 1,
              f"units of one seed disagree: {sorted(digests)}"),
        _windows_repeat(reps),
    ])
    figures = _print_figures(name, workload, reps)
    metrics = {
        "setup_s": _setup_s(reps),
        "peak_rss_mb": max(rep.peak_rss_mib for rep in reps),
        "served_share": 1.0 - figures["failed_share"],
        **{metric: figures[figure] for metric, figure in workload.e2e.items()},
    }
    print(f"  {'setup_s':<28} {metrics['setup_s']:>16.6g} s")
    print(f"  host slowdown                {_slowdown(reps):>16.6g} (times of the "
          f"reference kernel's {hostspeed.REFERENCE_S * 1e3:g} ms; rates and times above "
          f"are scaled by it, except the get_key tail)")
    print(f"  {'peak_rss_mb':<28} {metrics['peak_rss_mb']:>16.6g} MiB")
    return reps, {
        metric: {"value": metrics[metric], "unit": unit} for metric, unit in END_TO_END
    }


def run_traced(name: str, workload: Workload, seed: int):
    # Untraced and traced units alternate, so a drift in host speed falls on
    # both sides of the overhead estimate.
    plain, traced = [], []
    tracer = Tracer()
    for _ in range(TRACED_UNITS):
        plain.append(_run_unit(workload, seed))
        tracer.install(layers.TARGETS)
        try:
            traced.append(_run_unit(workload, seed, tracer))
        finally:
            tracer.uninstall()
    reps = plain + traced
    per_rep = []
    for rep in traced:
        server = {
            span: SpanStats(**entry) for span, entry in (rep.server_spans or {}).items()
        }
        stats = layers.merge_stats(rep.spans, server)
        counters = layers.merge_counters(rep.counters, rep.server_counters)
        values = layers.layer_metrics(stats, counters, rep.layer_figures)
        processes = [("benchmark process", rep.spans)] + ([("server process", server)] if server else [])
        per_rep.append((stats, values, processes))

    stats_a, values_a, _ = per_rep[0]
    stats_b, values_b, _ = per_rep[1]
    unsteady = [
        f"{metric} {values_a[metric]} != {values_b[metric]}"
        for metric in values_a
        if layers.is_exact_count(metric) and values_a[metric] != values_b[metric]
    ]
    missing = layers.missing_spans(name, stats_a)
    digests = {rep.digest for rep in reps}
    plain[0].checks.extend([
        Check("trace.digest_unchanged", len(digests) == 1,
              f"untraced and traced units disagree: {sorted(digests)}"),
        Check("trace.counts_repeat", not unsteady, "; ".join(unsteady)),
        Check("trace.spans_present", not missing, f"no calls recorded: {missing}"),
        _windows_repeat(reps),
    ])
    values = {
        metric: (values_a[metric] + values_b[metric]) / 2.0 for metric in values_a
    }
    traced_wall = statistics.median([rep.wall_s for rep in traced])
    plain_wall = statistics.median([rep.wall_s for rep in plain])
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    stage_spans = statistics.median([
        sum(entry.total_s for span, entry in stats.items() if span.startswith("stage."))
        for stats, _, _ in per_rep
    ])
    telemetry = statistics.median([rep.layer_figures.get("telemetry.stage_s", 0.0) for rep in traced])
    values["trace.telemetry_gap"] = (telemetry - stage_spans) / telemetry if telemetry else 0.0

    print(f"workload {name}: traced, unit seed {seed}, digest {plain[0].digest}")
    for figure in plain[0].figures:
        untraced_value = _run_figure(plain, figure)
        traced_value = _run_figure(traced, figure)
        print(f"  {figure:<28} untraced {untraced_value:>14.6g}  traced {traced_value:>14.6g}")
    print(f"  tracing overhead on the timed wall: {values['trace.overhead']:+.1%} "
          f"({plain_wall:.3f} s untraced, {traced_wall:.3f} s traced)")
    if telemetry:
        print(f"  stage spans {stage_spans:.4f} s vs PipelineTelemetry {telemetry:.4f} s "
              f"(gap {values['trace.telemetry_gap']:+.2%})")
    _print_budget(name, traced, per_rep)
    for metric in layers.PER_LAYER:
        print(f"  {metric:<34} {values[metric]:>16.6g} {layers.UNITS[metric]}")
    metrics = {
        metric: {"value": values[metric], "unit": layers.UNITS[metric]}
        for metric in layers.PER_LAYER
    }
    return reps, metrics


def _print_budget(name: str, traced: List[Rep], per_rep) -> None:
    """Each process's layer self times, averaged over the traced units."""
    wall = statistics.median([rep.wall_s for rep in traced])
    for index, (process, _) in enumerate(per_rep[0][2]):
        print(f"layer budget, {name}, {process}: self time per unit, "
              f"share of the {wall:.3f} s timed wall")
        rows = [layers.budget_rows(name, entry[2][index][1], wall) for entry in per_rep]
        attributed, largest = 0.0, ("none", 0.0)
        for row in zip(*rows):
            layer, _, _, moves, role = row[0]
            self_s = sum(part[1] for part in row) / len(row)
            attributed += self_s
            largest = max(largest, (layer, self_s), key=lambda item: item[1])
            if role == "runs" or self_s > 0:
                print(f"  {layer:<42} {self_s:>9.4f} s {self_s / wall:>7.1%}  "
                      f"{role:<8} moves {moves}")
        print(f"  {'not in any layer':<42} {wall - attributed:>9.4f} s "
              f"{(wall - attributed) / wall:>7.1%}")
        print(f"  largest layer: {largest[0]} ({largest[1] / wall:.1%} of the wall)")


def main() -> int:
    parser = argparse.ArgumentParser(description="Photons-to-served-key benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        reps, metrics = run_traced(args.workload, workload, args.seed)
    else:
        reps, metrics = run_untraced(args.workload, workload, args.seed, args.seconds)
    failures = _failed_checks(reps)
    checked = sum(len(rep.checks) for rep in reps)
    print(f"checks: {checked - len(failures)} of {checked} hold")
    for failure in failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
