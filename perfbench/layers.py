"""The layer table: what is wrapped, what each layer reports, what it moves.

This module is the benchmark's design record.  For every layer of the
program it names

* the entry points the traced run wraps (:data:`TARGETS`), each span with
  the workloads on which it must record calls — a span that records none
  there means a refactor moved the call, and the traced run fails rather
  than report a layer that suddenly costs nothing;
* the per-layer metrics computed from those spans (:data:`PER_LAYER`);
* the end-to-end figure the layer should move, and on which workloads it
  runs or is bypassed (:data:`LAYERS`), so a later performance change can
  state its prediction in these terms and be checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from perfbench.tracing import SpanStats, Target

D, S, N, T = "distill", "soak", "netkms", "tunnel"


def _n(key: str, fn) -> Callable:
    return lambda args, kwargs, result: {key: fn(args, result)}


@dataclass(frozen=True)
class Span:
    target: Target
    #: Workloads on which the timed phases must record calls of this span.
    required_on: Tuple[str, ...]
    #: Coroutine spans measure waits, not busy time; kept out of budgets.
    wait: bool = False


def _t(span, owner, attr, required_on, kind="call", counter=None, raises=(), wait=False):
    return Span(Target(span, owner, attr, kind, counter, raises), required_on, wait)


STAGES = "repro.pipeline.stages"
SPANS: Tuple[Span, ...] = (
    # optics
    _t("optics.transmit", "repro.optics.channel:QuantumChannel", "transmit", (D,),
       counter=_n("optics.slots", lambda a, r: a[1])),
    _t("optics.transmit_lanes", "repro.optics.channel", "transmit_lanes", (D,),
       counter=_n("optics.slots", lambda a, r: a[1] * len(a[0]))),
    # lanes
    _t("lanes.run_slots", "repro.lanes.engine:LaneEngine", "run_slots", (D,)),
    # core.sifting
    _t("sifting.sift", "repro.core.sifting:SiftingProtocol", "sift", (D,),
       counter=_n("sifting.sifted_bits", lambda a, r: len(r.alice_key))),
    _t("sifting.sift_frames", "repro.core.sifting", "sift_frames", (D,)),
    # core.cascade (the pipeline stage that runs it)
    _t("stage.cascade", f"{STAGES}:CascadeStage", "run", (D,),
       counter=_n("cascade.disclosed_bits",
                  lambda a, r: r.cascade.disclosed_parities if r.cascade else 0)),
    # core.privacy / core.entropy_estimation (with the QBER alarm stage)
    _t("stage.alarm", f"{STAGES}:QberAlarmStage", "run", (D,)),
    _t("stage.entropy", f"{STAGES}:_EntropyStageBase", "run", (D,)),
    _t("stage.privacy", f"{STAGES}:PrivacyAmplificationStage", "run", (D,)),
    # core.authentication + crypto.wegman_carter
    _t("stage.auth", f"{STAGES}:AuthenticationStage", "run", (D,)),
    _t("wegman_carter.tag", "repro.crypto.wegman_carter:WegmanCarterAuthenticator",
       "tag", (D,), counter=_n("auth.tag_bits_consumed", lambda a, r: a[0].tag_bits)),
    _t("wegman_carter.verify", "repro.crypto.wegman_carter:WegmanCarterAuthenticator",
       "verify", (D,), counter=_n("auth.tag_bits_consumed", lambda a, r: a[0].tag_bits)),
    # core.messages
    _t("messages.transcript", "repro.core.messages:PublicChannelLog", "transcript_bytes",
       (D,), counter=lambda a, k, r: {"messages.count": len(a[0]), "messages.bytes": len(r)}),
    # the benchmark's own host probe, so that its time is no layer's self time
    _t("bench.host_probe", "perfbench.hostspeed:HostProbe", "__call__", ()),
    # sim
    _t("sim.run_until", "repro.sim.clock:EventScheduler", "run_until", (S,),
       counter=_n("sim.events", lambda a, r: r)),
    # kms.service: serve() and the event handlers the sim loop calls
    _t("kms.serve", "repro.kms.service:KeyManagementService", "serve", (S,)),
    _t("kms.on_demand", "repro.kms.service:KeyManagementService", "_on_demand", (S,)),
    _t("kms.on_epoch", "repro.kms.service:KeyManagementService", "_on_epoch", (S,)),
    _t("kms.enqueue_waiter", "repro.kms.service:KeyManagementService", "_enqueue_waiter", (S,)),
    _t("kms.waiter_timeout", "repro.kms.service:KeyManagementService",
       "_on_waiter_timeout", ()),
    # kms.scheduler
    _t("scheduler.run_epoch", "repro.kms.scheduler:ReplenishmentScheduler", "run_epoch",
       (S,), counter=lambda a, k, r: {"scheduler.links_dispatched": len(r.dispatched),
                                     "scheduler.pad_bits_banked": r.total_banked_bits}),
    # kms.store
    _t("store.reserve", "repro.kms.store:KeyStore", "reserve", (S, N),
       raises=("repro.kms.store.KeyStoreExhaustedError",)),
    _t("store.consume", "repro.kms.store:KeyStore", "consuming", (S, N), kind="context"),
    _t("store.deposit", "repro.kms.store:KeyStore", "deposit", (S, N)),
    # core.keypool (and the pipeline stage that feeds the pools)
    _t("keypool.available_bits", "repro.core.keypool:KeyPool", "available_bits", (S, N),
       kind="property"),
    _t("keypool.draw_bits", "repro.core.keypool:KeyPool", "draw_bits", (S, N)),
    _t("keypool.add_block", "repro.core.keypool:KeyPool", "add_block", (D, S, N)),
    _t("stage.deliver", f"{STAGES}:DeliveryStage", "run", (D,)),
    # network.relay / network.routing
    _t("relay.transport_with_reroute", "repro.network.relay:TrustedRelayNetwork",
       "transport_with_reroute", (S,),
       counter=lambda a, k, r: {
           "relay.transports_failed": 0 if r.success else 1,
           "relay.reroutes": 1 if r.rerouted else 0,
           "relay.pad_bits_used": r.pad_bits_consumed if r.success else 0,
       }),
    _t("relay.transport_key", "repro.network.relay:TrustedRelayNetwork", "transport_key", (S,)),
    _t("routing.find_path", "repro.network.routing:PathSelector", "find_path", (S,)),
    # ipsec.ike
    _t("ike.phase2", "repro.ipsec.ike:IKEDaemon", "negotiate_phase2", (S, T)),
    _t("ike.phase1", "repro.ipsec.ike:IKEDaemon", "establish_phase1", ()),
    # crypto.sha1 (rebound in ipsec.esp and ipsec.ike, which import by name)
    _t("sha1.hmac", "repro.crypto.sha1", "hmac_sha1", (S, T),
       counter=_n("sha1.hmac_bytes", lambda a, r: len(a[1]))),
    _t("sha1.prf_expand", "repro.crypto.sha1", "prf_expand", (S, T)),
    # crypto.aes / crypto.modes
    _t("aes.cbc_encrypt", "repro.crypto.modes", "cbc_encrypt", (T,),
       counter=_n("aes.blocks", lambda a, r: len(r) // 16)),
    _t("aes.cbc_decrypt", "repro.crypto.modes", "cbc_decrypt", (T,),
       counter=_n("aes.blocks", lambda a, r: len(a[1]) // 16)),
    _t("aes.key_expand", "repro.crypto.aes:AES", "__init__", (T,)),
    # ipsec.esp / ipsec.gateway
    _t("esp.encapsulate", "repro.ipsec.esp:EspProcessor", "encapsulate", (T,)),
    _t("esp.decapsulate", "repro.ipsec.esp:EspProcessor", "decapsulate", (T,)),
    _t("gateway.send", "repro.ipsec.gateway:VPNGateway", "send", (T,)),
    _t("gateway.receive", "repro.ipsec.gateway:VPNGateway", "receive", (T,)),
    # netkms.protocol (both processes)
    _t("protocol.encode_frame", "repro.netkms.protocol", "encode_frame", (N,),
       counter=_n("protocol.bytes", lambda a, r: len(r))),
    _t("protocol.decode_body", "repro.netkms.protocol", "decode_body", (N,),
       counter=_n("protocol.bytes", lambda a, r: len(a[0]))),
    # netkms.client / netkms.server
    _t("client.reserve", "repro.netkms.client:NetworkKmsClient", "reserve", (N,),
       raises=("repro.netkms.client.RequestTimeoutError",), wait=True),
    _t("client.consume", "repro.netkms.client:NetworkKmsClient", "consume", (N,),
       raises=("repro.netkms.client.RequestTimeoutError",), wait=True),
    _t("server.dispatch", "repro.netkms.server:NetworkKmsServer", "_dispatch", (N,),
       wait=True),
    _t("server.reap_expired", "repro.netkms.server:NetworkKmsServer", "reap_expired", (N,)),
)

TARGETS: Tuple[Target, ...] = tuple(span.target for span in SPANS)
WAIT_SPANS = frozenset(span.target.span for span in SPANS if span.wait)


@dataclass(frozen=True)
class Layer:
    name: str
    spans: Tuple[str, ...]
    metrics: Tuple[str, ...]
    #: The end-to-end figure(s) the layer should move.
    moves: str
    #: Workloads that run the layer; every other workload bypasses it.
    runs_on: Tuple[str, ...]


LAYERS: Tuple[Layer, ...] = (
    Layer("optics", ("optics.transmit", "optics.transmit_lanes"),
          ("optics.transmit_s", "optics.slots"),
          "key_bits_per_s, fleet_key_bits_per_s", (D,)),
    Layer("lanes", ("lanes.run_slots",), ("lanes.run_s",), "fleet_key_bits_per_s", (D,)),
    Layer("core.sifting", ("sifting.sift", "sifting.sift_frames"),
          ("sifting.sift_s", "sifting.sifted_bits", "sifting.yield"), "key_bits_per_s", (D,)),
    Layer("core.cascade", ("stage.cascade",),
          ("cascade.s", "cascade.disclosed_bits", "distill.secret_fraction"),
          "key_bits_per_s", (D,)),
    Layer("core.privacy+entropy_estimation", ("stage.alarm", "stage.entropy", "stage.privacy"),
          ("privacy.s", "entropy.s"), "key_bits_per_s", (D,)),
    Layer("core.authentication+crypto.wegman_carter",
          ("stage.auth", "wegman_carter.tag", "wegman_carter.verify"),
          ("auth.s", "auth.tag_bits_consumed"), "key_bits_per_s", (D,)),
    Layer("core.messages", ("messages.transcript",),
          ("messages.encode_s", "messages.count", "messages.bytes"), "key_bits_per_s", (D,)),
    Layer("sim", ("sim.run_until",), ("sim.events", "sim.loop_self_s"), "rekeys_per_s", (S,)),
    Layer("kms.service",
          ("kms.serve", "kms.on_demand", "kms.on_epoch", "kms.enqueue_waiter",
           "kms.waiter_timeout"),
          ("kms.service_self_s", "kms.waiters_parked", "kms.waiter_timeouts",
           "kms.rekey_wait_p99_sim_s"),
          "rekeys_per_s, served_share", (S,)),
    Layer("kms.scheduler", ("scheduler.run_epoch",),
          ("scheduler.epoch_s", "scheduler.links_dispatched", "scheduler.pad_bits_banked",
           "kms.pad_bits_used_per_banked"),
          "rekeys_per_s", (S,)),
    Layer("kms.store", ("store.reserve", "store.consume", "store.deposit"),
          ("store.reserve_s", "store.reserve_calls", "store.reserve_denied",
           "store.consume_s", "store.deposit_s"),
          "rekeys_per_s (soak), get_key_per_s (netkms)", (S, N)),
    Layer("core.keypool",
          ("keypool.available_bits", "keypool.draw_bits", "keypool.add_block", "stage.deliver"),
          ("keypool.available_bits_calls", "keypool.s"),
          "rekeys_per_s (soak), get_key_per_s (netkms)", (S, N)),
    Layer("network.relay+routing",
          ("relay.transport_with_reroute", "relay.transport_key", "routing.find_path"),
          ("relay.transport_s", "relay.transports", "relay.transports_failed",
           "relay.transport_success_ratio", "relay.reroutes", "routing.find_path_s",
           "routing.find_path_calls"),
          "rekeys_per_s", (S,)),
    Layer("ipsec.ike", ("ike.phase2", "ike.phase1"),
          ("ike.phase2_s", "ike.phase2_calls", "ike.phase1_calls"),
          "rekeys_per_s (soak), barely small_packets_per_s (tunnel)", (S, T)),
    Layer("crypto.sha1", ("sha1.hmac", "sha1.prf_expand"),
          ("sha1.hmac_s", "sha1.hmac_calls", "sha1.hmac_bytes"),
          "rekeys_per_s strongly (soak), small_packets_per_s (tunnel)", (S, T)),
    Layer("crypto.aes+modes", ("aes.cbc_encrypt", "aes.cbc_decrypt", "aes.key_expand"),
          ("aes.s", "aes.blocks"),
          "large_goodput_bytes_per_s, then small_packets_per_s", (T,)),
    Layer("ipsec.esp+gateway",
          ("esp.encapsulate", "esp.decapsulate", "gateway.send", "gateway.receive"),
          ("esp.encapsulate_s", "esp.decapsulate_s", "esp.packets", "gateway.self_s"),
          "small_packets_per_s", (T,)),
    Layer("netkms.protocol", ("protocol.encode_frame", "protocol.decode_body"),
          ("protocol.encode_s", "protocol.decode_s", "protocol.frames", "protocol.bytes"),
          "get_key_per_s, get_key_p50_ms", (N,)),
    Layer("netkms.client+server",
          ("client.reserve", "client.consume", "server.dispatch", "server.reap_expired"),
          ("client.reserve_s", "client.consume_s", "client.timeouts", "server.reserve_p50_us",
           "server.protocol_errors", "server.reservations_denied",
           "generator.in_flight_max", "generator.late_ms"),
          "get_key_p97.5_ms, failed_share", (N,)),
)

#: Per-layer metrics of the tracing itself: the traced timed wall over the
#: untraced one, less one; and on ``distill`` the share by which the
#: program's ``PipelineTelemetry`` stage seconds exceed the stage spans.
TRACE_METRICS = ("trace.overhead", "trace.telemetry_gap")

RATIOS = frozenset({
    "sifting.yield", "distill.secret_fraction", "relay.transport_success_ratio",
    "kms.pad_bits_used_per_banked", *TRACE_METRICS,
})


def _unit(metric: str) -> str:
    if metric in RATIOS:
        return "ratio"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


PER_LAYER: Tuple[str, ...] = tuple(
    metric for layer in LAYERS for metric in layer.metrics
) + TRACE_METRICS
UNITS: Dict[str, str] = {metric: _unit(metric) for metric in PER_LAYER}


def _self(stats: Mapping[str, SpanStats], *names: str) -> float:
    return sum(stats[name].self_s for name in names if name in stats)


def _total(stats: Mapping[str, SpanStats], *names: str) -> float:
    return sum(stats[name].total_s for name in names if name in stats)


def _calls(stats: Mapping[str, SpanStats], *names: str) -> int:
    return sum(stats[name].calls for name in names if name in stats)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    stats: Mapping[str, SpanStats],
    counters: Mapping[str, float],
    figures: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one rep, from merged spans and counters.

    ``figures`` carries the per-layer numbers the program or the load
    generator report themselves (for example the KMS timeout count).
    """
    c = lambda key: counters.get(key, 0)  # noqa: E731
    slots = c("optics.slots")
    sifted = c("sifting.sifted_bits")
    banked = c("scheduler.pad_bits_banked")
    transports = _calls(stats, "relay.transport_with_reroute")
    values = {
        "optics.transmit_s": _self(stats, "optics.transmit", "optics.transmit_lanes"),
        "optics.slots": slots,
        "lanes.run_s": _self(stats, "lanes.run_slots"),
        "sifting.sift_s": _self(stats, "sifting.sift", "sifting.sift_frames"),
        "sifting.sifted_bits": sifted,
        "sifting.yield": _ratio(sifted, slots),
        "cascade.s": _self(stats, "stage.cascade"),
        "cascade.disclosed_bits": c("cascade.disclosed_bits"),
        "distill.secret_fraction": figures.get("distill.secret_fraction", 0.0),
        "privacy.s": _self(stats, "stage.privacy"),
        "entropy.s": _self(stats, "stage.entropy", "stage.alarm"),
        "auth.s": _self(stats, "stage.auth", "wegman_carter.tag", "wegman_carter.verify"),
        "auth.tag_bits_consumed": c("auth.tag_bits_consumed"),
        "messages.encode_s": _self(stats, "messages.transcript"),
        "messages.count": c("messages.count"),
        "messages.bytes": c("messages.bytes"),
        "sim.events": c("sim.events"),
        "sim.loop_self_s": _self(stats, "sim.run_until"),
        "kms.service_self_s": _self(
            stats, "kms.serve", "kms.on_demand", "kms.on_epoch",
            "kms.enqueue_waiter", "kms.waiter_timeout",
        ),
        "kms.waiters_parked": _calls(stats, "kms.enqueue_waiter"),
        "kms.waiter_timeouts": figures.get("kms.waiter_timeouts", 0),
        "kms.rekey_wait_p99_sim_s": figures.get("kms.rekey_wait_p99_sim_s", 0.0),
        "scheduler.epoch_s": _self(stats, "scheduler.run_epoch"),
        "scheduler.links_dispatched": c("scheduler.links_dispatched"),
        "scheduler.pad_bits_banked": banked,
        "kms.pad_bits_used_per_banked": _ratio(c("relay.pad_bits_used"), banked),
        "store.reserve_s": _self(stats, "store.reserve"),
        "store.reserve_calls": _calls(stats, "store.reserve"),
        "store.reserve_denied": c("store.reserve.raised"),
        "store.consume_s": _self(stats, "store.consume"),
        "store.deposit_s": _self(stats, "store.deposit"),
        "keypool.available_bits_calls": _calls(stats, "keypool.available_bits"),
        "keypool.s": _self(
            stats, "keypool.available_bits", "keypool.draw_bits", "keypool.add_block",
            "stage.deliver",
        ),
        "relay.transport_s": _self(stats, "relay.transport_with_reroute", "relay.transport_key"),
        "relay.transports": transports,
        "relay.transports_failed": c("relay.transports_failed"),
        "relay.transport_success_ratio": _ratio(
            transports - c("relay.transports_failed"), transports
        ),
        "relay.reroutes": figures.get("relay.reroutes", c("relay.reroutes")),
        "routing.find_path_s": _self(stats, "routing.find_path"),
        "routing.find_path_calls": _calls(stats, "routing.find_path"),
        "ike.phase2_s": _self(stats, "ike.phase2"),
        "ike.phase2_calls": _calls(stats, "ike.phase2"),
        "ike.phase1_calls": _calls(stats, "ike.phase1"),
        "sha1.hmac_s": _self(stats, "sha1.hmac", "sha1.prf_expand"),
        "sha1.hmac_calls": _calls(stats, "sha1.hmac"),
        "sha1.hmac_bytes": c("sha1.hmac_bytes"),
        "aes.s": _self(stats, "aes.cbc_encrypt", "aes.cbc_decrypt", "aes.key_expand"),
        "aes.blocks": c("aes.blocks"),
        "esp.encapsulate_s": _self(stats, "esp.encapsulate"),
        "esp.decapsulate_s": _self(stats, "esp.decapsulate"),
        "esp.packets": _calls(stats, "esp.encapsulate"),
        "gateway.self_s": _self(stats, "gateway.send", "gateway.receive"),
        "protocol.encode_s": _self(stats, "protocol.encode_frame"),
        "protocol.decode_s": _self(stats, "protocol.decode_body"),
        "protocol.frames": _calls(stats, "protocol.encode_frame", "protocol.decode_body"),
        "protocol.bytes": c("protocol.bytes"),
        "client.reserve_s": _total(stats, "client.reserve"),
        "client.consume_s": _total(stats, "client.consume"),
        "client.timeouts": c("client.reserve.raised") + c("client.consume.raised"),
        "server.reserve_p50_us": figures.get("server.reserve_p50_us", 0.0),
        "server.protocol_errors": figures.get("server.protocol_errors", 0),
        "server.reservations_denied": figures.get("server.reservations_denied", 0),
        "generator.in_flight_max": figures.get("generator.in_flight_max", 0),
        "generator.late_ms": figures.get("generator.late_ms", 0.0),
    }
    missing = set(PER_LAYER) - set(values) - set(TRACE_METRICS)
    if missing:
        raise KeyError(f"per-layer metrics without a formula: {sorted(missing)}")
    return values


def is_exact_count(metric: str) -> bool:
    """Whether a per-layer metric counts work and so repeats exactly for one
    seed (the netkms generator figures depend on timing and do not)."""
    return (
        metric.endswith(("_calls", "_bits", "_bytes"))
        or metric in ("sim.events", "optics.slots", "aes.blocks", "esp.packets",
                      "protocol.frames", "messages.count")
    )


def merge_stats(*parts: Optional[Mapping[str, SpanStats]]) -> Dict[str, SpanStats]:
    merged: Dict[str, SpanStats] = {}
    for part in parts:
        for name, entry in (part or {}).items():
            into = merged.setdefault(name, SpanStats())
            into.calls += entry.calls
            into.total_s += entry.total_s
            into.self_s += entry.self_s
    return merged


def merge_counters(*parts: Optional[Mapping[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for part in parts:
        for key, value in (part or {}).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def missing_spans(workload: str, stats: Mapping[str, SpanStats]) -> List[str]:
    """Spans the table requires on ``workload`` that recorded no calls."""
    return [
        span.target.span
        for span in SPANS
        if workload in span.required_on and _calls(stats, span.target.span) == 0
    ]


def budget_rows(
    workload: str, stats: Mapping[str, SpanStats], wall_s: float
) -> List[Tuple[str, float, float, str, str]]:
    """``(layer, self_s, share_of_wall, moves, role)`` per layer.

    Wait spans (coroutines: time a client or the server spent awaiting)
    overlap each other and busy time, so they are left out of the self
    time; their totals are in the per-layer metrics instead.
    """
    rows = []
    for layer in LAYERS:
        busy = [name for name in layer.spans if name not in WAIT_SPANS]
        self_s = _self(stats, *busy)
        role = "runs" if workload in layer.runs_on else "bypassed"
        rows.append((layer.name, self_s, _ratio(self_s, wall_s), layer.moves, role))
    return rows
