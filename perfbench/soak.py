"""Workload ``soak``: the paper's headline scenario on the flat relay mesh.

Five endpoints and four relays (ten gateway pairs) run under the key
management service for ``SOAK_HOURS`` of simulated time, with rekey-storm
demand (``WorkloadProfile.bursty``) and analytic replenishment at 120 s
epochs.  A ``relay-0``--``relay-1`` cut fires at a quarter of the horizon
and a full intercept-resend attack on ``relay-2``--``relay-3`` at half of
it.  The storms and the cut make rekeys park as waiters and time out, which
steady demand at 60 s epochs never does.  Optics and Cascade are bypassed
(analytic replenishment), so the KMS, relay transport, routing, the event
loop and IKE phase 2 do the work.

The latency figure, ``rekey_ms``, is the wall time the service takes per
rekey demanded, median over the epochs of simulated time: an epoch's wall
(its replenishment plus the rekeys demanded in it) over its demands.  The
rekeys' IKE phase 2 is most of an epoch's work, so this is close to the
reciprocal of ``rekeys_per_s`` and moves with it; per demand, it does not
follow how many rekeys a seed's storms put in its median epoch, as the
median epoch's wall did.  Probe events on the service's own event scheduler,
one per slice of ``EPOCH_SECONDS / SLICES_PER_EPOCH`` simulated seconds,
read the wall clock, and at epoch boundaries time the host probe; they
change no state, but they are counted in ``sim.events``.  The slices are
the windows the figures are timed in: an epoch's wall is the sum of its
slices, and the rates are completed rekeys and delivered key bits over the
summed slices.
"""

from __future__ import annotations

from time import perf_counter

from perfbench import common
from perfbench.common import Check, Rep, Windows
from perfbench.hostspeed import HostProbe
from repro import KmsConfig, QKDSystem, WorkloadProfile
from repro.eve.intercept_resend import InterceptResendAttack

SOAK_HOURS = 1.0
N_ENDPOINTS = 5
N_RELAYS = 4
EPOCH_SECONDS = 120.0
EPOCHS = int(SOAK_HOURS * 3600.0 // EPOCH_SECONDS)
#: The horizon is timed in slices of simulated time this much shorter than
#: an epoch: a slice is milliseconds of wall time, short beside the host's
#: slow spells.
SLICES_PER_EPOCH = 12
#: Set-up is tens of milliseconds, so it is repeated for a steadier median.
SETUP_REPEATS = 5


def _build(seed: int):
    horizon = SOAK_HOURS * 3600.0
    config = (
        KmsConfig()
        .with_workload(WorkloadProfile.bursty(300, burst_size=4, burst_spread_seconds=5))
        # One worker: the load stays on one CPU and the fan-out adds no noise.
        .with_replenishment(epoch_seconds=EPOCH_SECONDS, mode="analytic", workers=1)
    )
    service = QKDSystem(seed=seed).mesh(n_endpoints=N_ENDPOINTS, n_relays=N_RELAYS).kms(config)
    service.schedule_link_cut(horizon * 0.25, "relay-0", "relay-1")
    service.schedule_attack(horizon * 0.5, "relay-2", "relay-3", InterceptResendAttack(1.0))
    return service


def _probe_slices(service, probe: HostProbe):
    """Wall seconds of every slice of the served horizon, and the rekey
    demands that arrived in each epoch.

    A probe event at each slice boundary reads the wall clock; at epoch
    boundaries it also reads the service's demand count, times the host
    probe and reads the clock again.  A slice is timed from the last
    reading at one boundary to the first at the next.
    """
    reached, resumed, demands = [], [], []

    def boundary(epoch_start: bool) -> None:
        reached.append(perf_counter())
        if epoch_start:
            demands.append(service.metrics.demands)
            probe()
        resumed.append(perf_counter())

    slice_seconds = EPOCH_SECONDS / SLICES_PER_EPOCH
    for index in range(EPOCHS * SLICES_PER_EPOCH + 1):
        service.events.schedule_at(
            index * slice_seconds,
            lambda epoch_start=index % SLICES_PER_EPOCH == 0: boundary(epoch_start),
            label="bench-probe",
        )
    return lambda: (
        [later - earlier for earlier, later in zip(resumed, reached[1:])],
        [later - earlier for earlier, later in zip(demands, demands[1:])],
    )


def run_rep(seed: int, tracer=None) -> Rep:
    setups = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        service = _build(seed)
        setups.append(perf_counter() - started)
    probe = HostProbe()
    timed_slices = _probe_slices(service, probe)
    common.release_memory()  # the repeated set-ups' garbage
    since = tracer.mark() if tracer is not None else None
    report = service.serve(hours=SOAK_HOURS)
    traced = tracer.aggregate(since) if tracer is not None else None

    pending = service.pending_waiters
    slice_walls, epoch_demands = timed_slices()
    checks = [
        Check("soak.completion_accounted", report.completion_accounted,
              f"{report.demands} demands, {report.rekeys_completed} completed, "
              f"{report.rekeys_timed_out} timed out, {report.rekeys_failed} failed, "
              f"{report.pending_waiters} pending"),
        Check("soak.no_pending_waiters", pending == 0, f"{pending} waiters left pending"),
        Check("soak.rekeys_completed", report.rekeys_completed > 0, "nothing rekeyed"),
        Check("soak.slices_probed", len(slice_walls) == EPOCHS * SLICES_PER_EPOCH,
              f"{len(slice_walls)} of {EPOCHS * SLICES_PER_EPOCH} slices timed"),
    ]
    unserved = report.rekeys_timed_out + report.rekeys_failed
    windows = {
        "rekeys_per_s": Windows(slice_walls, report.rekeys_completed),
        "delivered_key_bits_per_s": Windows(slice_walls, report.delivered_key_bits),
        "rekey_ms": Windows(slice_walls, group=SLICES_PER_EPOCH, group_work=epoch_demands),
    }
    rep = Rep(
        setups=setups,
        wall_s=sum(slice_walls),
        figures={
            **{key: entry.figure() for key, entry in windows.items()},
            "failed_share": unserved / max(report.demands, 1),
        },
        windows=windows,
        attempted=report.demands,
        failed=report.rekeys_failed,
        digest=report.delivered_digest,
        probe=probe,
        checks=checks,
        layer_figures={
            "kms.waiter_timeouts": report.rekeys_timed_out,
            "kms.rekey_wait_p99_sim_s": report.rekey_latency_p99_seconds,
            "relay.reroutes": report.reroutes,
        },
    )
    if traced is not None:
        rep.spans, rep.counters = traced
    return rep
