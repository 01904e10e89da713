#!/usr/bin/env python3
"""An unattended sensor: ERASMUS self-measurement + SeED push reports.

The on-demand model breaks down for devices a verifier visits rarely
(Section 3.3).  This script runs a sensor for ten simulated minutes
with a verifier that only collects every 100 seconds, while transient
malware sneaks in and out twice:

* a short residency that fits between two self-measurements -- missed
  (Figure 5's 'Infection 1');
* a longer residency spanning a measurement -- detected at the next
  collection, with the verifier localizing *when* the device was dirty.

The same device also runs SeED-style pushed attestation through its
secure timer, and a man-in-the-middle drops one pushed report to show
the verifier noticing the gap.

Run:  python examples/unattended_sensor.py
"""

from repro.malware import TransientMalware
from repro.ra import Verifier
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.seed import SeedMonitor, SeedService
from repro.sim import Channel, Device, Simulator


def main() -> None:
    t_m, t_c, horizon = 10.0, 100.0, 600.0

    sim = Simulator()
    device = Device(sim, name="river-gauge", block_count=32,
                    block_size=32)
    device.standard_layout()
    channel = Channel(sim, latency=0.01)

    # A communication adversary that eats exactly the pushed report in
    # flight around t=305 (see below).
    class OneShotDropper:
        def __init__(self):
            self.armed = True
            self.dropped_at = None

        def __call__(self, message):
            if (message.kind == "seed_report" and self.armed
                    and message.sent_at > 300.0):
                self.armed = False
                self.dropped_at = message.sent_at
                return None
            return 0.01

    dropper = OneShotDropper()
    channel.add_filter(dropper)
    device.attach_network(channel)

    verifier = Verifier(sim)
    verifier.enroll(device)

    # --- ERASMUS: measure every T_M, collect every T_C ------------------
    erasmus = ErasmusService(
        device, period=t_m,
        config=MeasurementConfig(atomic=True, priority=50,
                                 normalize_mutable=True),
        history_size=128,
    )
    erasmus.start()
    collector = CollectorVerifier(verifier, channel,
                                  endpoint_name="vrf-collect")
    collector.collect_every(device.name, period=t_c,
                            count=int(horizon / t_c))

    # --- SeED: secret-timer pushed reports -------------------------------
    shared_seed = b"installed-at-manufacture"
    seed_service = SeedService(
        device, shared_seed, verifier_name="vrf-push",
        min_gap=60.0, max_gap=90.0, trigger_count=7,
    )
    monitor = SeedMonitor(
        verifier, channel, device.name, shared_seed,
        min_gap=60.0, max_gap=90.0, trigger_count=7, grace=5.0,
        endpoint_name="vrf-push",
    )
    seed_service.start()

    # --- two infections ----------------------------------------------------
    TransientMalware(device, target_block=3, infect_at=123.0,
                     leave_at=127.0, name="quick-strike")  # fits in a gap
    TransientMalware(device, target_block=3, infect_at=345.0,
                     leave_at=372.0, name="long-dwell")    # spans 350, 360, 370

    sim.run(until=horizon)

    # --- report --------------------------------------------------------------
    print(f"unattended sensor, T_M={t_m:g}s, T_C={t_c:g}s, "
          f"{horizon:g}s horizon")
    print(f"self-measurements taken : {erasmus.measurements_done}")
    print(f"collections             : {len(collector.collections)}")

    dirty_windows = []
    for collection in collector.collections:
        dirty_windows.extend(collection.dirty_intervals)
    print(f"dirty measurement windows reported: "
          f"{[(round(a, 1), round(b, 1)) for a, b in dirty_windows]}")

    quick_caught = any(a <= 127.0 and 123.0 <= b for a, b in dirty_windows)
    long_caught = any(a <= 372.0 and 345.0 <= b for a, b in dirty_windows)
    print(f"quick-strike (4 s dwell)  detected: {quick_caught}")
    print(f"long-dwell  (27 s dwell)  detected: {long_caught}")

    print(f"\nSeED pushed reports: {len(seed_service.reports_sent)} sent, "
          f"{monitor.missing_count()} flagged missing "
          f"(adversary dropped one at t~{dropper.dropped_at:.0f}s)")
    print("SeED verdict series:", monitor.verdict_series())

    assert not quick_caught, "a 4s dwell cannot span a 10s grid"
    assert long_caught
    assert monitor.missing_count() == 1


if __name__ == "__main__":
    main()
