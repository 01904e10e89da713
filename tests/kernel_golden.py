"""Scenarios that pin the measurement kernel to a recorded golden.

``MeasurementProcess.run`` has one traversal loop.  This module records
what that loop produces -- trace ``render()`` bytes, verdicts, canonical
report bytes, record digests, audit hashes and block timestamps -- on
the scenarios that stress it hardest:

* every Table-1 mechanism, on-demand ones challenged twice;
* self-relocating malware under SMARM, ERASMUS and SMART;
* an ERASMUS device reset mid-run;
* ERASMUS coupled with on-demand attestation on one device, for each
  digest algorithm;
* single measurements: cold, with a dirtied block, shuffled, and a
  second traversal after a reset.

The golden is ``tests/golden/measurement_kernel.json``.  Regenerate it
(only for an intended change of simulated behaviour) with::

    PYTHONPATH=src python -m tests.kernel_golden \\
        > tests/golden/measurement_kernel.json
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.apps.firealarm import FireAlarmApp
from repro.apps.metrics import summarize_tasks
from repro.core.tradeoff import ScenarioConfig
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.service import OnDemandVerifier
from repro.ra.verifier import Verifier
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel

GOLDEN = Path(__file__).parent / "golden" / "measurement_kernel.json"

MECHANISMS = [
    "no-lock", "all-lock", "dec-lock", "inc-lock",
    "smart", "smarm", "erasmus", "seed",
]
RELOCATING = ["smarm", "erasmus", "smart"]
ALGORITHMS = ["sha256", "sha512", "blake2b", "blake2s"]


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def sha_json(value) -> str:
    return sha(json.dumps(value, sort_keys=True))


def scenario_config() -> ScenarioConfig:
    return ScenarioConfig(block_count=24, horizon=25.0,
                          erasmus_collect_at=20.0)


def verdicts(verifier):
    return [result.verdict.value for result in verifier.results]


def run_scenario(mechanism, reset_at=None, **build_kw):
    config = scenario_config()
    scenario = Scenario.build(mechanism, config=config, **build_kw)
    if scenario.driver is not None:
        # on-demand mechanisms measure only when challenged; two
        # requests give the device a second traversal
        scenario.schedule_request(config.request_at)
        scenario.schedule_request(config.request_at + 8.0)
    if reset_at is not None:
        scenario.sim.schedule_at(reset_at, scenario.device.reset)
    scenario.run()
    return {
        "trace": sha(scenario.device.trace.render()),
        "verdicts": verdicts(scenario.verifier),
    }


def coupled_run(algorithm):
    sim = Simulator()
    device = Device(sim, block_count=12, block_size=32)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    service = ErasmusService(
        device, period=2.0,
        config=MeasurementConfig(algorithm=algorithm, atomic=True,
                                 priority=50, normalize_mutable=True),
        on_demand=True,
    )
    service.start()
    driver = OnDemandVerifier(verifier, channel, endpoint_name="vrf-od")
    collector = CollectorVerifier(verifier, channel,
                                  endpoint_name="vrf-collect")
    app = FireAlarmApp(device, period=0.25, sample_wcet=0.002,
                       priority=100, data_block=device.block_count - 1)
    exchanges = []
    sim.schedule_at(
        5.3, lambda: exchanges.append(driver.request(device.name))
    )
    sim.schedule_at(9.0, collector.collect, device.name)
    sim.run(until=12.0)
    reports = [
        bytes(record.canonical_bytes())
        for collection in collector.collections
        for record in collection.records
    ]
    return {
        "trace": sha(device.trace.render()),
        "verdicts": verdicts(verifier),
        "reports": sha(b"".join(reports)),
        "report_count": len(reports),
        "exchange_report": sha(b"".join(
            bytes(record.canonical_bytes())
            for record in exchanges[0].report.records
        )),
        "availability": sha_json(
            summarize_tasks(device, [app.task]).to_dict()
        ),
        "served": service.on_demand_served,
    }


def run_measurement(device, config=None, until=100.0):
    config = config or MeasurementConfig()
    mp = MeasurementProcess(device, config, nonce=b"n", counter=1,
                            mechanism="test")
    device.cpu.spawn("mp", mp.run, priority=config.priority)
    device.sim.run(until=until)
    assert mp.record is not None
    return mp.record


def make_device(block_count=24):
    return Device(Simulator(), block_count=block_count, block_size=32)


def record_summary(record):
    return {
        "digest": record.digest.hex(),
        "audit_hashes": sha(b"".join(record.audit_block_hashes)),
        "audit_times": sha_json(list(record.audit_block_times)),
    }


def single_measurement(case):
    device = make_device()
    records = []
    if case == "cold":
        records.append(run_measurement(device))
    elif case == "dirty5":
        device.memory.write(5, b"\xee" * 32, actor="malware")
        records.append(run_measurement(device))
    elif case == "shuffled":
        records.append(
            run_measurement(device, MeasurementConfig(order="shuffled"))
        )
    elif case == "reset":
        records.append(run_measurement(device, until=100.0))
        device.reset()
        records.append(run_measurement(device, until=300.0))
    return {
        "trace": sha(device.trace.render()),
        "records": [record_summary(record) for record in records],
    }


SINGLE_CASES = ["cold", "dirty5", "shuffled", "reset"]


def scenario_table():
    """Every golden key mapped to the zero-argument run producing it."""
    table = {}
    for mechanism in MECHANISMS:
        table[f"mechanism/{mechanism}"] = (
            lambda m=mechanism: run_scenario(m)
        )
    for mechanism in RELOCATING:
        table[f"relocating/{mechanism}"] = (
            lambda m=mechanism: run_scenario(
                m, malware="relocating",
                malware_options={"strategy": "to-measured",
                                 "rng_seed": 99},
            )
        )
    table["erasmus-reset"] = lambda: run_scenario("erasmus", reset_at=11.3)
    for algorithm in ALGORITHMS:
        table[f"coupled/{algorithm}"] = (
            lambda a=algorithm: coupled_run(a)
        )
    for case in SINGLE_CASES:
        table[f"single/{case}"] = lambda c=case: single_measurement(c)
    return table


SCENARIOS = scenario_table()


def load_golden():
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    out = {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
