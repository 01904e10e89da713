"""Discrete-event simulation substrate: the simple IoT device.

This subpackage provides the "hardware" the paper assumes:

* :mod:`repro.sim.engine` -- event queue and simulation clock;
* :mod:`repro.sim.process` -- generator-coroutine processes on a single
  CPU with priority preemption and interrupt masking (the mechanism
  behind *atomic* attestation);
* :mod:`repro.sim.memory` -- block-structured attested memory;
* :mod:`repro.sim.mpu` -- per-block lock bits (the mechanism behind
  *memory locking*);
* :mod:`repro.sim.task` -- periodic real-time tasks with deadline
  accounting (the safety-critical application substrate);
* :mod:`repro.sim.device` -- the prover device tying it all together;
* :mod:`repro.sim.network` -- verifier/prover channels with latency and
  adversarial filters;
* :mod:`repro.sim.trace` -- timeline recording used by the figure
  benchmarks.
"""

from repro.sim.engine import Simulator, Signal, EventHandle
from repro.sim.process import (
    CPU,
    Process,
    Compute,
    Sleep,
    WaitSignal,
    Atomic,
    Yield,
)
from repro.sim.memory import Memory, MemoryBlock, Region, MemoryImage
from repro.sim.mpu import MemoryProtectionUnit, FaultPolicy
from repro.sim.task import PeriodicTask, TaskStats
from repro.sim.device import Device, SecureTimer
from repro.sim.network import (
    Channel,
    ChannelFilter,
    Endpoint,
    FilterVerdict,
    Message,
)
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "Signal",
    "EventHandle",
    "CPU",
    "Process",
    "Compute",
    "Sleep",
    "WaitSignal",
    "Atomic",
    "Yield",
    "Memory",
    "MemoryBlock",
    "Region",
    "MemoryImage",
    "MemoryProtectionUnit",
    "FaultPolicy",
    "PeriodicTask",
    "TaskStats",
    "Device",
    "SecureTimer",
    "Channel",
    "ChannelFilter",
    "FilterVerdict",
    "Endpoint",
    "Message",
    "Trace",
    "TraceRecord",
]
