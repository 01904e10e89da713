"""Collective (swarm) attestation -- the Section 2.1 extension.

The paper's background surveys swarm RA (SEDA [2], LISA [4], SANA
[23]): when many interconnected devices must be attested, a dedicated
protocol aggregates results over the network instead of attesting each
device point-to-point.

* :mod:`repro.swarm.topology` -- device graphs and hop-latency models;
* :mod:`repro.swarm.collective` -- a SEDA-style spanning-tree
  aggregation protocol over the simulated devices (LISA-s flavour);
* :mod:`repro.swarm.lisa` -- LISA-alpha: per-device reports forwarded
  to the verifier (higher QoSA, more traffic).
"""

from repro.swarm.topology import SwarmTopology, make_topology
from repro.swarm.collective import (
    SwarmAttestation,
    SwarmNodeService,
    SwarmResult,
)
from repro.swarm.lisa import (
    LisaAlphaAttestation,
    LisaAlphaNode,
    LisaAlphaResult,
)

__all__ = [
    "SwarmTopology",
    "make_topology",
    "SwarmAttestation",
    "SwarmNodeService",
    "SwarmResult",
    "LisaAlphaAttestation",
    "LisaAlphaNode",
    "LisaAlphaResult",
]
