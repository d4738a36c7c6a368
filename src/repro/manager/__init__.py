"""Fabric management: the paper's primary contribution.

Provides the fabric manager, its topology database, the processing
time model of Fig. 4, the three discovery implementations of section 3,
and the standby that takes over when the primary fails.  Partial
assimilation, the paper's future work, is a value the fabric manager
is built with (``FabricManager(assimilation="partial")``).
"""

from .. import _surface

__getattr__, __dir__, __all__ = _surface(globals(), {
    "ALGORITHMS": "timing",
    "ConsistencyReport": "consistency",
    "DatabaseError": "database",
    "DeviceRecord": "database",
    "Difference": "consistency",
    "DiscoveryStats": "discovery.base",
    "FabricManager": "fm",
    "FailoverReport": "failover",
    "PARALLEL": "timing",
    "PortRecord": "database",
    "ProcessingTimeModel": "timing",
    "SERIAL_DEVICE": "timing",
    "SERIAL_PACKET": "timing",
    "StandbyManager": "failover",
    "TopologyAuditor": "consistency",
    "TopologyDatabase": "database",
    "audit_topology": "consistency",
    "make_algorithm": "discovery",
})
