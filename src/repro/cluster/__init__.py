"""Multi-process VLSA serving cluster (layer 8).

A sharded pool of worker processes behind an asyncio router that keeps
the single-process service's submission contract — plus supervision
(heartbeats, crash/hang detection, backoff restarts), failover with a
degraded exact-addition fallback, and cluster-wide metrics aggregation.
See :mod:`repro.cluster.router` for the data path,
:mod:`repro.cluster.supervisor` for the control path, and
:mod:`repro.cluster.transport` for the wire (pickle over one duplex
pipe per worker).
"""

from .config import SHARD_POLICY_NAMES, ClusterConfig
from .router import (
    SHARD_POLICIES,
    ClusterRouter,
    ClusterUnhealthyError,
    register_shard_policy,
)
from .supervisor import WorkerHandle, WorkerSupervisor
from .sync import SyncCluster, close_shared_cluster, shared_cluster

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterUnhealthyError",
    "SHARD_POLICIES",
    "SHARD_POLICY_NAMES",
    "SyncCluster",
    "WorkerHandle",
    "WorkerSupervisor",
    "close_shared_cluster",
    "register_shard_policy",
    "shared_cluster",
]
