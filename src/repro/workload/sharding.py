"""Sharded loading of the Analytical Workload.

Standard partition topology for the paper's 25-query workload: the fact
tables (``positions``, ``marks``) hash-partition on the instrument
symbol — the dominant join key — while the keyed dimension table
(``instruments``) is replicated to every shard, so fact-dimension joins
never move fact rows.

Row routing itself happens inside :meth:`ShardedBackend.load_columns`
(lint rule HQ007: loaders hand over whole tables and never inspect
partition keys).
"""

from __future__ import annotations

from repro.config import HyperQConfig
from repro.core.metadata import PartitionMap
from repro.core.platform import DirectGateway, HyperQ
from repro.core.sharded import ShardedBackend
from repro.sqlengine.engine import Engine
from repro.workload.analytical import (
    AnalyticalConfig,
    AnalyticalWorkload,
    generate,
)
from repro.workload.loader import qtable_to_columns


def analytical_partition_map(shard_count: int) -> PartitionMap:
    """The workload's partition topology for ``shard_count`` shards."""
    return (
        PartitionMap(shard_count)
        .hash_table("positions", "inst")
        .hash_table("marks", "inst")
    )


def load_sharded_workload(
    backend: ShardedBackend,
    mdi=None,
    config: AnalyticalConfig | None = None,
    workload: AnalyticalWorkload | None = None,
) -> AnalyticalWorkload:
    """Generate the workload and load it across the shard topology.

    Mirrors :func:`repro.workload.analytical.load_workload` for the
    sharded backend: ``ordcol`` is assigned globally before the split,
    keyed tables get their key columns annotated on the MDI.
    """
    workload = workload or generate(config)
    for name, table in workload.tables.items():
        keys, columns, column_data = qtable_to_columns(table)
        backend.load_columns(name, columns, column_data)
        if mdi is not None:
            if keys:
                mdi.annotate_keys(name, keys)
            else:
                mdi.invalidate(name)
    return workload


def build_sharded_platform(
    shard_count: int,
    config: HyperQConfig | None = None,
    workload_config: AnalyticalConfig | None = None,
    workload: AnalyticalWorkload | None = None,
) -> tuple[HyperQ, ShardedBackend, AnalyticalWorkload]:
    """A HyperQ platform over an in-process N-shard backend with the
    analytical workload loaded — the differential-test setup.

    ``config.sharding.mode`` selects the shard transport: ``"thread"``
    hosts every partition engine in this process, ``"process"`` spawns
    one pipe-connected worker process per shard
    (:func:`repro.core.procshard.spawn_process_shards`) for true
    multi-core scatter parallelism.  The platform's workload manager
    (``config.wlm``) wraps every shard.
    """
    config = config or HyperQConfig()
    if config.sharding.mode == "process":
        from repro.core.procshard import spawn_process_shards

        children: list = spawn_process_shards(shard_count, config.sharding)
    else:
        children = [DirectGateway(Engine()) for __ in range(shard_count)]
    backend = ShardedBackend(children, analytical_partition_map(shard_count))
    try:
        platform = HyperQ(config=config, backend=backend)
        loaded = load_sharded_workload(
            backend, mdi=platform.mdi, config=workload_config,
            workload=workload,
        )
    except BaseException:
        # a failed build must not leak shard children (process mode
        # spawns real worker processes per shard)
        backend.close()
        raise
    return platform, backend, loaded
