"""Simulated parallel SpMxV with per-rank ABFT (the paper's Section 1).

The paper argues its technique extends to message-passing parallel
implementations: each processor owns a block of matrix rows and the
matching slice of the output vector; MPI guarantees message integrity
(checksummed transport), so silent errors strike *local* computation
and memory — and local detection/correction implies global
detection/correction.  The MTBF of the platform shrinks linearly with
the number of processors.

Since no MPI runtime is available offline, :class:`SimComm` provides a
deterministic in-process message-passing simulation (collectives with
byte-volume accounting), over which :func:`distributed_spmv` runs the
row-partitioned product with an independent ABFT checksum set per rank.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.parallel.comm import SimComm, CommStats
    from repro.parallel.partition import RowPartition, block_rows, partition_by_nnz
    from repro.parallel.spmv import DistributedSpmv, DistributedResult
    from repro.parallel.mtbf import platform_mtbf, platform_rate

__all__ = [
    "SimComm",
    "CommStats",
    "RowPartition",
    "block_rows",
    "partition_by_nnz",
    "DistributedSpmv",
    "DistributedResult",
    "platform_mtbf",
    "platform_rate",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.comm": ("SimComm", "CommStats"),
        "repro.parallel.partition": (
            "RowPartition",
            "block_rows",
            "partition_by_nnz",
        ),
        "repro.parallel.spmv": ("DistributedSpmv", "DistributedResult"),
        "repro.parallel.mtbf": ("platform_mtbf", "platform_rate"),
    },
)
