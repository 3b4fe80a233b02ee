"""Backward recovery: in-memory checkpointing of solver state.

The paper's schemes checkpoint the CG iteration vectors **and the
sparse matrix** (the extension to Chen's method described in Section
3.1): a detected memory error may have corrupted ``A`` itself, so
recovery must restore a valid copy of the matrix too.  A checkpoint is
taken only right after a successful verification, which is what makes
the last checkpoint always valid.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.checkpoint.store import Checkpoint, CheckpointStore
    from repro.checkpoint.policy import PeriodicCheckpointPolicy

__all__ = ["Checkpoint", "CheckpointStore", "PeriodicCheckpointPolicy"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.checkpoint.store": ("Checkpoint", "CheckpointStore"),
        "repro.checkpoint.policy": ("PeriodicCheckpointPolicy",),
    },
)
