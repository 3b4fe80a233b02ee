"""Checkpoint storage for fault-tolerant iterative solvers.

Snapshots are deep copies: the live arrays keep getting corrupted by
the injector, so a checkpoint must own its memory.  Checkpoint data is
assumed to live in reliable storage (the paper assumes checkpoint,
recovery and verification are error-free operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class Checkpoint:
    """One verified solver state.

    Attributes
    ----------
    iteration:
        Iteration count at which the snapshot was taken.
    vectors:
        Deep copies of the iteration vectors, keyed by name.
    matrix:
        Deep copy of the (verified-clean) matrix, or None for schemes
        that do not checkpoint the matrix.
    scalars:
        Any scalar state the solver needs to resume (e.g. ``‖r‖²``).
    """

    iteration: int
    vectors: dict[str, np.ndarray]
    matrix: CSRMatrix | None = None
    scalars: dict[str, float] = field(default_factory=dict)

    @property
    def size_words(self) -> int:
        """Words written by this checkpoint (drives the Tcp cost model)."""
        total = sum(v.size for v in self.vectors.values())
        if self.matrix is not None:
            total += self.matrix.memory_words
        return total


class CheckpointStore:
    """Holds the most recent checkpoint(s) and restore bookkeeping.

    Parameters
    ----------
    keep:
        Number of checkpoints retained (1 suffices for the paper's
        schemes because a checkpoint is only taken after verification;
        more can be kept for multi-version ablations).
    """

    def __init__(self, keep: int = 1, *, recycle: bool = False) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        self.recycle = recycle
        self._stack: list[Checkpoint] = []
        self.saves = 0
        self.restores = 0
        self.words_written = 0

    def save(
        self,
        iteration: int,
        vectors: dict[str, np.ndarray],
        matrix: CSRMatrix | None = None,
        scalars: dict[str, float] | None = None,
    ) -> Checkpoint:
        """Deep-copy the given state and push it as the newest checkpoint.

        With ``recycle=True`` the arrays of the checkpoint evicted by
        this save are reused as the copy destinations when their layout
        matches, making steady-state checkpointing allocation-free.
        Only enable it when no reference to an evicted
        :class:`Checkpoint` outlives the eviction (the resilience
        engine's private store qualifies; a store whose checkpoints are
        handed to callers does not).
        """
        staging: "Checkpoint | None" = None
        if self.recycle and len(self._stack) >= self.keep:
            staging = self._stack[len(self._stack) - self.keep]
        new_vectors: dict[str, np.ndarray] = {}
        for k, v in vectors.items():
            dst = staging.vectors.get(k) if staging is not None else None
            if dst is not None and dst.shape == v.shape:
                np.copyto(dst, v)
                new_vectors[k] = dst
            else:
                new_vectors[k] = np.array(v, dtype=np.float64, copy=True)
        new_matrix: "CSRMatrix | None" = None
        if matrix is not None:
            old = staging.matrix if staging is not None else None
            if (
                old is not None
                and old.shape == matrix.shape
                and old.nnz == matrix.nnz
            ):
                old.val[:] = matrix.val
                old.colid[:] = matrix.colid
                old.rowidx[:] = matrix.rowidx
                old._structure_clean = matrix._structure_clean
                old._rows_nonempty = matrix._rows_nonempty
                old._wild = matrix._wild
                new_matrix = old
            else:
                new_matrix = matrix.copy()
        cp = Checkpoint(
            iteration=iteration,
            vectors=new_vectors,
            matrix=new_matrix,
            scalars=dict(scalars or {}),
        )
        self._stack.append(cp)
        if len(self._stack) > self.keep:
            self._stack.pop(0)
        self.saves += 1
        self.words_written += cp.size_words
        return cp

    @property
    def latest(self) -> Checkpoint:
        """The most recent checkpoint (raises if none was ever saved)."""
        if not self._stack:
            raise LookupError("no checkpoint available")
        return self._stack[-1]

    @property
    def empty(self) -> bool:
        """True when no checkpoint has been saved yet."""
        return not self._stack

    def restore(self) -> Checkpoint:
        """Return the latest checkpoint with *fresh copies* of its state.

        Fresh copies are essential: the caller hands the arrays back to
        the injector, which will corrupt them — the stored snapshot
        itself must stay pristine for the next rollback.
        """
        cp = self.latest
        self.restores += 1
        return Checkpoint(
            iteration=cp.iteration,
            vectors={k: v.copy() for k, v in cp.vectors.items()},
            matrix=cp.matrix.copy() if cp.matrix is not None else None,
            scalars=dict(cp.scalars),
        )

    def borrow_latest(self) -> Checkpoint:
        """The latest checkpoint itself — zero copies, read-only loan.

        For callers (the resilience engine) that copy values *out of*
        the snapshot into their own live arrays and never hand the
        snapshot's arrays to the injector.  The borrow counts as a
        restore; mutating the returned state corrupts the store.
        """
        cp = self.latest
        self.restores += 1
        return cp
