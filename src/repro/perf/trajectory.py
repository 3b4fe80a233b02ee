"""The clean-trajectory memo: a strike-free solve, computed once.

CG, BiCGstab and PCG are deterministic recurrences: for one (matrix,
method, kernel, right-hand side, zero initial guess) the
strike-free trajectory ``T[0], T[1], …`` is a fixed sequence of states,
and every repetition of every task on that matrix walks along it until
a strike lands and returns to it after a rollback to a clean checkpoint
or a TMR out-vote.  A :class:`TrajectoryMemo` keeps what the resilience
engine needs to *account* such an iteration instead of executing it:

- per index ``k`` the plugin's recurrence scalars
  (``RecurrencePlugin.scalars()`` of ``T[k]``, which include the
  residual norm the convergence test reads);
- the reliable residual norm ``‖b − A·x_k‖`` and Chen's verdicts at the
  indices where some run asked for them;
- vector snapshots every :attr:`stride` indices under the memo's
  :attr:`budget`, from which any ``T[k]`` is rebuilt by strike-free
  replay through the plugin's own arithmetic;
- one pinned terminal iterate (``x`` alone), so a solve that never left
  the trajectory returns its solution without touching a vector;
- the origin ``T[0]`` — its vectors and the norms ``‖r₀‖`` and ``‖b‖``
  the stopping threshold is built from — so a solve starts on the
  trajectory without computing its initial residual, and its vectors
  stay unwritten until a strike or a check needs them.

The memo is filled lazily by the real clean steps of whichever solve
walks an index first; it never computes anything itself.  It lives in
:class:`repro.perf.SolveWorkspace` (one slot, replaced when the key
changes) and is not user-settable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

__all__ = ["BUDGET_BYTES", "TrajectoryMemo"]

#: Floor of a memo's byte budget for vector data (snapshots plus the
#: pinned terminal iterate).  The budget itself is derived, not set:
#: ``max(BUDGET_BYTES, bytes of the bound source matrix)``.  A solve
#: already holds the source and its live copy, so the memo at most
#: adds a third matrix's worth — at n = 19 881 (7.8 MB of CSR arrays
#: against a 636 KB CG state) about 12 snapshots instead of one — while
#: Table-1-scale matrices stay on the 1 MiB floor.
BUDGET_BYTES = 1 << 20

#: Initial snapshot spacing; doubles whenever the budget is hit.
_INITIAL_STRIDE = 4


class TrajectoryMemo:
    """What is known of one strike-free trajectory (see module doc)."""

    def __init__(
        self,
        method: str,
        matvec: "Callable | None",
        b: np.ndarray,
        *,
        source: "CSRMatrix | None" = None,
    ) -> None:
        self.method = method
        #: The kernel the trajectory ran on (``None`` = ``reference``):
        #: ``scipy`` products differ from it in the last bits.
        self.matvec = matvec
        #: ``b``'s bytes, the key's own copy: callers hand a fresh ``b``
        #: per task, and the key must survive in-place edits of theirs.
        self.b_bytes = b.tobytes()
        #: ``steps[k]`` = the plugin's ``scalars()`` at ``T[k]``; the
        #: frontier (highest known index) is ``len(steps) - 1``.
        self.steps: "list[dict]" = []
        self.snapshots: "dict[int, dict[str, np.ndarray]]" = {}
        self.stride = _INITIAL_STRIDE
        #: ``‖b − A·x_k‖`` against the pristine matrix, by index.
        self.true_residual: "dict[int, float]" = {}
        #: Chen's verdict by ``(k, check_orthogonality)``.
        self.chen: "dict[tuple[int, bool], bool]" = {}
        self._terminal: "tuple[int, np.ndarray] | None" = None
        #: ``T[0]``'s vectors, kept by the first solve (outside the
        #: budget: every later solve starts from them).
        self.origin: "dict[str, np.ndarray] | None" = None
        #: ``(‖r₀‖, ‖b‖)`` at ``T[0]``, for the stopping threshold.
        self.origin_norms: "tuple[float, float] | None" = None
        #: Byte budget for vector data, derived from the bound source.
        self.budget = BUDGET_BYTES
        if source is not None:
            self.budget = max(BUDGET_BYTES, 8 * source.memory_words)
        self.nbytes = 0  #: snapshot + terminal bytes held (≤ budget)

    def matches(self, method: str, matvec: "Callable | None", b: np.ndarray) -> bool:
        """Whether this memo describes the trajectory of that solve
        (``b`` compared by its bytes: the exact key of the floats)."""
        return (
            self.method == method
            and self.matvec is matvec
            and self.b_bytes == b.tobytes()
        )

    def next_scalars(self, k: int) -> "dict | None":
        """``scalars()`` of ``T[k+1]``, or ``None`` past the frontier."""
        steps = self.steps
        return steps[k + 1] if k + 1 < len(steps) else None

    def record(self, k: int, scalars: dict, vectors: "dict[str, np.ndarray]") -> None:
        """A real clean step arrived at ``T[k]``: extend the frontier
        (indices are only ever appended in order) and offer a snapshot."""
        if k == len(self.steps):
            self.steps.append(scalars)
        self.offer_snapshot(k, vectors)

    def record_origin(
        self, scalars: dict, vectors: "dict[str, np.ndarray]", norms: "tuple[float, float]"
    ) -> None:
        """The first solve computed ``T[0]``: keep its scalars, a copy of
        its vectors and its threshold norms ``(‖r₀‖, ‖b‖)``."""
        self.steps.append(scalars)
        self.origin = {name: v.copy() for name, v in vectors.items()}
        self.origin_norms = norms

    # ------------------------------------------------------------------
    # vector data under the byte budget
    # ------------------------------------------------------------------
    def offer_snapshot(self, k: int, vectors: "dict[str, np.ndarray]") -> None:
        """Keep a copy of ``T[k]``'s vectors if ``k`` is on the stride.

        When the budget is hit the stride doubles and the snapshots off
        the new stride are dropped, until the copy fits or ``k`` itself
        falls off the stride.
        """
        if k == 0 or k % self.stride or k in self.snapshots:
            return
        size = sum(v.nbytes for v in vectors.values())
        if not self._make_room(size, keep=k):
            return
        self.snapshots[k] = {name: v.copy() for name, v in vectors.items()}
        self.nbytes += size

    def _make_room(self, size: int, *, keep: "int | None" = None) -> bool:
        """Thin snapshots until ``size`` more bytes fit; False when they
        cannot (or when index ``keep`` fell off the doubled stride)."""
        while self.nbytes + size > self.budget:
            if not self.snapshots:
                return False
            self.stride *= 2
            for j in [j for j in self.snapshots if j % self.stride]:
                dropped = self.snapshots.pop(j)
                self.nbytes -= sum(v.nbytes for v in dropped.values())
            if keep is not None and keep % self.stride:
                return False
        return True

    def nearest_snapshot(self, k: int) -> int:
        """Largest index ``≤ k`` whose vectors are kept: a snapshot, else
        the origin (−1 when there is none)."""
        return max(
            (j for j in self.snapshots if j <= k),
            default=-1 if self.origin is None else 0,
        )

    def vectors_at(self, j: int) -> "dict[str, np.ndarray]":
        """The kept vectors of :meth:`nearest_snapshot`'s index ``j``."""
        return self.origin if j == 0 else self.snapshots[j]

    def terminal_x(self, k: int) -> "np.ndarray | None":
        """The pinned iterate if it is ``T[k]``'s (read-only loan)."""
        pin = self._terminal
        return pin[1] if pin is not None and pin[0] == k else None

    def pin_terminal(self, k: int, x: np.ndarray) -> None:
        """Pin ``x`` as ``T[k]``'s iterate, overwriting the previous pin
        in place (one source, one vector length)."""
        pin = self._terminal
        if pin is not None:
            np.copyto(pin[1], x)
            self._terminal = (k, pin[1])
        elif self._make_room(x.nbytes):
            self._terminal = (k, x.copy())
            self.nbytes += x.nbytes
