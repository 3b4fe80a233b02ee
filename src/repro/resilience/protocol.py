"""The recurrence-plugin protocol of the resilience engine.

The engine (:mod:`repro.resilience.engine`) owns everything the
paper's protection schemes share — strike sampling and routing,
ABFT-protected products, TMR voting, periodic verification,
checkpoint/rollback orchestration and the time/recovery ledger.  A
*recurrence plugin* contributes only what is solver-specific:

- the iteration state (vectors, scalars, live-matrix references);
- the strike windows (which vector names feed which protected product,
  which live in the TMR-voted phase);
- one :meth:`RecurrencePlugin.step` advancing the recurrence through
  the engine's protected services;
- a convergence test and a refresh (restart-from-reliable-data) reset.

Plugins are *single-use*: the engine instantiates one per run via the
:mod:`repro.resilience.registry` factories, and
:meth:`~RecurrencePlugin.init_state` wires it to that run's live state
and computes the initial state.

Every plugin also implements the three members the engine's
clean-trajectory memo drives (docs/DESIGN.md §4):
:meth:`~RecurrencePlugin.bind`, :meth:`~RecurrencePlugin.advance_clean`
and :meth:`~RecurrencePlugin.replay_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.checkpoint.store import Checkpoint
    from repro.core.methods import Scheme, SchemeConfig
    from repro.resilience.engine import EngineContext
    from repro.sparse.csr import CSRMatrix

__all__ = [
    "SPMV_PRE_TARGETS",
    "StepOutcome",
    "RecoveryPolicy",
    "CG_RECOVERY",
    "KRYLOV_RECOVERY",
    "RecurrencePlugin",
]

#: Strike targets that land in a protected product's *pre* window: the
#: matrix arrays plus the product's input vector (every plugin names
#: its primary search direction ``p``).  Part of the engine's window
#: contract — strikes here hit after the ABFT layer's reliable input
#: snapshot, so they are the checksums' to catch.
SPMV_PRE_TARGETS = frozenset({"val", "colid", "rowidx", "p"})


@dataclass(frozen=True)
class StepOutcome:
    """What one plugin step asked the engine to do next.

    ``rollback(reason)`` steps trigger the engine's backward recovery;
    ``advanced`` steps committed their work, optionally claiming
    convergence, and ``verified`` tells the engine whether the step
    ended at a verification point (only verified, non-converged steps
    are eligible for a checkpoint — ONLINE-DETECTION's mid-chunk
    iterations are advanced-but-unverified).
    """

    rolled_back: bool
    reason: str = ""
    converged: bool = False
    verified: bool = True

    @classmethod
    def rollback(cls, reason: str) -> "StepOutcome":
        """The step detected an error the engine must roll back."""
        return cls(rolled_back=True, reason=reason)

    @classmethod
    def advanced(cls, converged: bool, *, verified: bool = True) -> "StepOutcome":
        """The step committed one (possibly unverified) iteration.

        Returns interned instances: the class is frozen and ``advanced``
        outcomes carry no per-step data, so the per-iteration dataclass
        construction would be pure overhead.
        """
        return _ADVANCED[(bool(converged), verified)]


#: The four immutable "advanced" outcomes, interned (see
#: :meth:`StepOutcome.advanced`).
_ADVANCED = {
    (c, v): StepOutcome(rolled_back=False, converged=c, verified=v)
    for c in (False, True)
    for v in (False, True)
}


@dataclass(frozen=True)
class RecoveryPolicy:
    """Solver-family accounting conventions for backward recovery.

    The seed tree's two FT drivers grew slightly different rollback
    ledgers; both are preserved exactly (the golden-trajectory tests
    depend on it) and expressed here as data instead of duplicated
    control flow:

    Attributes
    ----------
    charge_before_stuck_check:
        Whether a rollback is charged/counted *before* the
        stuck-checkpoint probe (BiCGstab) or only on the non-refresh
        path (CG, whose refresh does its own charging).
    refresh_charges_restart:
        Whether a refresh-rollback bills ``t_rec + t_iter`` (CG's
        re-read of initial data plus the reliable residual SpMxV) —
        when False the preceding rollback charge already covered it.
    refresh_counts_rollback:
        Whether the refresh increments the rollback counter itself.
    refresh_notifies_policy:
        Whether the refresh calls ``CheckpointPolicy.rolled_back()``.
    final_check_refreshes:
        Escalate a bogus convergence (final reliable residual check
        fails) straight to a refresh-rollback (CG) instead of a plain
        rollback (BiCGstab).
    final_check_counts_detection:
        Whether that bogus convergence also counts as a detection.
    """

    charge_before_stuck_check: bool
    refresh_charges_restart: bool
    refresh_counts_rollback: bool
    refresh_notifies_policy: bool
    final_check_refreshes: bool
    final_check_counts_detection: bool


#: The FT-CG driver's ledger: probe for a tainted checkpoint first and
#: let the refresh do its own (heavier) charging.
CG_RECOVERY = RecoveryPolicy(
    charge_before_stuck_check=False,
    refresh_charges_restart=True,
    refresh_counts_rollback=True,
    refresh_notifies_policy=True,
    final_check_refreshes=True,
    final_check_counts_detection=True,
)

#: The FT-BiCGstab driver's ledger: every rollback is charged/counted
#: up front; escalating to a refresh adds no further cost.
KRYLOV_RECOVERY = RecoveryPolicy(
    charge_before_stuck_check=True,
    refresh_charges_restart=False,
    refresh_counts_rollback=False,
    refresh_notifies_policy=False,
    final_check_refreshes=False,
    final_check_counts_detection=False,
)


@runtime_checkable
class RecurrencePlugin(Protocol):
    """Solver-specific recurrence behind the resilience engine.

    Concrete plugins (:mod:`repro.resilience.cg`,
    :mod:`repro.resilience.bicgstab`, :mod:`repro.resilience.pcg`)
    implement this protocol; the engine drives them through
    :meth:`step` and the checkpoint/restore hooks.
    """

    #: Human-readable method name ("cg", "bicgstab", ...).
    name: str
    #: Rollback-accounting conventions for this solver family.
    recovery: RecoveryPolicy
    #: Logical iteration counter (rolled back on restore).
    iteration: int

    def check_scheme(self, scheme: "Scheme") -> None:
        """Raise ``ValueError`` when ``scheme`` is unsupported."""
        ...

    def init_state(
        self,
        a: "CSRMatrix",
        live: "CSRMatrix",
        b: np.ndarray,
        x0: "np.ndarray | None",
        config: "SchemeConfig",
        workspace,
        matvec=None,
    ) -> None:
        """Allocate the iteration vectors/scalars for one run.

        ``live`` is the engine-owned corruptible matrix copy; ``a`` is
        the pristine input (reliable storage, used only for refreshes
        and preconditioner setup).  ``workspace`` is the run's
        :class:`repro.perf.SolveWorkspace` — always given, the caller's
        or the engine's private one: plugins draw their iteration
        vectors from it (``workspace.buffer``/``zeros``, fully
        overwriting every entry so no state survives between runs) and
        may pass its SpMxV scratch to kernels.  ``matvec`` is the run's
        kernel (:func:`repro.backends.kernel_matvec`; ``None`` =
        ``reference``): plugins must store it and pass it to every
        direct :func:`repro.sparse.spmv.spmv_kernel` call they issue
        (initial residual, refresh, unprotected steps), so the whole
        run sits on one kernel.
        """
        ...

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        """Named iteration vectors, in fault-injector registration
        order (the order is part of the RNG contract)."""
        ...

    def scalars(self) -> dict[str, float]:
        """Scalar recurrence state to include in a checkpoint."""
        ...

    def load_scalars(self, cp: "Checkpoint") -> None:
        """Restore scalar state (and the iteration counter) from a
        checkpoint; vectors and the matrix are restored by the engine."""
        ...

    def initial_converged(self, threshold: float) -> bool:
        """Convergence test on the initial state (before any step)."""
        ...

    def step(self, ctx: "EngineContext", strikes: "list[tuple[str, int, int]]") -> StepOutcome:
        """Run one iteration under the sampled strikes."""
        ...

    def refresh(self, cp: "Checkpoint", a: "CSRMatrix", b: np.ndarray) -> None:
        """Restart from reliable data: heal state the checkpoints
        cannot (e.g. a sub-tolerance matrix corruption that slipped
        into a snapshot).  The engine has already restored the live
        matrix to the source ``a``; the plugin restarts its recurrence
        from the checkpointed iterate against ``a`` and must leave it
        consistent."""
        ...

    def after_rollback(self) -> None:
        """Hook invoked after every rollback/refresh (e.g. to reset a
        verification-chunk counter)."""
        ...

    def bind(self, a: "CSRMatrix", live: "CSRMatrix", b: np.ndarray,
             config: "SchemeConfig", workspace, matvec=None) -> None:
        """:meth:`init_state` without its arithmetic: store the
        references and draw the vectors from the workspace, contents
        unspecified.

        A solve whose initial state the memo already holds binds the
        plugin, loads that state's scalars and leaves the vectors to
        the engine, which writes them only when a strike or a check
        needs them.  The vectors should come from
        :meth:`repro.perf.SolveWorkspace.vector_set`: the same array
        objects on every solve of one workspace binding, over which the
        engine builds its fault-target table once.
        """
        ...

    def advance_clean(
        self, ctx: "EngineContext", scalars: "dict[str, float]"
    ) -> "StepOutcome | None":
        """Account one clean, strike-free iteration arriving at the
        state whose :meth:`scalars` are given — charges, counters,
        iteration count and verdict exactly as :meth:`step` would, no
        arithmetic on vectors.  ``scalars()`` must therefore carry
        everything the step's guards and convergence test read.
        ``None`` declines (the outcome does not follow from the
        scalars); the engine then executes the step."""
        ...

    def replay_step(self, ctx: "EngineContext") -> None:
        """Execute one strike-free step's arithmetic against the
        pristine matrix (``ctx.clean_product``): same floats as
        :meth:`step` on a clean state, no charge, no verification, no
        bookkeeping beyond the iteration count."""
        ...
