"""Scheme descriptors and the normalized cost model.

The three schemes under study (Section 4.2):

=================  ==========================  =========================
Scheme             Verification                Recovery
=================  ==========================  =========================
ONLINE-DETECTION   Chen's tests every ``d``    rollback on detection
                   iterations
ABFT-DETECTION     1-checksum ABFT SpMxV       rollback on detection
                   every iteration
ABFT-CORRECTION    2-checksum ABFT SpMxV       forward-correct single
                   every iteration             errors; rollback only on
                                               double errors
=================  ==========================  =========================

All times are normalized to ``Titer = 1`` (the paper's convention for
the injection study).  :class:`CostModel` derives default verification
and checkpoint costs from flop counts of the actual kernels so the
model instantiation is matrix-aware, while every value stays
overridable for sensitivity studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.util.validate import check_fault_point

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix
    from repro.sim.matrices import SizeFacts

__all__ = ["Scheme", "Method", "CostModel", "SchemeConfig"]


class Scheme(enum.Enum):
    """The three protection schemes compared in the paper."""

    ONLINE_DETECTION = "online-detection"
    ABFT_DETECTION = "abft-detection"
    ABFT_CORRECTION = "abft-correction"

    @property
    def uses_abft(self) -> bool:
        """Whether the SpMxV is checksum-protected."""
        return self is not Scheme.ONLINE_DETECTION

    @classmethod
    def parse(cls, value: "Scheme | str") -> "Scheme":
        """Coerce a scheme name (``"online-detection"``/``"abft-detection"``/
        ``"abft-correction"``), with a helpful error listing valid values."""
        if isinstance(value, Scheme):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            known = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {value!r} (expected one of: {known})") from None

    @property
    def corrects(self) -> bool:
        """Whether single errors are forward-corrected."""
        return self is Scheme.ABFT_CORRECTION


class Method(enum.Enum):
    """The protected solvers available on the resilience engine.

    The paper's Section 3 claims its protection machinery "carries over
    to CGNE, BiCG, BiCGstab"; this enum is the experiment grid's solver
    axis.  Each member maps to a recurrence plugin in
    :mod:`repro.resilience` (see
    :func:`repro.resilience.registry.run_ft_method`).
    """

    CG = "cg"
    BICGSTAB = "bicgstab"
    PCG = "pcg"  #: Jacobi-preconditioned CG

    @property
    def supported_schemes(self) -> "tuple[Scheme, ...]":
        """Schemes this solver can run under.

        Chen's stability tests (ONLINE-DETECTION) argue from the plain
        CG recurrence, so only CG supports all three; the other solvers
        take the two ABFT schemes.
        """
        if self is Method.CG:
            return (Scheme.ONLINE_DETECTION, Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION)
        return (Scheme.ABFT_DETECTION, Scheme.ABFT_CORRECTION)

    def supports(self, scheme: Scheme) -> bool:
        """Whether this solver can run under ``scheme``."""
        return scheme in self.supported_schemes

    @classmethod
    def parse(cls, value: "Method | str") -> "Method":
        """Coerce a method name (``"cg"``/``"bicgstab"``/``"pcg"``)."""
        if isinstance(value, Method):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {value!r} (expected one of: {known})") from None


@dataclass(frozen=True)
class CostModel:
    """Normalized resilience costs (units of ``Titer``).

    Attributes
    ----------
    t_iter:
        Cost of one raw CG iteration (1 by normalization).
    t_cp / t_rec:
        Checkpoint and recovery costs.  Identical for all three schemes
        (they checkpoint exactly the same state: iteration vectors plus
        the matrix — Section 3.1).
    t_verif_online:
        Chen's verification: two inner products + one extra SpMxV,
        ≈ one full iteration's SpMxV share.
    t_verif_detect:
        1-checksum ABFT overhead per iteration: O(n) checksum algebra.
    t_verif_correct:
        2-checksum ABFT overhead per iteration: twice the checksum
        algebra of detection (plus the amortized-to-zero decode cost).
    """

    t_iter: float = 1.0
    t_cp: float = 1.0
    t_rec: float = 1.0
    t_verif_online: float = 0.6
    t_verif_detect: float = 0.15
    t_verif_correct: float = 0.3

    def verification_cost(self, scheme: Scheme) -> float:
        """Per-verification cost for the given scheme."""
        if scheme is Scheme.ONLINE_DETECTION:
            return self.t_verif_online
        if scheme is Scheme.ABFT_DETECTION:
            return self.t_verif_detect
        return self.t_verif_correct

    @classmethod
    def from_matrix(
        cls,
        a: "CSRMatrix | SizeFacts",
        *,
        vector_ops: int = 10,
        include_tmr: bool = False,
    ) -> "CostModel":
        """Flop-count-based cost model for matrix ``a``.

        Only ``a.nrows``, ``a.nnz`` and ``a.memory_words`` are read, so a
        matrix's :class:`repro.sim.matrices.SizeFacts` give the same
        model without building it.

        One CG iteration costs ``2·nnz`` flops for the SpMxV plus
        ``vector_ops·n`` for the dots/axpys (Algorithm 1 has two dots
        and three axpys → 10n).  Relative to that unit:

        - Chen's verification: one SpMxV (2·nnz) + two dots (4n);
        - ABFT detection: one checksum row applied to y and x (≈4n)
          plus the x' copy and running row-pointer sum (≈3n);
        - ABFT correction: two checksum rows (≈8n) plus copies (≈4n).

        ``include_tmr=True`` additionally charges TMR's replication of
        the vector kernels (``2·vector_ops·n``) to both ABFT schemes.
        The default excludes it, matching the paper's accounting: the
        replication applies identically to both ABFT schemes (so it
        never changes their ranking) and the paper's headline claim —
        "ABFT overhead is usually smaller than Chen's verification
        cost" — refers to the checksum-specific overhead.
        """
        n = a.nrows
        nnz = a.nnz
        iter_flops = 2.0 * nnz + vector_ops * n
        online = (2.0 * nnz + 4.0 * n) / iter_flops
        tmr_extra = (2.0 * vector_ops * n / iter_flops) if include_tmr else 0.0
        detect = (7.0 * n) / iter_flops + tmr_extra
        correct = (12.0 * n) / iter_flops + tmr_extra
        # Checkpoint writes the full protected state (matrix + 4 vectors);
        # reading it back (recovery) costs the same in this model.
        cp = (a.memory_words + 4.0 * n) / iter_flops
        return cls(
            t_iter=1.0,
            t_cp=cp,
            t_rec=cp,
            t_verif_online=online,
            t_verif_detect=detect,
            t_verif_correct=correct,
        )


@dataclass(frozen=True)
class SchemeConfig:
    """Full configuration of one fault-tolerant CG run.

    Attributes
    ----------
    scheme:
        Which protection scheme to run.
    checkpoint_interval:
        The ``s`` of the performance model: verified chunks per frame.
    verification_interval:
        The ``d`` of ONLINE-DETECTION: iterations per chunk.  Must be 1
        for the ABFT schemes (they verify every iteration).
    costs:
        Normalized cost model.
    """

    scheme: Scheme
    checkpoint_interval: int = 10
    verification_interval: int = 1
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        check_fault_point(
            checkpoint_interval=self.checkpoint_interval,
            verification_interval=self.verification_interval,
        )
        if self.scheme.uses_abft and self.verification_interval != 1:
            raise ValueError("ABFT schemes verify every iteration (d must be 1)")

    def with_intervals(self, s: int | None = None, d: int | None = None) -> "SchemeConfig":
        """Copy with new intervals (model-driven tuning)."""
        return replace(
            self,
            checkpoint_interval=self.checkpoint_interval if s is None else int(s),
            verification_interval=self.verification_interval if d is None else int(d),
        )

    @property
    def chunk_time(self) -> float:
        """T — duration of one chunk (d iterations) in normalized units."""
        return self.verification_interval * self.costs.t_iter

    @property
    def verification_cost(self) -> float:
        """Tverif for this scheme."""
        return self.costs.verification_cost(self.scheme)
