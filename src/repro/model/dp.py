"""Dynamic-programming checkpoint placement (Benoit et al. [3]).

The paper points out that, absent a closed form, "a dynamic programming
algorithm to compute the optimal repartition of checkpoints and
verifications is available".  This module implements that idea for a
finite horizon: given ``n`` verified chunks to execute, choose after
which chunks to checkpoint so that the total expected time (sum of
Eq.-5 frame times over the induced frames) is minimal.

For homogeneous chunks the optimal placement is near-periodic — which
is the ablation (``tests/test_model_dp.py``) validating the paper's purely periodic
policy — but the DP also handles the general case and returns the
exact optimum for the given horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.frames import expected_frame_time

__all__ = ["DPPlacement", "optimal_checkpoint_positions"]


@dataclass(frozen=True)
class DPPlacement:
    """Result of the placement DP."""

    positions: tuple[int, ...]  #: chunk indices (1-based) after which to checkpoint
    expected_time: float  #: total expected execution time
    frame_sizes: tuple[int, ...]  #: sizes of the induced frames


def optimal_checkpoint_positions(
    n_chunks: int,
    t: float,
    q: float,
    t_cp: float,
    t_rec: float,
    t_verif: float,
    *,
    max_frame: int | None = None,
) -> DPPlacement:
    """Exact optimal checkpoint placement over ``n_chunks`` chunks.

    ``E*(j)`` = minimal expected time to finish the first ``j`` chunks
    with a checkpoint after chunk ``j``; the recurrence tries every
    last-frame size ``s``:

        E*(j) = min_{1 ≤ s ≤ j} E*(j − s) + E(s, T)

    with ``E(s, T)`` from Eq. 5.  O(n²) time, O(n) space (or
    O(n·max_frame) when a frame-size cap is given).  The final
    checkpoint after the last chunk is conventionally included (drop
    ``t_cp`` from the last frame if undesired — it is a constant).
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    cap = n_chunks if max_frame is None else min(max_frame, n_chunks)

    # Precompute frame costs for every size once (the frames are
    # homogeneous, so E(s,T) depends only on s).
    frame_cost = [0.0] * (cap + 1)
    for s in range(1, cap + 1):
        frame_cost[s] = expected_frame_time(s, t, t_cp, t_rec, t_verif, q)

    best = [0.0] + [float("inf")] * n_chunks
    argbest = [0] * (n_chunks + 1)
    for j in range(1, n_chunks + 1):
        for s in range(1, min(cap, j) + 1):
            cand = best[j - s] + frame_cost[s]
            if cand < best[j]:
                best[j] = cand
                argbest[j] = s
    # Reconstruct frame boundaries.
    sizes: list[int] = []
    j = n_chunks
    while j > 0:
        sizes.append(argbest[j])
        j -= argbest[j]
    sizes.reverse()
    positions: list[int] = []
    acc = 0
    for s in sizes:
        acc += s
        positions.append(acc)
    return DPPlacement(
        positions=tuple(positions),
        expected_time=best[n_chunks],
        frame_sizes=tuple(sizes),
    )
