"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`.  Experiment drivers derive independent
child generators per (matrix, scheme, rate, repetition) tuple so that
simulations are reproducible bit-for-bit regardless of execution order,
which matters when benchmark harnesses parallelize repetitions.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["as_generator", "spawn_children", "spawn_named"]


def as_generator(seed_or_rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed_or_rng:
        ``None`` (fresh nondeterministic generator), an integer seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def spawn_children(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of children: {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def spawn_named(base_seed: int, *labels: object) -> np.random.Generator:
    """Derive a generator deterministically from a base seed and labels.

    The labels (matrix id, scheme name, fault rate, repetition index, ...)
    are hashed into the seed entropy, so the same tuple always yields the
    same stream while distinct tuples yield independent streams.
    """
    digest = hashlib.sha256(repr((base_seed, *labels)).encode()).digest()
    entropy = int.from_bytes(digest[:16], "little")
    # What ``np.random.default_rng(SeedSequence(entropy))`` builds, minus
    # its argument dispatch (one per repetition of every campaign task).
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
