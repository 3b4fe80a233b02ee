"""Poisson fault process and the per-iteration strike sampler.

Section 5.1 of the paper fixes the injection protocol this library
reproduces:

- faults are **bit flips** occurring independently at each step under
  an exponential distribution with parameter λ;
- ``Titer`` is normalized to one, so each iteration is one unit of
  exposure and the number of strikes in an iteration is
  ``Poisson(λ·Titer)``;
- λ is chosen **inversely proportional to the memory size M** of the
  protected state (matrix arrays + iteration vectors):
  ``λ = α / M`` with ``α ∈ (0, 1)``, so the expected number of
  iterations between faults is matrix-independent;
- strikes land uniformly over the protected words — the matrix arrays
  ``Val``/``Colid``/``Rowidx`` or the CG vectors — while checksums and
  checksum arithmetic are reliable (selective reliability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.bitflip import flip_bits_array
from repro.faults.record import FaultRecord
from repro.util.rng import as_generator
from repro.util.validate import check_positive

__all__ = ["FaultModel", "FaultTargets", "FaultInjector"]


@dataclass(frozen=True)
class FaultModel:
    """The exponential fault model of Section 4/5.

    Attributes
    ----------
    alpha:
        Proportionality constant in ``λ = α / M``; the paper sweeps its
        reciprocal (the *normalized MTBF*) over 10²…10⁵.
    memory_words:
        ``M`` — number of corruptible 64-bit words.
    t_iter:
        Duration of one iteration in normalized time units (1 in the
        paper's injection protocol).
    """

    alpha: float
    memory_words: int
    t_iter: float = 1.0

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("memory_words", self.memory_words)
        check_positive("t_iter", self.t_iter)

    @property
    def word_rate(self) -> float:
        """λ_word = α / M — fault rate of a single memory word."""
        return self.alpha / self.memory_words

    @property
    def rate(self) -> float:
        """Cumulative rate λ = M · λ_word = α faults per normalized
        time unit, accumulated over the whole protected memory.

        This is the λ that enters the performance model's
        ``q = e^{−λT}``; because it equals α regardless of matrix size,
        the expected number of CG steps between faults is
        matrix-independent, exactly as Section 5.1 requires.
        """
        return self.alpha / self.t_iter

    @property
    def normalized_mtbf(self) -> float:
        """1/α — expected iterations between faults (matrix-independent)."""
        return 1.0 / self.alpha

    def chunk_success_probability(self, t_chunk: float) -> float:
        """``q = e^{−λT}`` for a chunk of duration ``t_chunk``."""
        return float(np.exp(-self.rate * t_chunk))

    @property
    def strike_mean(self) -> float:
        """Expected faults per iteration, ``λ · t_iter`` (= α)."""
        return self.rate * self.t_iter


class FaultTargets:
    """The corruptible arrays strikes land on, by name.

    Registration order is part of the RNG contract.  Each target carries
    an optional ``on_strike`` hook, and its weight is its word count, so
    a strike lands on any word of the protected state with uniform
    probability, matching the paper's "each memory location … is given
    the chance to fail just once per iteration".

    A table depends only on the arrays, not on the fault process: the
    resilience engine registers one workspace binding's live matrix and
    plugin vectors once and hands the table to the injector of every
    solve of that binding.
    """

    __slots__ = ("arrays", "hooks", "_sampling")

    def __init__(self) -> None:
        self.arrays: "dict[str, np.ndarray]" = {}
        self.hooks: "dict[str, object]" = {}
        self._sampling: "tuple[list[str], np.ndarray] | None" = None

    def register(self, name: str, arr: np.ndarray, *, on_strike=None) -> None:
        """Register (or re-register) a corruptible array under ``name``.

        ``on_strike`` — optional callable ``(position) -> None`` invoked
        after every flip applied to this target (sampling-free, so it
        cannot perturb the RNG stream).  The resilience engine uses it
        to keep the workspace's strike-undo ledger and the live
        matrix's structure flag in sync with injected corruption.
        """
        if arr.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
            raise TypeError(f"target {name!r} must be float64 or int64, got {arr.dtype}")
        self.arrays[name] = arr
        if on_strike is not None:
            self.hooks[name] = on_strike
        else:
            self.hooks.pop(name, None)
        self._sampling = None

    def sampling(self) -> "tuple[list[str], np.ndarray]":
        """The target names and their strike probabilities (word share),
        built on first use after a registration."""
        if self._sampling is None:
            names = list(self.arrays)
            sizes = np.array([self.arrays[n].size for n in names], dtype=np.float64)
            self._sampling = (names, sizes / sizes.sum())
        return self._sampling


class FaultInjector:
    """Samples strikes and applies bit flips to registered arrays.

    Parameters
    ----------
    model:
        The :class:`FaultModel` supplying the strike distribution.
    rng:
        Seed or generator driving all sampling.
    targets:
        A :class:`FaultTargets` table to strike (shared, not copied);
        ``None`` starts an empty one for :meth:`register`.
    """

    def __init__(
        self,
        model: FaultModel,
        rng: "int | np.random.Generator" = None,
        *,
        targets: "FaultTargets | None" = None,
    ) -> None:
        self.model = model
        self.rng = as_generator(rng)
        # Hoisted out of sample_strikes, which runs once per iteration.
        self._strike_mean = model.strike_mean
        self.targets = FaultTargets() if targets is None else targets
        self.records: list[FaultRecord] = []
        self._reverted = 0

    # ------------------------------------------------------------------
    # target registry
    # ------------------------------------------------------------------
    def register(self, name: str, arr: np.ndarray, *, on_strike=None) -> None:
        """:meth:`FaultTargets.register` on this injector's table."""
        self.targets.register(name, arr, on_strike=on_strike)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def sample_strikes(self, *, n_strikes: int | None = None) -> list[tuple[str, int, int]]:
        """Sample this iteration's strikes **without applying them**.

        Each strike is ``(target_name, position, bit)`` with the target
        chosen proportionally to its word count (uniform over the whole
        protected memory).  The solver engine applies each strike in
        the right temporal window (e.g. output-vector strikes only
        after the product is computed).

        Parameters
        ----------
        n_strikes:
            Override the Poisson sample (used by tests for determinism).
        """
        arrays = self.targets.arrays
        if not arrays:
            return []
        if n_strikes is None:
            n_strikes = int(self.rng.poisson(self._strike_mean))
        if n_strikes == 0:
            return []
        names, probs = self.targets.sampling()
        strikes: list[tuple[str, int, int]] = []
        for _ in range(n_strikes):
            name = names[int(self.rng.choice(len(names), p=probs))]
            pos = int(self.rng.integers(arrays[name].size))
            bit = int(self.rng.integers(64))
            strikes.append((name, pos, bit))
        return strikes

    def apply_strike(
        self,
        iteration: int,
        strike: tuple[str, int, int],
        *,
        into: "np.ndarray | None" = None,
    ) -> FaultRecord:
        """Apply one sampled strike and record it (``into`` as in
        :meth:`inject_at`)."""
        name, pos, bit = strike
        return self.inject_at(iteration, name, pos, bit, into=into)

    def revert(self, record: FaultRecord) -> None:
        """Undo a recorded flip (models TMR restoring a voted value)."""
        arr = self.targets.arrays[record.target].reshape(-1)
        flip_bits_array(arr, np.array([record.position]), np.array([record.bit]))
        self._reverted += 1

    @property
    def net_flips(self) -> int:
        """Flips applied minus flips reverted, so far.

        Every mutation this injector makes goes through
        :meth:`inject_at` or :meth:`revert`, so an unchanged value
        across a span of code means every word struck inside it was
        restored — what the resilience engine derives "this step left
        no corruption behind" from.
        """
        return len(self.records) - self._reverted

    def inject_at(
        self,
        iteration: int,
        name: str,
        position: int,
        bit: int,
        *,
        into: "np.ndarray | None" = None,
    ) -> FaultRecord:
        """Deterministically flip one chosen bit (test hook).

        ``into`` redirects the flip to another array standing in for
        the registered target — a protected product's output buffer
        before it is copied into the struck vector — while the record
        and the ``on_strike`` hook still name ``name``.
        """
        arr = (self.targets.arrays[name] if into is None else into).reshape(-1)
        old = arr[position].item()
        flip_bits_array(arr, np.array([position]), np.array([bit]))
        rec = FaultRecord(
            iteration=iteration,
            target=name,
            position=position,
            bit=bit,
            old_value=old,
            new_value=arr[position].item(),
        )
        self.records.append(rec)
        hook = self.targets.hooks.get(name)
        if hook is not None:
            hook(position)
        return rec
