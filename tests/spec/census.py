"""Algorithm 2 under every single bit flip: the exhaustive census.

The paper's guarantees hold for *every* single error: Theorem 1
(detection), Theorem 2 (no false positive; a false negative stays below
the tolerance) and Algorithm 2's single-error correction.  This spec
checks them the way Shantharam et al. tabulate FT-SpMxV.  It flips each
bit of each word of ``val``, ``colid`` and ``rowidx`` (``rowidx[0]`` and
``rowidx[n]`` included) and of ``x`` after the reliable snapshot
(``fault_hook("pre")``), and of ``y`` after the raw product
(``fault_hook("post")``): one flip per product, under detection (one
checksum row) and under correction (two).  Each flip gets exactly one
outcome of :data:`OUTCOMES`.

The bound is stated once, per target, with τ the Eq.-9 tolerance
``checksums.tolerance.threshold_list(‖x‖∞)[0]``:

- matrix and ``y`` targets: ``‖y − y₀‖∞ ≤ τ``;
- ``x``: ``|x̃ⱼ − xⱼ| ≤ τ`` for the live ``x̃`` the call hands back, and
  ``y`` the clean matrix's product with it.  ``y`` may then move from
  ``y₀`` by up to ``maxᵢ Σⱼ|aᵢⱼ|·τ``.

Written as one test, ``‖x̃ − x‖∞ ≤ τ`` and ``‖y − A x̃‖∞ ≤ τ`` with
``A`` the clean matrix, both forms hold at once, and a pair of flips is
judged by the same two inequalities.

Every flip strikes a fresh copy of an unstamped matrix, as a campaign's
struck live matrix is: the product takes the ``x[colid mod n]`` wild
read, not the stamped clip gather.  Only the public ``protected_spmv``,
``flip_bits_array`` and ``spmv`` are used.

``python -m tests.spec.census`` (from the repository root, with
``src/`` on the path) runs the full census and prints the table
committed as ``docs/CLAIMS.md``.  It exits 1 when a single flip is a
silent wrong answer or raises, when a pair raises, or when a clean
product is flagged.  ``tests/test_abft_census.py`` runs a fixed sample
of it in tier-1.
"""

from __future__ import annotations

import collections
import sys
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.abft import SpmvChecksums, SpmvStatus, compute_checksums, protected_spmv
from repro.faults.bitflip import flip_bits_array
from repro.sparse import CSRMatrix, spmv, stencil_spd

TARGETS = ("val", "colid", "rowidx", "x", "y")
MATRIX = ("val", "colid", "rowidx")
#: The ``CorrectionOutcome.kind`` that names each target.
KIND_OF = {"val": "val", "colid": "colid", "rowidx": "rowidx", "x": "x", "y": "computation"}
OUTCOMES = (
    "detected",
    "uncorrectable",
    "corrected to the bit",
    "corrected within the bound",
    "undetected, bit-exact",
    "undetected, within the bound",
    "silent wrong answer",
    "exception",
)
#: Trusted answers (OK or CORRECTED) that differ from the clean bytes.
INEXACT = ("corrected within the bound", "undetected, within the bound", "silent wrong answer")
MODES = {"detection": False, "correction": True}
#: The census matrices: nnz 105, and n = 2⁶, where a ``colid`` flip of
#: a bit ≥ 6 leaves ``colid mod n``, the column read, unchanged.
MATRICES = {
    "stencil_spd(25, kind='cross', radius=1)": lambda: stencil_spd(25, kind="cross", radius=1),
    "stencil_spd(64)": lambda: stencil_spd(64),
}
#: Flip pairs per (matrix, mode) in the full census.
PAIRS = 4000
#: Clean products per (matrix, mode), of magnitude 10⁻⁴ … 10⁴.
CLEAN_VECTORS = 9

#: ``(target, position, bit)``.
Flip = "tuple[str, int, int]"


def seed_of(*identity: object) -> int:
    """A seed derived from what is being sampled, never from the clock."""
    return zlib.crc32(repr(identity).encode())


class Verdict(NamedTuple):
    """What one struck product came back as."""

    outcome: str  #: one of :data:`OUTCOMES`
    kind: "str | None"  #: ``CorrectionOutcome.kind`` when CORRECTED
    #: ``max|now − clean| / max|clean|`` of the array that moved most,
    #: of ``val``, ``colid``, ``rowidx`` and ``x``, after the call
    drift: float


@dataclass
class Case:
    """One matrix under one mode: the clean product each flip is judged
    against."""

    label: str
    a: CSRMatrix
    correct: bool
    x: np.ndarray
    checksums: SpmvChecksums
    y0: np.ndarray
    tau: float

    @classmethod
    def build(cls, label: str, a: CSRMatrix, correct: bool) -> "Case":
        x = np.random.default_rng(0).standard_normal(a.ncols)
        checksums = compute_checksums(a, nchecks=2 if correct else 1)
        clean = protected_spmv(a.copy(), x.copy(), checksums, correct=correct)
        assert clean.status is SpmvStatus.OK
        tau = checksums.tolerance.threshold_list(float(np.abs(x).max()))[0]
        return cls(label, a, correct, x, checksums, clean.y.copy(), tau)

    @classmethod
    def of(cls, matrix: str, mode: str) -> "Case":
        """The census case of :data:`MATRICES` and :data:`MODES` names."""
        return cls.build(f"{matrix}, {mode}", MATRICES[matrix](), MODES[mode])

    def words(self, target: str) -> int:
        if target == "x":
            return self.a.ncols
        if target == "y":
            return self.a.nrows
        return getattr(self.a, target).size

    def universe(self) -> "list[Flip]":
        """Every bit of every word of every target."""
        return [(t, p, b) for t in TARGETS for p in range(self.words(t)) for b in range(64)]

    def sample(self, per_bit: int) -> "list[Flip]":
        """``per_bit`` words of each target for each bit, drawn by the
        case's identity, and all 64 bits of ``rowidx[0]`` and
        ``rowidx[n]``."""
        rng = np.random.default_rng(seed_of("sample", self.label))
        out = [("rowidx", p, b) for p in (0, self.a.nrows) for b in range(64)]
        for t in TARGETS:
            for b in range(64):
                out += [(t, int(p), b) for p in rng.choice(self.words(t), per_bit, replace=False)]
        return out

    def pairs(self, count: int) -> "list[tuple[Flip, Flip]]":
        """``count`` flip pairs on two different words, drawn uniformly
        from the universe by the case's identity."""
        universe = self.universe()
        rng = np.random.default_rng(seed_of("pairs", self.label))
        out: "list[tuple[Flip, Flip]]" = []
        while len(out) < count:
            f, g = (universe[i] for i in rng.integers(len(universe), size=2).tolist())
            if f[:2] != g[:2]:
                out.append((f, g))
        return out

    def run(self, strikes: "tuple[Flip, ...]") -> Verdict:
        """One product under ``strikes``."""
        a, x = self.a.copy(), self.x.copy()

        def hook(stage, m, xs, y):
            for target, p, b in strikes:
                if (target == "y") == (stage == "post"):
                    arr = {"x": xs, "y": y}.get(target)
                    arr = getattr(m, target) if arr is None else arr
                    flip_bits_array(arr, np.array([p]), np.array([b]))

        try:
            res = protected_spmv(a, x, self.checksums, correct=self.correct, fault_hook=hook)
        except Exception:  # noqa: BLE001 - an exception is an outcome
            return Verdict("exception", None, np.inf)
        with np.errstate(all="ignore"):
            return self._judge(res, a, x)

    def _judge(self, res, a: CSRMatrix, x: np.ndarray) -> Verdict:
        moved = [(x, self.x), *((getattr(a, t), getattr(self.a, t)) for t in MATRIX)]
        drift = max(
            float(np.max(np.abs(now.astype(np.float64) - clean) / np.max(np.abs(clean))))
            for now, clean in moved
        )
        corrected = res.status is SpmvStatus.CORRECTED
        kind = res.correction.kind if corrected else None
        return Verdict(self._outcome(res, x, corrected, drift), kind, drift)

    def _outcome(self, res, x: np.ndarray, corrected: bool, drift: float) -> str:
        if res.status is SpmvStatus.DETECTED:
            return "detected"
        if res.status is SpmvStatus.UNCORRECTABLE:
            return "uncorrectable"
        if res.y.tobytes() == self.y0.tobytes() and (not corrected or drift == 0.0):
            return "corrected to the bit" if corrected else "undetected, bit-exact"
        dx = float(np.max(np.abs(x - self.x)))
        y_ref = self.y0 if dx == 0.0 else spmv(self.a, x)
        if not (dx <= self.tau and float(np.max(np.abs(res.y - y_ref))) <= self.tau):
            return "silent wrong answer"
        return "corrected within the bound" if corrected else "undetected, within the bound"


def false_positives(case: Case) -> int:
    """Clean products flagged, over :data:`CLEAN_VECTORS` ``x`` vectors."""
    flagged = 0
    for k in range(CLEAN_VECTORS):
        x = np.random.default_rng(seed_of("clean", case.label, k)).standard_normal(case.a.ncols)
        x *= 10.0 ** (k - CLEAN_VECTORS // 2)
        res = protected_spmv(case.a.copy(), x, case.checksums, correct=case.correct)
        flagged += res.status is not SpmvStatus.OK
    return flagged


def _row(label: str, counts: "dict[str, int]") -> str:
    total = sum(counts.values())
    inexact = sum(counts.get(o, 0) for o in INEXACT)
    cells = " | ".join(str(counts.get(o, 0)) for o in OUTCOMES)
    return f"| {label} | {total} | {cells} | {inexact / total:.4f} |"


def render() -> "tuple[str, bool]":
    """The full census as markdown, and whether it holds: no single flip
    silent or raising, no pair raising, no clean product flagged."""
    holds = True
    lines = [
        "# CLAIMS: Algorithm 2 under every single bit flip",
        "",
        "Generated by `python -m tests.spec.census` from",
        "`tests/spec/census.py`; CI regenerates it and fails on a diff.",
        "Each product takes one flip (two in the pair rows) of one bit of",
        "one word: `val`, `colid` and `rowidx` before the product, `x`",
        "after the reliable snapshot, `y` after the raw product.  τ is the",
        "Eq.-9 tolerance at ‖x‖∞.  The bound is ‖y − y₀‖∞ ≤ τ for matrix",
        "and `y` flips, and |x̃ⱼ − xⱼ| ≤ τ for `x` flips.  A *silent wrong",
        "answer* is OK or CORRECTED outside the bound; *corrected to the",
        "bit* restores the `y` bytes, the matrix and `x`.  The last",
        "column is the share of flips whose trusted answer is not the",
        "clean bytes.  Single flips may be neither silent nor raise; pairs",
        "may not raise, and their silent count stands as measured",
        "(docs/DESIGN.md §4).",
    ]
    head = "| target | flips | " + " | ".join(OUTCOMES) + " | non-bit-exact share |"
    rule = "|---|---:|" + "---:|" * (len(OUTCOMES) + 1)
    for matrix in MATRICES:
        for mode in MODES:
            case = Case.of(matrix, mode)
            single = collections.Counter((f[0], case.run((f,)).outcome) for f in case.universe())
            pairs = collections.Counter(case.run(p).outcome for p in case.pairs(PAIRS))
            flagged = false_positives(case)
            holds = holds and not flagged and not pairs["exception"] and not any(
                o in ("silent wrong answer", "exception") for _, o in single
            )
            a = case.a
            lines += [
                "",
                f"## {matrix}, {mode}",
                "",
                f"n = {a.nrows}, nnz = {a.nnz}, τ = {case.tau:.3e}; "
                f"clean products flagged: {flagged} of {CLEAN_VECTORS}.",
                "",
                head,
                rule,
            ]
            everything: "collections.Counter[str]" = collections.Counter()
            for target in TARGETS:
                row = {o: c for (t, o), c in single.items() if t == target}
                everything.update(row)
                lines.append(_row(f"`{target}`", row))
            lines.append(_row("all single flips", everything))
            lines.append(_row("flip pairs", pairs))
    return "\n".join(lines) + "\n", holds


if __name__ == "__main__":
    text, holds = render()
    sys.stdout.write(text)
    sys.exit(0 if holds else 1)
