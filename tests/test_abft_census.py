"""Algorithm 2 under bit flips: a fixed sample of the census.

:mod:`tests.spec.census` flips every bit of every word the protected
product touches; ``docs/CLAIMS.md`` is its full table, which CI
regenerates.  Here every target × bit is struck at four identity-drawn
words (all 64 bits of ``rowidx[0]`` and ``rowidx[n]`` besides), on both
census matrices under both modes, and each claim below is checked on
every sampled flip.  The bands and per-word verdicts are what the full
census finds on both matrices.
"""

from __future__ import annotations

import functools

import pytest

from repro.faults.bitflip import flip_bit_int64
from repro.sparse import stencil_spd
from tests.spec.census import KIND_OF, MATRICES, MODES, Case, false_positives

CASES = [(m, mode) for m in MATRICES for mode in MODES]
IDS = [f"{'n64' if '64' in m else 'cross25'}-{mode}" for m, mode in CASES]
#: A flip of bit 30 or above moves a float by at least 2⁻²² of itself,
#: far above τ: the full census finds every such flip of ``val``, ``x``
#: and ``y`` flagged, and these bits always corrected (above them some
#: exponent flips come back uncorrectable).
CORRECTED_BITS = {
    "val": frozenset({*range(30, 56), 63}),
    "x": frozenset({*range(30, 62), 63}),
    "y": frozenset(range(30, 64)),
}
CORRECTED = frozenset({"corrected to the bit", "corrected within the bound"})


@functools.lru_cache(maxsize=None)
def _sampled(matrix: str, mode: str):
    case = Case.of(matrix, mode)
    return case, [(f, case.run((f,))) for f in case.sample(per_bit=4)]


@pytest.fixture(params=CASES, ids=IDS)
def sampled(request):
    return _sampled(*request.param)


def test_the_sample_strikes_every_target_and_bit(sampled):
    case, verdicts = sampled
    struck = {(t, b) for (t, _, b), _ in verdicts}
    assert struck == {(t, b) for t in KIND_OF for b in range(64)}
    ends = {(p, b) for (t, p, b), _ in verdicts if t == "rowidx" and p in (0, case.a.nrows)}
    assert len(ends) == 128


def test_no_single_flip_is_a_silent_wrong_answer_or_raises(sampled):
    """Theorems 1 and 2: every flip is flagged, or its trusted answer is
    within the bound."""
    _, verdicts = sampled
    bad = [(f, v) for f, v in verdicts if v.outcome in ("silent wrong answer", "exception")]
    assert bad == []


def test_a_correction_names_the_struck_target_and_repairs_it(sampled):
    """The decoder's kind is the struck array's.  A repaired pointer or
    ``x`` leaves the matrix and ``x`` bit for bit as they were, a repaired
    ``val`` within 1e-8 of its largest entry."""
    case, verdicts = sampled
    for (target, p, bit), v in verdicts:
        if v.kind is not None:
            assert v.kind == KIND_OF[target], (target, p, bit, v)
            if target in ("rowidx", "x"):
                assert v.drift == 0.0, (target, p, bit, v)
            if target == "val":
                assert v.drift <= 1e-8, (p, bit, v)
        assert case.correct or v.outcome not in CORRECTED | {"uncorrectable"}


def test_the_row_pointers(sampled):
    """``rowidx[0]`` is outside the pointer checksum: its sign bit clips
    back to 0 and changes nothing, any other bit drops entries of row 0,
    which is flagged and cannot be repaired.  Every other pointer flip
    is flagged, and under correction repaired."""
    case, verdicts = sampled
    flagged = "uncorrectable" if case.correct else "detected"
    for (target, p, bit), v in verdicts:
        if target != "rowidx":
            continue
        if p == 0:
            want = {"undetected, bit-exact"} if bit == 63 else {flagged}
        else:
            want = CORRECTED if case.correct else {"detected"}
        assert v.outcome in want, (p, bit, v)


def test_a_colid_flip_is_caught_iff_it_moves_the_column_read(sampled):
    """A wild index reads ``x[colid mod n]``: a flip that moves it is
    flagged, and under correction repaired; one that does not (a bit
    ≥ m at n = 2^m) leaves the product bit-exact (docs/DESIGN.md §4)."""
    case, verdicts = sampled
    n = case.a.ncols
    for (target, p, bit), v in verdicts:
        if target != "colid":
            continue
        column = int(case.a.colid[p])
        moved = flip_bit_int64(column, bit) % n != column % n
        if not moved:
            assert v.outcome == "undetected, bit-exact", (p, bit, v)
        elif case.correct:
            assert v.outcome in CORRECTED, (p, bit, v)
        else:
            assert v.outcome == "detected", (p, bit, v)


def test_a_high_bit_flip_is_flagged_and_in_its_band_corrected(sampled):
    case, verdicts = sampled
    for (target, p, bit), v in verdicts:
        if target not in CORRECTED_BITS or bit < 30:
            continue
        if not case.correct:
            want = {"detected"}
        elif bit in CORRECTED_BITS[target]:
            want = CORRECTED
        else:
            want = CORRECTED | {"uncorrectable"}
        assert v.outcome in want, (target, p, bit, v)


@pytest.mark.parametrize("matrix, mode", CASES, ids=IDS)
def test_clean_products_are_never_flagged(matrix, mode):
    assert false_positives(Case.of(matrix, mode)) == 0


@pytest.mark.parametrize("matrix, mode", CASES, ids=IDS)
def test_no_flip_pair_raises(matrix, mode):
    case = Case.of(matrix, mode)
    outcomes = [case.run(pair).outcome for pair in case.pairs(500)]
    assert "exception" not in outcomes


@pytest.mark.xfail(strict=True, reason="double-flip miscorrection (docs/DESIGN.md §4)")
def test_a_y_and_val_flip_pair_is_not_miscorrected():
    """``y[3]`` bit 56 with ``val[11]`` bit 17 on ``stencil_spd(25)``:
    the decoder reads the pair as one ``val`` error, repairs it, the
    re-verification passes, and ``y`` is 9.6 τ off."""
    case = Case.build("stencil_spd(25), correction", stencil_spd(25), True)
    verdict = case.run((("y", 3, 56), ("val", 11, 17)))
    assert verdict.outcome != "silent wrong answer", verdict
