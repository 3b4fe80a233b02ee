"""Unit tests for ABFT detection (Theorem 1, single checksum row)."""

import numpy as np
import pytest

from repro.abft import compute_checksums, protected_spmv, SpmvStatus
from repro.faults.bitflip import flip_bit_int64
from repro.sparse import graph_laplacian_spd, stencil_spd


class TestDetectionMode:
    def test_clean_passes(self, small_lap, checks1, xvec):
        res = protected_spmv(small_lap, xvec, checks1, correct=False)
        assert res.status is SpmvStatus.OK
        assert res.trusted
        np.testing.assert_allclose(res.y, small_lap.matvec(xvec), rtol=1e-12)

    def test_val_error_detected(self, small_lap, checks1, xvec):
        a = small_lap.copy()
        a.val[11] += 1.0
        res = protected_spmv(a, xvec.copy(), checks1, correct=False)
        assert res.status is SpmvStatus.DETECTED
        assert not res.trusted

    def test_colid_error_detected(self, small_lap, checks1, xvec):
        a = small_lap.copy()
        a.colid[11] = (a.colid[11] + 7) % a.ncols
        res = protected_spmv(a, xvec.copy(), checks1, correct=False)
        assert res.status is SpmvStatus.DETECTED

    @pytest.mark.xfail(strict=True, reason="ROADMAP 11(e)")
    def test_every_colid_bit_flip_changes_the_column_read(self):
        """A wild index reads ``x[colid mod n]``, so at n = 2**m a flip
        of a ``colid`` bit >= m reads the very column it struck: at
        n = 64, 58 of the 64 flips of ``colid[5]`` come back OK with the
        clean product bit for bit, and 6 are DETECTED (docs/DESIGN.md
        §4).  Another wild-read mapping moves results, so it waits for
        an epoch."""
        a = stencil_spd(64)
        assert a.nrows == 64
        checks = compute_checksums(a, nchecks=1)
        x = np.random.default_rng(0).standard_normal(a.nrows)
        clean = protected_spmv(a, x.copy(), checks, correct=False).y
        unseen = []
        for bit in range(64):
            def hook(stage, m, xs, y, bit=bit):
                if stage == "pre":
                    m.colid[5] = flip_bit_int64(int(m.colid[5]), bit)

            res = protected_spmv(a.copy(), x.copy(), checks, correct=False, fault_hook=hook)
            if res.status is SpmvStatus.OK and res.y.tobytes() == clean.tobytes():
                unseen.append(bit)
        assert unseen == []

    def test_rowidx_error_detected(self, small_lap, checks1, xvec):
        a = small_lap.copy()
        a.rowidx[20] += 1
        res = protected_spmv(a, xvec.copy(), checks1, correct=False)
        assert res.status is SpmvStatus.DETECTED
        assert res.residuals.rowidx_flagged

    def test_x_error_detected(self, small_lap, checks1, xvec):
        def hook(stage, a, x, y):
            if stage == "pre":
                x[100] += 2.0

        res = protected_spmv(small_lap, xvec.copy(), checks1, correct=False, fault_hook=hook)
        assert res.status is SpmvStatus.DETECTED
        assert res.residuals.dxp_flagged

    def test_y_error_detected(self, small_lap, checks1, xvec):
        def hook(stage, a, x, y):
            if stage == "post":
                y[37] -= 5.0

        res = protected_spmv(small_lap, xvec.copy(), checks1, correct=False, fault_hook=hook)
        assert res.status is SpmvStatus.DETECTED
        assert res.residuals.dx_flagged

    def test_correct_true_requires_two_checksums(self, small_lap, checks1, xvec):
        with pytest.raises(ValueError, match="nchecks=2"):
            protected_spmv(small_lap, xvec, checks1, correct=True)

    def test_shape_mismatch_rejected(self, small_lap, checks1):
        from repro.sparse import laplacian_2d

        other = laplacian_2d(5)
        with pytest.raises(ValueError, match="shape"):
            protected_spmv(other, np.ones(25), checks1, correct=False)


class TestShiftNecessity:
    """The Section-3.2 scenario: zero column sums hide x-errors from the
    unshifted Shantharam test; the shifted test (Theorem 1) catches them."""

    def test_x_error_on_zero_sum_column_detected(self):
        # Laplacian + tiny diagonal: column sums ≈ shift ≈ 1e-9 — far
        # below the magnitude where an unshifted cᵀx' test could see
        # anything over the rounding threshold.
        a = graph_laplacian_spd(80, 4, seed=2, shift=1e-9)
        cks = compute_checksums(a, nchecks=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=a.ncols)

        def hook(stage, aa, xx, yy):
            if stage == "pre":
                xx[13] += 3.0

        res = protected_spmv(a, x.copy(), cks, correct=False, fault_hook=hook)
        assert res.status is SpmvStatus.DETECTED

    def test_unshifted_test_would_miss_it(self):
        """Demonstrate the failure mode the shift exists to fix."""
        a = graph_laplacian_spd(80, 4, seed=2, shift=1e-9)
        rng = np.random.default_rng(0)
        x = rng.normal(size=a.ncols)
        x_ref = x.copy()
        x_bad = x.copy()
        x_bad[13] += 3.0
        y = a.matvec(x_bad)
        colsums = a.to_dense().sum(axis=0)
        # Unshifted Shantharam test: cᵀx' vs Σy — the error contributes
        # colsums[13]·3 ≈ 3e-9, indistinguishable from rounding noise of
        # the O(‖A‖·‖x‖) sums.
        gap = abs(colsums @ x_ref - y.sum())
        assert gap < 1e-6  # would need threshold below noise to catch


class TestDetectionVsToleranceInterplay:
    def test_detection_only_never_mutates_state(self, small_lap, checks1, xvec):
        a = small_lap.copy()
        a.val[9] += 4.0
        snapshot = a.val.copy()
        protected_spmv(a, xvec.copy(), checks1, correct=False)
        np.testing.assert_array_equal(a.val, snapshot)


# ----------------------------------------------------------------------
# The scalar verdict against the array-and-dataclass one it replaced
# ----------------------------------------------------------------------
# The oracle below is the verification pass as it stood before the
# verdict went scalar, copied verbatim: ``_verify`` returning a frozen
# residuals object, and that object's three flags and ``clean``.  The
# only edit is the threshold line, which inlines the formula of the
# ``ToleranceModel.thresholds`` it called, so the oracle shares no
# arithmetic with the code under test.
import math  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.abft import spmv as abft_spmv  # noqa: E402
from repro.abft.tolerance import _TINY  # noqa: E402
from repro.sparse import laplacian_2d  # noqa: E402


@dataclass(frozen=True)
class OracleResiduals:
    dr: np.ndarray
    dx: np.ndarray
    dxp: np.ndarray
    thresholds: np.ndarray

    @property
    def rowidx_flagged(self) -> bool:
        for v in self.dr.tolist():
            if not math.isfinite(v) or abs(v) >= 0.5:
                return True
        return False

    @property
    def dx_flagged(self) -> bool:
        for v, t in zip(self.dx.tolist(), self.thresholds.tolist()):
            if not math.isfinite(v) or abs(v) > t:
                return True
        return False

    @property
    def dxp_flagged(self) -> bool:
        for v, t in zip(self.dxp.tolist(), self.thresholds.tolist()):
            if not math.isfinite(v) or abs(v) > t:
                return True
        return False

    @property
    def clean(self) -> bool:
        return not (self.rowidx_flagged or self.dx_flagged or self.dxp_flagged)


def oracle_verify(a, x, y, x_ref, cks, buffers=None, dr_zero=False) -> OracleResiduals:
    w = cks.weights
    c = cks.column_checksums
    with np.errstate(over="ignore", invalid="ignore"):
        if dr_zero:
            dr = np.zeros(cks.nchecks, dtype=np.float64)
        else:
            if buffers is None:
                ridx = a.rowidx[1:].astype(np.float64)
            else:
                ridx = buffers[0]
                np.copyto(ridx, a.rowidx[1:])
            sr = w @ ridx
            dr = cks.rowidx_checksums - sr
        dx = w @ y - c @ x
        if cks.nchecks == 1:
            shifted = cks.shifted_first_row
            dxp = np.array([float(shifted @ x_ref - (y.sum() + cks.shift * x.sum()))])
        else:
            wmc = cks.weights_minus_checksums
            if buffers is None:
                dxp = w @ (x_ref - y) - wmc @ x
            else:
                diff = buffers[1]
                np.subtract(x_ref, y, out=diff)
                dxp = w @ diff - wmc @ x
        if x_ref is x:
            x_inf = float(np.abs(x).max()) if x.shape[0] else 0.0
        elif x.shape[0]:
            x_inf = float(max(np.abs(x_ref).max(), np.abs(x).max()))
        else:
            x_inf = 0.0
    if not math.isfinite(x_inf):
        x_inf = float(np.abs(x_ref).max(initial=0.0))
    thresholds = cks.tolerance.per_check_factor * max(x_inf, _TINY)
    return OracleResiduals(dr=dr, dx=dx, dxp=dxp, thresholds=thresholds)


_VERDICT_A = laplacian_2d(4)  # n = 16: small enough to write every entry
_VERDICT_CKS = {k: compute_checksums(_VERDICT_A, nchecks=k) for k in (1, 2)}
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -0.5, 1e300, -1e300, 5e-324]


def _special_floats():
    return st.one_of(
        st.sampled_from(_SPECIAL),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )


def _vector(n):
    """A float vector, mostly ordinary, with special values at drawn spots."""
    return st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), _special_floats()), max_size=4),
    ).map(lambda t: _with(np.array(t[0], dtype=np.float64), t[1]))


def _with(v, spots):
    for i, value in spots:
        v[i] = value
    return v


def _assert_same(got: abft_spmv.SpmvResiduals, want: OracleResiduals) -> None:
    for name in ("dr", "dx", "dxp", "thresholds"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, g, w)
    for flag in ("rowidx_flagged", "dx_flagged", "dxp_flagged", "clean"):
        assert getattr(got, flag) == getattr(want, flag), flag


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nchecks=st.sampled_from([1, 2]),
    x=_vector(16),
    y_spots=st.lists(st.tuples(st.integers(0, 15), _special_floats()), max_size=3),
    x_ref_mode=st.sampled_from(["same", "copy", "other"]),
    other=_vector(16),
    dr_zero=st.booleans(),
    rowidx_spots=st.lists(st.tuples(st.integers(1, 16), st.integers(-3, 3)), max_size=2),
    with_buffers=st.booleans(),
)
def test_verdict_matches_the_dataclass_oracle(
    nchecks, x, y_spots, x_ref_mode, other, dr_zero, rowidx_spots, with_buffers
):
    """The scalar verdict, the lazily built residual arrays and all three
    flags equal the pre-scalar pass, bit for bit: ±0, ±inf and NaN
    entries, ``x`` holding inf/NaN with ``x_ref`` different from it, one
    and two checks, the row-pointer test skipped or evaluated on struck
    pointers."""
    a = _VERDICT_A.copy()
    for i, delta in rowidx_spots:
        a.rowidx[i] += delta
    cks = _VERDICT_CKS[nchecks]
    with np.errstate(all="ignore"):
        y = _with(_VERDICT_A.matvec(np.nan_to_num(x)), y_spots)
    x_ref = {"same": x, "copy": x.copy(), "other": other}[x_ref_mode]
    buffers = (np.empty(16), np.empty(16)) if with_buffers else None
    want = oracle_verify(a, x, y, x_ref, cks, buffers, dr_zero)
    with np.errstate(all="ignore"):
        check = abft_spmv._verify(a, x, y, x_ref, cks, buffers, dr_zero)
    assert abft_spmv._clean(check) == want.clean
    _assert_same(abft_spmv.SpmvResiduals.from_check(check), want)


@settings(deadline=None)
@given(
    nchecks=st.sampled_from([1, 2]),
    thresholds=st.lists(
        st.one_of(st.floats(0.0, 1e3), st.sampled_from([math.inf, math.nan, _TINY])),
        min_size=2, max_size=2,
    ),
    picks=st.lists(st.sampled_from(["zero", "-zero", "inf", "-inf", "nan", "at", "-at",
                                    "above", "below", "any"]), min_size=6, max_size=6),
    anys=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                  min_size=6, max_size=6),
)
def test_flags_match_the_oracle_at_the_threshold(nchecks, thresholds, picks, anys):
    """Residual groups exactly at, just above and just below their
    threshold (0.5 for the exact row-pointer test), and ±0/±inf/NaN:
    the verdict and each flag decide as the oracle's do."""
    thresholds = thresholds[:nchecks]

    def value(pick, limit, other):
        return {"zero": 0.0, "-zero": -0.0, "inf": math.inf, "-inf": -math.inf,
                "nan": math.nan, "at": limit, "-at": -limit,
                "above": math.nextafter(limit, math.inf),
                "below": math.nextafter(limit, -math.inf), "any": other}[pick]

    groups = []
    for g in range(3):
        limits = [0.5] * nchecks if g == 0 else thresholds
        groups.append([value(picks[2 * g + l], limits[l], anys[2 * g + l])
                       for l in range(nchecks)])
    check = (*groups, list(thresholds))
    want = OracleResiduals(*(np.array(group, dtype=np.float64) for group in check))
    assert abft_spmv._clean(check) == want.clean
    _assert_same(abft_spmv.SpmvResiduals.from_check(check), want)


@pytest.mark.parametrize("nchecks", [1, 2])
def test_clean_result_builds_its_residuals_on_read(small_lap, xvec, nchecks):
    """A product that verifies clean keeps floats; ``.residuals`` builds
    the arrays the oracle computes, once."""
    cks = compute_checksums(small_lap, nchecks=nchecks)
    res = protected_spmv(small_lap, xvec, cks, correct=nchecks == 2)
    assert res.status is SpmvStatus.OK
    want = oracle_verify(small_lap, xvec, small_lap.matvec(xvec), xvec, cks)
    _assert_same(res.residuals, want)
    assert res.residuals is res.residuals
