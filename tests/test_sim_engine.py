"""Unit tests for the experiment engine."""

import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import Scheme, SchemeConfig
from repro.sim import repeat_run
from repro.adaptive import ci_bounds
from repro.sim.engine import PER_REP_KEYS, RunStatistics, _aggregate, make_rhs
from repro.sparse import stencil_spd


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(625, kind="cross", radius=1)
    return a, make_rhs(a)


class TestMakeRhs:
    def test_deterministic(self, problem):
        a, _ = problem
        np.testing.assert_array_equal(make_rhs(a), make_rhs(a))

    def test_memoised_vector_is_never_shared(self, problem):
        # Callers own the result: writing into one call's vector must
        # not leak into the next (the generation is memoised per (n, seed)).
        a, _ = problem
        first = make_rhs(a)
        assert first.flags.writeable
        np.testing.assert_array_equal(
            first, np.random.default_rng(1234).standard_normal(a.nrows))
        first[:] = 0.0
        assert np.any(make_rhs(a) != 0.0)
        assert not np.array_equal(make_rhs(a, seed=7), make_rhs(a))

    def test_not_an_eigenvector_direction(self, problem):
        a, b = problem
        # b and A·b must not be parallel (guards against the A·1 trap).
        ab = a.matvec(b)
        cos = abs(b @ ab) / (np.linalg.norm(b) * np.linalg.norm(ab))
        assert cos < 0.99


def _aggregate_reference(payload: dict, confidence: float) -> RunStatistics:
    """The per-list NumPy reductions ``_aggregate`` used to make — kept
    as the oracle for its single row reduction."""
    reps = len(payload["times"])
    t = np.asarray(payload["times"])
    mean = float(t.mean())
    std = float(t.std(ddof=1)) if reps > 1 else 0.0
    ci = ci_bounds(mean, std, reps, confidence)
    return RunStatistics(
        mean_time=mean,
        std_time=std,
        min_time=float(t.min()),
        max_time=float(t.max()),
        mean_iterations=float(np.mean(payload["iterations"])),
        mean_rollbacks=float(np.mean(payload["rollbacks"])),
        mean_corrections=float(np.mean(payload["corrections"])),
        mean_faults=float(np.mean(payload["faults"])),
        convergence_rate=float(np.mean(payload["converged"])),
        reps=reps,
        ci_low=ci[0] if ci else None,
        ci_high=ci[1] if ci else None,
        confidence=confidence,
    )


class TestAggregate:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("reps", [*range(1, 41), 100, 129, 1000, 9000])
    def test_bit_identical_to_per_list_reductions(self, reps):
        rng = np.random.default_rng(reps)
        for trial in range(3):
            times = (rng.standard_normal(reps) * 10.0 ** rng.integers(-8, 9, reps)).tolist()
            if trial == 1:
                times[int(rng.integers(reps))] = float("nan")
            if trial == 2:
                times[int(rng.integers(reps))] = -0.0
            payload = {
                "times": times,
                "iterations": rng.integers(0, 10**6, reps).tolist(),
                "rollbacks": rng.integers(0, 5, reps).tolist(),
                "corrections": rng.integers(0, 50, reps).tolist(),
                "faults": rng.integers(0, 9, reps).tolist(),
                "converged": (rng.random(reps) < 0.8).tolist(),
            }
            assert set(payload) == set(PER_REP_KEYS)
            got = _aggregate(payload, 0.95).to_json()
            want = _aggregate_reference(payload, 0.95)
            from dataclasses import asdict

            assert list(got) == list(asdict(want))
            for key, value in asdict(want).items():
                assert type(got[key]) is type(value), key
                # repr distinguishes -0.0 from 0.0 and equates NaN with NaN.
                assert repr(got[key]) == repr(value), (reps, key)


def _aggregate_oracle(payload: dict, confidence: float) -> RunStatistics:
    """Verbatim the NumPy fold ``_aggregate`` was before single-rep
    payloads folded in plain Python: the oracle for both its paths."""
    reps = len(payload["times"])
    rows = np.array([payload[k] for k in PER_REP_KEYS], dtype=np.float64)
    means = dict(zip(PER_REP_KEYS, (rows.sum(axis=1) / reps).tolist()))
    t = rows[0]
    mean = means["times"]
    std = float(t.std(ddof=1)) if reps > 1 else 0.0
    ci = ci_bounds(mean, std, reps, confidence)
    return RunStatistics(
        mean_time=mean,
        std_time=std,
        min_time=float(t.min()),
        max_time=float(t.max()),
        mean_iterations=means["iterations"],
        mean_rollbacks=means["rollbacks"],
        mean_corrections=means["corrections"],
        mean_faults=means["faults"],
        convergence_rate=means["converged"],
        reps=reps,
        ci_low=ci[0] if ci else None,
        ci_high=ci[1] if ci else None,
        confidence=confidence,
    )


def _bits(value):
    """A field as comparable bits: floats by their IEEE bytes (so -0.0
    differs from 0.0 and NaN payloads count), everything else as is."""
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return type(value).__name__, value


_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_COUNTS = st.one_of(
    st.lists(st.integers(-(2**62), 2**62), min_size=64, max_size=64),
    st.lists(st.booleans(), min_size=64, max_size=64),
)


@st.composite
def _payloads(draw):
    reps = draw(st.one_of(st.just(1), st.integers(1, 64)))  # half the draws take the Python path
    payload = {"times": draw(st.lists(_TIMES, min_size=reps, max_size=reps))}
    for key in PER_REP_KEYS[1:]:
        payload[key] = draw(_COUNTS)[:reps]
    return payload


class TestFoldOracle:
    """``_aggregate`` equals the NumPy oracle field for field, bit for
    bit, whichever path the rep count selects (one rep folds in plain
    Python, more on NumPy)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(payload=_payloads(), confidence=st.sampled_from([0.9, 0.95, 0.99]))
    def test_every_field_matches_the_numpy_fold(self, payload, confidence):
        got = _aggregate(payload, confidence)
        with np.errstate(all="ignore"):
            want = _aggregate_oracle(payload, confidence)
        for f in fields(RunStatistics):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name

    @pytest.mark.parametrize("time", [0.0, -0.0, float("inf"), float("-inf"), float("nan")])
    def test_one_rep_edge_values(self, time):
        payload = {"times": [time], "iterations": [3], "rollbacks": [0],
                   "corrections": [True], "faults": [2**60 + 1], "converged": [False]}
        got, want = _aggregate(payload, 0.95), _aggregate_oracle(payload, 0.95)
        for f in fields(RunStatistics):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


class TestRepeatRun:
    def test_aggregates(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=8)
        stats = repeat_run(a, b, cfg, alpha=0.1, reps=4, base_seed=1, eps=1e-6)
        assert stats.reps == 4
        assert stats.min_time <= stats.mean_time <= stats.max_time
        assert stats.convergence_rate == 1.0
        assert stats.mean_faults > 0

    def test_deterministic_given_seed(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=6)
        s1 = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=5, eps=1e-6)
        s2 = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=5, eps=1e-6)
        assert s1.mean_time == s2.mean_time

    def test_labels_decorrelate_streams(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_DETECTION, checkpoint_interval=6)
        s1 = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=5, labels=("A",), eps=1e-6)
        s2 = repeat_run(a, b, cfg, alpha=0.1, reps=3, base_seed=5, labels=("B",), eps=1e-6)
        assert s1.mean_time != s2.mean_time

    def test_sem(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=8)
        stats = repeat_run(a, b, cfg, alpha=0.15, reps=4, base_seed=2, eps=1e-6)
        assert stats.sem_time == pytest.approx(stats.std_time / 2.0)

    def test_reps_validated(self, problem):
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION)
        with pytest.raises(ValueError):
            repeat_run(a, b, cfg, alpha=0.1, reps=0)


class TestIntervalSweep:
    def test_repeat_run_uses_interval(self, problem):
        """Tiny s means frequent checkpointing: with the same fault
        stream per rep, s=1 must cost more than a moderate s at low
        fault rates."""
        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=1)
        mean = {
            s: repeat_run(
                a, b, cfg.with_intervals(s=s), alpha=0.01, reps=2, labels=("s", s), eps=1e-6
            ).mean_time
            for s in (1, 30)
        }
        assert mean[1] > mean[30]
