"""Prefix-sharing bit-identity: adaptive stopping at ``k`` reps must be
indistinguishable from the first ``k`` reps of a fixed-count run.

This is the invariant that makes adaptive campaigns trustworthy: the
sampling policy is task *identity* but never enters seed derivation,
so per-rep fault streams are shared between fixed and adaptive runs of
the same parameter point.  The grid here covers every
(method, scheme, backend) cell, and a golden fixture pins the exact
per-rep trajectories of a reference cell against drift.
"""

import hashlib
import json
import pathlib

import pytest

from repro.adaptive import SamplingPolicy
from repro.api.study import Study
from repro.backends import available_backends
from repro.core.methods import Method, Scheme, SchemeConfig
from repro.sim.engine import (
    PER_REP_KEYS,
    make_rhs,
    repeat_run,
)
from repro.sparse import stencil_spd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "adaptive_prefix.json"

#: Enough fault pressure that times vary and stopping is non-trivial.
ALPHA = 0.15
#: Cap small enough to keep the grid fast, min small enough that the
#: CI target (loose) can stop before the cap.
POLICY = SamplingPolicy(ci=0.5, confidence=0.9, min_reps=3, max_reps=6)


def _system():
    a = stencil_spd(49, kind="cross", radius=1)
    return a, make_rhs(a)


def _cells():
    for method in Method:
        for scheme in method.supported_schemes:
            for backend in sorted(available_backends()):
                yield method, scheme, backend


@pytest.mark.parametrize(
    "method,scheme,backend",
    list(_cells()),
    ids=lambda v: getattr(v, "value", v),
)
def test_adaptive_prefix_bit_identical(method, scheme, backend):
    a, b = _system()
    cfg = SchemeConfig(
        scheme=scheme,
        checkpoint_interval=5,
        verification_interval=2 if scheme is Scheme.ONLINE_DETECTION else 1,
    )
    kwargs = dict(
        alpha=ALPHA, base_seed=2015, labels=("prefix", 7),
        method=method, backend=backend,
    )
    per_adaptive: dict = {}
    stats_adaptive = repeat_run(
        a, b, cfg, reps=POLICY.max_reps, policy=POLICY, per_rep=per_adaptive,
        **kwargs,
    )
    k = stats_adaptive.reps
    assert POLICY.min_reps <= k <= POLICY.max_reps
    per_fixed: dict = {}
    stats_fixed = repeat_run(a, b, cfg, reps=k, per_rep=per_fixed, **kwargs)
    # The per-rep trajectories — times, iteration counts, recovery
    # counters, fault counts — must agree bit for bit, not approximately.
    assert per_adaptive == per_fixed
    assert stats_adaptive.mean_time == stats_fixed.mean_time
    assert stats_adaptive.std_time == stats_fixed.std_time
    assert stats_adaptive.min_time == stats_fixed.min_time
    assert stats_adaptive.max_time == stats_fixed.max_time


def test_adaptive_is_prefix_of_longer_fixed_run():
    # Not just equal at k: the adaptive trajectory must be a *prefix*
    # of the full fixed-count trajectory (rep i depends only on the
    # derived seed, never on how many reps run).
    a, b = _system()
    cfg = SchemeConfig(scheme=Scheme.ABFT_DETECTION, checkpoint_interval=5)
    per_adaptive: dict = {}
    stats = repeat_run(
        a, b, cfg, alpha=ALPHA, reps=POLICY.max_reps, policy=POLICY, base_seed=2015,
        labels=("prefix", 7), per_rep=per_adaptive,
    )
    per_full: dict = {}
    repeat_run(
        a, b, cfg, alpha=ALPHA, reps=POLICY.max_reps, base_seed=2015,
        labels=("prefix", 7), per_rep=per_full,
    )
    for key in PER_REP_KEYS:
        assert per_adaptive[key] == per_full[key][: stats.reps]


def encode_cell() -> dict:
    """The golden cell: exact per-rep trajectories, hex floats."""
    a, b = _system()
    cfg = SchemeConfig(scheme=Scheme.ABFT_CORRECTION, checkpoint_interval=5)
    per_rep: dict = {}
    stats = repeat_run(
        a, b, cfg, alpha=ALPHA, reps=POLICY.max_reps, policy=POLICY, base_seed=2015,
        labels=("prefix", 7), per_rep=per_rep,
    )
    blob = json.dumps(
        {k: per_rep[k] for k in PER_REP_KEYS}, sort_keys=True
    ).encode()
    return {
        "reps": stats.reps,
        "mean_time": float(stats.mean_time).hex(),
        "std_time": float(stats.std_time).hex(),
        "times": [float(t).hex() for t in per_rep["times"]],
        "iterations": list(per_rep["iterations"]),
        "faults": list(per_rep["faults"]),
        "per_rep_sha256": hashlib.sha256(blob).hexdigest(),
    }


def test_golden_adaptive_prefix():
    # Locked the same way the FT-trajectory fixtures are
    # (tests/golden/capture.py style): regenerate with
    #   python tests/golden/capture_adaptive.py
    expected = json.loads(GOLDEN.read_text())
    assert encode_cell() == expected


def test_adaptive_figure1_acceptance():
    # The feature's acceptance bar on a paper-range Figure-1 grid: the
    # adaptive run reaches every fixed-count mean within the combined CI
    # half-widths while executing a third of the repetitions.  Simulated
    # times carry no wall-clock noise, so the counts are exact.
    def study():
        return Study.figure1(scale=32, reps=30, uids=[2213], mtbf_values=[16, 100, 500])

    fixed = study().run(jobs=1)
    adaptive = study().adaptive("ci=0.25,conf=0.9,min=10,max=30").run(jobs=1)
    points = list(zip(fixed.figure1_points(), adaptive.figure1_points()))
    assert len(points) == 9
    for fp, ap in points:
        assert (ap.scheme, ap.normalized_mtbf) == (fp.scheme, fp.normalized_mtbf)
        # Zero-variance cells have a degenerate ±0 interval while the two
        # means still differ by summation order (~1 ulp per rep).
        tol = (ap.ci_high - ap.ci_low) / 2 + (fp.ci_high - fp.ci_low) / 2
        assert abs(ap.mean_time - fp.mean_time) <= tol + 1e-12 * abs(fp.mean_time)
    assert (fixed.total_reps, adaptive.total_reps) == (270, 90)
