"""Tracing is pure observation: golden replay with sinks attached.

``test_resilience_golden.py`` locks the engine to the pre-refactor
trajectories; this file replays the same golden entries with tracing
*enabled* and asserts nothing moved.  A tracer that consumed RNG,
touched solver state or changed float accounting would shift the
solution hash or the ``float.hex`` time — exactly the failure this
guards against.  Two sinks are exercised: ``NullTracer`` (the
disabled path, which :func:`repro.obs.resolve_tracer` must collapse
to the untraced branch) and ``InMemoryTracer`` (the fully-enabled
path, every event materialized).
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.obs import InMemoryTracer, NullTracer
from repro.sparse import stencil_spd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"

_gold = json.loads(GOLDEN.read_text())

# One entry per (driver, scheme): the replay is about the tracer axis,
# not the fault axis, so the reduced grid keeps the runtime in check.
_ENTRIES = list({(e["driver"], e["scheme"]): e for e in _gold["entries"]}.values())


def _entry_id(entry) -> str:
    return f"{entry['driver']}-{entry['scheme']}"


def _replay(problem, entry, tracer):
    a, b = problem
    cfg = SchemeConfig(
        Scheme(entry["scheme"]),
        checkpoint_interval=_gold["s"],
        verification_interval=entry["d"],
    )
    method = "cg" if entry["driver"] == "ft_cg" else "bicgstab"
    with np.errstate(all="ignore"):
        return run_ft_method(
            method, a, b, cfg,
            alpha=entry["alpha"], rng=entry["seed"], eps=_gold["eps"],
            tracer=tracer,
        )


def _assert_matches_golden(res, want):
    assert hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest() \
        == want["x_sha256"]
    assert res.converged == want["converged"]
    assert res.iterations_executed == want["iterations_executed"]
    assert float(res.time_units).hex() == want["time_units"]
    assert float(res.residual_norm).hex() == want["residual_norm"]
    assert res.counters.faults_injected == want["counters"]["faults_injected"]
    assert res.counters.rollbacks == want["counters"]["rollbacks"]


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(529, kind="cross", radius=2)
    b = np.random.default_rng(_gold["rhs_seed"]).normal(size=a.nrows)
    return a, b


@pytest.mark.parametrize("entry", _ENTRIES, ids=_entry_id)
def test_null_tracer_matches_golden(problem, entry):
    res = _replay(problem, entry, NullTracer())
    _assert_matches_golden(res, entry["result"])


@pytest.mark.parametrize("entry", _ENTRIES, ids=_entry_id)
def test_in_memory_tracer_matches_golden(problem, entry):
    t = InMemoryTracer()
    res = _replay(problem, entry, t)
    _assert_matches_golden(res, entry["result"])
    # The trace itself must be consistent with the locked trajectory.
    counts = t.counts_by_kind()
    assert counts["step"] == entry["result"]["iterations_executed"]
    assert counts.get("strike", 0) == entry["result"]["counters"]["faults_injected"]
