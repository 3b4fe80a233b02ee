"""Golden-trajectory lock: the engine reproduces the seed drivers.

``tests/golden/ft_trajectories.json`` was captured from the
pre-refactor monolithic drivers (``core/ft_cg.py`` / ``core/ft_krylov
.py`` at PR 1) by ``tests/golden/capture.py``.  These tests assert the
plugin-based resilience engine reproduces every trajectory *bit for
bit*: simulated time (compared through ``float.hex``), the SHA-256 of
the solution vector's raw bytes, every recovery counter and every
breakdown component.

If one of these fails, the refactor changed the physics — the RNG
consumption order, the float accounting order, or the recurrence
arithmetic — and the paper's regenerated tables silently shift.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.sparse import stencil_spd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"

_gold = json.loads(GOLDEN.read_text())
_BREAKDOWN_FIELDS = ("useful_work", "wasted_work", "verification", "checkpoint", "recovery")


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(529, kind="cross", radius=2)
    b = np.random.default_rng(_gold["rhs_seed"]).normal(size=a.nrows)
    return a, b


def _entry_id(entry) -> str:
    return f"{entry['driver']}-{entry['scheme']}-a{entry['alpha']}-seed{entry['seed']}"


@pytest.mark.parametrize("entry", _gold["entries"], ids=_entry_id)
def test_bit_identical_to_pre_refactor_driver(problem, entry):
    a, b = problem
    cfg = SchemeConfig(
        Scheme(entry["scheme"]),
        checkpoint_interval=_gold["s"],
        verification_interval=entry["d"],
    )
    method = "cg" if entry["driver"] == "ft_cg" else "bicgstab"
    with np.errstate(all="ignore"):
        res = run_ft_method(
            method, a, b, cfg, alpha=entry["alpha"], rng=entry["seed"], eps=_gold["eps"]
        )
    want = entry["result"]

    assert hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest() == want["x_sha256"]
    assert res.converged == want["converged"]
    assert res.iterations == want["iterations"]
    assert res.iterations_executed == want["iterations_executed"]
    assert float(res.time_units).hex() == want["time_units"]
    assert float(res.residual_norm).hex() == want["residual_norm"]
    assert float(res.threshold).hex() == want["threshold"]

    c, wc = res.counters, want["counters"]
    assert c.faults_injected == wc["faults_injected"]
    assert c.detections == wc["detections"]
    assert dict(sorted(c.corrections.items())) == wc["corrections"]
    assert c.rollbacks == wc["rollbacks"]
    assert c.checkpoints == wc["checkpoints"]
    assert c.verifications == wc["verifications"]
    assert c.tmr_corrections == wc["tmr_corrections"]
    assert c.tmr_detections == wc["tmr_detections"]
    assert c.final_check_failures == wc["final_check_failures"]

    for f in _BREAKDOWN_FIELDS:
        assert float(getattr(res.breakdown, f)).hex() == want["breakdown"][f], f


# One golden entry per (driver, scheme) pair, replayed with the kernel
# backend pinned *explicitly*: backend="reference" must be the same
# code path as the default, not merely a close cousin.
_BACKEND_ENTRIES = list(
    {
        (e["driver"], e["scheme"]): e for e in _gold["entries"]
    }.values()
)


@pytest.mark.parametrize("entry", _BACKEND_ENTRIES, ids=_entry_id)
def test_explicit_reference_backend_matches_golden(problem, entry):
    from repro.core import Method

    a, b = problem
    cfg = SchemeConfig(
        Scheme(entry["scheme"]),
        checkpoint_interval=_gold["s"],
        verification_interval=entry["d"],
    )
    method = Method.CG if entry["driver"] == "ft_cg" else Method.BICGSTAB
    with np.errstate(all="ignore"):
        res = run_ft_method(
            method, a, b, cfg,
            alpha=entry["alpha"], rng=entry["seed"], eps=_gold["eps"],
            backend="reference",
        )
    want = entry["result"]
    assert hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest() == want["x_sha256"]
    assert float(res.time_units).hex() == want["time_units"]
    assert res.counters.rollbacks == want["counters"]["rollbacks"]
