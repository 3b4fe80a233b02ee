"""Per-process task invariants: built once per distinct key, never a
way to keep a matrix alive or to miss a matrix-directory change.

A campaign task rebuilds nothing that depends only on inputs shared
with earlier tasks: the cost model (by matrix size facts), the scheme
configuration (by scheme, s, d and cost model), the fixed-count
sampling policy (by rep count) and the engine's fault-target table (by
workspace binding) are each built once.  These tests count the builds
with spies and check that the caches hold no matrix and no stale
``REPRO_MATRIX_DIR`` resolution.
"""

import gc
import weakref

import pytest

from repro.adaptive import SamplingPolicy
from repro.api.study import Study
from repro.campaign import executor, run_campaign
from repro.campaign.spec import TaskSpec
from repro.core.methods import CostModel, SchemeConfig
from repro.faults.injector import FaultTargets
from repro.perf import clear_caches
from repro.sim import engine as sim_engine
from repro.sim.matrices import MATRIX_DIR_ENV, clear_matrix_cache, get_matrix


def _clear_invariant_caches():
    for cache in (executor._cost_model, executor._scheme_config, executor._sampling_policy,
                  sim_engine._fixed_policy):
        cache.cache_clear()
    clear_caches()


@pytest.fixture
def builds(monkeypatch):
    """Constructor calls of each per-task invariant, counted from a
    cold process state (the caches and the default workspace cleared)."""
    _clear_invariant_caches()
    counts = {"CostModel": 0, "SchemeConfig": 0, "SamplingPolicy": 0, "FaultTargets": 0}

    def spy(cls, name):
        real = cls.__init__

        def init(self, *args, **kwargs):
            counts[name] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (CostModel, SchemeConfig, SamplingPolicy, FaultTargets):
        spy(cls, cls.__name__)
    yield counts
    _clear_invariant_caches()


def _grid(**fixed):
    """200 one-rep tasks on one matrix: 2 schemes × 10 MTBF × 10 s."""
    settings = dict(uid=2213, scale=128, reps=1, eps=0.03, d=1, base_seed=3)
    settings.update(fixed)
    return (
        Study("invariants")
        .axis("scheme", ["abft-detection", "abft-correction"])
        .axis("mtbf", [16 * 2**k for k in range(10)])
        .axis("s", range(1, 11))
        .fix(**settings)
    )


def test_a_single_matrix_grid_builds_each_invariant_once_per_key(builds):
    tasks = _grid().tasks()
    assert len(tasks) == 200
    for key in builds:
        builds[key] = 0  # compiling is not the executor's work
    records = run_campaign(tasks, jobs=1)
    assert all(rec.get("kind") is None for rec in records)
    assert builds == {
        "CostModel": 1,  # one matrix: one set of size facts
        "SchemeConfig": 2 * 10,  # (scheme, s) pairs; d and the costs are fixed
        "SamplingPolicy": 1,  # reps=1 for every task
        "FaultTargets": 1,  # one workspace binding, one plugin
    }


def test_each_new_binding_builds_its_own_fault_targets(builds):
    tasks = _grid().tasks()[:20] + _grid(uid=1312).tasks()[:20] + _grid().tasks()[20:40]
    run_campaign(tasks, jobs=1)
    # 2213, then 1312, then 2213 again: three bindings of the workspace.
    assert builds["FaultTargets"] == 3
    assert builds["CostModel"] == 2


def test_clear_matrix_cache_still_frees_every_matrix_tasks_ran_on():
    _clear_invariant_caches()
    tasks = _grid().tasks()[:10]
    run_campaign(tasks, jobs=1, reuse_workspace=False)
    private = weakref.ref(get_matrix(2213, 128))
    run_campaign(tasks, jobs=1)  # the default workspace binds 2213 ...
    run_campaign(_grid(uid=1312).tasks()[:10], jobs=1)  # ... then 1312
    bound = weakref.ref(get_matrix(1312, 128))
    clear_matrix_cache()
    gc.collect()
    assert private() is None
    # The default workspace keeps its current binding's matrix alive:
    # clear_caches() releases the binding too.
    assert bound() is not None
    clear_caches()
    gc.collect()
    assert bound() is None
    _clear_invariant_caches()


def test_a_matrix_dir_change_between_two_scale_1_tasks_is_seen(tmp_path, monkeypatch):
    from repro.sparse import stencil_spd
    from repro.sparse.io import save_matrix_market

    pytest.importorskip("scipy")
    first, second = tmp_path / "first", tmp_path / "second"
    for path, n in ((first, 49), (second, 81)):
        path.mkdir()
        save_matrix_market(stencil_spd(n, kind="box", radius=1), path / "1312.mtx")
    task = TaskSpec(experiment="x", uid=1312, scale=1, scheme="abft-correction",
                    alpha=1 / 16, s=2, reps=1, base_seed=5)
    monkeypatch.setenv(MATRIX_DIR_ENV, str(first))
    rec_first = executor.execute_task(task)
    monkeypatch.setenv(MATRIX_DIR_ENV, str(second))
    rec_second = executor.execute_task(task)
    assert (rec_first["n"], rec_first["matrix_source"]) == (49, str(first / "1312.mtx"))
    assert (rec_second["n"], rec_second["matrix_source"]) == (81, str(second / "1312.mtx"))
    clear_caches()
