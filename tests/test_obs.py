"""Observability layer: tracers, metrics, summaries, CLI, telemetry.

The one invariant everything here leans on: tracing and metrics are
*pure observation*.  Solves, studies and campaigns must produce
bit-identical results with tracing off, on, or fanned out to multiple
sinks — the golden-replay half of that claim lives in
``test_obs_golden.py``; this file covers the plumbing.
"""

import json
import warnings

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.obs import (
    EVENT_KINDS,
    FAULT_EVENT_KINDS,
    SCHEMA_VERSION,
    CallbackTracer,
    InMemoryTracer,
    JsonlTracer,
    Metrics,
    MultiTracer,
    NullTracer,
    NULL_TRACER,
    Tracer,
    diff_snapshots,
    get_metrics,
    merge_snapshots,
    resolve_tracer,
    summarize_trace,
)
from repro.sparse import stencil_spd


@pytest.fixture(scope="module")
def problem():
    a = stencil_spd(144)
    b = np.random.default_rng(7).standard_normal(a.nrows)
    return a, b


def _run(a, b, **kw):
    # Through run_ft_method so engine-level kwargs (tracer) reach
    # run_protected.
    from repro.core import Method
    from repro.resilience import run_ft_method

    cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=8)
    return run_ft_method(Method.CG, a, b, cfg, alpha=1 / 16, rng=3, **kw)


# ----------------------------------------------------------------------
# tracer protocol
# ----------------------------------------------------------------------
class TestTracers:
    def test_null_tracer_resolves_to_none(self):
        assert resolve_tracer(None) is None
        assert resolve_tracer(NullTracer()) is None
        assert resolve_tracer(NULL_TRACER) is None

    def test_real_tracers_pass_through(self):
        t = InMemoryTracer()
        assert resolve_tracer(t) is t
        m = MultiTracer([t])
        assert resolve_tracer(m) is m

    def test_non_tracer_rejected(self):
        with pytest.raises(TypeError, match="Tracer"):
            resolve_tracer(object())
        with pytest.raises(TypeError):
            resolve_tracer(lambda e: None)  # callables are not sinks

    def test_event_schema(self):
        t = InMemoryTracer()
        t.emit("strike", 12, bit=3)
        (ev,) = t.events
        assert ev == {"v": SCHEMA_VERSION, "kind": "strike", "iter": 12, "bit": 3}

    def test_context_merged_into_events(self):
        t = InMemoryTracer(context={"task": "abc"})
        t.emit("step", 1)
        t.context["rep"] = 4
        t.emit("step", 2)
        assert t.events[0]["task"] == "abc" and "rep" not in t.events[0]
        assert t.events[1]["rep"] == 4

    def test_in_memory_helpers(self):
        t = InMemoryTracer()
        t.emit("step", 1)
        t.emit("step", 2)
        t.emit("strike", 2)
        assert len(t) == 3
        assert [e["iter"] for e in t.of_kind("step")] == [1, 2]
        assert t.counts_by_kind() == {"step": 2, "strike": 1}
        t.clear()
        assert len(t) == 0

    def test_multi_tracer_fans_out(self):
        t1, t2 = InMemoryTracer(), InMemoryTracer()
        m = MultiTracer([t1, t2])
        m.emit("checkpoint", 5, time_units=1.0)
        assert t1.events == t2.events and len(t1) == 1

    def test_callback_tracer(self):
        events, iters = [], []
        t = CallbackTracer(
            on_iteration=lambda ctx: iters.append(ctx), on_event=events.append
        )
        t.emit("step", 1)
        t.iteration("ctx")
        assert [e["kind"] for e in events] == ["step"] and iters == ["ctx"]

    def test_known_kinds_cover_engine_vocabulary(self):
        assert FAULT_EVENT_KINDS <= EVENT_KINDS
        for kind in ("solve-start", "solve-converge", "step", "strike",
                     "abft-correction", "checkpoint", "rollback"):
            assert kind in EVENT_KINDS

    def test_jsonl_tracer_appends_and_survives_reopen(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as t:
            t.emit("step", 1)
        with JsonlTracer(path) as t:  # append, not truncate
            t.emit("step", 2)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["iter"] for e in lines] == [1, 2]

    def test_jsonl_tracer_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTracer(path) as t:
            t.emit("step", 1)
        assert path.exists()

    def test_tracer_base_write_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Tracer().emit("step", 1)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.count("a") == 5 and m.count("missing") == 0

    def test_timers(self):
        m = Metrics()
        with m.time_section("t"):
            pass
        m.observe("t", 2.0)
        t = m.timer("t")
        assert t["count"] == 2 and t["max"] >= 2.0 and t["min"] >= 0.0

    def test_snapshot_is_deep_copy(self):
        m = Metrics()
        m.inc("a")
        snap = m.snapshot()
        m.inc("a")
        assert snap["counters"]["a"] == 1

    def test_reset(self):
        m = Metrics()
        m.inc("a")
        m.reset()
        assert m.snapshot() == {"counters": {}, "timers": {}}

    def test_merge_snapshots(self):
        s1 = {"counters": {"a": 1}, "timers": {"t": {"count": 1, "total": 1.0, "min": 1.0, "max": 1.0}}}
        s2 = {"counters": {"a": 2, "b": 1}, "timers": {"t": {"count": 1, "total": 3.0, "min": 3.0, "max": 3.0}}}
        merged = merge_snapshots([s1, s2])
        assert merged["counters"] == {"a": 3, "b": 1}
        assert merged["timers"]["t"] == {"count": 2, "total": 4.0, "min": 1.0, "max": 3.0}

    def test_diff_snapshots_drops_inherited_values(self):
        # The fork-safety property the campaign telemetry relies on:
        # counters a worker inherited from its parent vanish from the
        # per-chunk delta.
        base = {"counters": {"a": 5, "b": 2}, "timers": {}}
        end = {"counters": {"a": 8, "b": 2}, "timers": {}}
        assert diff_snapshots(end, base)["counters"] == {"a": 3}

    def test_global_metrics_singleton(self):
        from repro.obs.metrics import METRICS

        assert get_metrics() is METRICS

    def test_engine_folds_counters_once_per_solve(self, problem):
        a, b = problem
        m = get_metrics()
        before = m.snapshot()
        res = _run(a, b)
        delta = diff_snapshots(m.snapshot(), before)["counters"]
        assert delta["engine.solves"] == 1
        assert delta["engine.iterations_executed"] == res.iterations_executed
        assert delta["engine.time_units.useful"] == pytest.approx(
            res.breakdown.useful_work
        )


# ----------------------------------------------------------------------
# engine emission
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_lifecycle_events_present(self, problem):
        a, b = problem
        t = InMemoryTracer()
        res = _run(a, b, tracer=t)
        counts = t.counts_by_kind()
        assert counts["solve-start"] == 1
        assert counts["solve-converge" if res.converged else "solve-diverge"] == 1
        assert counts["step"] == res.iterations_executed
        assert counts.get("strike", 0) == res.counters.faults_injected
        assert all(ev["kind"] in EVENT_KINDS for ev in t.events)

    def test_solve_start_carries_configuration(self, problem):
        a, b = problem
        t = InMemoryTracer()
        _run(a, b, tracer=t)
        (start,) = t.of_kind("solve-start")
        assert start["method"] == "cg"
        assert start["scheme"] == "abft-correction"
        assert start["n"] == a.nrows and start["nnz"] == a.nnz
        assert start["backend"] == "reference"
        assert "workspace" not in start  # every solve runs on one

    def test_a_solve_without_workspace_runs_on_a_private_one(self, problem):
        a, b = problem
        t = InMemoryTracer()
        _run(a, b, tracer=t)
        (acquire,) = t.of_kind("workspace-acquire")
        (setup,) = t.of_kind("abft-setup")
        assert acquire["live"] == "copy" and setup["cache"] == "off"

    def test_observer_combines_with_tracer(self, problem):
        a, b = problem
        t = InMemoryTracer()
        seen = []
        observer = CallbackTracer(on_iteration=seen.append)
        res = _run(a, b, tracer=MultiTracer([t, observer]))
        assert len(seen) == res.iterations_executed
        assert t.counts_by_kind()["step"] == res.iterations_executed

    def test_repeat_run_binds_rep_context(self, problem):
        from repro.sim.engine import repeat_run

        a, b = problem
        cfg = SchemeConfig(Scheme.ABFT_CORRECTION, checkpoint_interval=8)
        t = InMemoryTracer()
        stats = repeat_run(a, b, cfg, alpha=1 / 16, reps=3, tracer=t)
        assert stats.reps == 3
        assert {e["rep"] for e in t.events} == {0, 1, 2}
        assert "rep" not in t.context  # cleaned up after the loop


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------
class TestSolveTrace:
    @staticmethod
    def _faults():
        from repro.api.facade import FaultSpec

        return FaultSpec(alpha=1 / 16, seed=11)

    def test_trace_path_writes_jsonl(self, problem, tmp_path):
        import repro

        a, b = problem
        path = tmp_path / "solve.jsonl"
        rep = repro.solve(a, b, faults=self._faults(), trace=path)
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert any(e["kind"] == "solve-start" for e in events)
        steps = [e for e in events if e["kind"] == "step"]
        assert len(steps) == rep.iterations_executed

    def test_trace_does_not_change_solution_or_history(self, problem):
        import repro

        a, b = problem
        plain = repro.solve(a, b, faults=self._faults())
        t = InMemoryTracer()
        traced = repro.solve(a, b, faults=self._faults(), trace=t)
        assert np.array_equal(plain.x, traced.x)
        assert plain.history == traced.history
        assert len(t) > 0

    def test_facade_emits_no_deprecation_warning(self, problem):
        # The facade's history recorder rides the Tracer protocol.
        import repro

        a, b = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.solve(a, b, faults=self._faults(), trace=InMemoryTracer())


# ----------------------------------------------------------------------
# summarize + CLI
# ----------------------------------------------------------------------
class TestSummarize:
    @pytest.fixture()
    def trace_file(self, problem, tmp_path):
        a, b = problem
        path = tmp_path / "run.jsonl"
        with JsonlTracer(path) as t:
            _run(a, b, tracer=t)
        return path

    def test_summarize_single_file(self, trace_file):
        s = summarize_trace(trace_file)
        assert s.shards == 1 and s.solves == 1 and s.converged == 1
        assert s.kinds["step"] > 0
        assert s.phase_totals["useful"] > 0

    def test_summarize_tolerates_torn_final_line(self, trace_file):
        with open(trace_file, "a") as fh:
            fh.write('{"v": 1, "kind": "ste')  # crash mid-append
        full = summarize_trace(trace_file)
        assert full.events == summarize_trace(trace_file).events

    def test_summarize_rejects_mid_file_corruption(self, trace_file, tmp_path):
        lines = trace_file.read_text().splitlines()
        lines.insert(1, "not json")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            summarize_trace(bad)

    def test_cli_trace_summarize(self, trace_file, capsys):
        from repro.api.cli import main

        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out and "step" in out

    def test_cli_trace_summarize_json(self, trace_file, capsys):
        from repro.api.cli import main

        assert main(["trace", "summarize", str(trace_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["solves"] == 1 and data["events"] > 0

    def test_cli_trace_missing_path(self, tmp_path, capsys):
        from repro.api.cli import main

        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 2
        assert "no such trace" in capsys.readouterr().err


# ----------------------------------------------------------------------
# progress reporter
# ----------------------------------------------------------------------
class TestProgress:
    def test_json_mode_emits_parseable_lines(self):
        import io

        from repro.campaign.progress import ProgressReporter

        buf = io.StringIO()
        p = ProgressReporter(2, stream=buf, mode="json", min_interval=0.0)
        p.update()
        p.update(cached=True)
        p.finish()
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines[-1]["done"] == 2 and lines[-1]["cached"] == 1
        assert "\r" not in buf.getvalue()

    def test_total_zero_never_divides(self):
        import io

        from repro.campaign.progress import ProgressReporter

        for mode in ("bar", "json"):
            buf = io.StringIO()
            p = ProgressReporter(0, stream=buf, mode=mode, min_interval=0.0)
            p.finish()  # render with done == total == 0
            assert p.rate() == 0.0 and p.eta_seconds() is None
            assert "100.0" in buf.getvalue()  # vacuously complete

    def test_cache_only_campaign_rate_is_zero(self):
        from repro.campaign.progress import ProgressReporter

        p = ProgressReporter(3)
        for _ in range(3):
            p.update(cached=True)
        assert p.fresh == 0 and p.rate() == 0.0

    def test_invalid_mode_rejected(self):
        from repro.campaign.progress import ProgressReporter

        with pytest.raises(ValueError, match="mode"):
            ProgressReporter(1, mode="fancy")

    def test_study_progress_mode_validated(self):
        from repro.api.study import Study

        with pytest.raises(ValueError, match="progress"):
            Study("x").axis("s", [2]).run(progress="fancy")


# ----------------------------------------------------------------------
# campaign shards + telemetry
# ----------------------------------------------------------------------
class TestCampaignObservability:
    @pytest.fixture(scope="class")
    def tasks(self):
        from repro.campaign import CampaignSpec

        return CampaignSpec(kind="table1", scale=64, reps=2, uids=(2213,),
                            s_span=1).expand()

    def _event_counts_per_task(self, trace_dir):
        counts = {}
        for sf in sorted(trace_dir.glob("*.jsonl")):
            for line in sf.read_text().splitlines():
                ev = json.loads(line)
                key = (ev["task"], ev["kind"])
                counts[key] = counts.get(key, 0) + 1
        return counts

    def test_parallel_shards_merge_to_serial_counts(self, tasks, tmp_path):
        # The tentpole acceptance: jobs=4 shard files, merged, reproduce
        # the exact per-task event counts of a serial run.
        from repro.campaign import run_campaign

        serial_dir = tmp_path / "serial"
        par_dir = tmp_path / "par"
        r1 = run_campaign(tasks, jobs=1, trace_dir=serial_dir)
        r2 = run_campaign(tasks, jobs=4, trace_dir=par_dir)
        assert r1 == r2  # tracing never perturbs records either
        assert len(list(serial_dir.glob("shard-*.jsonl"))) == 1
        assert len(list(par_dir.glob("shard-*.jsonl"))) >= 2
        assert self._event_counts_per_task(serial_dir) == \
            self._event_counts_per_task(par_dir)

    def test_telemetry_record_written_and_reported(self, tasks, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.report import summarize_store
        from repro.campaign import run_campaign

        store = tmp_path / "store.jsonl"
        run_campaign(tasks, jobs=2, store=store)
        tele = [json.loads(l) for l in store.read_text().splitlines()
                if json.loads(l).get("kind") == "telemetry"]
        assert len(tele) == 1
        rec = tele[0]
        assert rec["hash"].startswith("telemetry:")
        assert rec["schema"] == 1
        assert rec["fresh"] == len(tasks) and rec["cached"] == 0
        assert rec["counters"]["engine.solves"] == sum(t.reps for t in tasks)

        summary = summarize_store(store)
        assert summary.telemetry is not None
        assert summary.records == len(tasks)
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out and "time shares" in out

    def test_cached_rerun_appends_no_telemetry(self, tasks, tmp_path):
        from repro.campaign import run_campaign

        store = tmp_path / "store.jsonl"
        run_campaign(tasks, jobs=1, store=store)
        before = store.read_text()
        run_campaign(tasks, jobs=1, store=store)  # fully cached
        assert store.read_text() == before

    def test_report_tolerates_pre_telemetry_store(self, tasks, tmp_path):
        from repro.api.report import summarize_store
        from repro.campaign import run_campaign

        store = tmp_path / "old.jsonl"
        run_campaign(tasks, jobs=1, store=store)
        pruned = [l for l in store.read_text().splitlines()
                  if '"telemetry"' not in l]
        old = tmp_path / "pre.jsonl"
        old.write_text("\n".join(pruned) + "\n")
        summary = summarize_store(old)
        assert summary.telemetry is None
        assert summary.records == len(tasks)
