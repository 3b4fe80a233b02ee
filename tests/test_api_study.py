"""Declarative Study sweeps: compilation, presets, serialization, runs."""

import io
import json
from dataclasses import fields

import pytest

from repro import Study
from repro.api.study import StudyResult
from repro.sim.results import RunStatistics
from repro.campaign import CampaignSpec
from repro.core.methods import CostModel, Scheme
from repro.model.instantiate import model_interval_for
from repro.sim.matrices import get_matrix
from repro.store import ResultStore


def _format_table_from_points(result) -> str:
    """``StudyResult.format_table`` as it was when it read every row
    through a :class:`StudyPoint` and its :class:`RunStatistics`: the
    reference for the record-dict formatter."""
    point_cols = ("uid", "method", "backend", "scheme", "alpha", "s", "d", "n")
    cols = point_cols + tuple(result.metrics)

    def cell(v) -> str:
        return f"{v:.4g}" if isinstance(v, float) else str(v)

    widths = [len(c) for c in cols]
    rows = []
    for p in result:
        cells = [cell(getattr(p, c)) for c in point_cols]
        cells += [cell(getattr(p.stats, c)) for c in result.metrics]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        rows.append("\x1f".join(cells))
    head = " ".join(c.rjust(w) for c, w in zip(cols, widths))
    out = io.StringIO()
    out.write(f"{head}\n{'-' * len(head)}\n")
    for row in rows:
        cells = row.split("\x1f")
        out.write(" ".join(c.rjust(w) for c, w in zip(cells, widths)) + "\n")
    return out.getvalue()


class TestCompilation:
    def test_product_order_is_canonical(self):
        # Axis declaration order must not matter: uid → method → scheme
        # → alpha → s → d is the fixed nesting, so hashes are stable.
        s1 = Study("x").axis("s", [2, 4]).axis("method", ["cg", "pcg"]).fix(scale=48)
        s2 = Study("x").axis("method", ["cg", "pcg"]).axis("s", [2, 4]).fix(scale=48)
        assert [t.task_hash() for t in s1.tasks()] == [t.task_hash() for t in s2.tasks()]
        methods = [t.method for t in s1.tasks()]
        assert methods == ["cg", "cg", "pcg", "pcg"]  # method outside s

    def test_unsupported_combos_skipped(self):
        study = (Study("combo")
                 .axis("method", ["cg", "bicgstab"])
                 .axis("scheme", ["online-detection", "abft-correction"])
                 .fix(s=5, d=1, scale=48))
        pairs = [(t.method, t.scheme) for t in study.tasks()]
        assert ("cg", "online-detection") in pairs
        assert ("bicgstab", "abft-correction") in pairs
        assert ("bicgstab", "online-detection") not in pairs

    def test_abft_with_d_above_one_skipped(self):
        # ABFT schemes verify every iteration; a d axis must only
        # apply to ONLINE-DETECTION instead of compiling tasks that
        # would abort the campaign inside the executor.
        study = (Study("d-axis")
                 .axis("scheme", ["online-detection", "abft-detection"])
                 .axis("d", [1, 5])
                 .fix(s=8, scale=48))
        combos = [(t.scheme, t.d) for t in study.tasks()]
        assert ("online-detection", 5) in combos
        assert ("abft-detection", 1) in combos
        assert ("abft-detection", 5) not in combos

    def test_compilation_memoized_and_invalidated(self):
        study = Study("memo").axis("s", [2, 4]).fix(uid=2213, scale=48)
        first = study.tasks()
        assert study.tasks() == first
        assert study.tasks() is not first  # callers get a fresh copy
        study.axis("s", [2, 4, 8])        # mutation invalidates the memo
        assert len(study.tasks()) == 3

    def test_auto_interval_resolves_through_model(self):
        study = Study("auto").fix(uid=2213, scale=48, alpha=1 / 16.0)
        (task,) = study.tasks()
        costs = CostModel.from_matrix(get_matrix(2213, 48))
        s, _ = model_interval_for(Scheme.ABFT_CORRECTION, 1 / 16.0, costs)
        assert task.s == s == task.s_model

    def test_pinned_intervals_never_build_the_matrix(self, monkeypatch):
        # Compiling a sweep with explicit s (ABFT scheme, so d='auto'
        # trivially resolves to 1) must not instantiate suite matrices
        # just to enumerate tasks — that would make --dry-run at
        # paper scale expensive for nothing.
        import repro.sim.matrices as matrices

        def boom(*args, **kwargs):
            raise AssertionError("matrix built during pinned-interval compile")

        monkeypatch.setattr(matrices, "get_matrix", boom)
        study = Study("pinned").axis("s", [2, 4]).fix(uid=2213, scale=1)
        tasks = study.tasks()
        assert [t.s for t in tasks] == [2, 4]
        assert all(t.d == 1 for t in tasks)

    def test_mtbf_axis_is_reciprocal_alpha(self):
        study = Study("m").axis("mtbf", [100.0, 1000.0]).fix(s=5, scale=48)
        alphas = [t.alpha for t in study.tasks()]
        assert alphas == [0.01, 0.001]

    @pytest.mark.parametrize("name, value", [
        ("s", 2.5), ("s", float("nan")), ("s", float("inf")), ("s", 0),
        ("d", 2.5), ("d", float("-inf")), ("d", -3), ("uid", 2213.5),
    ])
    def test_interval_values_no_task_can_take_are_refused(self, name, value):
        # int() would truncate 2.5 to a point never asked for (s=2).
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            Study("bad").axis(name, [value])
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            Study("bad").fix(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("alpha", -0.5), ("alpha", float("nan")), ("alpha", float("inf")),
        ("mtbf", 0.0), ("mtbf", -10.0), ("mtbf", float("nan")),
    ])
    def test_rate_values_no_task_can_take_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            Study("bad").axis(name, [value])
        with pytest.raises(ValueError, match=f"{name} must be"):
            Study("bad").fix(**{name: value})

    def test_whole_float_values_compile_to_the_int_points(self):
        fixed = dict(scheme="online-detection", scale=48)
        as_floats = Study("w").axis("s", [4.0]).fix(uid=2213.0, d=2.0, **fixed)
        as_ints = Study("w").axis("s", [4]).fix(uid=2213, d=2, **fixed)
        assert ([t.task_hash() for t in as_floats.tasks()]
                == [t.task_hash() for t in as_ints.tasks()])
        assert [(type(t.s), t.d) for t in as_floats.tasks()] == [(int, 2)]

    def test_fault_free_alpha_is_a_point(self):
        # alpha = 0 is the fault-free point TaskSpec and FaultSpec take too.
        tasks = Study("ff").axis("alpha", [0.0, 0.1]).fix(uid=2213, s=4, scale=48).tasks()
        assert [t.alpha for t in tasks] == [0.0, 0.1]

    def test_alpha_and_mtbf_conflict(self):
        with pytest.raises(ValueError, match="both"):
            Study("bad").axis("alpha", [0.1]).axis("mtbf", [100.0])

    def test_unknown_axis_lists_valid_names(self):
        with pytest.raises(ValueError, match="uid, method, backend, scheme"):
            Study("bad").axis("matrix", [1])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            Study("bad").metrics("p99_time")

    def test_numpy_values_coerced_to_plain_scalars(self):
        # numpy scalars repr differently and would poison the
        # repr-based task hash; the builder must normalize them.
        import numpy as np

        study = (Study("np")
                 .axis("alpha", np.logspace(-3, -1, 3))
                 .axis("s", np.array([2, 4]))
                 .fix(scale=48))
        for t in study.tasks():
            assert type(t.alpha) is float
            assert type(t.s) is int

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            Study("bad").axis("s", [])

    def test_preset_studies_reject_axes(self):
        with pytest.raises(ValueError, match="preset"):
            Study.table1(scale=48).axis("s", [2])


class TestPresets:
    def test_table1_preset_matches_campaign_spec(self):
        study = Study.table1(scale=48, reps=2, uids=[2213], s_span=2)
        spec = CampaignSpec(kind="table1", scale=48, reps=2, uids=(2213,), s_span=2)
        assert [t.task_hash() for t in study.tasks()] == [
            t.task_hash() for t in spec.expand()
        ]

    def test_figure1_preset_matches_campaign_spec(self):
        study = Study.figure1(scale=48, reps=2, uids=[2213], mtbf_values=[16.0, 500.0])
        spec = CampaignSpec(
            kind="figure1", scale=48, reps=2, uids=(2213,), mtbf_values=(16.0, 500.0)
        )
        assert [t.task_hash() for t in study.tasks()] == [
            t.task_hash() for t in spec.expand()
        ]


class TestSerialization:
    def test_generic_round_trip_preserves_hashes(self):
        study = (Study("sweep")
                 .axis("s", [2, 4, 8])
                 .axis("mtbf", [100.0, 1000.0])
                 .fix(uid=2213, scale=48, reps=3, method="pcg")
                 .metrics("mean_time"))
        data = json.loads(json.dumps(study.to_json()))
        clone = Study.from_json(data)
        assert clone.name == "sweep"
        assert [t.task_hash() for t in clone.tasks()] == [
            t.task_hash() for t in study.tasks()
        ]

    def test_preset_round_trip_preserves_hashes(self):
        study = Study.table1(scale=48, reps=2, uids=[2213], s_span=1, methods=["cg", "pcg"])
        clone = Study.from_json(json.loads(json.dumps(study.to_json())))
        assert [t.task_hash() for t in clone.tasks()] == [
            t.task_hash() for t in study.tasks()
        ]

    def test_save_load(self, tmp_path):
        path = tmp_path / "study.json"
        study = Study("disk").axis("s", [2, 4]).fix(uid=2213, scale=48, reps=1)
        study.save(path)
        clone = Study.load(path)
        assert [t.task_hash() for t in clone.tasks()] == [
            t.task_hash() for t in study.tasks()
        ]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Study.from_json({"study": "x"})
        with pytest.raises(ValueError, match="unknown study kind"):
            Study.from_json({"kind": "table2"})


class TestExecution:
    @pytest.fixture(scope="class")
    def small_study(self):
        return (Study("exec")
                .axis("s", [2, 4])
                .fix(uid=2213, scale=48, reps=2, alpha=1 / 16.0))

    def test_points_are_typed(self, small_study):
        result = small_study.run(jobs=1)
        points = result.points()
        assert len(points) == len(result) == 2
        assert [p.s for p in points] == [2, 4]
        for p in points:
            assert p.uid == 2213 and p.method == "cg"
            assert p.stats.mean_time > 0
            assert p.normalized_mtbf == 16.0

    def test_parallel_matches_serial(self, small_study):
        serial = small_study.run(jobs=1)
        parallel = small_study.run(jobs=2)
        assert serial.records == parallel.records

    def test_store_resume_serves_cache(self, small_study, tmp_path):
        store = tmp_path / "study.jsonl"
        first = small_study.run(jobs=1, store=store)
        lines = store.read_text().splitlines()
        # one line per task plus the campaign's telemetry record
        assert len(lines) == len(first) + 1
        second = small_study.run(jobs=1, store=store)
        assert second.records == first.records
        # Nothing recomputed: the store did not grow.
        assert store.read_text().splitlines() == lines

    def test_format_table_lists_metrics(self, small_study):
        result = small_study.run(jobs=1)
        text = result.format_table()
        assert "mean_time" in text and "convergence_rate" in text
        assert "2213" in text

    def test_format_table_is_the_point_view_table_byte_for_byte(self):
        tasks, records = [], []
        for reps in (1, 3):  # one rep carries no CI; three do
            study = (Study("pin")
                     .axis("method", ["cg", "bicgstab"])
                     .axis("mtbf", [16.0, 1e4])
                     .axis("s", [1, 3])
                     .fix(uid=2213, scale=128, eps=0.03, reps=reps))
            tasks += study.tasks()
            records += study.run(jobs=1).records
        for i, rec in enumerate(records):
            rec = records[i] = json.loads(json.dumps(rec))
            if i % 5 == 1:  # a poison task the harness gave up on
                records[i] = {"hash": rec["hash"], "kind": "quarantine", "task": rec["task"],
                              "error": "RuntimeError: boom"}
            elif i % 5 == 2:  # a record from before the CI fields existed
                for key in ("ci_low", "ci_high", "confidence"):
                    rec["stats"].pop(key)
        metric_sets = [
            ("mean_time", "convergence_rate"),
            ("sem_time", "reps", "ci_low", "ci_high", "confidence", "std_time"),
            tuple(f.name for f in fields(RunStatistics)) + ("sem_time",),
        ]
        for metrics in metric_sets:
            result = StudyResult(tasks, records, metrics)
            assert result.quarantined == 3
            assert result.format_table() == _format_table_from_points(result), metrics
        quarantined = [i for i, rec in enumerate(records) if rec.get("kind") == "quarantine"]
        for picked in ([], quarantined):  # no rows at all
            result = StudyResult([tasks[i] for i in picked], [records[i] for i in picked])
            assert result.format_table() == _format_table_from_points(result)

    def test_store_records_keyed_by_hash(self, small_study, tmp_path):
        store = tmp_path / "s.jsonl"
        small_study.run(jobs=1, store=store)
        loaded = {
            h: r for h, r in ResultStore(store).load().items()
            if r.get("kind") != "telemetry"
        }
        assert set(loaded) == {t.task_hash() for t in small_study.tasks()}


class TestAdaptiveSampling:
    SPEC = "ci=0.5,conf=0.9,min=2,max=6"

    def test_adaptive_canonicalizes_generic_study(self):
        study = (Study("ad")
                 .axis("s", [2, 4])
                 .fix(uid=2213, scale=48, alpha=1 / 16.0)
                 .adaptive("max=6,min=2,conf=0.9,ci=0.5"))
        tasks = study.tasks()
        assert all(t.sampling == self.SPEC for t in tasks)
        # The cap becomes the task's rep count, whatever reps was.
        assert all(t.reps == 6 for t in tasks)

    def test_adaptive_on_presets(self):
        study = Study.figure1(scale=48, uids=[2213], mtbf_values=[16.0],
                              sampling=self.SPEC)
        assert all(t.sampling == self.SPEC for t in study.tasks())
        cleared = study.adaptive("")
        assert all(t.sampling == "" for t in cleared.tasks())

    def test_adaptive_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            Study("bad").axis("s", [2]).adaptive("ci=nope")

    def test_adaptive_survives_save_load(self, tmp_path):
        path = tmp_path / "ad.json"
        (Study("ad")
         .axis("s", [2, 4])
         .fix(uid=2213, scale=48, alpha=1 / 16.0)
         .adaptive(self.SPEC)).save(path)
        clone = Study.load(path)
        assert [t.task_hash() for t in clone.tasks()] == [
            t.task_hash()
            for t in (Study("ad").axis("s", [2, 4])
                      .fix(uid=2213, scale=48, alpha=1 / 16.0)
                      .adaptive(self.SPEC)).tasks()
        ]

    def test_adaptive_run_reports_savings(self):
        study = (Study("ad-run")
                 .axis("s", [2, 4])
                 .fix(uid=2213, scale=48, alpha=1 / 16.0)
                 .adaptive(self.SPEC))
        result = study.run(jobs=1)
        caps = sum(t.reps for t in result.tasks)
        assert 0 < result.total_reps <= caps
        assert result.reps_saved == caps - result.total_reps
        for p in result.points():
            assert 2 <= p.stats.reps <= 6

    def test_fixed_run_reports_zero_savings(self):
        study = (Study("fx")
                 .axis("s", [2])
                 .fix(uid=2213, scale=48, reps=2, alpha=1 / 16.0))
        result = study.run(jobs=1)
        assert result.total_reps == 2
        assert result.reps_saved == 0
