"""Campaign execution: determinism across jobs, resume, aggregation."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ProgressReporter,
    aggregate_figure1,
    aggregate_table1,
    execute_task,
    run_campaign,
)
from repro.api.study import Study
from repro.store import ResultStore, SqliteStore, open_store


def _table1_rows(jobs=1):
    study = Study.table1(scale=48, reps=2, uids=[2213], s_span=2)
    return study.run(jobs=jobs).table1_rows()


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(kind="table1", scale=48, reps=2, uids=(2213,), s_span=2)


@pytest.fixture(scope="module")
def small_tasks(small_spec):
    return small_spec.expand()


@pytest.fixture(scope="module")
def serial_records(small_tasks):
    return run_campaign(small_tasks, jobs=1)


class TestDeterminism:
    def test_jobs2_matches_jobs1(self, small_tasks, serial_records):
        # The acceptance bar: parallel fan-out must be bit-identical to
        # serial execution, statistics included.
        parallel = run_campaign(small_tasks, jobs=2)
        assert parallel == serial_records

    def test_table1_preset_jobs2_identical_rows(self):
        # RunStatistics floats compare exactly
        assert _table1_rows(jobs=1) == _table1_rows(jobs=2)

    def test_figure1_preset_jobs2_identical_points(self):
        study = Study.figure1(scale=48, reps=2, uids=[2213], mtbf_values=[16.0, 500.0])
        assert study.run(jobs=1).figure1_points() == study.run(jobs=2).figure1_points()

    def test_table1_preset_matches_known_shape(self):
        rows = _table1_rows()
        assert {r.scheme for r in rows} == {"abft-detection", "abft-correction"}
        for r in rows:
            assert r.uid == 2213 and r.reps == 2
            assert r.loss_percent >= -1e-9


def _task_records(loaded: dict) -> dict:
    """Drop the executor's ``telemetry`` record(s) from a loaded store."""
    return {h: r for h, r in loaded.items() if r.get("kind") != "telemetry"}


class TestResume:
    def test_store_records_everything(self, small_tasks, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        records = run_campaign(small_tasks, jobs=1, store=store)
        assert set(_task_records(store.load())) == {t.task_hash() for t in small_tasks}
        assert records == run_campaign(small_tasks, jobs=1)

    def test_resume_skips_completed_tasks(self, small_tasks, tmp_path):
        # Pre-populate the store with sentinel results for half the
        # tasks; the campaign must serve those verbatim (proving no
        # recomputation) and execute only the rest.
        store = ResultStore(tmp_path / "c.jsonl")
        sentinel_tasks = small_tasks[::2]
        with store:
            for t in sentinel_tasks:
                store.append({"hash": t.task_hash(), "task": t.to_json(),
                              "n": -1, "density": -1.0,
                              "stats": {"sentinel": True}})
        records = run_campaign(small_tasks, jobs=1, store=store)
        for t, rec in zip(small_tasks, records):
            if t in sentinel_tasks:
                assert rec["stats"] == {"sentinel": True}
            else:
                assert "mean_time" in rec["stats"]
        # ... and the freshly computed half landed in the store.
        assert len(_task_records(store.load())) == len(small_tasks)

    def test_resumed_campaign_bit_identical(self, small_tasks, serial_records,
                                            tmp_path):
        # Interrupt after k tasks, then resume: the final records must
        # equal an uninterrupted run (floats survive the JSON trip).
        store = ResultStore(tmp_path / "c.jsonl")
        k = len(small_tasks) // 2
        with store:
            for rec in serial_records[:k]:
                store.append(rec)
        resumed = run_campaign(small_tasks, jobs=1, store=store)
        assert resumed == serial_records

    def test_progress_counts_cached(self, small_tasks, serial_records,
                                    tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        with store:
            for rec in serial_records[:3]:
                store.append(rec)
        progress = ProgressReporter(len(small_tasks))
        run_campaign(small_tasks, jobs=1, store=store, progress=progress)
        assert progress.done == len(small_tasks)
        assert progress.cached == 3
        assert progress.fresh == len(small_tasks) - 3

    def test_fleet_over_sqlite_runs_only_whats_missing(self, small_tasks,
                                                       serial_records, tmp_path):
        # grid_store's configuration (sqlite:, jobs=2) resuming a partial
        # store: only the missing tasks run, the rest count as cached.
        url = f"sqlite:{tmp_path / 'c.db'}"
        with open_store(url) as store:
            for rec in serial_records[:-3]:
                store.append(rec)
        assert run_campaign(small_tasks, jobs=2, store=url) == serial_records
        (tele,) = [r for r in open_store(url).iter_records()
                   if r.get("kind") == "telemetry"]
        assert (tele["fresh"], tele["cached"]) == (3, len(small_tasks) - 3)
        assert "owner" not in tele

    def test_fleet_reads_the_store_a_constant_number_of_times(self, small_tasks,
                                                              tmp_path):
        # The dispatcher appends without re-reading the store: the
        # initial resume (plus load_partials for adaptive tasks) is all,
        # whatever the task count.
        class ReadCounting(SqliteStore):
            reads = 0

            def iter_records(self):
                self.reads += 1
                return super().iter_records()

        reads = []
        for n in (3, len(small_tasks)):
            store = ReadCounting(tmp_path / f"n{n}.db")
            run_campaign(small_tasks[:n], jobs=2, store=store)
            reads.append(store.reads)
        assert reads[0] == reads[1] <= 2


class TestExecutorContract:
    def test_worker_failure_propagates_and_keeps_store_valid(self, small_tasks,
                                                             tmp_path):
        # One poisoned task (unknown scheme -> ValueError in the
        # worker): the error must propagate, the campaign must not
        # hang, and whatever finished must land in a loadable store
        # for --resume rather than being silently discarded.
        # TaskSpec validates the scheme at construction now, so the
        # poison has to bypass the frozen dataclass to model a task
        # corrupted after validation (e.g. a hand-edited spec file).
        import copy

        bad = copy.copy(small_tasks[0])
        object.__setattr__(bad, "scheme", "no-such-scheme")
        tasks = [bad] + list(small_tasks[1:5])
        store = ResultStore(tmp_path / "fail.jsonl")
        with pytest.raises(ValueError):
            run_campaign(tasks, jobs=2, store=store)
        loaded = store.load()  # must parse cleanly
        good_hashes = {t.task_hash() for t in tasks[1:]}
        assert set(loaded) <= good_hashes

    def test_jobs_must_be_positive(self, small_tasks):
        with pytest.raises(ValueError):
            run_campaign(small_tasks, jobs=0)

    def test_empty_campaign(self):
        assert run_campaign([], jobs=2) == []

    def test_execute_task_record_schema(self, small_tasks):
        rec = execute_task(small_tasks[0])
        assert rec["hash"] == small_tasks[0].task_hash()
        assert rec["n"] >= 512 and 0 < rec["density"] < 1
        stats = rec["stats"]
        assert stats["reps"] == 2
        assert stats["mean_time"] > 0
        assert 0.0 <= stats["convergence_rate"] <= 1.0

    def test_store_accepts_plain_path(self, small_tasks, tmp_path):
        path = tmp_path / "by_path.jsonl"
        run_campaign(small_tasks[:2], jobs=1, store=path)
        assert len(_task_records(ResultStore(path).load())) == 2

    def test_tasks_the_ledger_screen_excluded_now_settle(self):
        """The four task specs PR 11's seed screen recorded as dying with
        ``repeats may not contain negative values``."""
        import json
        import pathlib

        from repro.campaign import TaskSpec, execute_task

        ledger = pathlib.Path(__file__).parents[1] / "benchmarks/e2e/workloads.json"
        failing = [
            t
            for wl in json.loads(ledger.read_text())["workloads"].values()
            for ex in wl["excluded"]
            for t in ex["tasks"]
        ]
        assert len(failing) == 4
        for entry in failing:
            assert "repeats may not contain negative values" in entry["error"]
            record = execute_task(TaskSpec.from_json(entry["task"]))  # raised
            assert record["stats"]["convergence_rate"] == 1.0


class TestAggregation:
    def test_table1_aggregate_requires_model_point(self, small_tasks,
                                                   serial_records):
        # Dropping the model-interval task from a group must fail loudly
        # rather than fabricate a row.
        s_model = small_tasks[0].s_model
        keep = [i for i, t in enumerate(small_tasks)
                if not (t.scheme == small_tasks[0].scheme and t.s == s_model)]
        with pytest.raises(ValueError, match="missing from sweep"):
            aggregate_table1([small_tasks[i] for i in keep],
                             [serial_records[i] for i in keep])

    def test_mismatched_lengths_rejected(self, small_tasks, serial_records):
        with pytest.raises(ValueError):
            aggregate_table1(small_tasks, serial_records[:-1])

    def test_wrong_experiment_rejected(self, small_tasks, serial_records):
        with pytest.raises(ValueError, match="figure1"):
            aggregate_figure1(small_tasks, serial_records)


class TestStoreAggregation:
    """Streaming aggregation straight out of a store (any backend)."""

    @pytest.fixture()
    def store(self, small_tasks, tmp_path):
        path = tmp_path / "agg.jsonl"
        run_campaign(small_tasks, jobs=1, store=path)
        return path

    def test_table1_from_store_matches_in_memory(self, small_tasks,
                                                 serial_records, store):
        from repro.campaign import aggregate_table1_store

        assert aggregate_table1_store(small_tasks, str(store)) \
            == aggregate_table1(small_tasks, serial_records)

    def test_missing_records_raise_unless_partial(self, small_tasks,
                                                  tmp_path):
        from repro.campaign import aggregate_table1_store

        empty = tmp_path / "empty.jsonl"
        with pytest.raises(ValueError, match="missing"):
            aggregate_table1_store(small_tasks, str(empty))
        assert aggregate_table1_store(small_tasks, str(empty),
                                      partial=True) == []

    def test_partial_store_keeps_complete_groups(self, small_tasks,
                                                 serial_records, store,
                                                 tmp_path):
        from repro.campaign import aggregate_table1_store

        # Drop one scheme's records entirely: its group disappears, the
        # other group's row survives bit-identically.
        victim = small_tasks[0].scheme
        partial = tmp_path / "partial.jsonl"
        with ResultStore(partial) as dst:
            for task, rec in zip(small_tasks, serial_records):
                if task.scheme != victim:
                    dst.append(rec)
        rows = aggregate_table1_store(small_tasks, str(partial), partial=True)
        full = aggregate_table1(small_tasks, serial_records)
        assert rows == [r for r in full if r.scheme != victim]

    def test_figure1_partial_omits_missing_points(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            aggregate_figure1,
            aggregate_figure1_store,
        )

        tasks = CampaignSpec(kind="figure1", scale=48, reps=1, uids=(2213,),
                             mtbf_values=(16.0, 500.0)).expand()
        records = run_campaign(tasks, jobs=1)
        partial = tmp_path / "partial.jsonl"
        with ResultStore(partial) as dst:
            for rec in records[:-2]:
                dst.append(rec)
        points = aggregate_figure1_store(tasks, str(partial), partial=True)
        assert points == aggregate_figure1(tasks, records)[:-2]

    def test_records_for_tasks_streams_last_wins(self, small_tasks, store):
        from repro.campaign import records_for_tasks

        with ResultStore(store) as dst:
            rewritten = {**records_for_tasks(small_tasks, str(store))[0],
                         "marker": 1}
            dst.append(rewritten)
        out = records_for_tasks(small_tasks, str(store))
        assert out[0]["marker"] == 1
        assert all(r is not None for r in out)


class TestCli:
    def test_cli_jobs_and_store(self, capsys, tmp_path):
        from repro.__main__ import main as _main

        store = tmp_path / "cli.jsonl"
        rc = _main(["table1", "--scale", "48", "--reps", "1",
                    "--uids", "2213", "--s-span", "1",
                    "--jobs", "2", "--store", str(store)])
        assert rc == 0
        assert "2213" in capsys.readouterr().out
        assert len(ResultStore(store).load()) > 0

    def test_cli_resume_completes_without_recompute(self, capsys, tmp_path):
        from repro.__main__ import main as _main

        store = tmp_path / "cli.jsonl"
        args = ["table1", "--scale", "48", "--reps", "1", "--uids", "2213",
                "--s-span", "1", "--jobs", "1", "--store", str(store)]
        _main(args)
        first = capsys.readouterr().out
        done = ResultStore(store).load()
        _main(args + ["--resume"])
        second = capsys.readouterr().out
        assert second == first
        # Resume appended nothing: every task was already stored.
        assert ResultStore(store).load() == done
        assert sum(1 for _ in open(store)) == len(done)

    def test_cli_refuses_clobbering_store(self, tmp_path, capsys):
        from repro.__main__ import main as _main

        store = tmp_path / "cli.jsonl"
        store.write_text('{"hash": "x"}\n')
        assert _main(["table1", "--store", str(store)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_cli_resume_requires_store(self, capsys):
        from repro.__main__ import main as _main

        assert _main(["table1", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_unknown_subcommand_fails_nonzero(self, capsys):
        from repro.__main__ import main

        assert main(["tabl1"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "tabl1" in err
        assert main([]) == 0  # bare invocation still prints the banner
        assert "table1" in capsys.readouterr().out

    def test_cli_negative_s_span_rejected(self, capsys):
        from repro.__main__ import main as _main

        assert _main(["table1", "--s-span", "-3"]) == 2
        assert "--s-span" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_cli_eps_the_engine_cannot_honour_is_a_usage_error(self, eps, capsys, tmp_path):
        from repro.__main__ import main as _main

        assert _main(["table1", "--eps", eps]) == 2
        assert "--eps must be finite and positive" in capsys.readouterr().err
        spec = tmp_path / "study.json"
        Study("bad-eps").axis("s", [4]).fix(
            uid=2213, scale=48, reps=1, alpha=1 / 16, eps=float(eps)
        ).save(spec)
        assert _main(["study", "run", str(spec), "--dry-run"]) == 2
        assert "eps must be" in capsys.readouterr().err

    @pytest.mark.parametrize("mtbf", ["nan", "0", "-1", "inf"])
    def test_cli_mtbf_no_task_can_take_is_a_usage_error(self, mtbf, capsys):
        from repro.__main__ import main as _main

        assert _main(["figure1", "--scale", "128", "--uids", "2213", "--mtbf", "16", mtbf]) == 2
        captured = capsys.readouterr()
        assert "--mtbf values must be finite and > 0" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_cli_rate_no_task_can_take_is_a_usage_error(self, alpha, capsys, tmp_path):
        from repro.__main__ import main as _main

        # The Study edge refuses the value, so the spec is written by hand.
        data = Study("bad-alpha").axis("s", [4]).fix(uid=2213, scale=48, reps=1).to_json()
        data["fixed"]["alpha"] = alpha
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps(data))
        assert _main(["study", "run", str(spec), "--dry-run"]) == 2
        assert "alpha must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["s", "d"])
    def test_cli_saved_spec_with_a_fractional_interval_is_a_usage_error(self, name, capsys,
                                                                        tmp_path):
        # Loading the spec refuses 2.5 rather than running the point 2.
        from repro.__main__ import main as _main

        data = Study("frac").axis("scheme", ["online-detection"]).fix(
            uid=2213, scale=48, reps=1, s=4, d=2).to_json()
        data["fixed"][name] = 2.5
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps(data))
        assert _main(["study", "run", str(spec), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert f"{name} must be a whole number >= 1, got 2.5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mtbf", [0.0, -1.0])
    def test_cli_saved_figure1_spec_with_a_bad_mtbf_is_a_usage_error(self, mtbf, capsys,
                                                                      tmp_path):
        from repro.__main__ import main as _main

        data = Study.figure1(scale=48, reps=1, uids=[2213], mtbf_values=[16.0]).to_json()
        data["campaign"]["mtbf_values"] = [16.0, mtbf]
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps(data))
        assert _main(["study", "run", str(spec), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert "mtbf_values must be finite and > 0" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_cli_base_seed_changes_results(self, capsys):
        from repro.__main__ import main as _main

        base = ["table1", "--scale", "48", "--reps", "2", "--uids", "2213",
                "--s-span", "1", "--jobs", "1"]
        _main(base)
        out_default = capsys.readouterr().out
        _main(base + ["--base-seed", "99"])
        out_reseeded = capsys.readouterr().out
        assert out_default != out_reseeded
