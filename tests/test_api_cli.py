"""The ``repro`` subcommand CLI: exit codes, help, end-to-end flows."""

import json

import pytest

from repro import Study
from repro.api.cli import main
from repro.store import ResultStore


class TestHelpAndDispatch:
    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro")
        for sub in ("solve", "table1", "figure1", "study", "report"):
            assert sub in out

    def test_h_short_flag(self, capsys):
        assert main(["-h"]) == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for sub in ("solve", "table1", "figure1", "report"):
            assert main([sub, "--help"]) == 0
            assert "usage: repro" in capsys.readouterr().out

    def test_bare_invocation_prints_banner_and_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "PDSEC 2015" in out and "usage:" in out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["tabel1"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "tabel1" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["table1", "--such-flag"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_version(self, capsys):
        import repro

        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out


class TestSolveCommand:
    def test_solve_suite_matrix(self, capsys):
        rc = main(["solve", "--scale", "48", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out and "abft-correction" in out

    def test_solve_generated_system_json(self, capsys):
        rc = main(["solve", "--n", "400", "--method", "pcg", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converged"] is True
        assert data["method"] == "pcg"
        assert data["n"] == 400  # stencil grids land on perfect squares

    def test_solve_pinned_interval(self, capsys):
        rc = main(["solve", "--scale", "48", "--interval", "5", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["checkpoint_interval"] == 5

    def test_solve_bad_method_exits_2(self, capsys):
        assert main(["solve", "--method", "gmres"]) == 2
        assert "cg, bicgstab, pcg" in capsys.readouterr().err

    def test_solve_bad_scheme_exits_2(self, capsys):
        assert main(["solve", "--scheme", "abft"]) == 2
        assert "abft-correction" in capsys.readouterr().err

    def test_solve_bad_combo_exits_2(self, capsys):
        assert main(["solve", "--method", "pcg", "--scheme", "online-detection"]) == 2
        assert "does not support" in capsys.readouterr().err

    def test_solve_bad_interval_exits_2(self, capsys):
        assert main(["solve", "--interval", "soon"]) == 2
        assert "--interval" in capsys.readouterr().err

    def test_solve_unknown_uid_exits_2(self, capsys):
        assert main(["solve", "--uid", "999"]) == 2
        assert "unknown matrix ids" in capsys.readouterr().err


class TestExperimentCommands:
    def test_table1_smoke(self, capsys):
        rc = main(["table1", "--scale", "48", "--reps", "1", "--uids", "2213",
                   "--s-span", "1", "--jobs", "1"])
        assert rc == 0
        assert "2213" in capsys.readouterr().out

    def test_figure1_custom_mtbf(self, capsys):
        rc = main(["figure1", "--scale", "48", "--reps", "1", "--uids", "2213",
                   "--mtbf", "16", "500", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Matrix #2213" in out and "1/alpha" in out

    def test_adaptive_figure1_reports_savings(self, capsys):
        rc = main(["figure1", "--scale", "48", "--uids", "2213",
                   "--mtbf", "16", "--jobs", "1",
                   "--adaptive", "ci=0.5,conf=0.9,min=2,max=6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Matrix #2213" in out
        assert "CI half-width" in out
        assert "adaptive sampling:" in out

    def test_adaptive_bad_spec_exits_2(self, capsys):
        assert main(["figure1", "--adaptive", "ci=nope"]) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_invalid_jobs_exits_2(self, capsys):
        assert main(["table1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_method_exits_2(self, capsys):
        assert main(["table1", "--method", "cg,gmres"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestStudyCommand:
    @pytest.fixture()
    def spec(self, tmp_path):
        path = tmp_path / "study.json"
        (Study("cli-sweep")
         .axis("s", [2, 4])
         .fix(uid=2213, scale=48, reps=1, alpha=1 / 16.0)).save(path)
        return path

    def test_dry_run_lists_tasks(self, spec, capsys):
        assert main(["study", "run", str(spec), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 tasks" in out and "uid=2213" in out

    def test_missing_action_exits_2(self, capsys):
        assert main(["study"]) == 2
        assert "study run" in capsys.readouterr().err

    def test_unreadable_spec_exits_2(self, tmp_path, capsys):
        assert main(["study", "run", str(tmp_path / "nope.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_run_and_resume_round_trip(self, spec, tmp_path, capsys):
        # The satellite acceptance flow: export a Study to JSON, run it
        # with a store, re-run with --resume — everything must come
        # from the cache (store unchanged, identical output).
        store = tmp_path / "study.jsonl"
        rc = main(["study", "run", str(spec), "--store", str(store), "--jobs", "1"])
        assert rc == 0
        first_out = capsys.readouterr().out
        stored = store.read_text()
        loaded = ResultStore(store).load()
        assert sum(1 for r in loaded.values() if r.get("kind") != "telemetry") == 2

        rc = main(["study", "run", str(spec), "--store", str(store),
                   "--resume", "--jobs", "1"])
        assert rc == 0
        assert capsys.readouterr().out == first_out
        assert store.read_text() == stored  # zero recomputation

    def test_run_with_adaptive_override(self, spec, tmp_path, capsys):
        store = tmp_path / "ad.jsonl"
        rc = main(["study", "run", str(spec), "--jobs", "1",
                   "--store", str(store), "--progress", "none",
                   "--adaptive", "ci=0.5,conf=0.9,min=2,max=6"])
        assert rc == 0
        from repro.store import ResultStore

        recs = [
            r for r in ResultStore(store).load().values()
            if r.get("kind") not in ("telemetry", "partial")
        ]
        assert recs
        for r in recs:
            assert r["task"]["sampling"] == "ci=0.5,conf=0.9,min=2,max=6"
            assert r["task"]["reps"] == 6
            assert 2 <= r["stats"]["reps"] <= 6

    def test_run_with_bad_adaptive_exits_2(self, spec, capsys):
        assert main(["study", "run", str(spec), "--adaptive", "wat"]) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_store_clobber_refused(self, spec, tmp_path, capsys):
        store = tmp_path / "study.jsonl"
        store.write_text('{"hash": "x"}\n')
        assert main(["study", "run", str(spec), "--store", str(store)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_csv_export(self, spec, tmp_path, capsys):
        csv_path = tmp_path / "points.csv"
        rc = main(["study", "run", str(spec), "--jobs", "1", "--csv", str(csv_path)])
        assert rc == 0
        capsys.readouterr()
        content = csv_path.read_text()
        assert "mean_time" in content.splitlines()[0]
        assert len(content.splitlines()) == 3  # header + 2 points


class TestReportCommand:
    @pytest.fixture()
    def store(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        study = Study("rep").axis("s", [2, 4]).fix(uid=2213, scale=48, reps=1)
        study.run(jobs=1, store=path)
        return path

    def test_report_summarizes_groups(self, store, capsys):
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "records: 2" in out
        assert "study:rep" in out and "abft-correction" in out

    def test_report_json(self, store, capsys):
        assert main(["report", str(store), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["records"] == 2
        assert data["groups"][0]["scheme"] == "abft-correction"
        assert data["groups"][0]["tasks"] == 2

    def test_report_counts_foreign_records(self, store, capsys):
        with open(store, "a") as fh:
            fh.write('{"hash": "handmade"}\n')
            # Partial stats (mean_time but no min/max/convergence) must
            # also be skipped, not crash the aggregation.
            fh.write('{"hash": "partial", "task": {}, '
                     '"stats": {"mean_time": 1.0, "reps": 1}}\n')
        assert main(["report", str(store)]) == 0
        assert "2 without usable statistics" in capsys.readouterr().out

    def test_report_shows_adaptive_savings_and_partials(self, tmp_path, capsys):
        from repro.campaign.executor import make_partial_record
        from repro.store import open_store

        path = tmp_path / "adaptive.jsonl"
        st = open_store(str(path))
        st.append({
            "hash": "h1",
            "task": {"experiment": "figure1", "scheme": "abft-detection",
                     "reps": 50},
            "stats": {"mean_time": 10.0, "min_time": 9.0, "max_time": 11.0,
                      "convergence_rate": 1.0, "reps": 9},
        })
        st.append(make_partial_record("h2", {
            "times": [1.0], "iterations": [3], "rollbacks": [0],
            "corrections": [0], "faults": [0], "converged": [True],
        }))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        # Partial checkpoints are their own line, never "records"/skips.
        assert "records: 1" in out
        assert "partials: 1 in-flight" in out
        assert "saved" in out  # the adaptive column
        assert "adaptive sampling saved 41 of 50 repetition(s) (82.0%)" in out

    def test_report_fixed_store_has_no_adaptive_lines(self, store, capsys):
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "saved" not in out
        assert "partials" not in out

    def test_report_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_report_corrupt_store_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        assert main(["report", str(path)]) == 1
        assert "corrupt" in capsys.readouterr().err


class TestStoreCommand:
    @pytest.fixture()
    def store(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        study = Study("st").axis("s", [2, 4]).fix(uid=2213, scale=48, reps=1)
        study.run(jobs=1, store=path)
        return path

    def test_info_text(self, store, capsys):
        assert main(["store", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "backend: jsonl" in out and "records: 3" in out  # 2 + telemetry

    def test_info_json(self, store, capsys):
        assert main(["store", "info", str(store), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "jsonl" and data["records"] == 3

    def test_info_sharded_shows_fill(self, store, tmp_path, capsys):
        dst = f"sharded:{tmp_path / 'c.d'}"
        assert main(["store", "migrate", str(store), dst]) == 0
        capsys.readouterr()
        assert main(["store", "info", dst]) == 0
        out = capsys.readouterr().out
        assert "shards: 16" in out and "shard fill:" in out

    def test_info_bad_scheme_exits_2(self, capsys):
        assert main(["store", "info", "zzz:x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err

    def test_missing_action_exits_2(self, capsys):
        assert main(["store"]) == 2
        assert "store info" in capsys.readouterr().err

    def test_migrate_round_trip_report_identical(self, store, tmp_path, capsys):
        # jsonl -> sharded -> sqlite -> jsonl, with `repro report`
        # bit-identical at every stop (modulo the store path line).
        assert main(["report", str(store)]) == 0
        baseline = capsys.readouterr().out.split("\n", 1)[1]
        prev = str(store)
        for dst in (f"sharded:{tmp_path / 'c.d'}",
                    f"sqlite:{tmp_path / 'c.db'}",
                    str(tmp_path / "back.jsonl")):
            assert main(["store", "migrate", prev, dst]) == 0
            assert "migrated 3 record(s)" in capsys.readouterr().out
            assert main(["report", dst]) == 0
            assert capsys.readouterr().out.split("\n", 1)[1] == baseline
            prev = dst

    def test_migrate_into_populated_exits_2(self, store, tmp_path, capsys):
        dst = f"sqlite:{tmp_path / 'c.db'}"
        assert main(["store", "migrate", str(store), dst]) == 0
        capsys.readouterr()
        assert main(["store", "migrate", str(store), dst]) == 2
        assert "already has records" in capsys.readouterr().err

    def test_resume_after_migration_recomputes_nothing(self, store, tmp_path,
                                                       capsys):
        spec = tmp_path / "study.json"
        (Study("st").axis("s", [2, 4])
         .fix(uid=2213, scale=48, reps=1)).save(spec)
        dst = f"sqlite:{tmp_path / 'c.db'}"
        assert main(["store", "migrate", str(store), dst]) == 0
        capsys.readouterr()
        assert main(["study", "run", str(spec), "--store", dst,
                     "--resume", "--jobs", "1"]) == 0
        capsys.readouterr()
        # Still exactly 3 records: every task came from the store.
        assert main(["store", "info", dst, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == 3

    def test_campaign_store_url_validation(self, capsys):
        assert main(["table1", "--store", "zzz:x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err


class TestFleetCommand:
    """``--jobs N`` is the one way to run a campaign in parallel."""

    @pytest.fixture()
    def spec(self, tmp_path):
        path = tmp_path / "study.json"
        (Study("fleet-sweep")
         .axis("s", [2, 4])
         .fix(uid=2213, scale=48, reps=1, alpha=1 / 16.0)).save(path)
        return path

    def test_jobs2_over_sqlite_matches_jobs1(self, spec, tmp_path, capsys):
        jsonl = tmp_path / "serial.jsonl"
        assert main(["study", "run", str(spec), "--store", str(jsonl),
                     "--jobs", "1"]) == 0
        url = f"sqlite:{tmp_path / 'fleet.db'}"
        assert main(["study", "run", str(spec), "--store", url,
                     "--jobs", "2", "--progress", "none"]) == 0
        capsys.readouterr()
        from repro.store import open_store

        def task_records(spec_url):
            return {h: r for h, r in open_store(spec_url).load().items()
                    if r.get("kind") != "telemetry"}

        assert task_records(url) == task_records(str(jsonl))

    def test_serve_is_not_a_command(self, spec, tmp_path, capsys):
        assert main(["serve", str(spec), "--store",
                     f"sqlite:{tmp_path / 'r.db'}"]) == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err
        assert not (tmp_path / "r.db").exists()


class TestModuleEntryCompat:
    def test_python_m_repro_still_routes_table1(self, capsys):
        from repro.__main__ import main as module_main

        rc = module_main(["table1", "--scale", "48", "--reps", "1",
                          "--uids", "2213", "--s-span", "1", "--jobs", "1"])
        assert rc == 0
        assert "2213" in capsys.readouterr().out


class TestMainEntry:
    def test_module_banner(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "table1" in out

    def test_module_forwards_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["table1", "--scale", "48", "--reps", "1", "--uids", "2213"]) == 0
        assert "2213" in capsys.readouterr().out


#: Every flag of the parser as ``command option type default choices
#: nargs required``, captured before the shared option groups were
#: declared once.  A refactor of :mod:`repro.api.cli` may reorder or
#: re-word flags, but not drop, rename or re-default one.
_FLAG_SURFACE = """
- --version - '==SUPPRESS==' None 0 optional
solve --uid int 2213 None None optional
solve --n int None None None optional
solve --matrix str None None None optional
solve --scale int None None None optional
solve --method str 'cg' None None optional
solve --backend str 'reference' None None optional
solve --scheme str 'abft-correction' None None optional
solve --alpha float 0.0625 None None optional
solve --seed int 2015 None None optional
solve --interval str 'auto' None None optional
solve --d str 'auto' None None optional
solve --eps float 1e-06 None None optional
solve --maxiter int None None None optional
solve --json - False None 0 optional
table1 --base-seed int 2015 None None optional
table1 --scale int 16 None None optional
table1 --reps int 10 None None optional
table1 --uids int None None '*' optional
table1 --eps float 1e-06 None None optional
table1 --method str 'cg' None None optional
table1 --backend str 'reference' None None optional
table1 --csv str None None None optional
table1 --paper-scale - False None 0 optional
table1 --adaptive str None None None optional
table1 --jobs int None None None optional
table1 --store str None None None optional
table1 --resume - False None 0 optional
table1 --progress - 'bar' ('bar', 'json', 'none') None optional
table1 --trace-dir str None None None optional
table1 --task-timeout float None None None optional
table1 --retries int 0 None None optional
table1 --chaos str None None None optional
table1 --s-span int 6 None None optional
figure1 --base-seed int 2015 None None optional
figure1 --scale int 16 None None optional
figure1 --reps int 10 None None optional
figure1 --uids int None None '*' optional
figure1 --eps float 1e-06 None None optional
figure1 --method str 'cg' None None optional
figure1 --backend str 'reference' None None optional
figure1 --csv str None None None optional
figure1 --paper-scale - False None 0 optional
figure1 --adaptive str None None None optional
figure1 --jobs int None None None optional
figure1 --store str None None None optional
figure1 --resume - False None 0 optional
figure1 --progress - 'bar' ('bar', 'json', 'none') None optional
figure1 --trace-dir str None None None optional
figure1 --task-timeout float None None None optional
figure1 --retries int 0 None None optional
figure1 --chaos str None None None optional
figure1 --mtbf float None None '*' optional
study run spec str None None None required
study run --dry-run - False None 0 optional
study run --csv str None None None optional
study run --adaptive str None None None optional
study run --jobs int None None None optional
study run --store str None None None optional
study run --resume - False None 0 optional
study run --progress - 'bar' ('bar', 'json', 'none') None optional
study run --trace-dir str None None None optional
study run --task-timeout float None None None optional
study run --retries int 0 None None optional
study run --chaos str None None None optional
trace summarize path str None None None required
trace summarize --json - False None 0 optional
trace summarize --limit int 20 None None optional
report store str None None None required
report --json - False None 0 optional
store info store str None None None required
store info --json - False None 0 optional
store migrate src str None None None required
store migrate dst str None None None required
store compact src str None None None required
store compact dst str None None None required
store compact --drop-quarantined - False None 0 optional
store verify store str None None None required
store verify --json - False None 0 optional
store repair src str None None None required
store repair dst str None None None required
"""


def _flag_surface(parser, path="-"):
    import argparse

    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows += _flag_surface(sub, name if path == "-" else f"{path} {name}")
        elif not isinstance(action, argparse._HelpAction):
            rows.append(" ".join([
                path, "/".join(action.option_strings) or action.dest,
                getattr(action.type, "__name__", "-"), repr(action.default),
                repr(action.choices), repr(action.nargs),
                "required" if action.required else "optional",
            ]))
    return rows


def test_flag_surface_is_pinned():
    from repro.api.cli import build_parser

    assert sorted(_flag_surface(build_parser())) == sorted(_FLAG_SURFACE.split("\n")[1:-1])


#: Every subcommand and action, as CI's install-smoke job runs them.
_COMMANDS = [
    "solve", "table1", "figure1", "study run", "report", "store info",
    "store migrate", "store compact", "store verify", "store repair",
    "trace summarize",
]
#: The commands that take the shared campaign-engine option group.
_CAMPAIGN_COMMANDS = ("table1", "figure1", "study run")


def _leaf_commands(parser, path=""):
    import argparse

    leaves = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                leaves += _leaf_commands(sub, f"{path} {name}".strip())
    return leaves or [path]


def test_help_commands_are_the_leaves_of_the_parser():
    from repro.api.cli import build_parser

    assert sorted(_leaf_commands(build_parser())) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_and_action_answers_help(command, capsys):
    assert main([*command.split(), "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro {command}")
    assert ("campaign engine:" in out) == (command in _CAMPAIGN_COMMANDS)
