"""Self-tests of the campaign-ledger benchmark (collected by tier-1).

They check the declarations against the benchmark contract, the digest
and verdict logic, and drive one ``--smoke`` pass through every phase
(dry run, fresh campaign, report, resume, verify, traced pass).
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declarations_fit_the_contract():
    names = ([w for w in ledger.WORKLOADS] + [m["name"] for m in ledger.END_TO_END]
             + [m["name"] for m in ledger.PER_LAYER])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in ledger.END_TO_END + ledger.PER_LAYER)
    assert 2 <= len(ledger.WORKLOADS) <= 8
    assert 1 <= len(ledger.END_TO_END) <= 16
    assert 1 <= len(ledger.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in ledger.WORKLOADS.values())
    assert all(0 < m["bound"] <= 0.25 for m in ledger.END_TO_END)
    setup = next(m for m in ledger.END_TO_END if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in ledger.END_TO_END)


def test_every_layer_metric_says_what_it_moves():
    end_to_end = {m["name"] for m in ledger.END_TO_END}
    for m in ledger.PER_LAYER:
        metric, _, workload = m["moves"].partition("@")
        assert metric in end_to_end, m["name"]
        assert workload in ledger.WORKLOADS, m["name"]
        assert m["flat_on"] in ("", *ledger.WORKLOADS), m["name"]
        assert m["flat_on"] != workload, m["name"]
        assert m["better"] in ("lower", "higher")


def test_benchmark_json_is_the_projection_of_the_declarations():
    committed = json.loads((ledger.REPO / "BENCHMARK.json").read_text())
    assert committed == ledger.benchmark_json(run.RUN_SECONDS)
    assert list(committed) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]


def test_pool_has_a_digest_for_every_base_seed():
    for name in ledger.WORKLOADS:
        pool = ledger.load_pool(name)
        assert len(pool) >= 8, name
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in pool.values())
        order = ledger.base_seeds(pool, 7)
        assert order == ledger.base_seeds(pool, 7)
        assert sorted(order) == sorted(pool)
        assert order != ledger.base_seeds(pool, 8)


def test_digest_ignores_order_and_bookkeeping():
    records = [
        {"hash": f"h{i}", "stats": {"reps": i, "mean_time": 1.5 * i}} for i in range(20)
    ] + [{"hash": "q", "kind": "quarantine", "error": "boom"}]
    noise = [{"hash": "telemetry:x", "kind": "telemetry", "counters": {}},
             {"hash": "partial:h1", "kind": "partial", "per_rep": {}}]
    base = ledger.records_digest(records)
    shuffled = records + noise
    random.Random(1).shuffle(shuffled)
    assert ledger.records_digest(shuffled) == base
    # last-wins on a repeated hash, like every store reader
    assert ledger.records_digest([{"hash": "h0", "stats": {"reps": 99}}] + records) == base
    changed = [dict(r) for r in records]
    changed[3] = {"hash": "h3", "stats": {"reps": 3, "mean_time": 4.5000000001}}
    assert ledger.records_digest(changed) != base
    assert ledger.records_digest(records[:-1]) != base


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 10.2, 9.9], [10.0, 10.2, 10.1, 9.95], "lower", "same"),
    ([10.0, 10.1, 10.2, 9.9], [12.0, 12.1, 12.2, 11.9], "lower", "worse"),
    ([10.0, 10.1, 10.2, 9.9], [8.0, 8.1, 8.2, 7.9], "lower", "better"),
    ([10.0, 10.1, 10.2, 9.9], [8.0, 8.1, 8.2, 7.9], "higher", "worse"),
    ([10.0, 10.1, 10.2, 9.9], [12.0, 12.1, 12.2, 11.9], "higher", "better"),
    # spread wider than the bound, runs overlap: neither verdict is earned
    ([8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0, 15.0], "lower", "unresolved"),
    # ... unless every run of the change beats every run of the parent
    ([8.0, 10.0, 12.0, 14.0], [4.0, 5.0, 6.0, 7.0], "lower", "better"),
    ([8.0, 10.0, 12.0, 14.0], [20.0, 25.0, 30.0, 35.0], "lower", "worse"),
    # one run a side has no spread: only a regression beyond the bound is a verdict
    ([10.0], [9.0], "lower", "unresolved"),
    ([10.0], [12.0], "lower", "worse"),
])
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, better=better, bound=0.10) == expected


def _result(wall, failed=0, checkpoints=5):
    runs = [{"attempted": 10, "failed": failed,
             "metrics": {"campaign_wall_s": {"value": w, "unit": "s"}}} for w in wall]
    traced = {"base_seed": 1, "digest": "d",
              "metrics": {k: {"value": checkpoints} for k in compare.EXACT}}
    return {"workloads": {"t1_small": {"timed": runs, "summary": run.summarize(runs),
                                       "traced": traced}}}


def test_compare_flags_regressions_failures_and_moved_counts():
    parent = _result([5.0, 5.1, 5.2, 4.9])
    assert compare.compare(parent, _result([5.05, 5.1, 5.0, 5.15]))[1]
    assert not compare.compare(parent, _result([6.5, 6.6, 6.4, 6.7]))[1]
    assert not compare.compare(parent, _result([5.0, 5.1, 5.2, 4.9], failed=1))[1]
    assert not compare.compare(parent, _result([5.0, 5.1, 5.2, 4.9], checkpoints=6))[1]
    rows = compare.compare(parent, _result([6.5, 6.6, 6.4, 6.7]))[0]
    assert any("worse" in r and "of 5.05 s" in r for r in rows)


def test_spans_self_time_and_coverage():
    import layers

    spans = layers.Spans("r")
    with spans.span("pass"):
        with spans.span("a"):
            with spans.span("a.inner"):
                pass
        with spans.span("b"):
            pass
    assert [s["parent"] for s in spans.spans] == [None, 0, 1, 0]
    assert {s["run_id"] for s in spans.spans} == {"r"}
    own = spans.self_times()
    total = spans.spans[0]["end"] - spans.spans[0]["start"]
    assert sum(own.values()) == pytest.approx(total)
    assert 0.0 < spans.coverage() <= 1.0
    off = layers.Spans("r", enabled=False)
    with off.span("pass"):
        pass
    assert off.spans == []


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark: non-zero exit, no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "workloads.json").write_text((HERE / "workloads.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "t1_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_smoke_pass_writes_a_schema_valid_result(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "adaptive_mix",
         "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert result["smoke"] and result["schema"] == 1
    assert {"python", "numpy", "scipy", "numba", "nproc", "cpu", "git_sha", "git_dirty",
            "thread_pins", "loadavg"} <= set(result["manifest"])
    res = result["workloads"]["adaptive_mix"]
    (timed,) = res["timed"]
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in ledger.END_TO_END}
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    traced = res["traced"]
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in ledger.PER_LAYER}
    assert traced["digest"] == timed["cycles"][0]["digest"]
    assert traced["metrics"]["store.partials"]["value"] > 0
    assert traced["metrics"]["harness.span_coverage"]["value"] >= 0.95
    for m in ledger.END_TO_END:
        assert f"{m['name']:<18}" in done.stdout and m["unit"] in done.stdout
