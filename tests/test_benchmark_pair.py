"""Self-tests of ``benchmarks/pair.py``, the paired A/B of the ledger.

One A/A ``--smoke`` pair of ``HEAD`` against this checkout drives the
whole tool (export, both ledgers, the summary); the statistics and the
correctness gate are checked on their own, without running a ledger.
"""

import importlib.util
import json
import math
import pathlib
import random
import subprocess
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pair():
    spec = importlib.util.spec_from_file_location("pair", ROOT / "benchmarks" / "pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_to_a_smoke_pair_reports_every_metric(pair, tmp_path, capsys):
    out = tmp_path / "aa.json"
    assert pair.main(["HEAD", "--smoke", "--pairs", "1", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    result = json.loads(out.read_text())
    names = [m["name"] for m in pair.metrics()]
    assert names == ["campaign_wall_s", "reps_per_s", "setup_s", "resume_wall_s",
                     "peak_rss_mb", "study_run_cpu_s"]
    assert [r["name"] for r in result["summary"]] == names
    (only,) = result["pairs"]
    assert only["seed"] == 3 and only["first"] == "base"
    for side in ("base", "change"):
        assert all(only[side][n] > 0 for n in names)
    for row in result["summary"]:
        assert row["pairs"] == 1 and row["won"] + row["lost"] <= 1
        assert row["ci95"][0] == row["ci95"][1] == pytest.approx(row["ratio"])
        assert f"\n{row['name']} " in printed


def test_change_side_is_a_fresh_copy_without_bytecode(pair, tmp_path):
    """The change side is a copy of the checkout, edits included, in the
    bytecode state of the base side's ``git archive`` export: none."""
    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("committed\n")
    (repo / "pkg" / "gone.py").write_text("deleted later\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    (repo / "pkg" / "mod.py").write_text("edited\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    tree = pair.copy_checkout(repo, tmp_path / "change")
    assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()) == [
        ".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (tree / "pkg" / "mod.py").read_text() == "edited\n"


def test_sides_take_turns_going_first(pair):
    assert [pair.first_side(i)[0] for i in range(4)] == ["base", "change", "base", "change"]
    assert all(sorted(pair.first_side(i)) == ["base", "change"] for i in range(4))


def test_wins_follow_the_metric_direction_and_ties_count_for_neither(pair):
    base, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    assert pair.wins(base, change, "lower") == (2, 1)
    assert pair.wins(base, change, "higher") == (1, 2)


def test_sign_test_p_values(pair):
    assert pair.sign_test(10, 0) == pytest.approx(2 / 2**10)
    assert pair.sign_test(9, 1) == pytest.approx(2 * 11 / 2**10)
    assert pair.sign_test(5, 5) == 1.0 and pair.sign_test(0, 0) == 1.0


def test_bootstrap_interval_brackets_the_median_and_is_seeded(pair):
    ratios = [0.6, 0.62, 0.65, 0.7, 0.64, 0.66, 0.61, 0.9, 0.63, 0.64]
    lo, hi = pair.bootstrap_median(ratios, random.Random(1))
    assert lo <= sorted(ratios)[5] and lo <= 0.64 <= hi < 0.9
    assert (lo, hi) == pair.bootstrap_median(ratios, random.Random(1))
    assert not math.isnan(lo)


def test_a_run_that_is_not_correct_stops_the_comparison(pair, tmp_path):
    """The ledger's digest check stays the gate: a run whose output
    checks failed is refused, however fast it was."""
    ledger = tmp_path / "benchmarks" / "e2e" / "run.py"
    ledger.parent.mkdir(parents=True)
    ledger.write_text(textwrap.dedent("""
        import json, sys
        out = sys.argv[sys.argv.index("--out") + 1]
        timed = {"correct": False, "failures": ["records digest 12ab != committed 34cd"],
                 "metrics": {}, "cycles": []}
        json.dump({"workloads": {"t1_small": {"timed": [timed]}}}, open(out, "w"))
        sys.exit(1)
    """))
    with pytest.raises(SystemExit, match="is not correct.*records digest 12ab"):
        pair.run_side(tmp_path, "t1_small", 7, tmp_path / "out.json", smoke=False)
