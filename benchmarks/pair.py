#!/usr/bin/env python
"""Paired A/B of the campaign ledger: a revision against this checkout.

    python benchmarks/pair.py REV [--workload W] [--pairs N] [--seed K]
    python benchmarks/pair.py HEAD --smoke --pairs 1      # A/A self-check

REV (any git revision) is exported with ``git archive`` into a
temporary directory; the other side is the checkout this script lives
in, uncommitted edits included, copied into another one.  Both sides
thus start from fresh trees without bytecode, and each compiles its
own on its first run: neither side's ``setup_s`` is paid from a warm
``__pycache__`` the other lacks.  Each side runs *its own*
``benchmarks/e2e/run.py --workload W --trace 0 --runs 1 --seconds 0
--seed K``: the ledger puts its own tree's ``src/`` on ``PYTHONPATH``,
so that is what chooses the side.  Pair ``i`` gives both sides the seed
``K + i`` and alternates which side runs first, so slow drift of the
machine falls on both sides alike.  A run whose output checks fail
(``correct`` false: a wrong records digest, a failed task) stops the
comparison: a faster wrong answer is not a result.

For the five end-to-end metrics of ``BENCHMARK.json`` and the fresh
campaign's CPU time ``study_run_cpu_s`` it prints each side's median
and quartiles, the median of the per-pair ratios (change / base) with
a bootstrap 95 % interval, and how many pairs the change won (ties
count for neither side) with the two-sided sign-test p-value.
Standard library only; exits 1 when a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = pathlib.Path("benchmarks") / "e2e" / "run.py"
CPU_METRIC = {"name": "study_run_cpu_s", "unit": "s", "better": "lower"}


def metrics() -> "list[dict]":
    """The end-to-end metrics (name, unit, direction), then the CPU time."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return [{k: m[k] for k in ("name", "unit", "better")} for m in declared] + [CPU_METRIC]


def export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """Write the tree of ``rev`` into ``dest`` (``git archive``)."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    if not (dest / LEDGER).is_file():
        raise SystemExit(f"error: {rev} has no {LEDGER}")
    return dest


def copy_checkout(root: pathlib.Path, dest: pathlib.Path) -> pathlib.Path:
    """Copy the working tree of the git checkout ``root`` into ``dest``:
    tracked files as they are on disk and untracked files git does not
    ignore, so uncommitted edits come along and bytecode does not."""
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    for rel in filter(None, os.fsdecode(listed).split("\0")):
        if (root / rel).is_file():  # a tracked file deleted on disk is still listed
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / rel, dest / rel)
    return dest


def first_side(pair: int) -> "tuple[str, str]":
    """Which side runs first in pair ``pair``: they take turns."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def run_side(tree: pathlib.Path, workload: str, seed: int, out: pathlib.Path,
             smoke: bool) -> dict:
    """One ledger run of ``tree``; its metric values, CPU time included."""
    argv = [sys.executable, str(tree / LEDGER), "--workload", workload, "--trace", "0",
            "--runs", "1", "--seconds", "0", "--seed", str(seed), "--out", str(out)]
    done = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=tree,
                          capture_output=True, text=True)
    timed = None
    if out.is_file():
        timed = json.loads(out.read_text())["workloads"][workload]["timed"][0]
    if done.returncode != 0 or timed is None or not timed["correct"]:
        why = "; ".join(timed["failures"]) if timed else done.stderr[-600:]
        raise SystemExit(f"error: {tree} seed {seed} is not correct "
                         f"(exit {done.returncode}): {why}")
    values = {name: m["value"] for name, m in timed["metrics"].items()}
    values[CPU_METRIC["name"]] = statistics.median(
        c["samples"][CPU_METRIC["name"]] for c in timed["cycles"])
    return values


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bootstrap_median(ratios: "list[float]", rng: random.Random,
                     resamples: int = 2000) -> "tuple[float, float]":
    """Percentile bootstrap 95 % interval of the median ratio."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def wins(base: "list[float]", change: "list[float]", better: str) -> "tuple[int, int]":
    """(pairs the change won, pairs it lost); ties count for neither."""
    sign = 1 if better == "higher" else -1
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    lost = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    return won, lost


def sign_test(won: int, lost: int) -> float:
    """Two-sided sign-test p-value of ``won`` against ``lost``."""
    n = won + lost
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(won, lost) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(pairs: "list[dict]", seed: int) -> "list[dict]":
    """Per metric: both sides' quartiles, the paired ratio and the tally."""
    rng = random.Random(seed)
    rows = []
    for m in metrics():
        base = [p["base"][m["name"]] for p in pairs]
        change = [p["change"][m["name"]] for p in pairs]
        ratios = [c / b for b, c in zip(base, change) if b]
        won, lost = wins(base, change, m["better"])
        rows.append({
            **m, "base": quartiles(base), "change": quartiles(change),
            "ratio": statistics.median(ratios) if ratios else math.nan,
            "ci95": bootstrap_median(ratios, rng) if ratios else (math.nan, math.nan),
            "won": won, "lost": lost, "pairs": len(pairs), "p": sign_test(won, lost),
        })
    return rows


def report(rows: "list[dict]", rev: str, workload: str) -> str:
    lines = [f"paired A/B on {workload}: base {rev} vs this checkout, "
             f"{rows[0]['pairs']} pairs (change / base; a win is the better side)",
             f"{'metric':<17}{'base q1':>9}{'median':>9}{'q3':>9}   "
             f"{'change q1':>9}{'median':>9}{'q3':>9}   {'ratio':>6} {'95% CI':<15}"
             f"{'wins':>7} {'p':>6}"]
    for r in rows:
        lo, hi = r["ci95"]
        lines.append(
            f"{r['name']:<17}" + "".join(f"{v:>9.4g}" for v in r["base"]) + "   "
            + "".join(f"{v:>9.4g}" for v in r["change"])
            + f"   {r['ratio']:>6.3f} [{lo:.3f}, {hi:.3f}]  {r['won']:>3}/{r['pairs']:<3}"
            + f"{r['p']:>6.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision of the base side (e.g. HEAD, HEAD~1)")
    ap.add_argument("--workload", default="t1_small",
                    help="ledger workload (benchmarks/e2e/ledger.py WORKLOADS)")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs")
    ap.add_argument("--seed", type=int, default=2015,
                    help="pair i runs ledger seed SEED+i on both sides")
    ap.add_argument("--smoke", action="store_true",
                    help="the ledger's tiny --smoke workloads (no committed digests)")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also write every pair's values and the summary as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        work = pathlib.Path(tmp)
        trees = {"base": export(args.rev, work / "base"),
                 "change": copy_checkout(ROOT, work / "change")}
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            pair = {"seed": seed, "first": first_side(i)[0]}
            for side in first_side(i):
                pair[side] = run_side(trees[side], args.workload, seed,
                                      work / f"{side}-{i}.json", args.smoke)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: setup_s "
                  f"{pair['base']['setup_s']:.3f} -> {pair['change']['setup_s']:.3f}",
                  file=sys.stderr)
    rows = summarize(pairs, args.seed)
    print(report(rows, args.rev, args.workload))
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"rev": args.rev, "workload": args.workload, "smoke": args.smoke,
             "pairs": pairs, "summary": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
