#!/usr/bin/env python
"""Run the repo's perf benchmarks and police the committed baseline.

Runs ``bench_resilience.py`` (engine-vs-legacy abstraction tax),
``bench_hotpath.py`` (workspace hot path vs the frozen seed stack),
``bench_obs.py`` (tracing overhead), ``bench_chaos.py`` (self-healing
harness overhead), ``bench_adaptive.py`` (adaptive sampling: same
means within CI, fewer repetitions) and ``bench_backends.py`` (the
kernel-backend axis, clean and guarded), then compares the fresh hot-path and backend
records against the committed baselines
``benchmarks/BENCH_hotpath.json`` / ``benchmarks/BENCH_backends.json``
— the repo's perf trajectory — and gates the fresh overhead records:
disabled tracing (``BENCH_obs.json``) or the armed execution guard
on a healthy campaign (``BENCH_chaos.json``) costing more than 2 %
over the untraced / unarmed run fails the run.

The regression gates compare **speedup ratios**, not raw seconds: both
sides of every ratio run on the same machine in the same process, so
the ratio is largely machine-independent, which is what makes a
committed baseline meaningful across laptops and CI runners.  A fresh
aggregate ratio more than 25 % below the baseline's fails the run.
Backends the current environment cannot measure (numba without the
optional dependency, threaded on a single-CPU host) are recorded as
unavailable and skipped by the gate, never compared against stale
numbers.

Usage::

    python benchmarks/run_benchmarks.py             # full (default scales)
    python benchmarks/run_benchmarks.py --quick     # CI smoke settings
    python benchmarks/run_benchmarks.py --update-baseline
    python benchmarks/run_benchmarks.py --skip-resilience
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "BENCH_hotpath.json"
FRESH = BENCH_DIR / "results" / "BENCH_hotpath.json"
OBS_BASELINE = BENCH_DIR / "BENCH_obs.json"
OBS_FRESH = BENCH_DIR / "results" / "BENCH_obs.json"
BACKENDS_BASELINE = BENCH_DIR / "BENCH_backends.json"
BACKENDS_FRESH = BENCH_DIR / "results" / "BENCH_backends.json"
CHAOS_BASELINE = BENCH_DIR / "BENCH_chaos.json"
CHAOS_FRESH = BENCH_DIR / "results" / "BENCH_chaos.json"
ADAPTIVE_BASELINE = BENCH_DIR / "BENCH_adaptive.json"
ADAPTIVE_FRESH = BENCH_DIR / "results" / "BENCH_adaptive.json"

#: Maximum tolerated drop of the aggregate speedup vs the baseline.
REGRESSION_TOLERANCE = 0.25

#: Maximum tolerated tracing-off overhead (percent) over the untraced
#: path — the repro.obs zero-overhead-when-off acceptance bar.
MAX_TRACE_OVERHEAD_PCT = 2.0

#: Maximum tolerated guarded-path overhead (percent) on a healthy
#: campaign — the repro.chaos hardening acceptance bar.
MAX_CHAOS_OVERHEAD_PCT = 2.0


def run_pytest_benches(quick: bool, skip_resilience: bool) -> int:
    """Invoke the two benches through pytest; returns the exit code."""
    import pytest

    if quick:
        # Fewer repetitions for the resilience bench only.  The matrix
        # scale is deliberately NOT lowered: the committed hot-path
        # baseline was recorded at the default scale, and the speedup
        # ratio is machine-independent but not size-independent — a
        # scale mismatch would make the regression gate meaningless
        # (check_baseline refuses to compare mismatched configs).
        os.environ.setdefault("REPRO_BENCH_REPS", "2")
        # On noisy shared runners the *ratio vs the committed baseline*
        # (checked below, -25% tolerance) is the binding gate; relax
        # the bench's absolute in-test assert so it cannot flake first.
        os.environ.setdefault("REPRO_BENCH_MIN_SPEEDUP", "1.5")
        # The tracing-off gate self-calibrates against its off-vs-off
        # noise control, so it needs no relaxation here — just shorter
        # timed regions for the smoke tier.
        os.environ.setdefault("REPRO_BENCH_OBS_REPS", "50")
        os.environ.setdefault("REPRO_BENCH_CHAOS_REPS", "6")
    targets = [
        str(BENCH_DIR / "bench_hotpath.py"),
        str(BENCH_DIR / "bench_obs.py"),
        str(BENCH_DIR / "bench_chaos.py"),
        str(BENCH_DIR / "bench_adaptive.py"),
        str(BENCH_DIR / "bench_backends.py"),
    ]
    if not skip_resilience:
        targets.append(str(BENCH_DIR / "bench_resilience.py"))
    return pytest.main(["-q", *targets])


def check_baseline(fresh: dict, baseline: dict) -> "list[str]":
    """Ratio-based regression check; returns a list of failures."""
    failures = []
    # The ratio is only comparable between identically-configured runs.
    for key in ("matrix_uid", "scale", "reps_per_point"):
        if fresh.get(key) != baseline.get(key):
            failures.append(
                f"benchmark config mismatch on {key!r}: fresh={fresh.get(key)} "
                f"baseline={baseline.get(key)} — re-record the baseline "
                f"(--update-baseline) or drop the scale override"
            )
    if failures:
        return failures
    base_agg = float(baseline["aggregate_speedup_x"])
    new_agg = float(fresh["aggregate_speedup_x"])
    floor = base_agg * (1.0 - REGRESSION_TOLERANCE)
    if new_agg < floor:
        failures.append(
            f"aggregate speedup regressed: {new_agg:.2f}x vs baseline "
            f"{base_agg:.2f}x (floor {floor:.2f}x)"
        )
    return failures


#: The backend record's ratio metrics gated against the baseline.
_BACKEND_METRICS = (
    "aggregate_spmv_speedup_x",
    "aggregate_solve_speedup_x",
    "aggregate_faulted_solve_speedup_x",
)


def check_backends_baseline(fresh: dict, baseline: dict) -> "list[str]":
    """Per-backend ratio regression check; returns a list of failures.

    Only backends measured (``available``) in *both* records are
    compared — an environment that cannot run a backend neither gates
    it nor silently blesses a regression recorded elsewhere.
    """
    failures = []
    for key in ("scale", "spmv_iters", "trials"):
        if fresh.get(key) != baseline.get(key):
            failures.append(
                f"backend-benchmark config mismatch on {key!r}: "
                f"fresh={fresh.get(key)} baseline={baseline.get(key)} — "
                f"re-record the baseline (--update-baseline) or drop the "
                f"scale override"
            )
    if failures:
        return failures
    for name, base_rec in baseline.get("backends", {}).items():
        fresh_rec = fresh.get("backends", {}).get(name)
        if not base_rec.get("available"):
            continue
        if fresh_rec is None or not fresh_rec.get("available"):
            reason = (fresh_rec or {}).get("reason", "not measured")
            print(f"backend {name!r}: baseline exists but skipped here ({reason})")
            continue
        for metric in _BACKEND_METRICS:
            if metric not in base_rec:
                continue  # older baseline without the faulted section
            base_v = float(base_rec[metric])
            new_v = float(fresh_rec[metric])
            floor = base_v * (1.0 - REGRESSION_TOLERANCE)
            if new_v < floor:
                failures.append(
                    f"backend {name!r} {metric} regressed: {new_v:.2f}x vs "
                    f"baseline {base_v:.2f}x (floor {floor:.2f}x)"
                )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke settings: fewer resilience-bench repetitions and a "
        "relaxed absolute speedup floor (the baseline ratio gate still "
        "applies; matrix scale is unchanged so ratios stay comparable)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite {BASELINE.name} from this run instead of checking against it",
    )
    parser.add_argument(
        "--skip-resilience",
        action="store_true",
        help="run only the hot-path bench",
    )
    args = parser.parse_args(argv)

    code = run_pytest_benches(args.quick, args.skip_resilience)
    if code != 0:
        print(f"benchmark run failed (pytest exit code {code})", file=sys.stderr)
        return int(code)

    if not FRESH.exists():
        print(f"expected {FRESH} to be written by bench_hotpath.py", file=sys.stderr)
        return 1
    fresh = json.loads(FRESH.read_text())

    # The observability gate applies even on --update-baseline runs: a
    # new baseline must not bake in a tracing-off regression.  The bench
    # records an off-vs-off control spread (identical calls, so pure
    # machine noise); the allowance widens by it, keeping the 2 % bar
    # binding on quiet machines without flaking on throttled containers.
    if OBS_FRESH.exists():
        obs = json.loads(OBS_FRESH.read_text())
        overhead = float(obs["aggregate_null_overhead_pct"])
        noise = float(obs.get("aggregate_control_spread_pct", 0.0))
        allowed = (
            float(
                os.environ.get(
                    "REPRO_BENCH_MAX_TRACE_OVERHEAD", str(MAX_TRACE_OVERHEAD_PCT)
                )
            )
            + noise
        )
        print(
            f"tracing off: {overhead:+.2f}% vs untraced "
            f"(allowed +{allowed:.2f}%, incl. {noise:.2f}% measured noise)"
        )
        if overhead > allowed:
            print(
                f"REGRESSION: disabled tracing costs {overhead:.2f}% over the "
                f"untraced path (allowed {allowed:.2f}%)",
                file=sys.stderr,
            )
            return 1
        if args.update_baseline or not OBS_BASELINE.exists():
            OBS_BASELINE.write_text(OBS_FRESH.read_text())
            print(f"observability record written: {OBS_BASELINE}")

    # Same shape of gate for the self-healing harness: the armed guard
    # (retry policy armed, deadline armed per attempt, nothing ever
    # firing) must stay within 2 % of the unarmed one, plus this run's
    # measured off-vs-off noise.
    if CHAOS_FRESH.exists():
        chaos = json.loads(CHAOS_FRESH.read_text())
        overhead = float(chaos["aggregate_guarded_overhead_pct"])
        noise = float(chaos.get("aggregate_control_spread_pct", 0.0))
        allowed = (
            float(
                os.environ.get(
                    "REPRO_BENCH_MAX_CHAOS_OVERHEAD", str(MAX_CHAOS_OVERHEAD_PCT)
                )
            )
            + noise
        )
        print(
            f"armed guard: {overhead:+.2f}% vs unarmed "
            f"(allowed +{allowed:.2f}%, incl. {noise:.2f}% measured noise)"
        )
        if overhead > allowed:
            print(
                f"REGRESSION: the armed guard costs {overhead:.2f}% "
                f"over the unarmed one on a healthy campaign "
                f"(allowed {allowed:.2f}%)",
                file=sys.stderr,
            )
            return 1
        if args.update_baseline or not CHAOS_BASELINE.exists():
            CHAOS_BASELINE.write_text(CHAOS_FRESH.read_text())
            print(f"hardening record written: {CHAOS_BASELINE}")

    # Adaptive sampling acceptance: on the paper-range Figure-1 grid
    # the adaptive run must reach the fixed-count means within the
    # combined CI while executing strictly fewer repetitions.  The
    # simulated timings are deterministic, so this gate never flakes.
    if ADAPTIVE_FRESH.exists():
        adaptive = json.loads(ADAPTIVE_FRESH.read_text())
        print(
            f"adaptive sampling: {adaptive['adaptive_total_reps']}/"
            f"{adaptive['fixed_total_reps']} reps "
            f"(saved {adaptive['saved_pct']}%), "
            f"agree_within_ci={adaptive['agree_within_ci']}"
        )
        if not adaptive["agree_within_ci"]:
            print(
                "REGRESSION: an adaptive cell's mean left the combined CI "
                "of the fixed-count estimate",
                file=sys.stderr,
            )
            return 1
        if adaptive["adaptive_total_reps"] >= adaptive["fixed_total_reps"]:
            print(
                "REGRESSION: adaptive sampling executed no fewer repetitions "
                "than the fixed-count run",
                file=sys.stderr,
            )
            return 1
        if args.update_baseline or not ADAPTIVE_BASELINE.exists():
            ADAPTIVE_BASELINE.write_text(ADAPTIVE_FRESH.read_text())
            print(f"adaptive record written: {ADAPTIVE_BASELINE}")

    if args.update_baseline or not BASELINE.exists():
        BASELINE.write_text(FRESH.read_text())
        print(f"baseline written: {BASELINE} (aggregate {fresh['aggregate_speedup_x']}x)")
        if BACKENDS_FRESH.exists():
            BACKENDS_BASELINE.write_text(BACKENDS_FRESH.read_text())
            print(f"backend record written: {BACKENDS_BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    failures = check_baseline(fresh, baseline)
    print(
        f"hot path: {fresh['aggregate_speedup_x']}x vs baseline "
        f"{baseline['aggregate_speedup_x']}x (tolerance -{REGRESSION_TOLERANCE:.0%})"
    )

    if BACKENDS_FRESH.exists():
        backends_fresh = json.loads(BACKENDS_FRESH.read_text())
        if args.update_baseline or not BACKENDS_BASELINE.exists():
            BACKENDS_BASELINE.write_text(BACKENDS_FRESH.read_text())
            print(f"backend record written: {BACKENDS_BASELINE}")
        else:
            backends_baseline = json.loads(BACKENDS_BASELINE.read_text())
            failures += check_backends_baseline(backends_fresh, backends_baseline)
            for name, rec in backends_fresh.get("backends", {}).items():
                if rec.get("available"):
                    print(
                        f"backend {name!r}: spmv {rec['aggregate_spmv_speedup_x']}x, "
                        f"solve {rec['aggregate_solve_speedup_x']}x, "
                        f"faulted solve {rec['aggregate_faulted_solve_speedup_x']}x "
                        f"vs reference (tolerance -{REGRESSION_TOLERANCE:.0%})"
                    )

    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print("benchmarks OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
