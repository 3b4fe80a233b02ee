"""Campaign ledger: spec in → report out, timed from outside.

One command drives the four workloads of ``ledger.WORKLOADS`` through
the public CLI exactly as a user would — ``Study.save(spec.json)`` →
``repro study run SPEC --store URL --jobs J --progress none --retries 1``
→ ``repro report URL`` — each a fresh subprocess timed with
``os.wait4``, prints every metric by name with its unit and checks the
outputs::

    python3 benchmarks/e2e/run.py                      # all workloads, timed + traced
    python3 benchmarks/e2e/run.py --runs 10 --trace 0 --out A.json
    python3 benchmarks/e2e/run.py --workload t1_small --seed 7 --seconds 20 --trace 0

With one ``--workload`` and an explicit ``--trace`` the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics under ``--trace 0`` (tracing off),
the per-layer metrics of one traced pass under ``--trace 1``.

A timed run repeats *cycles* for ``--seconds``: two dry runs (set-up),
a fresh campaign plus its report, two resume passes each plus its
report, then the output checks.  Each cycle takes the next base seed ``--seed``
stands for (``ledger.base_seeds``); a run reports the median over its
cycles.  ``attempted`` counts compiled tasks, ``failed`` the tasks the
campaign quarantined (``--retries 1`` makes a raising task quarantine
instead of killing the campaign) plus any that went missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import ledger

HERE = ledger.HERE
RUN_SECONDS = 26  #: BENCHMARK.json's run_seconds


# ----------------------------------------------------------------------
# timed subprocesses
# ----------------------------------------------------------------------
def repro_cli(*args: str) -> "list[str]":
    return [sys.executable, "-m", "repro", *args]


def timed(argv: "list[str]", log: pathlib.Path) -> dict:
    """Run ``argv`` to completion through ``spawn.py`` (see there why):
    wall clock, exit code, CPU seconds and peak RSS of the command and
    its reaped descendants.  Output lands in ``log`` / ``log.err``."""
    launcher = subprocess.Popen(
        [sys.executable, "-S", "-E", str(HERE / "spawn.py"), str(log), *argv],
        stdout=subprocess.PIPE, cwd=log.parent, start_new_session=True)
    try:
        report, _ = launcher.communicate()
    except BaseException:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"spawn.py exited {launcher.returncode} for {argv}")
    return {**json.loads(report), "log": log}


# ----------------------------------------------------------------------
# one cycle: set-up, fresh campaign, resume, checks
# ----------------------------------------------------------------------
def cycle(wl: "ledger.Workload", base_seed: int, workdir: pathlib.Path, *,
          smoke: bool = False, expected_digest: "str | None" = None) -> dict:
    from repro.store import verify_store

    workdir.mkdir(parents=True)
    spec = workdir / "spec.json"
    wl.study(base_seed, smoke=smoke).save(spec)
    url = wl.store_url(workdir)
    run = ["study", "run", str(spec), "--store", url, "--jobs", str(wl.jobs),
           "--progress", "none", "--retries", "1"]
    failures: "list[str]" = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(f"{wl.name} base_seed={base_seed}: {message}")

    dry = [timed(repro_cli("study", "run", str(spec), "--dry-run"), workdir / f"dry{i}.out")
           for i in range(1 if smoke else 2)]
    head = dry[0]["log"].read_text().partition("\n")[0]
    match = re.fullmatch(r"study '.*': (\d+) tasks", head)
    expect(match is not None and dry[0]["code"] == 0, f"dry run printed {head!r}")
    compiled = int(match.group(1)) if match else 0

    fresh = timed(repro_cli(*run), workdir / "fresh.out")
    report = timed(repro_cli("report", url), workdir / "report.out")
    expect(fresh["code"] in (0, 3), f"study run exited {fresh['code']}: "
           + pathlib.Path(f"{fresh['log']}.err").read_text()[-400:])
    expect(report["code"] == 0, f"report exited {report['code']}")
    facts = ledger.store_facts(url)  # a store never written reads as empty
    listed = re.search(r"^records: (\d+)", report["log"].read_text(), re.M)
    expect(listed is not None and int(listed.group(1)) == compiled,
           f"report lists {listed and listed.group(1)} records, {compiled} compiled")
    expect(facts["settled"] + facts["quarantined"] == compiled,
           f"{facts['settled']} settled + {facts['quarantined']} quarantined "
           f"!= {compiled} compiled")
    expect(expected_digest in (None, facts["digest"]),
           f"records digest {facts['digest'][:16]} != committed {str(expected_digest)[:16]}")

    resumes = []
    for i in range(1 if smoke else 2):
        resume = timed(repro_cli(*run, "--resume"), workdir / f"resume{i}.out")
        again = timed(repro_cli("report", url), workdir / f"report{i}.out")
        resumes.append(resume["wall_s"] + again["wall_s"])
        expect(resume["code"] == fresh["code"], f"resume exited {resume['code']}")
        expect(again["log"].read_bytes() == report["log"].read_bytes(),
               "report after resume differs from the report before")
    after = ledger.store_facts(url)
    expect(after["raw_records"] == facts["raw_records"] and after["digest"] == facts["digest"],
           "the resume pass changed the store")
    scan = verify_store(url)
    expect(not scan["corrupt"] and not scan["torn_tail"], f"store verify: {scan}")

    campaign_wall = fresh["wall_s"] + report["wall_s"]
    out = {
        "base_seed": base_seed,
        "compiled": compiled,
        "failed": max(facts["quarantined"], compiled - facts["settled"]),
        "quarantine_tasks": facts["quarantine_tasks"],
        "reps": facts["reps"],
        "digest": facts["digest"],
        "failures": failures,
        "samples": {
            "campaign_wall_s": campaign_wall,
            "reps_per_s": facts["reps"] / campaign_wall,
            "setup_s": [d["wall_s"] for d in dry],
            "resume_wall_s": resumes,
            "peak_rss_mb": fresh["maxrss_mb"],
            "study_run_s": fresh["wall_s"],
            "study_run_cpu_s": fresh["cpu_s"],
        },
    }
    shutil.rmtree(workdir)
    return out


def campaign_seeds(wl: "ledger.Workload", seed: int, *, smoke: bool,
                   base_seed: "int | None") -> "tuple[list[int], dict[int, str]]":
    """Base seeds in cycle order, and the digest committed for each
    (none when ``--smoke`` or ``--base-seed`` leave the screened pool)."""
    if smoke or base_seed is not None:
        return [seed if base_seed is None else base_seed], {}
    pool = ledger.load_pool(wl.name)
    return ledger.base_seeds(pool, seed), pool


def timed_run(wl: "ledger.Workload", seed: int, seconds: float, scratch: pathlib.Path, *,
              smoke: bool = False, base_seed: "int | None" = None) -> dict:
    """Cycles for ``seconds`` (at least one); medians over the cycles."""
    order, digests = campaign_seeds(wl, seed, smoke=smoke, base_seed=base_seed)
    load_before = os.getloadavg()
    cycles: "list[dict]" = []
    t0 = perf_counter()
    while True:
        bs = order[len(cycles) % len(order)]
        cycles.append(cycle(
            wl, bs, scratch / f"cycle{len(cycles)}", smoke=smoke,
            expected_digest=digests.get(bs)))
        elapsed = perf_counter() - t0
        # Stop when another cycle would overshoot by more than it undershoots.
        if elapsed + 0.5 * elapsed / len(cycles) >= seconds:
            break

    def median(name: str) -> float:
        values = [c["samples"][name] for c in cycles]
        if isinstance(values[0], list):  # several samples a cycle
            values = [v for several in values for v in several]
        return statistics.median(values)

    failures = [f for c in cycles for f in c["failures"]]
    return {
        "workload": wl.name,
        "seed": seed,
        "correct": not failures,
        "attempted": sum(c["compiled"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "metrics": {m["name"]: {"value": median(m["name"]), "unit": m["unit"]}
                    for m in ledger.END_TO_END},
        "failures": failures,
        "quarantine_tasks": [t for c in cycles for t in c["quarantine_tasks"]],
        "cycles": cycles,
        "elapsed_s": perf_counter() - t0,
        "loadavg": {"before": load_before, "after": os.getloadavg()},
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_run(wl: "ledger.Workload", seed: int, scratch: pathlib.Path, *,
               smoke: bool = False, base_seed: "int | None" = None) -> dict:
    """One untraced and one traced in-process pass, each in a fresh
    child; per-layer metrics from the traced one, the difference of the
    two ``run_campaign`` walls as the tracing overhead."""
    order, digests = campaign_seeds(wl, seed, smoke=smoke, base_seed=base_seed)
    bs = order[0]
    load_before = os.getloadavg()
    passes = {}
    for kind in ("untraced", "traced"):
        out = scratch / f"{kind}.json"
        argv = [sys.executable, str(HERE / "layers.py"), wl.name, str(bs),
                str(scratch / kind), str(out)]
        argv += ["--untraced"] if kind == "untraced" else []
        argv += ["--smoke"] if smoke else []
        scratch.mkdir(parents=True, exist_ok=True)
        done = timed(argv, scratch / f"{kind}.log")
        if done["code"] != 0:
            raise RuntimeError(f"{kind} pass of {wl.name} exited {done['code']}: "
                               + pathlib.Path(f"{done['log']}.err").read_text()[-2000:])
        passes[kind] = json.loads(out.read_text())
    traced = passes["traced"]
    values = traced["metrics"]
    base = passes["untraced"]["metrics"]["campaign.executor.run_s"]
    values["harness.trace_overhead_pct"] = (
        100.0 * (values["campaign.executor.run_s"] - base) / base)

    failures = []
    missing = [m["name"] for m in ledger.PER_LAYER if m["name"] not in values]
    if missing:
        failures.append(f"{wl.name}: traced pass reports no {', '.join(missing)}")
    expected = digests.get(bs)
    if expected not in (None, traced["digest"]):
        failures.append(f"{wl.name} base_seed={bs}: traced records digest "
                        f"{traced['digest'][:16]} != committed {expected[:16]}")
    if traced["resume_pending"]:
        failures.append(f"{wl.name}: {traced['resume_pending']} tasks pending after the run")

    shutil.rmtree(scratch)
    tasks = int(values["api.study.tasks"])
    return {
        "workload": wl.name,
        "seed": seed,
        "base_seed": bs,
        "correct": not failures,
        "attempted": tasks,
        "failed": traced["quarantined"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in ledger.PER_LAYER if m["name"] in values},
        "failures": failures,
        "digest": traced["digest"],
        "quarantine_tasks": traced["quarantine_tasks"],
        "spans": traced["spans"],
        "self_times_s": traced["self_times_s"],
        "probe_matrix": traced["probe_matrix"],
        "probe_solve": traced["probe_solve"],
        "host_copy": traced["host_copy"],
        "loadavg": {"before": load_before, "after": os.getloadavg()},
    }


# ----------------------------------------------------------------------
# environment manifest
# ----------------------------------------------------------------------
def manifest() -> dict:
    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    def git(*args: str) -> "str | None":
        if not (ledger.REPO / ".git").exists():
            return None
        done = subprocess.run(["git", "-C", str(ledger.REPO), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = next((line.partition(":")[2].strip()
                for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        **{m: version(m) for m in ("numpy", "scipy", "numba")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "thread_pins": ledger.THREAD_PINS,
        "loadavg": os.getloadavg(),
    }


# ----------------------------------------------------------------------
# screening the seed pool
# ----------------------------------------------------------------------
def screen(candidates: "list[int]", scratch: pathlib.Path) -> dict:
    """One full cycle per workload and candidate base seed: seeds on
    which every task settles and every check passes enter the pool with
    their digest; the others are listed with what failed."""
    out = {}
    for wl in ledger.WORKLOADS.values():
        pool, excluded = [], []
        for bs in candidates:
            c = cycle(wl, bs, scratch / f"screen-{wl.name}-{bs}")
            if c["failed"] or c["failures"]:
                excluded.append({"base_seed": bs, "failed": c["failed"],
                                 "tasks": c["quarantine_tasks"], "failures": c["failures"]})
            else:
                pool.append({"base_seed": bs, "digest": c["digest"],
                             "tasks": c["compiled"], "reps": c["reps"]})
            print(f"screen {wl.name} base_seed={bs}: failed={c['failed']} "
                  f"wall={c['samples']['campaign_wall_s']:.2f}s", file=sys.stderr)
        out[wl.name] = {"pool": pool, "excluded": excluded}
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def summarize(runs: "list[dict]") -> dict:
    """Median, quartiles and spread of each metric over a workload's runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = ledger.quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": ledger.spread(values),
                     "n": len(values), "unit": runs[0]["metrics"][name]["unit"],
                     "values": values}
    return out


def print_end_to_end(results: dict) -> None:
    print(f"\n{'workload':<14}{'metric':<18}{'median':>12} {'unit':<7}"
          f"{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}{'runs':>5}")
    for name, res in results.items():
        if "timed" not in res:
            continue
        for m in ledger.END_TO_END:
            s = res["summary"][m["name"]]
            print(f"{name:<14}{m['name']:<18}{s['median']:>12.4f} {s['unit']:<7}"
                  f"{s['q1']:>12.4f}{s['q3']:>12.4f}{100 * s['spread']:>7.1f}%"
                  f"{100 * m['bound']:>6.0f}%{s['n']:>5}")
        attempted = sum(r["attempted"] for r in res["timed"])
        failed = sum(r["failed"] for r in res["timed"])
        print(f"{name:<14}{'failed/attempted':<18}{failed:>12} of {attempted} tasks")


def print_per_layer(results: dict) -> None:
    names = [n for n, r in results.items() if "traced" in r]
    if not names:
        return
    print(f"\n{'per-layer metric':<42}{'unit':<7}" + "".join(f"{n:>14}" for n in names))
    for m in ledger.PER_LAYER:
        cells = []
        for n in names:
            v = results[n]["traced"]["metrics"].get(m["name"])
            cells.append(f"{v['value']:>14.4g}" if v else f"{'-':>14}")
        print(f"{m['name']:<42}{m['unit']:<7}" + "".join(cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(ledger.WORKLOADS),
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=2015,
                    help="picks the campaign base seeds from the screened pool")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="how long one timed run repeats its cycles")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: timed runs only; 1: the traced pass only; default: both")
    ap.add_argument("--runs", type=int, default=1,
                    help="timed runs per workload, seeds --seed, --seed+1, ...")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="result file (default: results/latest.json); span files and "
                         "scratch space go beside it")
    ap.add_argument("--base-seed", type=int, default=None,
                    help="bypass the pool: run exactly this campaign base seed "
                         "(no committed digest to check)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workloads, one cycle: exercises every phase in seconds")
    ap.add_argument("--screen", type=int, nargs=2, metavar=("LO", "HI"), default=None,
                    help="rebuild workloads.json from base seeds LO..HI-1 and exit")
    args = ap.parse_args(argv)

    ledger.use_repo_source()
    if not (ledger.SRC / "repro").is_dir():
        print(f"error: no program to measure: {ledger.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    out = args.out or ledger.RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = out.parent / f"work-{os.getpid()}"
    names = args.workload or list(ledger.WORKLOADS)
    driver_mode = len(names) == 1 and args.trace is not None and args.runs == 1
    seconds = 0.0 if args.smoke else args.seconds
    results: dict = {}
    try:
        if args.screen:
            pool = screen(list(range(*args.screen)), scratch)
            ledger.POOL_FILE.write_text(
                json.dumps({"schema": 1, "workloads": pool}, indent=1) + "\n")
            return 0
        for name in names:
            wl = ledger.WORKLOADS[name]
            res = results[name] = {}
            common = dict(smoke=args.smoke, base_seed=args.base_seed)
            if args.trace != 1:
                res["timed"] = [
                    timed_run(wl, args.seed + i, seconds, scratch / f"{name}-{i}", **common)
                    for i in range(args.runs)]
                res["summary"] = summarize(res["timed"])
            if args.trace != 0:
                traced = res["traced"] = traced_run(
                    wl, args.seed, scratch / f"{name}-trace", **common)
                (out.parent / f"trace-{name}.json").write_text(json.dumps(
                    {"workload": name, "base_seed": traced["base_seed"],
                     "spans": traced.pop("spans"),
                     "self_times_s": traced["self_times_s"]}, indent=1))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = [r for res in results.values()
             for r in res.get("timed", []) + ([res["traced"]] if "traced" in res else [])]
    print_end_to_end(results)
    print_per_layer(results)
    for r in every:
        for task in r["quarantine_tasks"]:
            print(f"quarantined ({r['workload']}): {json.dumps(task)}")
        for failure in r["failures"]:
            print(f"CHECK FAILED: {failure}")
    correct = all(r["correct"] for r in every)

    out.write_text(json.dumps(
        {"schema": 1, "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
         "manifest": manifest(), "workloads": results}, indent=1, default=str) + "\n")
    print(f"\nresults: {out}   checks: {'ok' if correct else 'FAILED'}")
    if driver_mode:
        r = every[0]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
