"""The ``repro`` command-line interface.

One argparse subcommand tree, installed as the ``repro`` console
script (``pyproject.toml``) and doubling as ``python -m repro``:

- ``repro solve``   — protect one solve and print its report;
- ``repro table1``  — regenerate the paper's Table 1 (model validation);
- ``repro figure1`` — regenerate the paper's Figure 1 (time vs MTBF);
- ``repro study run <spec.json>`` — execute a declarative
  :class:`~repro.api.study.Study` exported with ``Study.save()``;
- ``repro report <store.jsonl>`` — summarize a campaign result store;
- ``repro trace summarize <path>`` — summarize JSONL trace shards
  written by ``--trace-dir`` (see :mod:`repro.obs`).

The campaign flags (``--jobs`` / ``--store`` / ``--resume`` /
``--progress`` / ``--trace-dir`` / ``--base-seed``) are one shared
option group wired into every subcommand that executes tasks, so
fan-out, resume and tracing behave identically everywhere.

:func:`main` returns an exit code instead of raising ``SystemExit``
(argparse's exits — including ``--help``'s code 0 and usage-error code
2 — are translated), which keeps it embeddable;
:func:`entry` is the console-script wrapper adding the BrokenPipeError
etiquette.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main", "entry"]


def _banner() -> str:
    import repro

    return (
        f"repro {repro.__version__} — backward + forward recovery for "
        "silent errors in iterative solvers\n"
        "(reproduction of Fasi, Robert, Uçar, PDSEC 2015)"
    )


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    """The shared campaign-engine flags (fan-out, persistence, resume)."""
    group = parser.add_argument_group("campaign engine")
    group.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker processes (default: all cores; 1 = serial; "
             "any value is bit-identical to serial)",
    )
    group.add_argument(
        "--store", type=str, default=None, metavar="URL",
        help="result store for crash-safe persistence / resume: a bare "
             "path (single-file JSONL), sharded:DIR (hash-partitioned "
             "shards, concurrent writers) or sqlite:FILE.db (WAL "
             "database, concurrent writers)",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="reuse finished tasks from --store instead of starting fresh",
    )
    group.add_argument(
        "--progress", choices=("bar", "json", "none"), default="bar",
        help="stderr progress style: human status line (default), "
             "newline-delimited JSON objects, or silence",
    )
    group.add_argument(
        "--trace-dir", type=str, default=None, metavar="DIR",
        help="collect per-worker JSONL trace shards of every solve event "
             "under DIR (summarize with 'repro trace summarize DIR')",
    )
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline for each task; a timed-out "
             "task is retried (--retries) and eventually quarantined",
    )
    group.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempts for a failing or timed-out task (with "
             "exponential backoff); a task that exhausts them is recorded "
             "as a quarantine entry instead of failing the campaign "
             "(exit code 3)",
    )
    group.add_argument(
        "--chaos", type=str, default=None, metavar="SPEC",
        help="deterministic fault injection for harness testing, e.g. "
             "'kill=0.2,hang=0.05,seed=7' (sites: kill/hang/tear; "
             "'off' disables; default: the REPRO_CHAOS environment)",
    )


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the table1 / figure1 drivers."""
    parser.add_argument(
        "--base-seed", type=int, default=2015, help="campaign base seed"
    )
    parser.add_argument(
        "--scale", type=int, default=16, help="matrix size divisor (1 = paper scale)"
    )
    parser.add_argument(
        "--reps", type=int, default=10, help="repetitions per point (paper: 50)"
    )
    parser.add_argument(
        "--uids", type=int, nargs="*", default=None, help="subset of matrix ids"
    )
    parser.add_argument("--eps", type=float, default=1e-6, help="CG stopping epsilon")
    parser.add_argument(
        "--method", type=str, default="cg", metavar="M1,M2,...",
        help="comma-separated solver axis: cg, bicgstab, pcg (default: cg)",
    )
    parser.add_argument(
        "--backend", type=str, default="reference",
        help="kernel backend: reference (bit-identical default), scipy, dense",
    )
    parser.add_argument("--csv", type=str, default=None, help="also dump raw rows to CSV")
    parser.add_argument(
        "--paper-scale", action="store_true", help="scale=1, reps=50 (slow)"
    )
    parser.add_argument(
        "--adaptive", type=str, default=None, metavar="SPEC",
        help="adaptive sequential sampling: stop each task's repetitions "
             "once the CI half-width on the mean time falls below target, "
             "e.g. 'ci=0.05,conf=0.95,min=5,max=200' (--reps is then "
             "ignored in favour of the policy's max); per-rep fault "
             "streams are prefix-shared with fixed runs, so stopping at "
             "k reps is bit-identical to the first k of a fixed run",
    )
    _add_campaign_options(parser)


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` subcommand tree."""
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description=_banner(),
        epilog="see README.md for the library API and examples/ for runnable demos",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # --- solve ------------------------------------------------------------
    p = sub.add_parser(
        "solve",
        help="protect one linear solve and print its report",
        description="Run one fault-tolerant solve on a suite matrix (--uid), "
                    "a generated stencil system (--n) or a Matrix-Market file "
                    "(--matrix) and print the report.",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--uid", type=int, default=2213,
        help="suite matrix id (the paper's Table-1 ids; default: 2213)",
    )
    src.add_argument(
        "--n", type=int, default=None,
        help="instead of a suite matrix: generate an n-point 2-D stencil SPD system",
    )
    src.add_argument(
        "--matrix", type=str, default=None, metavar="PATH|NAME",
        help="instead of a suite matrix: a Matrix-Market file (.mtx/.mtx.gz) "
             "or a workload name registered under $REPRO_MATRIX_DIR",
    )
    p.add_argument(
        "--scale", type=int, default=None,
        help="suite-matrix size divisor (default 32; only with --uid)",
    )
    p.add_argument("--method", type=str, default="cg", help="cg, bicgstab or pcg")
    p.add_argument(
        "--backend", type=str, default="reference",
        help="kernel backend: reference (bit-identical default), scipy, dense",
    )
    p.add_argument(
        "--scheme", type=str, default="abft-correction",
        help="online-detection, abft-detection or abft-correction",
    )
    p.add_argument(
        "--alpha", type=float, default=1.0 / 16.0,
        help="fault-rate constant (strikes per iteration; 0 disables injection)",
    )
    p.add_argument("--seed", type=int, default=2015, help="fault-stream seed")
    p.add_argument(
        "--interval", type=str, default="auto",
        help="checkpoint interval s (integer or 'auto' = model-optimal)",
    )
    p.add_argument(
        "--d", type=str, default="auto",
        help="verification interval d (integer or 'auto'; >1 only for online-detection)",
    )
    p.add_argument("--eps", type=float, default=1e-6, help="stopping epsilon")
    p.add_argument("--maxiter", type=int, default=None, help="executed-iteration cap")
    p.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    p.set_defaults(func=_cmd_solve)

    # --- table1 / figure1 -------------------------------------------------
    p = sub.add_parser(
        "table1",
        help="regenerate the paper's Table 1 (model validation)",
        description="Sweep the checkpoint interval around the model prediction "
                    "and report the empirical optimum per (matrix, method, scheme).",
    )
    _add_experiment_options(p)
    p.add_argument(
        "--s-span", type=int, default=6,
        help="interval-sweep half-width around the model prediction",
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "figure1",
        help="regenerate the paper's Figure 1 (time vs normalized MTBF)",
        description="Compare the three protection schemes across MTBF values.",
    )
    _add_experiment_options(p)
    p.add_argument(
        "--mtbf", type=float, nargs="*", default=None,
        help="x-axis points 1/alpha (default: the paper's span)",
    )
    p.set_defaults(func=_cmd_figure1)

    # --- study ------------------------------------------------------------
    p = sub.add_parser(
        "study",
        help="run a declarative Study exported to JSON",
        description="Operate on declarative Study specs (see repro.api.Study).",
    )
    study_sub = p.add_subparsers(dest="study_command", metavar="ACTION")
    pr = study_sub.add_parser(
        "run",
        help="execute a Study spec through the campaign engine",
        description="Compile a Study spec to tasks and execute them; with "
                    "--store/--resume, completed tasks are served from the store.",
    )
    pr.add_argument("spec", type=str, help="Study spec JSON (written by Study.save())")
    pr.add_argument(
        "--dry-run", action="store_true",
        help="print the compiled task count and hashes without executing",
    )
    pr.add_argument("--csv", type=str, default=None, help="dump typed points to CSV")
    pr.add_argument(
        "--adaptive", type=str, default=None, metavar="SPEC",
        help="override the study's sampling policy, e.g. "
             "'ci=0.05,conf=0.95,min=5,max=200' (see table1 --adaptive)",
    )
    _add_campaign_options(pr)
    p.set_defaults(func=_cmd_study)

    # --- trace ------------------------------------------------------------
    p = sub.add_parser(
        "trace",
        help="inspect structured trace shards written by --trace-dir",
        description="Operate on JSONL trace events (see repro.obs).",
    )
    trace_sub = p.add_subparsers(dest="trace_command", metavar="ACTION")
    pt = trace_sub.add_parser(
        "summarize",
        help="fold a trace file or shard directory into a summary",
        description="Read every event from a .jsonl trace file (or every "
                    "shard-*.jsonl in a directory) and print per-kind counts, "
                    "per-phase time shares and the fault timeline.",
    )
    pt.add_argument("path", type=str, help="trace .jsonl file or shard directory")
    pt.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    pt.add_argument(
        "--limit", type=int, default=20,
        help="fault-timeline rows to show (default 20; 0 = hide)",
    )
    p.set_defaults(func=_cmd_trace)

    # --- report -----------------------------------------------------------
    p = sub.add_parser(
        "report",
        help="summarize a campaign result store",
        description="Stream a result store (bare path = JSONL, sharded:DIR, "
                    "sqlite:FILE.db) into per-(experiment, method, scheme) "
                    "aggregates without re-running anything; partial stores "
                    "of still-running campaigns summarize fine.",
    )
    p.add_argument("store", type=str, help="result store path or URL")
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    p.set_defaults(func=_cmd_report)

    # --- store ------------------------------------------------------------
    p = sub.add_parser(
        "store",
        help="inspect and migrate campaign result stores",
        description="Operate on result stores of any backend "
                    "(see repro.store): bare path = single-file JSONL, "
                    "sharded:DIR, sqlite:FILE.db.",
    )
    store_sub = p.add_subparsers(dest="store_command", metavar="ACTION")
    pi = store_sub.add_parser(
        "info",
        help="show a store's backend, record count and layout",
        description="Print the resolved backend, distinct record count and "
                    "backend-specific layout details (shard fill, lease "
                    "activity) without materializing the store.",
    )
    pi.add_argument("store", type=str, help="result store path or URL")
    pi.add_argument("--json", action="store_true", help="print as JSON")
    pm = store_sub.add_parser(
        "migrate",
        help="copy every record of one store into an empty one",
        description="Stream records losslessly between backends "
                    "(jsonl <-> sharded <-> sqlite).  Task hashes are "
                    "preserved, so --resume against the destination "
                    "recomputes nothing and aggregates stay bit-identical.",
    )
    pm.add_argument("src", type=str, help="source store path or URL")
    pm.add_argument("dst", type=str, help="destination store path or URL (must be empty)")
    pc = store_sub.add_parser(
        "compact",
        help="fold a store's latest records into an empty one",
        description="Write the store's folded view (duplicate hashes "
                    "collapse last-wins, telemetry records dropped) into an "
                    "empty destination.  With --drop-quarantined, poison-task "
                    "records are dropped too, so a resumed campaign retries "
                    "them.",
    )
    pc.add_argument("src", type=str, help="source store path or URL")
    pc.add_argument("dst", type=str, help="destination store path or URL (must be empty)")
    pc.add_argument(
        "--drop-quarantined", action="store_true",
        help="also drop kind=quarantine records (re-queues those tasks)",
    )
    pv = store_sub.add_parser(
        "verify",
        help="integrity-scan a store's record checksums",
        description="Count intact (sealed / pre-checksum) and corrupt "
                    "records plus torn-tail state without modifying "
                    "anything; exits 1 if corruption was found.",
    )
    pv.add_argument("store", type=str, help="result store path or URL")
    pv.add_argument("--json", action="store_true", help="print as JSON")
    pp = store_sub.add_parser(
        "repair",
        help="re-derive a clean store from the intact records",
        description="Stream every record that parses and passes its "
                    "checksum into an empty destination; dropped tasks are "
                    "simply re-executed by the next --resume.",
    )
    pp.add_argument("src", type=str, help="source store path or URL")
    pp.add_argument("dst", type=str, help="destination store path or URL (must be empty)")
    p.set_defaults(func=_cmd_store)

    # --- serve ------------------------------------------------------------
    p = sub.add_parser(
        "serve",
        help="run Study specs through a lease-coordinated worker fleet",
        description="Start N long-lived workers that claim tasks from a "
                    "shared concurrent store (sharded:DIR or sqlite:FILE.db) "
                    "via leases with heartbeats, stealing work from crashed "
                    "peers.  Several serve invocations may share one store "
                    "concurrently; per-task results are identical to "
                    "--jobs 1.",
    )
    p.add_argument(
        "specs", type=str, nargs="+", metavar="SPEC",
        help="Study spec JSON file(s) (written by Study.save()); several "
             "specs multiplex over the same fleet",
    )
    p.add_argument(
        "--store", type=str, required=True, metavar="URL",
        help="concurrent result store: sharded:DIR or sqlite:FILE.db "
             "(single-file JSONL stores cannot coordinate workers)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the fleet (default: 2)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SECONDS",
        help="crash-detection horizon: a worker silent this long loses its "
             "claimed tasks to the rest of the fleet (default: 60)",
    )
    p.add_argument(
        "--progress", choices=("bar", "json", "none"), default="bar",
        help="stderr progress style (as for the campaign commands)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline inside each worker",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="per-task re-attempts before quarantine (exit code 3)",
    )
    p.add_argument(
        "--chaos", type=str, default=None, metavar="SPEC",
        help="deterministic fault injection into the workers, e.g. "
             "'kill=0.2,seed=7' (the dispatcher never injects into itself)",
    )
    p.add_argument(
        "--max-worker-restarts", type=int, default=None, metavar="N",
        help="how many crashed workers the dispatcher revives before "
             "letting the fleet die off (default: 4x --workers)",
    )
    p.add_argument(
        "--trace-dir", type=str, default=None, metavar="DIR",
        help="collect per-worker JSONL trace shards (solve events plus "
             "retry/quarantine/restart harness events)",
    )
    p.set_defaults(func=_cmd_serve)

    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _parse_methods(parser: argparse.ArgumentParser, raw: str) -> "list[str]":
    from repro.core.methods import Method

    try:
        methods = [Method.parse(m).value for m in raw.split(",") if m.strip()]
    except ValueError as exc:
        parser.error(str(exc))
    if not methods:
        parser.error("--method must name at least one solver")
    return methods


def _check_campaign_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Validate the shared campaign flags; returns the resolved job count."""
    from repro.campaign.executor import default_jobs

    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.store:
        _check_store_arg(parser, args.store, resume=args.resume)
    _check_hardening_args(parser, args)
    return default_jobs() if args.jobs is None else args.jobs


def _check_hardening_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Validate the self-healing / chaos flags shared by every campaign
    command (serve included)."""
    if getattr(args, "task_timeout", None) is not None and args.task_timeout <= 0:
        parser.error(f"--task-timeout must be > 0, got {args.task_timeout:g}")
    if getattr(args, "retries", 0) < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if getattr(args, "chaos", None) is not None:
        from repro.chaos import ChaosPolicy

        try:
            ChaosPolicy.parse(args.chaos)
        except ValueError as exc:
            parser.error(f"--chaos {args.chaos!r}: {exc}")


def _check_adaptive_arg(
    parser: argparse.ArgumentParser, spec: "str | None"
) -> str:
    """Validate --adaptive and return the canonical sampling spec ("" = off)."""
    if spec is None:
        return ""
    from repro.adaptive import SamplingPolicy

    try:
        return SamplingPolicy.parse(spec).spec()
    except ValueError as exc:
        parser.error(f"--adaptive {spec!r}: {exc}")


def _check_store_arg(
    parser: argparse.ArgumentParser, spec: str, *, resume: bool
) -> None:
    """Reject a bad --store selector, and a non-empty one without --resume."""
    from repro.campaign.store import StoreError
    from repro.store import open_store

    try:
        store = open_store(spec)
        populated = not resume and store.count() > 0
    except (ValueError, StoreError) as exc:
        parser.error(f"--store {spec!r}: {exc}")
    if populated:
        parser.error(
            f"store {spec!r} already has results; "
            "pass --resume to continue it or remove it to start fresh"
        )


def _cmd_solve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.api.facade import CheckpointSpec, FaultSpec, solve
    from repro.core.methods import Method, Scheme

    def interval(name: str, raw: str) -> "int | str":
        if raw == "auto":
            return raw
        try:
            v = int(raw)
        except ValueError:
            parser.error(f"{name} must be an integer or 'auto', got {raw!r}")
        if v < 1:
            parser.error(f"{name} must be >= 1, got {v}")
        return v

    if args.alpha < 0:
        parser.error(f"--alpha must be >= 0, got {args.alpha}")
    try:
        method = Method.parse(args.method)
        scheme = Scheme.parse(args.scheme)
        from repro.backends import get_backend

        get_backend(args.backend)
    except ValueError as exc:
        parser.error(str(exc))

    if args.n is not None:
        from repro.sparse.generators import stencil_spd

        if args.scale is not None:
            parser.error("--scale applies to suite matrices only; --n fixes the size")
        if args.n < 9:
            parser.error(f"--n must be >= 9, got {args.n}")
        a = stencil_spd(args.n, kind="cross", radius=2)
    elif args.matrix is not None:
        from repro.sim.matrices import get_matrix

        if args.scale is not None:
            parser.error(
                "--scale applies to suite matrices only; "
                "file-backed workloads (--matrix) cannot be rescaled"
            )
        try:
            a = get_matrix(args.matrix)
        except (KeyError, OSError, ValueError, ImportError) as exc:
            parser.error(f"cannot load workload {args.matrix!r}: {exc}")
    else:
        from repro.sim.matrices import get_matrix

        try:
            a = get_matrix(args.uid, 32 if args.scale is None else args.scale)
        except KeyError as exc:
            parser.error(str(exc))
    from repro.sim.engine import make_rhs

    b = make_rhs(a)
    try:
        report = solve(
            a,
            b,
            method=method,
            scheme=scheme,
            faults=FaultSpec(alpha=args.alpha, seed=args.seed),
            checkpoint=CheckpointSpec(
                interval=interval("--interval", args.interval),
                verification_interval=interval("--d", args.d),
            ),
            eps=args.eps,
            maxiter=args.maxiter,
            backend=args.backend,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.summary())
    return 0 if report.converged else 1


def _run_experiment(
    parser: argparse.ArgumentParser, args: argparse.Namespace, kind: str
) -> int:
    from repro.sim.results import format_figure1, format_table1, to_csv

    if args.paper_scale:
        args.scale, args.reps = 1, 50
    methods = _parse_methods(parser, args.method)
    try:
        from repro.backends import get_backend

        get_backend(args.backend)
    except ValueError as exc:
        parser.error(str(exc))
    jobs = _check_campaign_args(parser, args)
    from repro.obs.metrics import METRICS

    q_before = METRICS.count("campaign.quarantined")
    common = dict(
        scale=args.scale,
        reps=args.reps,
        uids=args.uids,
        eps=args.eps,
        base_seed=args.base_seed,
        jobs=jobs,
        store=args.store,
        progress=args.progress,
        methods=methods,
        backend=args.backend,
        trace_dir=args.trace_dir,
        task_timeout=args.task_timeout,
        retries=args.retries,
        chaos=args.chaos,
        sampling=_check_adaptive_arg(parser, args.adaptive),
    )
    try:
        if kind == "table1":
            from repro.sim.experiments import run_table1

            if args.s_span < 0:
                parser.error(f"--s-span must be >= 0, got {args.s_span}")
            rows = run_table1(s_span=args.s_span, **common)
            print(format_table1(rows))
            if args.csv:
                to_csv(rows, args.csv)
        else:
            from repro.sim.experiments import run_figure1

            pts = run_figure1(mtbf_values=args.mtbf, **common)
            print(format_figure1(pts))
            if args.csv:
                to_csv(pts, args.csv)
    except ValueError as exc:
        # A quarantined poison task leaves the full aggregation short;
        # the campaign itself completed and the store holds everything
        # that did run — report and exit 3 rather than crash.
        if METRICS.count("campaign.quarantined") > q_before:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        raise
    quarantined = METRICS.count("campaign.quarantined") - q_before
    if quarantined:
        print(
            f"warning: {int(quarantined)} task(s) quarantined; re-queue "
            "with `repro store compact --drop-quarantined`",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_table1(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    return _run_experiment(parser, args, "table1")


def _cmd_figure1(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    return _run_experiment(parser, args, "figure1")


def _cmd_study(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.study_command != "run":
        parser.error("expected an action: repro study run <spec.json>")
    from repro.api.study import Study

    try:
        study = Study.load(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot load study spec {args.spec!r}: {exc}")
    if args.adaptive is not None:
        study.adaptive(_check_adaptive_arg(parser, args.adaptive))
    tasks = study.tasks()
    if args.dry_run:
        print(f"study {study.name!r}: {len(tasks)} tasks")
        for t in tasks:
            print(f"  {t.task_hash()[:16]}  {t.experiment} uid={t.uid} "
                  f"method={t.method} backend={t.backend} scheme={t.scheme} "
                  f"alpha={t.alpha:g} s={t.s} d={t.d} reps={t.reps}")
        return 0
    jobs = _check_campaign_args(parser, args)
    print(f"study {study.name!r}: {len(tasks)} tasks over {jobs} worker(s)",
          file=sys.stderr)
    result = study.run(
        jobs=jobs,
        store=args.store,
        progress=args.progress,
        trace_dir=args.trace_dir,
        task_timeout=args.task_timeout,
        retries=args.retries,
        chaos=args.chaos,
    )
    if result.quarantined:
        # The preset folds need every record; fall through to the
        # generic table, which reports the healthy points.
        print(
            f"warning: {result.quarantined} task(s) quarantined; re-queue "
            "with `repro store compact --drop-quarantined`",
            file=sys.stderr,
        )
        print(result.format_table())
    elif result.tasks and all(t.experiment == "table1" for t in result.tasks):
        from repro.sim.results import format_table1

        print(format_table1(result.table1_rows()))
    elif result.tasks and all(t.experiment == "figure1" for t in result.tasks):
        from repro.sim.results import format_figure1

        print(format_figure1(result.figure1_points()))
    else:
        print(result.format_table())
    if args.csv:
        import csv

        rows = [
            {
                "uid": p.uid, "method": p.method, "scheme": p.scheme,
                "alpha": p.alpha, "s": p.s, "d": p.d, "n": p.n,
                **{m: getattr(p.stats, m) for m in result.metrics},
            }
            for p in result.points()
        ]
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
            writer.writeheader()
            writer.writerows(rows)
    return 3 if result.quarantined else 0


def _cmd_trace(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.trace_command != "summarize":
        parser.error("expected an action: repro trace summarize <path>")
    import json
    import pathlib

    from repro.obs.summarize import format_trace_summary, summarize_trace

    if not pathlib.Path(args.path).exists():
        parser.error(f"no such trace file or directory: {args.path}")
    if args.limit < 0:
        parser.error(f"--limit must be >= 0, got {args.limit}")
    try:
        summary = summarize_trace(args.path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_trace_summary(summary, timeline_limit=args.limit))
    return 0


def _cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import json

    from repro.api.report import format_summary, summarize_store
    from repro.campaign.store import StoreError
    from repro.store import store_exists

    try:
        if not store_exists(args.store):
            parser.error(f"no such store: {args.store}")
        summary = summarize_store(args.store)
    except ValueError as exc:  # bad URL (unknown scheme, empty path)
        parser.error(f"store {args.store!r}: {exc}")
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(format_summary(summary))
    return 0


def _cmd_store(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import json

    from repro.campaign.store import StoreError
    from repro.store import (
        compact_store,
        migrate_store,
        open_store,
        repair_store,
        verify_store,
    )

    if args.store_command == "migrate":
        try:
            moved = migrate_store(args.src, args.dst)
        except (ValueError, StoreError) as exc:
            parser.error(str(exc))
        print(f"migrated {moved} record(s): {args.src} -> {args.dst}")
        return 0
    if args.store_command == "compact":
        try:
            kept = compact_store(
                args.src, args.dst, drop_quarantined=args.drop_quarantined
            )
        except (ValueError, StoreError) as exc:
            parser.error(str(exc))
        print(f"compacted to {kept} record(s): {args.src} -> {args.dst}")
        return 0
    if args.store_command == "verify":
        try:
            report = verify_store(args.store)
        except (ValueError, StoreError) as exc:
            parser.error(f"store {args.store!r}: {exc}")
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for key in ("url", "records", "sealed", "unsealed", "corrupt",
                        "torn_tail"):
                print(f"{key}: {report[key]}")
        return 1 if report["corrupt"] or report["torn_tail"] else 0
    if args.store_command == "repair":
        try:
            kept, dropped = repair_store(args.src, args.dst)
        except (ValueError, StoreError) as exc:
            parser.error(str(exc))
        print(
            f"repaired: kept {kept} record(s), dropped {dropped} corrupt: "
            f"{args.src} -> {args.dst}"
        )
        return 0
    if args.store_command != "info":
        parser.error(
            "expected an action: repro store info <url> | "
            "repro store migrate|compact|repair <src> <dst> | "
            "repro store verify <url>"
        )
    try:
        store = open_store(args.store)
        info = store.info() if hasattr(store, "info") else {
            "backend": type(store).__name__,
            "url": store.url,
            "records": store.count(),
        }
    except (ValueError, StoreError) as exc:
        parser.error(f"store {args.store!r}: {exc}")
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    for key in ("backend", "url", "exists", "records", "bytes",
                "shards", "active_leases"):
        if key in info:
            print(f"{key}: {info[key]}")
    fill = info.get("shard_records")
    if fill is not None:
        print("shard fill: " + " ".join(str(n) for n in fill))
    return 0


def _cmd_serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.api.study import Study
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.store import StoreError
    from repro.store import ServeInterrupted, open_store, serve_campaign

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.lease_ttl <= 0:
        parser.error(f"--lease-ttl must be > 0, got {args.lease_ttl:g}")
    if args.max_worker_restarts is not None and args.max_worker_restarts < 0:
        parser.error(
            f"--max-worker-restarts must be >= 0, got {args.max_worker_restarts}"
        )
    _check_hardening_args(parser, args)
    tasks = []
    names = []
    for spec in args.specs:
        try:
            study = Study.load(spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot load study spec {spec!r}: {exc}")
        names.append(study.name)
        tasks.extend(study.tasks())
    try:
        store = open_store(args.store)
    except (ValueError, StoreError) as exc:
        parser.error(f"--store {args.store!r}: {exc}")
    if not store.supports_leases:
        parser.error(
            f"--store {args.store!r}: serve mode needs a concurrent "
            "backend (sharded:DIR or sqlite:FILE.db); single-file JSONL "
            "stores cannot coordinate workers"
        )
    reporter = None
    if args.progress != "none":
        reporter = ProgressReporter(
            len(tasks), stream=sys.stderr,
            label="+".join(names), mode=args.progress,
        )
    print(
        f"serving {len(tasks)} task(s) from {len(args.specs)} spec(s) "
        f"over {args.workers} worker(s) -> {store.url}",
        file=sys.stderr,
    )
    try:
        records = serve_campaign(
            tasks,
            store,
            workers=args.workers,
            lease_ttl=args.lease_ttl,
            progress=reporter,
            task_timeout=args.task_timeout,
            retries=args.retries,
            chaos=args.chaos,
            max_worker_restarts=args.max_worker_restarts,
            trace_dir=args.trace_dir,
        )
    except ServeInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 128 + exc.signum
    except (RuntimeError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from repro.api.report import format_summary, summarize_store

    print(format_summary(summarize_store(store)))
    quarantined = sum(1 for r in records if r.get("kind") == "quarantine")
    if quarantined:
        print(
            f"warning: {quarantined} task(s) quarantined; re-queue with "
            "`repro store compact --drop-quarantined`",
            file=sys.stderr,
        )
        return 3
    return 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    """Parse and dispatch; returns an exit code.

    Bare invocation prints the banner plus usage and exits 0; argparse
    exits (``--help`` → 0, usage errors → 2) are translated to return
    codes so callers never have to catch ``SystemExit``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        print(_banner() + "\n")
        parser.print_help()
        return 0
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _exit_code(exc)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 0
    try:
        return args.func(parser, args)
    except SystemExit as exc:  # parser.error() inside a subcommand
        return _exit_code(exc)


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def entry() -> None:  # pragma: no cover - exercised via the console script
    """Console-script entry point with BrokenPipeError etiquette."""
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — standard CLI etiquette.
        raise SystemExit(0)
