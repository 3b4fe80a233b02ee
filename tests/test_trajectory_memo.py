"""The clean-trajectory memo: sound, equal to the oracle, and skipping work.

``run_protected`` accounts — instead of executing — every iteration
whose outcome is already known: clean (the logical state is the
strike-free trajectory's ``T[k]``, the live matrix its source), no
strike drawn, inside the memo's frontier (docs/DESIGN.md §4).  Three
things are pinned here, none of them by timing:

1. *soundness* — at every point the engine claims ``clean`` the
   plugin's vectors and the live matrix are byte-equal to an
   independent workspace-free, strike-free run (the engine's test-only
   ``_clean_claim_hook``), over generated (method, scheme, backend, α,
   s, d, eps, seed) with directed strikes on every target kind;
2. *memo ≡ oracle* — a solve through a warm memo returns the same
   ``SolveResult``, recovery events and fault records as the oracle path
   without one;
3. *the work is really skipped* — exact SpMxV / protected-product /
   step counts.

Oracle, on every backend: ``workspace=None`` — a private workspace per
solve, which binds no memo (``tests/test_perf_workspace.py`` holds it
to a shared workspace).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.facade import REPORT_EVENT_KINDS
from repro.backends import backend_available, resolve_backend
from repro.core.methods import CostModel, Scheme, SchemeConfig
from repro.faults.injector import FaultInjector
from repro.obs import CallbackTracer, InMemoryTracer, MultiTracer
from repro.obs.metrics import METRICS
from repro.perf import SolveWorkspace
from repro.perf.trajectory import BUDGET_BYTES, TrajectoryMemo
from repro.resilience import engine
from repro.resilience.registry import make_plugin, run_ft_method
from repro.sim.engine import PER_REP_KEYS, make_rhs, repeat_run
from repro.sparse import stencil_spd

A = stencil_spd(256, kind="cross", radius=2)
B = make_rhs(A)
COSTS = CostModel.from_matrix(A)
MAXITER = 400  # bounds runaway rollback loops; equality must hold at the cap too

GRID = [
    ("cg", "online-detection"),
    ("cg", "abft-detection"),
    ("cg", "abft-correction"),
    ("bicgstab", "abft-detection"),
    ("bicgstab", "abft-correction"),
    ("pcg", "abft-detection"),
    ("pcg", "abft-correction"),
]
BACKENDS = ["reference"] + (["scipy"] if backend_available("scipy") else [])


def _config(scheme: str, s: int, d: int) -> SchemeConfig:
    sch = Scheme.parse(scheme)
    return SchemeConfig(
        sch,
        checkpoint_interval=s,
        verification_interval=d if sch is Scheme.ONLINE_DETECTION else 1,
        costs=COSTS,
    )


# ----------------------------------------------------------------------
# directed strikes: a FaultInjector whose k-th draw can be scripted
# ----------------------------------------------------------------------
class ScriptedInjector(FaultInjector):
    """Draw ``k`` (1-based) returns ``script[k]`` when scripted — after
    consuming the Poisson draw all the same, so scripted and oracle runs
    stay on one RNG stream — else the sampled strikes."""

    script: "dict[int, list[tuple[str, int, int]]]" = {}
    made: "list[ScriptedInjector]" = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._draws = 0
        type(self).made.append(self)

    def sample_strikes(self, *, n_strikes=None):
        self._draws += 1
        sampled = super().sample_strikes(n_strikes=n_strikes)
        return list(self.script.get(self._draws, sampled))


@pytest.fixture
def scripted(monkeypatch):
    """Install :class:`ScriptedInjector` in the engine; returns the
    class (set ``.script``; read ``.made[i].records``)."""
    monkeypatch.setattr(engine, "FaultInjector", ScriptedInjector)
    ScriptedInjector.script = {}
    ScriptedInjector.made = []
    yield ScriptedInjector
    ScriptedInjector.script = {}
    ScriptedInjector.made = []


def _records(injector: FaultInjector) -> "list[str]":
    """Fault records as text (a flipped exponent can read NaN ≠ NaN)."""
    return [repr(rec) for rec in injector.records]


def _sizes(method: str) -> "dict[str, int]":
    n = A.nrows
    vectors = {
        "cg": ("x", "r", "p", "q"),
        "bicgstab": ("x", "r", "r_hat", "p", "v", "s"),
        "pcg": ("x", "r", "p", "q", "z"),
    }[method]
    return {"val": A.nnz, "colid": A.nnz, "rowidx": n + 1, **{v: n for v in vectors}}


# ----------------------------------------------------------------------
# the independent strike-free trajectory and the claim checker
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _oracle_trajectory(method: str, backend: str) -> "dict[int, dict[str, bytes]]":
    """``T[k]`` as bytes per vector, from a memo-free α = 0 run
    observed after every iteration (plus a fresh plugin's initial
    state for ``T[0]``)."""
    states: "dict[int, dict[str, bytes]]" = {}

    def grab(plugin) -> None:
        states[plugin.iteration] = {k: v.tobytes() for k, v in plugin.vectors.items()}

    cfg = _config("abft-detection", 10**6, 1)
    p0 = make_plugin(method)
    ws = SolveWorkspace()
    p0.init_state(A, ws.acquire_live(A), B, None, cfg, ws, backend=resolve_backend(backend))
    grab(p0)
    with np.errstate(all="ignore"):
        run_ft_method(
            method, A, B, cfg, alpha=0.0, eps=1e-13, maxiter=150, backend=backend,
            tracer=CallbackTracer(on_iteration=lambda ctx: grab(ctx.plugin)),
        )
    return states


@pytest.fixture
def clean_claims(monkeypatch):
    """Assert mode: every ``clean`` claim of the engine is compared
    bytewise with the independent trajectory.  Returns the claim log."""
    claims: "list[tuple[str, int]]" = []

    def check(ctx, vectors) -> None:
        be = "reference" if ctx.backend is None else ctx.backend.name
        want = _oracle_trajectory(ctx.plugin.name, be)[ctx.plugin.iteration]
        for name, vec in vectors.items():
            assert vec.tobytes() == want[name], (
                f"false clean claim: {ctx.plugin.name}/{be} k={ctx.plugin.iteration} {name}"
            )
        for name in ("val", "colid", "rowidx"):
            assert getattr(ctx.live, name).tobytes() == getattr(A, name).tobytes(), name
        claims.append((ctx.plugin.name, ctx.plugin.iteration))

    monkeypatch.setattr(engine, "_clean_claim_hook", check)
    return claims


# ----------------------------------------------------------------------
# running one solve on the memo path and on the oracle path
# ----------------------------------------------------------------------
def _solve(method, scheme, backend, *, alpha, s, d, eps, seed, workspace, tracer=None):
    log = InMemoryTracer()
    with np.errstate(all="ignore"):
        res = run_ft_method(
            method, A, B, _config(scheme, s, d), alpha=alpha, eps=eps, rng=seed,
            maxiter=MAXITER, workspace=workspace, backend=backend,
            tracer=log if tracer is None else MultiTracer([tracer, log]),
        )
    # The recovery timeline must match the oracle's; the rest of the
    # stream names the path the solve took.
    events = [ev for ev in log.events if ev["kind"] in REPORT_EVENT_KINDS]
    return res, events


def _oracle_solve(method, scheme, backend, **kw):
    return _solve(method, scheme, backend, workspace=None, **kw)


def _assert_same_solve(got, want) -> None:
    (res, events), (ref, ref_events) = got, want
    for f in ("converged", "iterations", "iterations_executed", "time_units",
              "residual_norm", "threshold"):
        assert getattr(res, f) == getattr(ref, f), f
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.counters == ref.counters
    assert res.breakdown == ref.breakdown
    assert events == ref_events


#: One workspace per backend for the whole module: the memo stays warm
#: across hypothesis examples and is re-keyed as they switch methods.
_WARM = {be: SolveWorkspace() for be in BACKENDS}


@st.composite
def strike_scripts(draw, method: str):
    """Up to three scripted strike events: any target kind, optionally
    doubled (same vector, two words — defeats TMR) and optionally
    followed by a strike on the very next draw (the iteration right
    after whatever recovery the first one caused)."""
    sizes = _sizes(method)
    script: "dict[int, list]" = {}
    for _ in range(draw(st.integers(0, 3))):
        when = draw(st.integers(1, 45))
        target = draw(st.sampled_from(sorted(sizes)))
        pos = draw(st.integers(0, sizes[target] - 1))
        bit = draw(st.integers(0, 63))
        hits = [(target, pos, bit)]
        if draw(st.booleans()):
            hits.append((target, (pos + 1 + draw(st.integers(0, 7))) % sizes[target],
                         draw(st.integers(0, 63))))
        script.setdefault(when, []).extend(hits)
        if draw(st.booleans()):
            t2 = draw(st.sampled_from(sorted(sizes)))
            script.setdefault(when + 1, []).append(
                (t2, draw(st.integers(0, sizes[t2] - 1)), draw(st.integers(0, 63)))
            )
    return script


@st.composite
def solves(draw):
    method, scheme = draw(st.sampled_from(GRID))
    return dict(
        method=method,
        scheme=scheme,
        backend=draw(st.sampled_from(BACKENDS)),
        alpha=draw(st.sampled_from([0.0, 1 / 64, 1 / 16, 0.3])),
        s=draw(st.integers(1, 9)),
        d=draw(st.integers(1, 6)),
        eps=draw(st.sampled_from([1e-4, 1e-6, 1e-8])),
        seed=draw(st.integers(0, 2**20)),
        script=draw(strike_scripts(method)),
    )


# Budget: tier-1 runs the profile tests/conftest.py loads by default;
# CI's chaos-smoke job re-runs this test under ``--hypothesis-profile
# soak`` (no max_examples here on purpose — the profile owns it).  The
# fixtures are installed once and reset by hand at the top of each example.
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=solves())
def test_generative_clean_claims_hold_and_memo_equals_oracle(case, scripted, clean_claims):
    """Soundness + equality in one pass: the warm-memo solve makes only
    true ``clean`` claims and returns what the oracle returns, fault
    records included."""
    script = case.pop("script")
    backend = case["backend"]
    # α = 0 builds no injector; scripted strikes need one.
    if script and case["alpha"] == 0.0:
        case["alpha"] = 1 / 64
    scripted.script = script
    scripted.made.clear()
    del clean_claims[:]
    got = _solve(workspace=_WARM[backend], **case)
    want = _oracle_solve(**case)
    _assert_same_solve(got, want)
    if scripted.made:
        mine, oracle = scripted.made
        assert _records(mine) == _records(oracle)
    # not vacuous: a solve bound to a memo claims at least its solution
    # or its first real step, unless it left the trajectory at once
    assert clean_claims or got[0].counters.faults_injected > 0


# ----------------------------------------------------------------------
# (1b) directed: every target kind, doubles, strike right after a rollback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method,scheme", GRID, ids=[f"{m}-{s}" for m, s in GRID])
def test_directed_strikes_on_every_target_kind(method, scheme, backend, scripted, clean_claims):
    ws = SolveWorkspace()
    kw = dict(method=method, scheme=scheme, backend=backend, alpha=1 / 64, s=3, d=3,
              eps=1e-6, seed=11)
    _solve(workspace=ws, **{**kw, "alpha": 0.0})  # warm the memo
    sizes = _sizes(method)
    for i, target in enumerate(sorted(sizes)):
        mid = sizes[target] // 2
        for script in (
            {9: [(target, mid, 40)]},  # one strike
            {9: [(target, mid, 40), (target, mid + 1, 52)]},  # double, one vector
            {9: [(target, mid, 62)], 10: [(target, mid - 1, 33)]},  # … and right after
        ):
            scripted.script = script
            scripted.made.clear()
            got = _solve(workspace=ws, **{**kw, "seed": 11 + i})
            want = _oracle_solve(**{**kw, "seed": 11 + i})
            _assert_same_solve(got, want)
            assert _records(scripted.made[0]) == _records(scripted.made[1])
            assert len(scripted.made[0].records) >= len(script[9])
    assert clean_claims


# ----------------------------------------------------------------------
# (2) memo ≡ oracle through repeat_run; one memo serves a second task
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["cg", "bicgstab", "pcg"])
def test_repeat_run_warm_memo_equals_oracle_and_is_reused(method, backend):
    ws = SolveWorkspace()
    schemes = [s for m, s in GRID if m == method]
    first = dict(alpha=1 / 16, reps=5, base_seed=4, eps=1e-6, method=method,
                 backend=backend, maxiter=MAXITER)
    second = dict(alpha=1 / 32, reps=5, base_seed=9, eps=1e-4, method=method,
                  backend=backend, maxiter=MAXITER, labels=("second",))
    builds0 = METRICS.count("workspace.trajectory_builds")
    for cfg, kw in ((_config(schemes[0], 2, 2), first), (_config(schemes[-1], 7, 5), second)):
        got, want = {}, {}
        with np.errstate(all="ignore"):
            stats = repeat_run(A, B, cfg, workspace=ws, per_rep=got, **kw)
            ref = repeat_run(A, B, cfg, reuse_workspace=False, per_rep=want, **kw)
        assert stats == ref
        assert set(got) == set(PER_REP_KEYS) and got == want
    # a different eps, s, d and scheme: still the one trajectory
    assert METRICS.count("workspace.trajectory_builds") == builds0 + 1


def test_memo_key_compares_b_by_value_and_skips_x0():
    ws = SolveWorkspace()
    cfg = _config("abft-detection", 4, 1)
    builds0 = METRICS.count("workspace.trajectory_builds")
    run_ft_method("cg", A, B, cfg, eps=1e-6, workspace=ws)
    run_ft_method("cg", A, B.copy(), cfg, eps=1e-6, workspace=ws)  # fresh equal b: hit
    assert METRICS.count("workspace.trajectory_builds") == builds0 + 1
    other = run_ft_method("cg", A, 2.0 * B, cfg, eps=1e-6, workspace=ws)  # new b: rebuilt
    assert METRICS.count("workspace.trajectory_builds") == builds0 + 2
    assert other.x.tobytes() == run_ft_method("cg", A, 2.0 * B, cfg, eps=1e-6).x.tobytes()
    v0 = METRICS.count("engine.iterations_virtual")
    warm = run_ft_method("cg", A, 2.0 * B, cfg, eps=1e-6, workspace=ws, x0=other.x)
    assert METRICS.count("engine.iterations_virtual") == v0  # x0 given: no memo
    fresh = run_ft_method("cg", A, 2.0 * B, cfg, eps=1e-6, x0=other.x)
    assert warm.x.tobytes() == fresh.x.tobytes() and warm.iterations == fresh.iterations
    ws.release()
    run_ft_method("cg", A, 2.0 * B, cfg, eps=1e-6, workspace=ws)
    assert METRICS.count("workspace.trajectory_builds") == builds0 + 3  # dropped by release()


# ----------------------------------------------------------------------
# (3) exact work counters, no timing
# ----------------------------------------------------------------------
@pytest.fixture
def work(monkeypatch):
    """Counts of what actually ran: SpMxVs issued by engine, plugins and
    Chen's tests, protected products, and real plugin steps."""
    from repro.core import stability
    from repro.resilience import bicgstab, cg, pcg

    counts = {"spmv": 0, "protected": 0, "steps": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for mod in (engine, cg, pcg, bicgstab, stability):
        monkeypatch.setattr(mod, "spmv_kernel", counting("spmv", mod.spmv_kernel))
    monkeypatch.setattr(engine, "verified_spmv", counting("protected", engine.verified_spmv))
    for cls in (cg.CGPlugin, pcg.JacobiPCGPlugin, bicgstab.BiCGstabPlugin):
        monkeypatch.setattr(cls, "step", counting("steps", cls.step))
    return counts


@pytest.mark.parametrize("method,scheme", GRID, ids=[f"{m}-{s}" for m, s in GRID])
def test_strike_free_repetition_executes_nothing(method, scheme, work):
    ws = SolveWorkspace()
    kw = dict(method=method, scheme=scheme, backend="reference", alpha=0.0, s=3, d=4,
              eps=1e-6, seed=0)
    first, _ = _solve(workspace=ws, **kw)
    assert work["steps"] == first.iterations_executed  # cold: every step is real
    for key in work:
        work[key] = 0
    v0 = METRICS.count("engine.iterations_virtual")
    again, _ = _solve(workspace=ws, **kw)
    assert again.x.tobytes() == first.x.tobytes() and again.time_units == first.time_units
    # Not even the initial residual: the solve starts on the memo's origin.
    assert work == {"spmv": 0, "protected": 0, "steps": 0}
    assert METRICS.count("engine.iterations_virtual") - v0 == again.iterations_executed


@pytest.mark.parametrize("method", ["cg", "bicgstab", "pcg"])
def test_smoke_campaign_virtual_plus_real_is_executed(method, work):
    from repro import Study
    from repro.perf import default_workspace

    mtbf = [16.0, 64.0, 256.0, 1e4] if method == "cg" else [16.0, 32.0, 64.0, 128.0, 256.0, 1e4]
    study = Study.figure1(scale=128, reps=2, uids=[2213], methods=[method], mtbf_values=mtbf)
    assert len(study.tasks()) == 12
    default_workspace().release()  # a cold memo: every step counted below
    names = ("engine.iterations_executed", "engine.iterations_virtual",
             "engine.iterations_replayed")
    before = [METRICS.count(n) for n in names]
    with np.errstate(all="ignore"):
        study.run(jobs=1)
    executed, virtual, replayed = (METRICS.count(n) - b for n, b in zip(names, before))
    assert virtual + work["steps"] == executed
    assert 0 < virtual < executed and replayed < work["steps"]


@pytest.mark.parametrize("nvec", [4, 5, 6], ids=["cg", "pcg", "bicgstab"])
def test_memo_bytes_stay_under_budget_at_paper_scale(nvec):
    n = 19881
    memo = TrajectoryMemo("cg", None, np.zeros(n))
    vectors = {f"v{i}": np.full(n, float(i)) for i in range(nvec)}
    for k in range(400):
        memo.record(k, {"k": k}, vectors)
        assert memo.nbytes <= BUDGET_BYTES
        if k % 97 == 0:
            memo.pin_terminal(k, vectors["v0"])
            assert memo.nbytes <= BUDGET_BYTES and memo.terminal_x(k) is not None
    held = sum(v.nbytes for snap in memo.snapshots.values() for v in snap.values())
    assert memo.nbytes == held + n * 8
    if nvec * n * 8 + n * 8 <= BUDGET_BYTES:
        assert len(memo.snapshots) == 1  # one CG/PCG state fits beside the pin
    assert all(k % memo.stride == 0 for k in memo.snapshots)
    assert len(memo.steps) == 400 and memo.next_scalars(398) == {"k": 399}
    assert memo.next_scalars(399) is None


# ----------------------------------------------------------------------
# (4) iteration observers see real vectors; event sinks keep the memo
# ----------------------------------------------------------------------
def test_history_and_observer_see_the_same_residuals_with_a_warm_memo():
    from repro import FaultSpec, solve

    ws = SolveWorkspace()
    kw = dict(method="cg", scheme="abft-detection", faults=FaultSpec(1 / 16, seed=5), eps=1e-6)
    solve(A, B, reuse_workspace=ws, **kw)  # warm
    fresh = solve(A, B, record_history=True, **kw)
    warm = solve(A, B, record_history=True, reuse_workspace=ws, **kw)
    assert warm.history == fresh.history and len(warm.history) == warm.iterations_executed
    assert warm.solution_sha256 == fresh.solution_sha256

    def norms(**run):
        seen = []
        observer = CallbackTracer(
            on_iteration=lambda ctx: seen.append(float(np.linalg.norm(ctx.plugin.vectors["r"])))
        )
        with np.errstate(all="ignore"):
            run_ft_method(
                "cg", A, B, _config("abft-detection", 3, 1), alpha=1 / 16, rng=5, eps=1e-6,
                tracer=observer, **run,
            )
        return seen

    assert norms(workspace=ws) == norms()


def test_event_sinks_keep_the_memo_and_see_the_identical_stream():
    def stream(**run):
        t = InMemoryTracer()
        _solve("cg", "online-detection", "reference", alpha=1 / 16, s=2, d=3, eps=1e-6,
               seed=8, tracer=t, **run)
        skip = {"workspace-acquire"}  # live copy vs restore: the workspace's history
        return [
            {k: v for k, v in ev.items() if k != "cache"}
            for ev in t.events if ev["kind"] not in skip
        ]

    ws = SolveWorkspace()
    stream(workspace=ws)  # warm
    v0 = METRICS.count("engine.iterations_virtual")
    warm = stream(workspace=ws)
    assert METRICS.count("engine.iterations_virtual") > v0  # the sink did not switch it off
    assert warm == stream(workspace=None)


# ----------------------------------------------------------------------
# (5) pitfall (a): kernel routing is part of a non-reference trajectory
# ----------------------------------------------------------------------
@pytest.mark.skipif("scipy" not in BACKENDS, reason="scipy backend unavailable")
def test_rolled_back_index_strike_leaves_the_scipy_trajectory(scripted, clean_claims):
    """scipy backend, ABFT-DETECTION: a ``colid`` strike is detected and
    rolled back (empty deltas: the stamp is re-armed, the solve stays
    clean); the next checkpoint's captured deltas name the struck word
    — pristine value, but the taint set is a superset — so the rollback
    of a *second* index strike leaves the live stamp dirty and every
    later product runs the reference kernel.  The engine must stop
    claiming ``clean`` there (the checker would catch a false claim:
    different floats), and the records still equal a private
    workspace's."""
    ws = SolveWorkspace()
    kw = dict(method="cg", scheme="abft-detection", backend="scipy", alpha=1 / 64, s=2, d=1,
              eps=1e-6, seed=3)
    _solve(workspace=ws, **{**kw, "alpha": 0.0})  # warm
    scripted.script = {
        7: [("colid", A.nnz // 2, 3)],  # detected → rollback to the cp at k=6
        15: [("colid", A.nnz // 3, 2)],  # after the next checkpoints → back to k=12
    }
    del clean_claims[:]
    v0 = METRICS.count("engine.iterations_virtual")
    got = _solve(workspace=ws, **kw)
    virtual = METRICS.count("engine.iterations_virtual") - v0
    want = _oracle_solve(**kw)
    _assert_same_solve(got, want)
    assert _records(scripted.made[0]) == _records(scripted.made[1])
    assert got[0].counters.rollbacks >= 2
    # 6 + 7 virtual steps up to the second strike, real ever after: the
    # last claim is the materialisation that strike forced, at k=13
    assert virtual == 13 and [k for _, k in clean_claims] == [6, 13]
    assert not ws._live.structure_clean
