"""Cold-start budgets: what each CLI command is allowed to import.

Every check runs the command in a fresh interpreter and looks at
``sys.modules`` after ``main()`` returns, so the numbers are exact and
repeatable (no timing).  A dry run and a resume that finds nothing
pending compile from closed-form matrix size facts and load neither
NumPy nor the solve stack; with NumPy refused they print the same
bytes.  The second half blocks SciPy
(``sys.modules["scipy"] = None``) and checks that the default campaign
path does not notice, and that everything which *does* need SciPy says
so in one line instead of silently degrading.  A ``scipy``-backend
campaign loads SciPy's compiled kernel module alone: neither
``scipy.sparse`` nor ``numpy.ma`` (the x-repair's old ``np.unique``).
"""

import json

import pytest

_DRIVER = """
import contextlib, io, json, sys
{prelude}
from repro.api.cli import main
out, err, codes = io.StringIO(), io.StringIO(), []
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    for argv in {commands!r}:
        codes.append(main(argv))
json.dump({{"codes": codes, "stdout": out.getvalue(), "stderr": err.getvalue(),
           "modules": sorted(sys.modules), "probe": globals().get("probe", dict)()}},
          sys.stdout)
"""

BLOCK_SCIPY = 'sys.modules["scipy"] = None'

#: A meta-path finder that refuses NumPy (and so everything built on it).
BLOCK_NUMPY = """
class _RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")
sys.meta_path.insert(0, _RefuseNumpy())
"""

#: What a dry run or a settled resume must not load.
SOLVE_STACK = ("numpy", "scipy", "repro.sim.engine", "repro.sparse", "repro.resilience")

#: Counts the in-process solves' ABFT repairs by kind; ``probe()`` (a
#: prelude's hook, dumped after the commands) reports them and whether
#: the ``scipy`` backend bound a kernel.
COUNT_REPAIRS = """
import collections
from repro.resilience.accounting import RecoveryCounters
repairs = collections.Counter()
_record = RecoveryCounters.record_correction
def _count(self, kind):
    repairs[kind] += 1
    _record(self, kind)
RecoveryCounters.record_correction = _count
def probe():
    from repro.sparse import _scipy
    return {"repairs": dict(repairs), "bound": _scipy._csr_matvec is not None}
"""

#: ``table1`` smoke campaign: one matrix, 19 one-rep tasks.
SMOKE = ["table1", "--scale", "128", "--reps", "1", "--uids", "1312", "--s-span", "1",
         "--jobs", "1", "--progress", "none"]


@pytest.fixture
def run_cli(cold_python, tmp_path):
    """Run CLI commands back to back in one fresh interpreter."""

    def run(*commands, prelude=""):
        done = cold_python(
            _DRIVER.format(prelude=prelude, commands=[list(c) for c in commands]),
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    return run


def loaded(result, *prefixes):
    """Loaded modules that are, or live under, one of ``prefixes``."""
    return [
        m for m in result["modules"]
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


@pytest.fixture
def settled_store(run_cli, tmp_path):
    """A finished smoke campaign in ``tmp_path / "store.jsonl"``."""
    res = run_cli(SMOKE + ["--store", "store.jsonl"])
    assert res["codes"] == [0]
    return tmp_path / "store.jsonl"


def test_import_repro_loads_only_the_lazy_helper(cold_python):
    done = cold_python("import json, sys, repro; json.dump(sorted(sys.modules), sys.stdout)")
    assert done.returncode == 0, done.stderr
    res = {"modules": json.loads(done.stdout)}
    assert loaded(res, "repro") == ["repro", "repro._lazy"]
    assert loaded(res, "scipy", "numpy.testing", "numpy.f2py") == []


@pytest.mark.parametrize("command, budget", [(["report"], 11), (["store", "info"], 7)])
def test_store_readers_load_no_solver_stack(run_cli, settled_store, command, budget):
    """Reading a JSONL store stays inside the store layer (plus the
    report fold): no campaign package, no solver stack, no sqlite3 and
    — the store base class included — no NumPy."""
    res = run_cli(command + ["store.jsonl"])
    assert res["codes"] == [0]
    assert loaded(
        res, "scipy", "repro.resilience", "repro.abft", "repro.faults", "repro.backends",
        "repro.chaos", "repro.campaign", "sqlite3", "numpy",
    ) == []
    assert len(loaded(res, "repro")) <= budget


def _save_studies(root):
    """The three dry-run specs: a table1 sweep, a figure1 grid at the
    paper's scale, and an adaptive ``scipy``-backend study."""
    from repro import Study

    specs = {
        "table1": Study.table1(scale=128, reps=1, uids=[1312], s_span=1),
        "figure1-scale1": Study.figure1(scale=1, reps=1, uids=[2213, 341],
                                        mtbf_values=[4.0, 16.0]),
        "adaptive-scipy": Study.figure1(scale=64, reps=1, uids=[1312], mtbf_values=[16.0],
                                        backend="scipy",
                                        sampling="ci=0.25,conf=0.9,min=2,max=4"),
    }
    for name, study in specs.items():
        study.save(root / f"{name}.json")
    return sorted(specs)


def test_dry_run_loads_no_engine_no_fleet(run_cli, tmp_path):
    """Compiling reads each matrix's size facts in closed form, so no
    spec needs NumPy, the rep loop or ``repro.sparse`` to list its
    tasks, and a process that refuses NumPy prints the same listing."""
    names = _save_studies(tmp_path)
    commands = [["study", "run", f"{n}.json", "--dry-run"] for n in names]
    free = run_cli(*commands)
    assert free["codes"] == [0, 0, 0]
    assert "study 'table1': 19 tasks" in free["stdout"] and "backend=scipy" in free["stdout"]
    assert loaded(free, *SOLVE_STACK, "repro.campaign.serve", "repro.chaos") == []
    blocked = run_cli(*commands, prelude=BLOCK_NUMPY)
    assert blocked["codes"] == [0, 0, 0]
    assert blocked["stdout"] == free["stdout"]


def test_dry_run_of_a_scipy_backend_study_never_imports_scipy(run_cli, tmp_path):
    """Naming the backend validates it (SciPy must be *installed*) but
    binds nothing: the kernel loads in the process that runs a product."""
    pytest.importorskip("scipy")
    from repro import Study

    Study.figure1(scale=128, reps=1, uids=[1312], mtbf_values=[16.0],
                  backend="scipy").save(tmp_path / "spec.json")
    res = run_cli(["study", "run", "spec.json", "--dry-run"])
    assert res["codes"] == [0] and "backend=scipy" in res["stdout"]
    assert loaded(res, "scipy", "numpy.testing", "numpy.f2py") == []


def test_resume_on_a_settled_store_loads_no_engine(run_cli, settled_store):
    free = run_cli(SMOKE + ["--store", "store.jsonl", "--resume"], ["report", "store.jsonl"])
    assert free["codes"] == [0, 0]
    assert loaded(free, *SOLVE_STACK, "repro.abft", "repro.faults") == []
    blocked = run_cli(SMOKE + ["--store", "store.jsonl", "--resume"], ["report", "store.jsonl"],
                      prelude=BLOCK_NUMPY)
    assert blocked["codes"] == [0, 0]
    assert blocked["stdout"] == free["stdout"]


def test_fleet_dispatcher_loads_the_rep_loop_before_forking(run_cli):
    """Compiling no longer loads NumPy, so the ``--jobs`` dispatcher
    imports the rep loop and the matrix generator itself, once, for its
    forked workers to inherit (it runs no task, so nothing else would)."""
    jobs = SMOKE[: SMOKE.index("--jobs")] + ["--jobs", "2", "--progress", "none"]
    res = run_cli(jobs)
    assert res["codes"] == [0]
    assert {"numpy", "repro.sim.engine", "repro.sparse.generators"} <= set(res["modules"])
    assert loaded(res, "repro.resilience") == []


def test_reference_campaign_never_imports_scipy(run_cli):
    """…and prints the same table and report with SciPy unimportable."""
    free = run_cli(SMOKE + ["--store", "free.jsonl"], ["report", "free.jsonl"])
    assert free["codes"] == [0, 0]
    assert "scipy" not in free["modules"]
    blocked = run_cli(
        SMOKE + ["--store", "blocked.jsonl"], ["report", "blocked.jsonl"],
        prelude=BLOCK_SCIPY,
    )
    assert blocked["codes"] == [0, 0]
    assert loaded(blocked, "scipy") == ["scipy"]  # the None blocker itself
    assert blocked["stdout"].replace("blocked.jsonl", "free.jsonl") == free["stdout"]


def test_scipy_backend_without_scipy_is_a_usage_error(run_cli):
    """No silent degraded mode: exit 2 with the install hint."""
    res = run_cli(SMOKE + ["--backend", "scipy"], prelude=BLOCK_SCIPY)
    assert res["codes"] == [2]
    assert "backend 'scipy' requires the scipy package" in res["stderr"]
    assert "pip install scipy" in res["stderr"]


def test_scipy_dependent_helpers_name_the_missing_package(cold_python, tmp_path):
    code = f"""
import sys
{BLOCK_SCIPY}
from repro.backends import get_backend
from repro.sparse import laplacian_2d, load_matrix_market, random_spd, stencil_spd
try:
    get_backend("scipy")
except ValueError as exc:
    print("backend:", exc)
for call in (lambda: laplacian_2d(4), lambda: random_spd(10, 0.5),
             lambda: load_matrix_market("missing.mtx")):
    try:
        call()
    except ImportError as exc:
        assert "\\n" not in str(exc)
        print("helper:", exc)
print("stencil:", stencil_spd(16).shape)
"""
    done = cold_python(code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("backend: backend 'scipy' requires the scipy package")
    assert [ln.split(" needs ")[0] for ln in lines[1:4]] == [
        "helper: laplacian_2d", "helper: random_spd", "helper: Matrix-Market input",
    ]
    assert all("needs the scipy package" in ln and "pip install scipy" in ln
               for ln in lines[1:4])
    assert lines[4] == "stencil: (16, 16)"


def test_solve_a_mtx_workload_without_scipy_is_a_usage_error(run_cli, tmp_path):
    (tmp_path / "a.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
    )
    res = run_cli(["solve", "--matrix", "a.mtx"], prelude=BLOCK_SCIPY)
    assert res["codes"] == [2]
    assert "Matrix-Market input needs the scipy package" in res["stderr"]


def test_scipy_campaign_loads_the_kernel_extension_only(run_cli):
    """The first product binds ``csr_matvec`` from its extension module
    file: no SciPy package, and no ``numpy.ma`` from the x-repair —
    with the same output as a process that imported ``scipy.sparse``
    first, whose entries the backend then leaves alone."""
    pytest.importorskip("scipy")
    cold = run_cli(SMOKE + ["--backend", "scipy"], prelude=COUNT_REPAIRS)
    assert cold["codes"] == [0]
    assert cold["probe"]["bound"] and cold["probe"]["repairs"].get("x", 0) >= 1
    assert loaded(cold, "scipy", "numpy.ma") == []

    preloaded = run_cli(SMOKE + ["--backend", "scipy"], prelude=COUNT_REPAIRS + """
import scipy.sparse
kernels = sys.modules["scipy.sparse._sparsetools"]
_probe = probe
def probe():
    from repro.sparse import _scipy
    return {**_probe(),
            "untouched": sys.modules["scipy.sparse._sparsetools"] is kernels
                         and scipy.sparse._sparsetools is kernels,
            "same_kernel": _scipy._csr_matvec is kernels.csr_matvec}
""")
    assert preloaded["codes"] == [0]
    assert preloaded["probe"]["untouched"] and preloaded["probe"]["same_kernel"]
    assert preloaded["probe"]["repairs"] == cold["probe"]["repairs"]
    assert preloaded["stdout"] == cold["stdout"]


def test_scipy_sparse_imports_normally_after_the_kernel_is_bound(cold_python):
    pytest.importorskip("scipy")
    code = """
import sys
import numpy as np
from repro.backends import get_backend
from repro.sparse import stencil_spd
be = get_backend("scipy")
a = stencil_spd(16)
a.assume_clean_structure()
x = np.random.default_rng(3).standard_normal(a.ncols)
y = be.spmv(a, x)
left = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not left, left
import scipy.sparse
from repro.sparse import _scipy
assert scipy.sparse._sparsetools.csr_matvec is _scipy._csr_matvec
m = scipy.sparse.csr_matrix((a.val, a.colid, a.rowidx), shape=a.shape)
assert np.array_equal(m @ x, y)
print("ok")
"""
    done = cold_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("prelude", [
    # No file matches: every extension suffix is gone.
    "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES.clear()",
    # The file is there but will not load.
    """
import importlib.util
_module_from_spec = importlib.util.module_from_spec
def _refuse(spec):
    if spec.name == "scipy.sparse._sparsetools":
        raise ImportError("refused")
    return _module_from_spec(spec)
importlib.util.module_from_spec = _refuse
""",
], ids=["no-file", "load-error"])
def test_kernel_falls_back_to_the_package_import(run_cli, prelude):
    pytest.importorskip("scipy")
    cold = run_cli(SMOKE + ["--backend", "scipy"])
    fallback = run_cli(SMOKE + ["--backend", "scipy"], prelude=prelude)
    assert fallback["codes"] == [0]
    assert "scipy.sparse" in fallback["modules"]
    assert fallback["stdout"] == cold["stdout"]
