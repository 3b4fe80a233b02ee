"""Cold-start budgets: what each CLI command is allowed to import.

Every check runs the command in a fresh interpreter and looks at
``sys.modules`` after ``main()`` returns, so the numbers are exact and
repeatable (no timing).  The second half blocks SciPy
(``sys.modules["scipy"] = None``) and checks that the default campaign
path does not notice, and that everything which *does* need SciPy says
so in one line instead of silently degrading.
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
           "modules": sorted(sys.modules)}}, sys.stdout)
"""

BLOCK_SCIPY = 'sys.modules["scipy"] = None'

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
    report fold): no campaign package, no solver stack."""
    res = run_cli(command + ["store.jsonl"])
    assert res["codes"] == [0]
    assert loaded(
        res, "scipy", "repro.resilience", "repro.abft", "repro.faults", "repro.backends",
        "repro.chaos", "repro.campaign",
    ) == []
    assert len(loaded(res, "repro")) <= budget


def test_dry_run_loads_no_engine_no_fleet(run_cli, tmp_path):
    from repro import Study

    Study.table1(scale=128, reps=1, uids=[1312], s_span=1).save(tmp_path / "spec.json")
    res = run_cli(["study", "run", "spec.json", "--dry-run"])
    assert res["codes"] == [0] and "study 'table1': 19 tasks" in res["stdout"]
    assert loaded(
        res, "scipy", "repro.resilience", "repro.campaign.serve", "repro.chaos"
    ) == []


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
    res = run_cli(SMOKE + ["--store", "store.jsonl", "--resume"])
    assert res["codes"] == [0]
    assert loaded(res, "scipy", "repro.resilience", "repro.abft", "repro.faults") == []


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
from repro.backends import BackendUnavailableError, backend_available, get_backend
from repro.sparse import laplacian_2d, load_matrix_market, random_spd, stencil_spd
assert not backend_available("scipy")
try:
    get_backend("scipy")
except BackendUnavailableError as exc:
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
