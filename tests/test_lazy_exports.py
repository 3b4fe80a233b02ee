"""The package ``__init__`` modules export lazily (PEP 562).

What must keep working exactly as when every ``__init__`` imported its
submodules eagerly: ``__all__`` resolves name by name, ``import *``,
``dir()``, identity with the defining module, attribute access to
never-imported subpackages, pickling across the campaign fork pool —
and the three names that are both a submodule and a function.
"""

import importlib
import pickle
import sys
import types

import pytest

import repro

LAZY_PACKAGES = [
    "repro",
    "repro.api",
    "repro.campaign",
    "repro.sim",
    "repro.store",
    "repro.obs",
    "repro.abft",
    "repro.faults",
    "repro.checkpoint",
    "repro.core",
    "repro.model",
    "repro.resilience",
    "repro.parallel",
    "repro.sparse",
    "repro.util",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, f"{package}.{name}"
        assert name in listed, f"dir({package}) misses {name}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import_binds_all_of_dunder_all():
    ns: dict = {}
    exec("from repro import *", ns)
    missing = [name for name in repro.__all__ if name not in ns]
    assert not missing
    assert ns["Study"] is repro.Study


def test_lazy_name_is_the_defining_modules_object():
    assert repro.Study is repro.api.study.Study
    assert repro.api.Study is repro.Study
    assert repro.CSRMatrix is repro.sparse.csr.CSRMatrix
    assert repro.store.ShardedStore is repro.store.sharded.ShardedStore
    # Resolved once, then a plain namespace entry (no __getattr__ hop).
    assert vars(repro)["Study"] is repro.Study


@pytest.mark.parametrize(
    "package, name",
    [("repro.sparse", "spmv"), ("repro.core", "cg"), ("repro.core", "pcg")],
)
def test_submodule_function_collisions_stay_functions(package, name, cold_python):
    """Importing ``pkg.name`` the *module* rebinds ``pkg.name``; these
    three are bound eagerly after that import, so whatever order
    modules load in, the package attribute is the function."""
    code = (
        f"import importlib, types\n"
        f"import {package}.{name}\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"from {package} import {name} as fn\n"
        f"assert isinstance(fn, types.FunctionType), fn\n"
        f"assert pkg.{name} is fn\n"
        f"import repro\n"
        f"assert repro.{name} is fn\n"
    )
    done = cold_python(code)
    assert done.returncode == 0, done.stderr
    pkg = importlib.import_module(package)
    assert isinstance(getattr(pkg, name), types.FunctionType)
    assert isinstance(sys.modules[f"{package}.{name}"], types.ModuleType)


def test_unimported_subpackages_are_reachable_as_attributes(cold_python):
    done = cold_python(
        "import repro; print(repro.model.daly.young_period.__name__, "
        "repro.backends.DEFAULT_BACKEND)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["young_period", "reference"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name
    with pytest.raises(ImportError):
        exec("from repro.sparse import no_such_name", {})
    assert not hasattr(repro.abft, "__wrapped__")


def test_lazily_exported_classes_cross_the_fork_pool():
    from repro.campaign import TaskSpec, run_campaign

    assert pickle.loads(pickle.dumps(repro.Study)) is repro.api.study.Study
    tasks = repro.Study.table1(scale=128, reps=1, uids=[1312], s_span=1).tasks()
    assert all(type(t) is TaskSpec for t in tasks)
    assert pickle.loads(pickle.dumps(tasks[0])) == tasks[0]
    serial = run_campaign(tasks, jobs=1)
    pooled = run_campaign(tasks, jobs=2)
    assert len(tasks) > 2 and pooled == serial
