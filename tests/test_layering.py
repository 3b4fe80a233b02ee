"""DESIGN §1's layering, checked: no module imports a higher layer.

The layer table and the import scan live in ``docs/check_docs.py`` (the
CI ``docs`` job runs the same check); this module runs it in tier-1.
"""

import ast
import functools
import importlib.util
import pathlib

import pytest

_CHECK_DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _CHECK_DOCS)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_no_module_imports_a_higher_layer():
    problems = []
    check_docs.check_layering(problems)
    assert problems == []


def test_design_section_1_shows_the_layer_table():
    problems = []
    check_docs.check_design_layers(problems)
    assert problems == []


def test_docs_and_sources_name_only_existing_files():
    problems = []
    check_docs.check_markdown_links(problems)
    check_docs.check_design_references(problems)
    assert problems == []


def test_stale_paths_names_only_missing_files():
    text = "``tests/conftest.py``, `tests/test_nope.py::test_x`, `tests/test_layer*.py`"
    assert check_docs.stale_paths(text) == ["tests/test_nope.py"]


def test_unresolved_roles_names_only_missing_targets():
    text = (
        ":mod:`repro.abft.spmv`, :class:`~repro.abft.SpmvChecksums`, "
        ":meth:`repro.obs.Tracer.iteration`, :func:`repro.backends\n"
        "    #: .get_backend`, :attr:`~repro.perf.SolveWorkspace.shared`, "
        ":class:`repro.abft.operator.ProtectedOperator`, :func:`repro.core.cgne`, "
        ":attr:`repro.perf.NoSuchClass.backend`, :mod:`repro.nowhere`, "
        ":class:`numpy.ndarray`"
    )
    assert check_docs.unresolved_roles(text) == [
        ":attr:`repro.perf.NoSuchClass.backend`",
        ":class:`repro.abft.operator.ProtectedOperator`",
        ":func:`repro.core.cgne`",
        ":mod:`repro.nowhere`",
    ]


#: Spellings of deleted library surfaces: the ``dense`` backend's (the
#: ``ProtectedOperator`` wrapper, k-error checksums, the disk checkpoint
#: store, BiCG / CGNE, rectangular ABFT blocks), ``repro serve`` and its
#: lease board, the plain unprotected solvers, and the kernel and store
#: plugin registries.  The pages and sources that describe the package
#: must not name them.
_RETIRED_SPELLINGS = [
    "ProtectedOperator", "UncorrectableError", "OperatorStats", "MultiChecksums",
    "DiskCheckpointStore", "DenseBackend", "BackendCapacityError", "column_weights",
    "repro.abft.operator", "repro.abft.multi", "repro.checkpoint.disk",
    "repro.backends.dense", "bicg(", "cgne(",
    "repro serve", "lease_ttl", "--lease-ttl", "LeaseUnsupported", "supports_leases",
    "try_claim", "serve_demo",
    "repro.cg", "repro.pcg", "jacobi_preconditioner", "repro.core.bicgstab",
    "register_backend", "KernelBackend", "BaseBackend", "ReferenceBackend", "ScipyBackend",
    "resolve_backend", "backend_available", "checksum_products", "register_store",
    "BackendUnavailableError",
    "detect_errors", "repro.abft.tmr", "tmr_dot", "tmr_norm2", "tmr_axpy", "majority_vote",
    "TMRError", "random_flip",
    "default_resume", "repro.store.protocol.append_many",
    "cached_checksums", "checksums_cached", "clear_checksum_cache", "mark_live_pristine",
    "ascii_panel",
]


@functools.lru_cache(maxsize=1)
def _described_text():
    root = check_docs.ROOT
    files = [
        root / "README.md", *sorted((root / "docs").glob("*.md")),
        *sorted(check_docs.SRC.rglob("*.py")), *sorted((root / "examples").glob("*.py")),
    ]
    return {str(f.relative_to(root)): f.read_text(encoding="utf-8") for f in files}


@pytest.mark.parametrize("spelling", _RETIRED_SPELLINGS)
def test_docs_and_sources_do_not_name_the_retired_library(spelling):
    assert [f for f, text in _described_text().items() if spelling in text] == []


@pytest.mark.parametrize(
    "ref, resolves",
    [
        (":mod:`repro.abft.spmv`", True),
        (":mod:`repro.abft.operator`", False),
        (":class:`~repro.abft.SpmvChecksums`", True),  # a lazy export
        (":class:`repro.abft.operator.ProtectedOperator`", False),
        (":func:`repro.backends.get_backend`", True),
        (":func:`repro.core.cgne`", False),
        (":exc:`repro.backends.BackendUnavailableError`", False),
        (":exc:`repro.backends.protocol.BackendCapacityError`", False),
        (":data:`repro.backends.DEFAULT_BACKEND`", True),
        (":data:`repro.backends.NO_SUCH_DEFAULT`", False),
        (":meth:`repro.obs.Tracer.iteration`", True),
        (":meth:`repro.obs.Tracer.no_such_hook`", False),
        (":attr:`repro.perf.SolveWorkspace.shared`", True),  # an instance attribute
        (":attr:`repro.perf.NoSuchClass.backend`", False),
    ],
)
def test_each_role_resolves_only_existing_targets(ref, resolves):
    assert check_docs.unresolved_roles(ref) == ([] if resolves else [ref])


@pytest.mark.parametrize(
    "module, entry",
    [
        ("repro", ""),
        ("repro.__main__", "__main__"),
        ("repro._lazy", "_lazy"),
        ("repro.sim.matrices", "sim.matrices"),
        ("repro.sim.engine", "sim"),
        ("repro.store.jsonl", "store"),
        ("repro.campaign.serve", "campaign"),
    ],
)
def test_longest_entry_owns_a_module(module, entry):
    assert check_docs.layer_of(module)[1] == entry


def test_scan_sees_local_and_lazy_imports_but_not_type_checking():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.api.study import Study\n"
        "def f():\n"
        "    from repro.campaign.executor import run_campaign\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {'repro.store.jsonl': ('x',)})\n"
    )
    assert check_docs._imports(tree) == [
        (5, "repro.campaign.executor"), (6, "repro.store.jsonl"),
    ]
