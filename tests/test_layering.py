"""DESIGN §1's layering, checked: no module imports a higher layer.

The layer table and the import scan live in ``docs/check_docs.py`` (the
CI ``docs`` job runs the same check); this module runs it in tier-1.
"""

import ast
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
