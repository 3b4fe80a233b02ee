#!/usr/bin/env python
"""Documentation link-check and public-docstring smoke.

Stdlib-only (runs in any environment, no docs toolchain needed), used
by the CI ``docs`` job next to the mkdocs strict build:

1. **Relative links resolve.**  Every relative markdown link in
   README.md and docs/*.md must point at an existing file/directory
   (anchors are stripped; http(s)/mailto links are skipped), and so
   must every backticked ``benchmarks/…``, ``examples/…`` or
   ``tests/…`` path on those pages (:func:`stale_paths`).
2. **Source cross-references resolve.**  Every ``DESIGN.md`` mention
   in ``src/`` must have docs/DESIGN.md present, and every section
   cited as ``§N`` must exist in it (this is the regression that
   motivated the check: three modules cited a DESIGN.md that did not
   exist); every backticked repository path in ``src/`` must exist too.
3. **Public docstrings.**  Every object exported via ``__all__`` from
   the audited packages (repro.api, repro.backends, repro.chaos, repro.obs,
   repro.resilience, repro.store, and their submodules) must resolve
   (package ``__init__``s export lazily, so a stale name only fails on
   access) and carry a docstring, as must the modules themselves.
4. **Examples gallery.**  Every ``examples/*.py`` must be linked from
   README.md.
5. **Layering.**  No module under ``src/repro`` imports a module of a
   higher layer of :data:`LAYERS` (docs/DESIGN.md §1).  Every import
   counts — module-level, function-local and ``lazy_exports`` tables —
   except those under ``if TYPE_CHECKING:``; and DESIGN §1's layer
   table shows :data:`LAYERS` itself.  ``tests/test_layering.py`` runs
   the same functions in tier-1.

Exit code 0 = clean; 1 = problems (each printed on its own line).
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: DESIGN §1's layers, lowest first: a ``repro`` module may import its
#: own layer or any layer below it, never one above.  Entries name
#: packages under ``repro`` (``sim.matrices`` is the one module listed on
#: its own: substrate that ``repro.sim`` only re-exports); ``""`` is the
#: ``repro`` root package.
LAYERS: "tuple[tuple[str, ...], ...]" = (
    ("_lazy", "util", "obs", "adaptive"),
    ("sparse", "backends", "faults", "abft", "checkpoint", "core", "model", "sim.matrices"),
    ("resilience",),
    ("perf",),
    ("sim",),
    ("chaos",),
    ("store",),
    ("campaign",),
    ("api",),
    ("", "__main__"),
)

#: Packages whose public surface must be documented.
AUDITED_PACKAGES = (
    "repro.adaptive",
    "repro.api",
    "repro.backends",
    "repro.chaos",
    "repro.obs",
    "repro.resilience",
    "repro.store",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SECTION = re.compile(r"DESIGN\.md.{0,12}?§(\d+)", re.DOTALL)
#: A backticked repository path, up to a ``::`` test id, a ``:N`` line
#: number or a ``<placeholder>``.
_REPO_PATH = re.compile(r"`((?:benchmarks|examples|tests)/[\w./*-]*)")


def stale_paths(text: str) -> "list[str]":
    """Backticked ``benchmarks/``, ``examples/`` or ``tests/`` paths in
    ``text`` that name nothing in the tree (a ``*`` pattern must match)."""
    return sorted(
        ref
        for ref in set(_REPO_PATH.findall(text))
        if not (any(ROOT.glob(ref)) if "*" in ref else (ROOT / ref).exists())
    )


def check_markdown_links(problems: list[str]) -> None:
    pages = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for page in pages:
        text = page.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(ROOT)}: broken link -> {match.group(1)}"
                )
        for ref in stale_paths(text):
            problems.append(f"{page.relative_to(ROOT)}: names missing {ref}")


def check_design_references(problems: list[str]) -> None:
    design = ROOT / "docs" / "DESIGN.md"
    sections = set()
    if design.exists():
        sections = set(re.findall(r"^##\s+§(\d+)", design.read_text(encoding="utf-8"), re.M))
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for ref in stale_paths(text):
            problems.append(f"{path.relative_to(ROOT)}: names missing {ref}")
        if "DESIGN.md" not in text:
            continue
        if not design.exists():
            problems.append(f"{path.relative_to(ROOT)}: cites DESIGN.md but docs/DESIGN.md is missing")
            continue
        for cited in _SECTION.findall(text):
            if cited not in sections:
                problems.append(
                    f"{path.relative_to(ROOT)}: cites DESIGN.md §{cited}, "
                    f"which docs/DESIGN.md does not define"
                )


def check_public_docstrings(problems: list[str]) -> None:
    import importlib
    import pkgutil

    sys.path.insert(0, str(SRC))
    modules: list[str] = []
    for pkg_name in AUDITED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        modules.append(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            modules.append(info.name)
    for mod_name in modules:
        mod = importlib.import_module(mod_name)
        if not (mod.__doc__ or "").strip():
            problems.append(f"{mod_name}: missing module docstring")
        for name in getattr(mod, "__all__", ()):
            try:  # package __init__s export lazily: resolving is the check
                obj = getattr(mod, name)
            except (AttributeError, ImportError) as exc:
                problems.append(f"{mod_name}.{name}: in __all__ but does not resolve ({exc})")
                continue
            if obj is None or isinstance(obj, (int, float, str, tuple, list, dict)):
                continue  # constants document themselves in the module
            if not (getattr(obj, "__doc__", None) or "").strip():
                problems.append(f"{mod_name}.{name}: missing public docstring")


def check_examples_gallery(problems: list[str]) -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for example in sorted((ROOT / "examples").glob("*.py")):
        if example.name not in readme:
            problems.append(
                f"examples/{example.name}: not linked from the README examples gallery"
            )


def layer_of(module: str) -> "tuple[int, str]":
    """``(index, entry)`` of the :data:`LAYERS` entry owning ``module``
    (a dotted ``repro`` name); the longest matching entry wins."""
    rel = module[len("repro."):] if module.startswith("repro.") else ""
    owners = [
        (len(entry), index, entry)
        for index, entries in enumerate(LAYERS)
        for entry in entries
        if rel == entry or rel.startswith(entry + ".")
    ]
    if not owners:
        raise ValueError(f"{module} is in no layer of LAYERS")
    _, index, entry = max(owners)
    return index, entry


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_module(name: str) -> bool:
    base = SRC / name.replace(".", "/")
    return base.with_suffix(".py").exists() or (base / "__init__.py").exists()


def _imports(tree: ast.AST) -> "list[tuple[int, str]]":
    """``(lineno, module)`` for every ``repro`` import in ``tree``
    outside ``if TYPE_CHECKING:`` blocks, plus the module keys of
    ``lazy_exports`` tables."""
    found: "list[tuple[int, str]]" = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                found.append((node.lineno, sub if _is_module(sub) else node.module))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Dict)
        ):
            found.extend(
                (key.lineno, key.value)
                for key in node.args[1].keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return [(line, mod) for line, mod in found if mod == "repro" or mod.startswith("repro.")]


def check_layering(problems: list[str]) -> None:
    for path in sorted((SRC / "repro").rglob("*.py")):
        source = _module_name(path)
        src_layer, src_entry = layer_of(source)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, target in sorted(set(_imports(tree))):
            if source.startswith(target + "."):
                continue  # an ancestor package is loaded before the module anyway
            dst_layer, dst_entry = layer_of(target)
            if dst_layer > src_layer:
                problems.append(
                    f"{path.relative_to(ROOT)}:{lineno}: upward import "
                    f"{src_entry or 'repro'} -> {dst_entry or 'repro'} "
                    f"({source} imports {target}; docs/DESIGN.md §1)"
                )


def check_design_layers(problems: list[str]) -> None:
    """DESIGN §1's layer table shows :data:`LAYERS`, highest first."""
    text = (ROOT / "docs" / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## §1 ", 1)[-1].split("\n## §2 ", 1)[0]
    rows = re.findall(r"^\|\s*(\d+)\s*\|([^|]*)\|", section, re.M)
    shown = [(int(n), tuple(re.findall(r"`([^`]+)`", cell))) for n, cell in rows]
    want = [
        (index + 1, tuple(entry or "repro" for entry in LAYERS[index]))
        for index in reversed(range(len(LAYERS)))
    ]
    if shown != want:
        problems.append(
            "docs/DESIGN.md §1: the layer table must list check_docs.LAYERS, "
            f"highest first, as `|N| `entry` ... |` rows (found {shown})"
        )


def main() -> int:
    problems: list[str] = []
    check_markdown_links(problems)
    check_design_references(problems)
    check_public_docstrings(problems)
    check_examples_gallery(problems)
    check_layering(problems)
    check_design_layers(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print("docs check: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
