#!/usr/bin/env python
"""Documentation link-check and public-docstring smoke.

Stdlib-only (runs in any environment, no docs toolchain needed), used
by the CI ``docs`` job next to the mkdocs strict build:

1. **Relative links resolve.**  Every relative markdown link in
   README.md and docs/*.md must point at an existing file/directory
   (anchors are stripped; http(s)/mailto links are skipped).
2. **Source cross-references resolve.**  Every ``DESIGN.md`` mention
   in ``src/`` must have docs/DESIGN.md present, and every section
   cited as ``§N`` must exist in it (this is the regression that
   motivated the check: three modules cited a DESIGN.md that did not
   exist).
3. **Public docstrings.**  Every object exported via ``__all__`` from
   the audited packages (repro.api, repro.backends, repro.chaos, repro.obs,
   repro.resilience, repro.store, and their submodules) must resolve
   (package ``__init__``s export lazily, so a stale name only fails on
   access) and carry a docstring, as must the modules themselves.
4. **Examples gallery.**  Every ``examples/*.py`` must be linked from
   README.md.

Exit code 0 = clean; 1 = problems (each printed on its own line).
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def check_design_references(problems: list[str]) -> None:
    design = ROOT / "docs" / "DESIGN.md"
    sections = set()
    if design.exists():
        sections = set(re.findall(r"^##\s+§(\d+)", design.read_text(encoding="utf-8"), re.M))
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
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


def main() -> int:
    problems: list[str] = []
    check_markdown_links(problems)
    check_design_references(problems)
    check_public_docstrings(problems)
    check_examples_gallery(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print("docs check: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
