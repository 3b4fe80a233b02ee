"""Regenerate the adaptive prefix-sharing golden fixture.

Pins the exact per-rep trajectories (hex-encoded times, iteration and
fault counts, SHA-256 of the full per-rep payload) of one adaptive
``repeat_run(..., policy=...)`` cell.  ``tests/test_adaptive_prefix.py`` asserts
the sequential-sampling engine reproduces it bit for bit — any drift in
seed derivation, stopping arithmetic or per-rep bookkeeping fails the
comparison exactly.

Run from the repo root::

    python tests/golden/capture_adaptive.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

OUT = pathlib.Path(__file__).resolve().parent / "adaptive_prefix.json"


def main() -> None:
    from test_adaptive_prefix import encode_cell

    OUT.write_text(json.dumps(encode_cell(), indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
