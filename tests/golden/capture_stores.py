"""Write the store-compatibility fixtures under ``tests/golden/stores``.

One small campaign (:data:`SPEC`, saved beside the stores) is run
through ``run_campaign`` into a JSONL store, migrated record for record
into a sharded and a SQLite store, and reported::

    stores/spec.json      stores/parent.jsonl   stores/parent.d/
    stores/parent.db      stores/report.txt

The committed copies were written by commit d318f10 — the last one
before sealing became a single serialization and reading verified the
bytes read — by running this script against that checkout::

    PYTHONPATH=<d318f10 checkout>/src python tests/golden/capture_stores.py

``tests/test_record_path.py`` holds today's code to them in both
directions: it must read, resume, verify and report them identically,
and write the very same bytes for the same records.  Regenerating them
with newer code would turn that into a self-comparison — don't.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
if not any(pathlib.Path(p, "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(HERE.parents[1] / "src"))

OUT = HERE / "stores"

#: ``CampaignSpec`` keywords of the fixture campaign: 6 two-rep tasks.
SPEC = dict(kind="figure1", scale=128, reps=2, uids=[1312], mtbf_values=[16.0, 100.0])


def main() -> None:
    from repro.api.cli import main as cli
    from repro.campaign import CampaignSpec, run_campaign
    from repro.store import migrate_store

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    (OUT / "spec.json").write_text(json.dumps(SPEC) + "\n")
    jsonl = OUT / "parent.jsonl"
    tasks = CampaignSpec(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in SPEC.items()}).expand()
    run_campaign(tasks, jobs=1, store=jsonl)
    migrate_store(jsonl, f"sharded:{OUT / 'parent.d'}")
    migrate_store(jsonl, f"sqlite:{OUT / 'parent.db'}")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli(["report", str(jsonl)]) == 0
    (OUT / "report.txt").write_text(text.getvalue().replace(str(jsonl), "STORE"))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
