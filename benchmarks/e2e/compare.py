"""Compare two result files of ``run.py``: parent A against change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A *with its base*, and a verdict —

``worse``       B's median is worse than A's by more than the metric's bound
``better``      B's median is better by more than A's own spread
``same``        neither
``unresolved``  the run-to-run spread is wider than the bound and the
                two sets of runs overlap (or a side has fewer than four
                runs, so no spread): not a regression, not "unchanged"

(choosing-metrics guide, section 6).  Below the table: failed tasks per
attempted, and every exact count of the traced passes that differs.
Exit 1 on any ``worse`` row, any rise in the failed share, any exact
count that moved; 0 otherwise.
"""

from __future__ import annotations

import json
import sys

import ledger

#: Layer metrics that must repeat exactly between two runs on one seed.
EXACT = [m["name"] for m in ledger.PER_LAYER if "(exact)" in m["definition"]]


def verdict(a: "list[float]", b: "list[float]", *, better: str, bound: float) -> str:
    """Classify change ``b`` against parent ``a`` (values of one metric)."""
    sign = 1.0 if better == "lower" else -1.0  # >0 after scaling = worse
    med_a, med_b = ledger.quartiles(a)[1], ledger.quartiles(b)[1]
    worsening = sign * (med_b - med_a) / med_a
    if min(len(a), len(b)) < 4:  # quartiles of fewer runs say nothing
        return "worse" if worsening > bound else "unresolved"
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if max(ledger.spread(a), ledger.spread(b)) > bound and not (all_better or all_worse):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > ledger.spread(a):
        return "better"
    return "same"


def failed_share(result: dict) -> float:
    runs = result.get("timed", [])
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _cell(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['unit']}"


def compare(a: dict, b: dict) -> "tuple[list[str], bool]":
    """Rows of the comparison and whether B is acceptable."""
    lines = [f"{'workload':<14}{'metric':<17}{'A median [q1, q3]':>34}"
             f"{'B median [q1, q3]':>34}{'B/A':>8}  verdict"]
    ok = True
    for name in a["workloads"]:
        res_a, res_b = a["workloads"][name], b["workloads"].get(name)
        if res_b is None:
            continue
        for m in ledger.END_TO_END:
            sa, sb = (r.get("summary", {}).get(m["name"]) for r in (res_a, res_b))
            if not sa or not sb:
                continue
            v = verdict(sa["values"], sb["values"], better=m["better"], bound=m["bound"])
            ok &= v != "worse"

            lines.append(f"{name:<14}{m['name']:<17}{_cell(sa):>34}{_cell(sb):>34}"
                         f"{sb['median'] / sa['median']:>8.3f}  {v} "
                         f"(of {sa['median']:.4g} {sa['unit']}, bound {m['bound']:.0%})")
        fa, fb = failed_share(res_a), failed_share(res_b)
        lines.append(f"{name:<14}{'failed share':<17}{fa:>34.4g}{fb:>34.4g}"
                     f"{'':>8}  {'rose' if fb > fa else 'ok'}")
        ok &= fb <= fa
        ta, tb = res_a.get("traced"), res_b.get("traced")
        if ta and tb and ta["base_seed"] == tb["base_seed"]:
            moved = [f"{k}: {ta['metrics'][k]['value']} -> {tb['metrics'][k]['value']}"
                     for k in EXACT
                     if ta["metrics"][k]["value"] != tb["metrics"][k]["value"]]
            if ta["digest"] != tb["digest"]:
                moved.append(f"records_digest: {ta['digest'][:16]} -> {tb['digest'][:16]}")
            lines.append(f"{name:<14}exact counts: " + ("identical" if not moved
                                                          else "MOVED " + "; ".join(moved)))
            ok &= not moved
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, ok = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print("\nno regression" if ok else "\nREGRESSION")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
