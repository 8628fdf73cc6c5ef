"""Compare two sets of benchmark results (``run.py --out`` records).

Each side is a result file (one record, or the list ``--workload all``
writes) or a directory of them.  For every workload the report gives,
per end-to-end metric, each side's median and quartiles over its
untraced records; per per-layer metric, each side's median over its
traced records and the change; and whether the outcome digests agree
at every seed both sides ran.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records: list[dict] = []
    for f in files:
        doc = json.loads(f.read_text())
        records.extend(doc if isinstance(doc, list) else [doc])
    return [r for r in records if "workload" in r]


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _change(before: float, after: float) -> str:
    if before == 0:
        return "n/a" if after == 0 else "new"
    return f"{100 * (after - before) / before:+.1f} %"


def _table(side: list[dict], workload: str, trace: int, key: str) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in side:
        if r["workload"] == workload and r["trace"] == trace:
            for name, (value, unit) in r.get(key, {}).items():
                values.setdefault(name, []).append(value)
                units[name] = unit
    return {name: (vals, units[name]) for name, vals in values.items()}


def compare(before_path: str, after_path: str) -> int:
    before, after = load(before_path), load(after_path)
    workloads = [w for w in dict.fromkeys(r["workload"] for r in before)
                 if any(r["workload"] == w for r in after)]
    if not workloads:
        print("no workload appears on both sides")
        return 1
    for side, records in (("before", before), ("after", after)):
        machines = {json.dumps(r["descriptor"], sort_keys=True)
                    for r in records if "descriptor" in r}
        for m in machines:
            print(f"{side}: {m}")
    for w in workloads:
        print(f"\n== {w}")
        b, a = (_table(before, w, 0, "metrics"), _table(after, w, 0, "metrics"))
        for name in b:
            if name not in a:
                continue
            (bv, unit), (av, _) = b[name], a[name]
            bm, bq1, bq3 = _spread(bv)
            am, aq1, aq3 = _spread(av)
            print(f"  {name:<16} {unit:<7} before {bm:.6g} [{bq1:.6g}, "
                  f"{bq3:.6g}] n={len(bv)}  after {am:.6g} [{aq1:.6g}, "
                  f"{aq3:.6g}] n={len(av)}  {_change(bm, am)}")
        b, a = (_table(before, w, 1, "layers"), _table(after, w, 1, "layers"))
        if b and a:
            print("  per-layer (median of traced records):")
        for name in b:
            if name not in a:
                continue
            bm = statistics.median(b[name][0])
            am = statistics.median(a[name][0])
            if bm == am == 0:
                continue  # the layer does no work on this workload
            print(f"    {name:<34} {b[name][1]:<6} {bm:>12.6g} -> "
                  f"{am:<12.6g} delta {am - bm:+.6g} ({_change(bm, am)})")
        digests = {}
        for side, records in (("before", before), ("after", after)):
            for r in records:
                if r["workload"] == w and r.get("outcome_digest"):
                    digests.setdefault(r["seed"], {}).setdefault(
                        side, set()).add(r["outcome_digest"])
        for seed, sides in sorted(digests.items()):
            if len(sides) == 2:
                same = sides["before"] == sides["after"] \
                    and len(sides["before"]) == 1
                print(f"  outcome_digest seed {seed}: "
                      f"{'unchanged' if same else 'CHANGED'} "
                      f"{sorted(sides['before'])} -> {sorted(sides['after'])}")
    return 0
