"""Summarise benchmark runs, or compare the runs of two commits.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the stdout of several ``run.py`` runs, appended one after
another (a ``{"meta": ...}`` line, then the result line).  With one file it
prints, per workload and end-to-end metric, the median and quartiles over
runs, the spread (interquartile range over median) against the metric's
bound, and the highest percentile of the pooled rep samples that still has
ten samples beyond it, and the same spread for the uncorrected times in
the meta line (``raw_wall_s``, ``raw_setup_s``).  Traced runs add the
median of each per-layer metric.

With two files it prints one row per workload and end-to-end metric with a
verdict:

- improved: the change wins at least 9 in 10 runs paired by seed (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: neither, and the run-to-run spread of either side exceeds the
  bound, unless every change run beats every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> list[tuple[dict, dict]]:
    """(meta, result) pairs in file order; unpaired or foreign lines are skipped."""
    runs, meta = [], None
    for line in Path(path).read_text().splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "meta" in obj:
            meta = obj["meta"]
        elif "metrics" in obj and meta is not None:
            runs.append((meta, obj))
            meta = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(samples: list[float], better: str) -> str:
    """Highest percentile with ten samples beyond it on the bad side."""
    n = len(samples)
    if n < 11:
        return f"- (n={n})"
    ordered = sorted(samples, reverse=better == "higher")
    return f"p{100 * (n - 10) // n}={ordered[n - 11]:.4g} (n={n})"


def by_workload(runs, trace: int) -> dict[str, list[tuple[dict, dict]]]:
    out = defaultdict(list)
    for meta, result in runs:
        if meta["trace"] == trace:
            out[meta["workload"]].append((meta, result))
    return out


def summary(path: str) -> None:
    runs = load(path)
    for workload, group in sorted(by_workload(runs, 0).items()):
        failed = sum(r["failed"] for _, r in group)
        attempted = sum(r["attempted"] for _, r in group)
        print(f"{workload}: {len(group)} runs, fail_frac {failed / attempted:.3g} ({failed}/{attempted})")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in group]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            pooled = [x for meta, _ in group for x in meta["samples"][m["name"]]]
            flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            print(
                f"  {m['name']:<12} median {med:.4g} {m['unit']}  q1 {q1:.4g}  q3 {q3:.4g}  "
                f"spread {spread:.3f} (bound {m['bound']}: {flag})  reps {tail(pooled, m['better'])}"
            )
        for name in ("raw_wall_s", "raw_setup_s"):
            values = [statistics.median(meta["samples"][name]) for meta, _ in group if name in meta["samples"]]
            if len(values) >= 2:
                q1, med, q3 = quartiles(values)
                print(f"  {name:<12} median {med:.4g} s  q1 {q1:.4g}  q3 {q3:.4g}  spread {(q3 - q1) / med:.3f} (uncorrected)")
    for workload, group in sorted(by_workload(runs, 1).items()):
        print(f"{workload} traced: {len(group)} runs")
        for m in SPEC["per_layer"]:
            med = statistics.median(r["metrics"][m["name"]]["value"] for _, r in group)
            print(f"  {m['name']:<32} {med:.6g} {m['unit']}")


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pairs and wins >= 0.9 * pairs and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        return "improved"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    wide = (p3 - p1) / pm > bound or (c3 - c1) / cm > bound
    if wide and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> None:
    parent = by_workload(load(parent_path), 0)
    change = by_workload(load(change_path), 0)
    print(f"{'workload':<8} {'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} {'delta':>8}  wins  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in SPEC["end_to_end"]:
            name = m["name"]
            pv = {meta["seed"]: r["metrics"][name]["value"] for meta, r in parent[workload]}
            cv = {meta["seed"]: r["metrics"][name]["value"] for meta, r in change[workload]}
            a = [r["metrics"][name]["value"] for _, r in parent[workload]]
            b = [r["metrics"][name]["value"] for _, r in change[workload]]
            common = sorted(set(pv) & set(cv))
            pairs = [(pv[s], cv[s]) for s in common] if common else list(zip(a, b))
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            p1, pm, p3 = quartiles(a)
            c1, cm, c3 = quartiles(b)
            print(
                f"{workload:<8} {name:<12} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}] n={len(a)}':<32} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}] n={len(b)}':<32} {100 * (cm - pm) / pm:>+7.1f}%  "
                f"{wins}/{len(pairs)}  {verdict(a, b, wins, len(pairs), m['better'], m['bound'])}"
            )


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summary(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
