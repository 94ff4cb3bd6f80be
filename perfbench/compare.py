"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a file or a directory of files holding the standard
output of ``run.py`` runs (``--trace 0``); every ``perfbench-record`` line in
them is read.  Each row gives both sides' median and quartiles and a verdict:

* ``better``     -- the change wins at least nine tenths of the runs paired
                    by seed, ties counting for neither, and the medians differ
                    by more than the base's own quartile distance;
* ``unresolved`` -- otherwise, when either side's quartile distance, as a
                    share of its median, exceeds the metric's bound;
* ``worse``      -- otherwise, when the change's median is worse than the
                    base's by more than the bound;
* ``unchanged``  -- otherwise.

Bounds are those of BENCHMARK.json.  ``op_tail_ms`` is not in BENCHMARK.json
(the certify workload has too few ops for a tail) and takes the bound of
``op_p50_ms``; any rise of ``error_rate`` is worse.  The last rows say
whether the output digests of runs with the same workload and seed agree.
Exit status 1 when any row is worse or any digest differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "perfbench-record "
METRICS = {  # name -> better
    "ops_per_s": "higher",
    "op_p50_ms": "lower",
    "op_tail_ms": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    "error_rate": "lower",
}


def load(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith(PREFIX):
                rec = json.loads(line[len(PREFIX):])
                if rec["trace"] == 0:
                    records.append(rec)
    return records


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out["op_tail_ms"] = out["op_p50_ms"]
    out["error_rate"] = 0.0
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    """base and change map seed -> value."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = _quartiles(list(base.values()))
    cq1, cmed, cq3 = _quartiles(list(change.values()))
    if bmed == 0 and cmed == 0:
        return "unchanged"
    common = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in common] or list(zip(base.values(), change.values()))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
        return "better"
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    if spread > bound and bound > 0:
        return "unresolved"
    worse_by = sign * (bmed - cmed) / bmed if bmed else float(cmed > 0)
    return "worse" if worse_by > bound else "unchanged"


def compare(base_recs: list[dict], change_recs: list[dict]) -> tuple[list[str], bool]:
    limits = bounds()
    lines = [f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} {'delta':>8}  verdict"]
    bad = False
    workloads = sorted({r["workload"] for r in base_recs} & {r["workload"] for r in change_recs})
    for wl in workloads:
        b_runs = {r["seed"]: r for r in base_recs if r["workload"] == wl}
        c_runs = {r["seed"]: r for r in change_recs if r["workload"] == wl}
        for name, better in METRICS.items():
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items() if name in r["metrics"]}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items() if name in r["metrics"]}
            if not b or not c:
                continue
            v = verdict(b, c, better, limits[name])
            bad |= v == "worse"
            bq1, bmed, bq3 = _quartiles(list(b.values()))
            cq1, cmed, cq3 = _quartiles(list(c.values()))
            delta = f"{100 * (cmed - bmed) / bmed:+.1f}%" if bmed else "n/a"
            lines.append(f"{wl:<11} {name:<12} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<32} "
                         f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<32} {delta:>8}  {v}")
        common = sorted(set(b_runs) & set(c_runs))
        differ = [s for s in common if b_runs[s]["digest"] != c_runs[s]["digest"]]
        bad |= bool(differ)
        lines.append(f"{wl:<11} {'digest':<12} "
                     + (f"differs on seeds {differ}" if differ else
                        f"identical on {len(common)} common seeds"))
    return lines, bad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_recs, change_recs = (load(Path(a)) for a in args)
    if not base_recs or not change_recs:
        print("compare: no perfbench-record lines found", file=sys.stderr)
        return 2
    lines, bad = compare(base_recs, change_recs)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
