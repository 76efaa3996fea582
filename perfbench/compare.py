"""Summarize benchmark result sets, or compare two of them.

Usage:

    python3 perfbench/compare.py A.jsonl             # spread of every metric
    python3 perfbench/compare.py A.jsonl B.jsonl     # B's medians against A's

Each file holds the lines that `run.py --out FILE` appends, one per run.
For every workload and metric it prints the median of the runs and the
spread, the distance between the first and third quartiles as a share of
the median.  With two files it also prints how far B's median moved from
A's, and marks an end-to-end metric that got worse by more than its bound
in BENCHMARK.json.  Result sets measured with different backends, Python
versions or CPU counts are not comparable and are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_KEYS = ("backend", "python", "nproc")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records: list[dict]) -> dict[tuple[str, int, str], list[float]]:
    values: dict[tuple[str, int, str], list[float]] = {}
    for rec in records:
        cfg = rec["config"]
        for name, metric in rec["result"]["metrics"].items():
            values.setdefault((cfg["workload"], cfg["trace"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    configs = {tuple(r["config"][k] for k in CONFIG_KEYS) for recs in sets for r in recs}
    if len(configs) > 1:
        print(f"error: result sets differ in {CONFIG_KEYS}: {sorted(configs)}; refusing to compare",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    failed_runs = sum(r["result"]["failed"] for recs in sets for r in recs)
    base = summarize(sets[0])
    other = summarize(sets[1]) if len(sets) == 2 else {}
    regressions = 0
    header = f"{'workload':<20} {'metric':<34} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}"
    print(header + ("  new median   change" if other else ""))
    for key in sorted(base):
        workload, _, name = key
        vals = base[key]
        bound = bounds.get(name, {}).get("bound")
        line = (f"{workload:<20} {name:<34} {len(vals):>4} {statistics.median(vals):>12.6g} "
                f"{spread(vals):>8.2%} {'' if bound is None else f'{bound:.2f}':>6}")
        if key in other:
            old, new = statistics.median(vals), statistics.median(other[key])
            change = (new - old) / abs(old) if old else float("nan")
            line += f"  {new:>10.6g} {change:>+8.2%}"
            if bound is not None:
                worse = change if bounds[name]["better"] == "lower" else -change
                if worse > bound:
                    regressions += 1
                    line += "  WORSE THAN BOUND"
        print(line)
    print(f"runs with failed output checks: {failed_runs}")
    return 1 if regressions or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
