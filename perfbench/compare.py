"""Report-only comparison of two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds one JSON object per line, as ``repeat.py`` writes them: the
workload, the seed and the result line of one ``run.py`` invocation.  With
one file it prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median) against
the metric's bound.  With two it also marks each metric:

* ``unresolved`` when either side's spread exceeds the bound, unless every
  run of the change reads better than every base run;
* ``regressed`` when the change's median is worse than the base median by
  more than the bound;
* ``improved`` when the change wins at least nine tenths of the runs paired
  by seed and the medians differ by more than the base's own spread;
* ``unchanged`` otherwise.

It always exits 0: it informs a review and gates nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{workload: {metric: {seed: value}}} of the untraced runs in a file."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("trace"):
            continue
        for name, metric in row["result"]["metrics"].items():
            out.setdefault(row["workload"], {}).setdefault(name, {})[row["seed"]] = metric["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(base: dict, change: dict, bound: float, higher_better: bool) -> str:
    sign = 1.0 if higher_better else -1.0
    b, c = list(base.values()), list(change.values())
    all_better = min(sign * v for v in c) > max(sign * v for v in b)
    if max(spread(b), spread(c)) > bound:
        return "improved" if all_better else "unresolved"
    b_med, c_med = statistics.median(b), statistics.median(c)
    if sign * (c_med - b_med) / b_med < -bound:
        return "regressed"
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1, _, q3 = quartiles(b)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > q3 - q1:
        return "improved"
    return "unchanged"


def report(base_path, change_path=None) -> list[str]:
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    base = load(base_path)
    change = load(change_path) if change_path else {}
    lines = []
    for workload in sorted(base):
        for name, metric in spec.items():
            if name not in base[workload]:
                continue
            values = list(base[workload][name].values())
            q1, q2, q3 = quartiles(values)
            line = (f"{workload:10s} {name:17s} n={len(values):2d} median {q2:.6g} "
                    f"[{q1:.6g}, {q3:.6g}] spread {spread(values):.3f} "
                    f"(bound {metric['bound']})")
            other = change.get(workload, {}).get(name)
            if other:
                cv = list(other.values())
                c1, c2, c3 = quartiles(cv)
                line += (f" | change n={len(cv):2d} median {c2:.6g} [{c1:.6g}, {c3:.6g}] "
                         f"{(c2 - q2) / q2:+.3f} -> "
                         + verdict(base[workload][name], other, metric["bound"],
                                   metric["better"] == "higher"))
            lines.append(line)
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
