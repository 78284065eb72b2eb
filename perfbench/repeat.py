"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/repeat.py OUT.jsonl [--workloads fuzz,multimode]
        [--runs 10] [--trace 0|1]

Runs ``run.py`` for seeds 1 to ``--runs`` on each workload, one run at a
time and for BENCHMARK.json's ``run_seconds``, appends one line per run to
OUT.jsonl (workload, seed, trace, record, result) and then prints the
spreads of the untraced runs with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import report

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    with open(args.out, "a") as sink:
        for workload in args.workloads.split(","):
            for seed in range(1, args.runs + 1):
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                )
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                          file=sys.stderr)
                    return 1
                record = json.loads(lines[-2])["record"]
                result = json.loads(lines[-1])
                sink.write(json.dumps({"workload": workload, "seed": seed,
                                       "trace": args.trace, "record": record,
                                       "result": result}) + "\n")
                sink.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
    if not args.trace:
        print("\n".join(report(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
