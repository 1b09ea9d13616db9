#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [WORKLOAD ...]

Runs `run.py` ten times on each workload (all of BENCHMARK.json's by
default), with seeds 1-10 and `run_seconds` from BENCHMARK.json, then
prints, per metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound. A spread at or above a
third of the bound is flagged. Writes every run's result line to
`.bench_build/spread-<workload>.jsonl`.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    out_dir = Path(".bench_build")
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for w in workloads:
        rows = []
        with open(out_dir / f"spread-{w}.jsonl", "w") as log:
            for seed in SEEDS:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                line = out.stdout.strip().splitlines()[-1]
                log.write(line + "\n")
                res = json.loads(line)
                if out.returncode != 0 or not res["correct"]:
                    print(f"{w} seed {seed}: run failed", file=sys.stderr)
                    sys.exit(1)
                rows.append(res["metrics"])
        print(f"== {w}: {len(SEEDS)} runs, {seconds} s each")
        for m in spec["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:20} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {m['bound']}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
