#!/usr/bin/env python3
"""Run every workload over several seeds and summarize each end-to-end metric.

    python3 perfbench/summarize.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced 2 \
        --out perfbench/results/baseline.json

For every workload it runs perfbench/run.py once per seed with --trace 0,
for BENCHMARK.json's run_seconds. It prints every end-to-end metric by name
with its unit, its sample count, the median of the per-run values, their
quartiles, and the quartile spread as a share of the median (Python's
statistics.quantiles, n=4), flagged when it is above a third of the
metric's bound. With --traced N it also makes N traced runs per workload on
the first seed and checks that they report identical call and byte counts.
--out writes all of it, with the machine block, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next((json.loads(l[len("machine "):]) for l in lines if l.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary, machine, ok = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}, None, True
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            result, machine = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "metrics": {}}
        print(f"\n{workload}: fail_ratio {entry['failed']}/{entry['attempted']}")
        print(f"  {'metric':24s} {'unit':>5s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread/bound")
        for name, bound in bounds.items():
            unit = runs[0]["metrics"][name]["unit"]
            stats = spread([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = {"unit": unit, **stats}
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:24s} {unit:>5s} {stats['n']:3d} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['spread']:.3f}/{bound}{flag}")
        ok = ok and entry["failed"] == 0
        if args.traced:
            traced = [run_once(workload, args.seeds[0], seconds, 1)[0] for _ in range(args.traced)]
            counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bytes")}
                      for t in traced]
            same = all(c == counts[0] for c in counts)
            entry["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["traced_counts_identical"] = same
            print(f"  {args.traced} traced runs: counts identical={same}, "
                  f"trace.overhead_ratio={entry['traced']['trace.overhead_ratio']:.3f}")
            ok = ok and same and all(t["correct"] for t in traced)
        summary["workloads"][workload] = entry
    summary["machine"] = machine
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
