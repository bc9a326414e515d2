"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads gb_favorita gb_imdb_galaxy \\
        --seeds 0 1 2 3 4 --trace 0

For every workload and metric it prints the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the distance
between them as a share of the median, next to the metric's bound from
``BENCHMARK.json``, plus the wall time of each run. The full results go
to ``.perfbench_out/spread-<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(lines[-1])
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print(f"{w} seed={seed} wall={wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(name),
            }
        walls = [r["wall_s"] for r in runs]
        report[w] = {"runs": runs, "summary": summary,
                     "all_correct": all(r["correct"] for r in runs),
                     "wall_s_median": statistics.median(walls), "wall_s_max": max(walls)}
        print(f"== {w}: all correct={report[w]['all_correct']} "
              f"wall median={statistics.median(walls):.1f}s max={max(walls):.1f}s")
        for name, s in summary.items():
            b = "" if s["bound"] is None else f" bound={s['bound']}"
            print(f"   {name:28s} median={s['median']:.4f} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f} spread={s['spread']:.3f}{b}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.trace}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
