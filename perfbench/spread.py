"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                                [--out FILE]

For every workload and metric of the full record (the listed metrics plus
quality and cf_label_acc) this prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. With --out it writes
the summary, each run's metrics and report digests, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "n": len(values),
    }


def run_once(bench, workload, seed, trace) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(bench["run_seconds"])]
    cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    full, result = (json.loads(x) for x in proc.stdout.splitlines()[-2:])
    return {
        "seed": seed,
        "wall_s": full["wall_s"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in full["metrics"].items()},
        "digests": {str(p["seed"]): p["digests"] for p in full["pipelines"]},
        "environment": full["environment"],
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, runs, environment = {}, {}, None
    for workload in args.workload or names:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            run = run_once(bench, workload, seed, args.trace)
            environment = run.pop("environment")
            runs[workload].append(run)
            print(
                f"{workload} seed {seed}: wall {run['wall_s']:.1f}s "
                f"correct={run['correct']}",
                flush=True,
            )
        per_metric: dict = {}
        for run in runs[workload]:
            for name, value in run["metrics"].items():
                per_metric.setdefault(name, []).append(value)
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
        for name, stats in summary[workload].items():
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}"
                if stats["spread"] is None or stats["spread"] > bound / 3:
                    note += "  <-- above bound/3"
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(
                f"  {name:44s} median {stats['median']:<12.6g} "
                f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                f"spread {spread}  {note}",
                flush=True,
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment, "summary": summary, "runs": runs},
                fh,
                indent=1,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
