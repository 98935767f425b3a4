"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each pipeline is a fresh `cfrank pipeline` process (perfbench.child)
with BLAS pinned to one thread unless OPENBLAS_NUM_THREADS is set.

--trace 0 alternates rounds of set-up probes with pipelines, each pipeline on
its own seed derived from N, starting a pipeline only while it should end
within S seconds, and fills the time left with probes. It reports the
end-to-end metrics as medians: setup_s over the probes, the others over the
pipelines.
--trace 1 runs pairs of one untraced and one traced pipeline on the first
derived seed, alternating which goes first, while they fit in S seconds. It
checks that each pair's artifacts are byte-identical and reports the median
per-layer metrics, the tracing overhead and the untraced pipeline's quality.

Every pipeline's stages and outputs are checked (perfbench.checks); a failed
stage or check counts in "failed". The last stdout line holds the metrics
BENCHMARK.json lists; the line before it is the full record, which adds
quality, cf_label_acc, digests, failures and the environment. The full record
is also written to .perfbench/results/ under the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.workloads import WORKLOADS  # noqa: E402

RESULTS = os.path.join(ROOT, ".perfbench", "results")
PROBES_PER_ROUND = 4
# Least pipelines (or traced pairs) and set-up probes a run makes, however
# short --seconds is; --tiny runs (the benchmark's tests) make fewer.
MINIMUM = {"pipelines": 2, "pairs": 1, "probes": 20}
MINIMUM_TINY = {"pipelines": 1, "pairs": 1, "probes": 2}
CHILD_TIMEOUT_S = 170
# Units of ratios in the full record that BENCHMARK.json does not list; other
# unlisted metrics are times ("_s") or counts.
EXTRA_UNITS = dict.fromkeys(
    ("hr10_target", "ndcg10_target", "hr10_cpr", "ndcg10_cpr", "cf_label_acc"), "ratio"
)
# Files a traced and an untraced pipeline must produce byte for byte.
ARTIFACTS = (
    "world.txt",
    "data.tsv",
    "sim.txt",
    "posterior.txt",
    "target.txt",
    "policy.txt",
    "batches.tsv",
    "target_cpr.txt",
    "report.txt",
    "report.tsv",
)


def load_spec() -> dict:
    """BENCHMARK.json's metric lists: {"end_to_end": {name: unit}, "per_layer": ...}."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, ROOT, env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def run_child(mode, result_path, cli_args, env) -> tuple[float, dict]:
    """Starts perfbench.child and waits; returns (spawn time, its result)."""
    cmd = [sys.executable, "-m", "perfbench.child", mode, result_path, "--"] + cli_args
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"{mode} process exited {proc.returncode}: {proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        return spawned, json.load(fh)


def pipeline_args(settings, out) -> list:
    args = ["pipeline", "--out", out]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    return args


def pipeline_seed(seed, i) -> int:
    """The config seed of a run's i-th pipeline."""
    return seed * 1000 + i


def run_pipeline(workload, seed, mode, out, env, tiny) -> dict:
    """One pipeline process; returns its timings, stage outcome and checks."""
    from perfbench import checks

    settings = {**workload.settings(ROOT, tiny), "seed": seed}
    _, res = run_child(mode, out + ".json", pipeline_args(settings, out), env)
    stages = res["stages"]
    if not stages:
        raise RuntimeError(f"pipeline seed {seed} ran no stage (exit {res['code']})")
    expected = 6 if workload.synthetic else 5
    completed = len(stages) - len(res["failed_stages"])
    record = {
        "seed": seed,
        "exit_code": res["code"],
        "stages_run": expected,
        "stages_failed": expected - completed,
        "peak_rss_mb": res["peak_rss_mb"],
        "stage_s": {name: end - start for name, start, end in stages},
        "pipeline_s": stages[-1][2] - stages[0][1],
        "layers": res.get("layers", {}),
    }
    quality, n_checks, failures = checks.check_run(out, settings)
    record.update(quality=quality, checks_run=n_checks, check_failures=failures)
    record["digests"] = {
        name: checks.sha256(os.path.join(out, name))
        for name in checks.DIGESTED
        if os.path.exists(os.path.join(out, name))
    }
    if workload.synthetic and record["stages_failed"] == 0:
        record["cf_label_acc"] = checks.cf_label_acc(out, settings)
    return record


def probe_setup(settings, out, env) -> float:
    """Seconds from spawning a `cfrank pipeline` process to its first stage."""
    spawned, res = run_child("probe", out + ".json", pipeline_args(settings, out), env)
    return res["first_stage_start"] - spawned


def untraced_run(workload, seed, seconds, work, env, tiny) -> tuple[dict, dict]:
    deadline = time.monotonic() + seconds
    least = MINIMUM_TINY if tiny else MINIMUM
    settings = {**workload.settings(ROOT, tiny), "seed": seed}
    setups = []
    runs = []
    longest = 0.0

    def probe():
        out = os.path.join(work, f"probe{len(setups)}")
        setups.append(probe_setup(settings, out, env))

    # Rounds of probes between pipelines sample set-up across the whole run,
    # not in one moment of the machine's load.
    for i in itertools.count():
        for _ in range(PROBES_PER_ROUND):
            probe()
        begun = time.monotonic()
        if len(runs) >= least["pipelines"] and begun + longest > deadline:
            break
        out = os.path.join(work, f"run{i}")
        runs.append(
            run_pipeline(workload, pipeline_seed(seed, i), "plain", out, env, tiny)
        )
        shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.monotonic() - begun)
    while len(setups) < least["probes"] or (
        time.monotonic() + max(setups) < deadline
    ):
        probe()
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    # Quality is deterministic per seed; report the first pipeline's, so the
    # record does not depend on how many pipelines fitted in the run.
    metrics.update(runs[0]["quality"])
    if "cf_label_acc" in runs[0]:
        metrics["cf_label_acc"] = runs[0]["cf_label_acc"]
    return metrics, {"setup_probes_s": setups, "pipelines": runs}


def traced_run(workload, seed, seconds, work, env, tiny) -> tuple[dict, dict]:
    deadline = time.monotonic() + seconds
    least = MINIMUM_TINY if tiny else MINIMUM
    first = pipeline_seed(seed, 0)
    pairs = []
    differing = set()
    longest = 0.0
    for i in itertools.count():
        begun = time.monotonic()
        if len(pairs) >= least["pairs"] and begun + longest > deadline:
            break
        # Alternate which side runs first, so that a drift in machine speed
        # does not always favour one side.
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        outs = {mode: os.path.join(work, f"{mode}{i}") for mode in order}
        pair = {
            mode: run_pipeline(workload, first, mode, outs[mode], env, tiny)
            for mode in order
        }
        differs = [
            name
            for name in ARTIFACTS
            if _read(os.path.join(outs["plain"], name))
            != _read(os.path.join(outs["traced"], name))
        ]
        pair["traced"]["checks_run"] += 1
        if differs:
            differing.update(differs)
            pair["traced"]["check_failures"].append(
                "traced artifacts differ from untraced: " + ", ".join(differs)
            )
        os.replace(
            outs["traced"] + ".json.spans.jsonl.gz",
            os.path.join(
                RESULTS, workload.name + ("-tiny" if tiny else "") + ".spans.jsonl.gz"
            ),
        )
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
        pairs.append(pair)
        longest = max(longest, time.monotonic() - begun)
    traced = [p["traced"] for p in pairs]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.pipeline_s"] = statistics.median(t["pipeline_s"] for t in traced)
    metrics["trace.overhead_s"] = statistics.median(
        p["traced"]["pipeline_s"] - p["plain"]["pipeline_s"] for p in pairs
    )
    plain = pairs[0]["plain"]
    metrics.update({f"evalkit.{k}": v for k, v in plain["quality"].items()})
    pipelines = [p[mode] for p in pairs for mode in ("plain", "traced")]
    return metrics, {"pipelines": pipelines, "differing_artifacts": sorted(differing)}


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def host_reference_s() -> float:
    """Seconds a fixed loop of Python arithmetic and small matrix products
    takes in this process: a gauge of the host's speed, kept beside the
    timings so that a drift of the host can be told from a change in cfrank.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(300, 64))
    start = time.perf_counter()
    for _ in range(3):
        total = 0
        for k in range(300_000):
            total += k * k
        for _ in range(200):
            a @ a.T
    return time.perf_counter() - start


def environment(seed) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src", "cfrank")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": commit or None,
        "src_cfrank_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink the workload (for tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cfrank", "cli.py")):
        print(f"error: no cfrank sources under {ROOT}/src", file=sys.stderr)
        return 2
    listed = load_spec()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work = os.path.join(
        ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    started = time.monotonic()
    reference = [host_reference_s()]
    try:
        run = traced_run if args.trace else untraced_run
        metrics, report = run(
            workload, args.seed, args.seconds, work, child_env(), args.tiny
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference.append(host_reference_s())
    metrics["host.reference_s"] = statistics.median(reference)

    missing = sorted(set(listed) - set(metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    pipelines = report["pipelines"]
    stages_run = sum(p["stages_run"] for p in pipelines)
    checks_run = sum(p["checks_run"] for p in pipelines)
    failures = [f for p in pipelines for f in p["check_failures"]]
    failed = sum(p["stages_failed"] for p in pipelines) + len(failures)

    def unit(name):
        return listed.get(name) or EXTRA_UNITS.get(name) or (
            "s" if name.endswith("_s") else "count"
        )

    full = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.monotonic() - started,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "stages_run": stages_run,
        "stages_failed": failed,
        "failures": failures,
        "environment": environment(args.seed),
        **report,
    }
    result = {
        "correct": failed == 0,
        "attempted": stages_run + checks_run,
        "failed": failed,
        "metrics": {k: full["metrics"][k] for k in listed},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tag += "-tiny" if args.tiny else ""
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
