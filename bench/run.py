#!/usr/bin/env python3
"""The chevalab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload is a fresh
interpreter (bench/child.py) that imports chevalab from ``src/`` and runs
the workload's jobs in order; passes repeat until S seconds are spent.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
pass time to exact answers, set-up time (interpreter start until numpy and
chevalab are imported, the median of several fresh interpreters) and the
median peak RSS.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics: span self-times and counts from the traced
passes, microbenchmarks, and the tracing overhead.

Every job's output is checked against an independent value (see
workloads.py).  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
when every job was correct, 1 when one was not, and 2 when the benchmark
could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 15
SETUPS_PER_PASS = 2
WORKLOADS = ("enum-shard", "small-ring")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("JETFORGE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, workload: str, seed: int, workdir: Path):
    """Start one child; return (set-up seconds, its JSON result or None)."""
    run_dir = workdir / f"{mode}-{len(os.listdir(workdir))}"
    run_dir.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(run_dir)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child {mode} {workload} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run_passes(args, workdir: Path, modes):
    """Passes cycling through ``modes`` for --seconds (each mode at least
    once).  A cycle starts only if one of median length still fits, so a run
    ends within --seconds after its first cycle.  Set-up-only children between
    passes spread the set-up samples over the run, since the machine's speed
    drifts during it."""
    results = {m: [] for m in modes}
    setups, cycles = [], []
    t_end = perf_counter() + args.seconds
    while not cycles or perf_counter() + statistics.median(cycles) <= t_end:
        t_cycle = perf_counter()
        for mode in modes:
            setup_s, res = spawn(mode, args.workload, args.seed, workdir)
            setups.append(setup_s)
            results[mode].append(res)
            setups += [spawn("setup", args.workload, args.seed, workdir)[0]
                       for _ in range(SETUPS_PER_PASS)]
        cycles.append(perf_counter() - t_cycle)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn("setup", args.workload, args.seed, workdir)[0])
    return setups, results


def measure(args, workdir: Path):
    if args.trace:
        setups, res = run_passes(args, workdir, ("pass", "traced"))
        traced = res["traced"]
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]}
        metrics.update(spawn("micro", args.workload, args.seed, workdir)[1]["metrics"])
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in res["pass"]))
        passes = res["pass"] + traced
    else:
        setups, res = run_passes(args, workdir, ("pass",))
        passes = res["pass"]
        walls = [r["wall_s"] for r in passes]
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in passes)}
        print(f"# wall_s per pass: {' '.join(f'{w:.4f}' for w in walls)}")
        print("# part_s, median per job list: " + " ".join(
            f"{part}={statistics.median(r['part_s'][part] for r in passes):.4f}"
            for part in passes[0]["part_s"]))
        print("# job_s, median per job: " + " ".join(
            f"{job}={statistics.median(r['job_s'][job] for r in passes):.4f}"
            for job in passes[0]["job_s"]))
        for job in passes[0]["job_s"]:
            print(f"# job_s per pass, {job}: " + " ".join(f"{r['job_s'][job]:.4f}" for r in passes))
        print(f"# setup_s per interpreter: {' '.join(f'{s:.4f}' for s in setups)}")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for f in r["failures"]:
            print(f"# FAILED {f['job']}: {'; '.join(f['errors'])}")
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(passes), "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": passes[0]["python"], "numpy": passes[0]["numpy"], "src_lines": src_lines()}
    print("# meta " + json.dumps(meta, sort_keys=True))
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("tiny",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chevalab" / "__init__.py").is_file():
        print(f"no chevalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        metrics, attempted, failed = measure(args, workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for m in wanted:
        print(f"{m['name']:38s} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(f"{'fail_ratio':38s} {failed / attempted:>16.6f} 1  ({failed}/{attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
