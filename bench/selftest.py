#!/usr/bin/env python3
"""Self-test of the chevalab benchmark (about 15 s).

    python3 bench/selftest.py

Runs the ``tiny`` configuration untraced and traced and checks that the last
line carries every metric of BENCHMARK.json with its unit; checks that a
planted wrong expected value makes the gate fail a job; and checks that the
benchmark refuses to run in a directory without chevalab's sources.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, trace: int):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (kind, got, want)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        print(f"ok: --trace {trace} prints all {len(want)} {kind} metrics with their units")


def check_planted_failure() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    with contextlib.redirect_stdout(io.StringIO()):  # child prints "ready" on import
        import child
    import workloads

    expected = workloads.load_expected()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work")
    try:
        jobs = workloads.build("tiny", workloads.DEFAULT_SEED, workdir)
        _, results, _ = child.run_jobs(jobs)
        clean = child.gate(jobs, results, workloads.DEFAULT_SEED, expected)
        assert clean == [], clean
        planted = copy.deepcopy(expected)
        planted["tiny/nilcone-n3-q2-m0"]["count"] = "65"
        failures = child.gate(jobs, results, workloads.DEFAULT_SEED, planted)
    finally:
        shutil.rmtree(workdir)
    assert len(failures) / len(jobs) > 0, "a planted wrong value went unnoticed"
    assert failures[0]["job"] == "tiny/nilcone-n3-q2-m0", failures
    print(f"ok: a planted wrong expected value gives fail_ratio {len(failures)}/{len(jobs)}")


def check_refuses_without_sources() -> None:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok: without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_planted_failure()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
