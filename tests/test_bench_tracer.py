"""The benchmark's tracer patches chevalab functions by name, and its micro
probes call single layers directly; a renamed or deleted function would make
every traced benchmark run, or every micro run, fail."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
MICRO = ["field.ring_mul_ns.q3m2", "field.ring_mul_ns.q4m1", "field.field_mul_ns.k2",
         "field.field_add_ns.k2", "field.ctx_build_ms", "matrices.charpoly_us.n2",
         "matrices.charpoly_us.n3", "matrices.charpoly_us.n4", "counting.matrix_from_index_us"]


def test_tracer_patch_list_names_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, fn_name in [*tracer.SPANS, tracer.LEAF]:
        mod = importlib.import_module(f"chevalab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"chevalab.{mod_name}.{fn_name} is gone"


def test_bench_micro_probes_run(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "bench/child.py", "micro", "enum-shard", "0", str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert sorted(metrics) == sorted(MICRO)
    assert all(v > 0 for v in metrics.values())
