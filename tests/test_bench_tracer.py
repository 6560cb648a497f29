"""The benchmark's tracer patches chevalab functions by name; a renamed or
deleted function would make every traced benchmark run fail."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_patch_list_names_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, fn_name in [*tracer.SPANS, tracer.LEAF]:
        mod = importlib.import_module(f"chevalab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"chevalab.{mod_name}.{fn_name} is gone"
