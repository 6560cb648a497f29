"""One fresh interpreter of the chevalab benchmark; run.py starts it.

    child.py MODE WORKLOAD SEED WORKDIR

It imports numpy and chevalab, prints ``ready`` (run.py takes set-up time
up to that line), then, by MODE:

* ``setup``: exits;
* ``pass``: runs the workload's jobs in order, untraced, then checks them;
* ``traced``: the same with spans, followed by the ``tiny`` probe jobs, so
  every layer has spans on every workload;
* ``micro``: seeded microbenchmarks of single layers.

The last line of its output is one JSON object with the results.
"""

import sys

import numpy
import chevalab
import chevalab.cli

print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

from chevalab import cli, counting, field, matrices  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def run_one(job: workloads.Job) -> dict:
    if job.is_resume:
        p = job.params
        query = counting.CountQuery(p["n"], p["ell"], 1, p["m"], "fiber",
                                    x=tuple((c,) for c in p["x"]))
        try:
            first = counting.count_sharded(query, p["shards"], p["shard_id"], p["checkpoint"],
                                           chunk=p["chunk"]).count
            second = counting.count_sharded(query, p["shards"], p["shard_id"], p["checkpoint"],
                                            chunk=p["chunk"]).count
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"first": first, "second": second}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"rc": rc, "stdout": buf.getvalue()}


def run_jobs(jobs, tracer=None):
    """(wall seconds from first job start to last job end, results, job span ids).

    Each result also holds its job's own time as ``job_s``."""
    results, span_ids = [], []
    t0 = perf_counter()
    for job in jobs:
        sp = tracer.job(job.id) if tracer else None
        t_job = perf_counter()
        try:
            res = run_one(job)
        finally:
            if sp is not None:
                tracer.close(sp)
                span_ids.append(sp.id)
        res["job_s"] = perf_counter() - t_job
        results.append(res)
    return perf_counter() - t0, results, span_ids


def gate(jobs, results, seed, expected):
    failures = []
    for job, res in zip(jobs, results):
        if job.is_resume and "error" not in res:
            path = job.params["checkpoint"]
            with open(path, "rb") as fh:
                data = fh.read()
            res["journal_lines"] = data.count(b"\n")
            res["journal_bytes"] = len(data)
        errors = workloads.check(job, res, seed, expected)
        if errors:
            failures.append({"job": f"{job.part}/{job.id}", "errors": errors})
    return failures


# --------------------------------------------------------------------------
# per-layer numbers of a traced run
# --------------------------------------------------------------------------

def layer_metrics(tracer, jobs, results, span_ids) -> dict:
    spans = tracer.spans
    self_s = self_times(spans)

    def total(names, key=lambda sp: self_s[sp.id]):
        return sum(key(sp) for sp in spans if sp.name in names)

    def layer_self(layer):
        return sum(self_s[sp.id] for sp in spans if sp.layer == layer)

    dur = lambda sp: sp.dur  # noqa: E731
    by_job = {sid: [sp for sp in spans if sp.job == sid] for sid in span_ids}
    items = lambda sp: sp.leaf_calls + sp.items  # noqa: E731
    tested = space = 0
    skews, resume_s, ckpt_writes, ckpt_bytes = [], 0.0, 0, 0
    for job, res, sid in zip(jobs, results, span_ids):
        shards = [sp for sp in by_job[sid] if sp.name == "counting.count_sharded"]
        if job.is_resume:
            resume_s += shards[-1].dur if shards else 0.0
            ckpt_writes += res.get("journal_lines", 0)
            ckpt_bytes += res.get("journal_bytes", 0)
            continue
        argv = job.argv
        if "nilcone" in argv:
            n, ell, k, m = (int(workloads.opt(argv, f"--{a}", 1)) for a in ("n", "ell", "k", "m"))
            tested += sum(items(sp) for sp in by_job[sid] if sp.layer == "counting")
            space += (ell ** k) ** ((m + 1) * n * n)
        if len(shards) > 1 and "--shard-id" not in argv:
            skews.append(max(sp.dur for sp in shards) / min(sp.dur for sp in shards))
    return {
        "matrices.charpoly_calls": sum(sp.leaf_calls for sp in spans),
        "matrices.self_s": sum(sp.leaf_s for sp in spans),
        "counting.self_s": layer_self("counting"),
        "counting.fiber_table_self_s": total({"counting.fiber_table", "counting._fiber_table_np"}),
        "counting.count_nilcone_jets_self_s": total({"counting.count_nilcone_jets"}),
        "counting.count_sharded_self_s": total({"counting.count_sharded"}),
        "counting.items_enumerated": sum(items(sp) for sp in spans if sp.layer == "counting"),
        # a failed job can leave no nilcone or multi-shard spans; it is already counted as failed
        "counting.prune_ratio": tested / space if space else 0.0,
        "counting.checkpoint_writes": ckpt_writes,
        "counting.checkpoint_bytes": ckpt_bytes,
        "counting.resume_s": resume_s,
        "counting.shard_skew": max(skews, default=0.0),
        "measure.self_s": layer_self("measure"),
        "measure.density_profile_self_s": total({"measure.density_profile"}),
        "measure.export_s": total({"measure.profile_to_csv", "measure.summary_to_json"}, dur),
        "subreg.self_s": layer_self("subreg"),
        "subreg.mult_pushforward_hist_s": total({"subreg.mult_pushforward_hist"}, dur),
        "subreg.subreg_slice_density_s": total({"subreg.subreg_slice_density"}, dur),
        "subreg.val_integral_s": total({"subreg.val_integral"}, dur),
        "slices.self_s": layer_self("slices"),
        "slices.audit_equivariance_s": total({"slices.audit_equivariance"}, dur),
        "slices.audit_transversality_s": total({"slices.audit_transversality"}, dur),
        "reporting.emit_s": layer_self("reporting"),
        "reporting.bytes_written": total({"reporting.atomic_write_text"}, lambda sp: sp.nbytes),
        "reporting.atomic_writes": total({"reporting.atomic_write_text"}, lambda sp: 1),
        "cli.overhead_ms": 1000 * (total({"cli.main"}, dur) - total({"cli.run"}, dur)),
    }


# --------------------------------------------------------------------------
# microbenchmarks
# --------------------------------------------------------------------------

def _per_call(fn, arg_list, reps=7):
    """Median over reps of the mean seconds per call, after a warm-up pass."""
    for args in arg_list:
        fn(*args)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for args in arg_list:
            fn(*args)
        times.append((perf_counter() - t0) / len(arg_list))
    return statistics.median(times)


def micro(seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    f3, f4 = field.field_make(3), field.field_make(2, 2)
    r3m2, r4m1, r3m1 = field.trunc_make(f3, 2), field.trunc_make(f4, 1), field.trunc_make(f3, 1)

    def elem(ctx):
        return ctx.from_index(rng.randrange(ctx.size))

    def mats(n, count):
        return [(matrices.JetMatrix(r3m1, n, tuple(tuple(elem(r3m1) for _ in range(n))
                                                   for _ in range(n))),) for _ in range(count)]

    pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(4000)]
    return {
        "field.ring_mul_ns.q3m2": 1e9 * _per_call(r3m2.mul, [(elem(r3m2), elem(r3m2)) for _ in range(2000)]),
        "field.ring_mul_ns.q4m1": 1e9 * _per_call(r4m1.mul, [(elem(r4m1), elem(r4m1)) for _ in range(2000)]),
        "field.field_mul_ns.k2": 1e9 * _per_call(f4.mul, pairs),
        "field.field_add_ns.k2": 1e9 * _per_call(f4.add, pairs),
        # FieldCtx builds its k > 1 multiplication tables in __init__
        "field.ctx_build_ms": 1e3 * _per_call(field.field_make, [(2, 6)], reps=9),
        "matrices.charpoly_us.n2": 1e6 * _per_call(matrices.charpoly, mats(2, 1000)),
        "matrices.charpoly_us.n3": 1e6 * _per_call(matrices.charpoly, mats(3, 400)),
        "matrices.charpoly_us.n4": 1e6 * _per_call(matrices.charpoly, mats(4, 100)),
        "counting.matrix_from_index_us": 1e6 * _per_call(
            counting.matrix_from_index, [(3, r3m1, rng.randrange(r3m1.size ** 9)) for _ in range(1000)]),
    }


def main(argv) -> dict:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "micro":
        return {"metrics": micro(seed)}
    expected = workloads.load_expected()
    jobs = workloads.build(workload, seed, workdir)
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    wall, results, span_ids = run_jobs(jobs, tracer)
    failures = gate(jobs, results, seed, expected)
    attempted = len(jobs)
    part_s = dict.fromkeys(job.part for job in jobs)
    for part in part_s:
        part_s[part] = sum(r["job_s"] for job, r in zip(jobs, results) if job.part == part)
    out = {"wall_s": wall, "job_s": {job.id: r["job_s"] for job, r in zip(jobs, results)},
           "part_s": part_s,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "python": sys.version.split()[0], "numpy": numpy.__version__}
    if tracer:
        probe_dir = os.path.join(workdir, "probe")
        os.mkdir(probe_dir)
        probe = workloads.build("tiny", seed, probe_dir)
        _, probe_results, probe_ids = run_jobs(probe, tracer)
        tracer.uninstall()
        failures += gate(probe, probe_results, seed, expected)
        attempted += len(probe)
        out["metrics"] = layer_metrics(tracer, jobs + probe, results + probe_results,
                                       span_ids + probe_ids)
        tracer.write(os.path.join(".bench_work", f"spans-{workload}-seed{seed}.jsonl"))
    out.update(attempted=attempted, failed=len(failures), failures=failures)
    return out


if __name__ == "__main__":
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(chevalab.__file__).startswith(src + os.sep):
        sys.exit(f"chevalab was imported from {chevalab.__file__}, not from {src}")
    if sys.argv[1] != "setup":
        print(json.dumps(main(sys.argv[1:])))
