"""Workload definitions and the correctness gate for the chevalab benchmark.

Only the standard library and numpy are used here, so that every
reference value below is computed without chevalab:

* a closed form (nilcone at m = 0 is q^(n^2 - n), the valuation histogram of
  a product of two Haar variables, total density mass 1);
* another engine (characteristic polynomials at m = 0 from sums of principal
  minors expanded by Leibniz, vectorised over all matrices of a sweep; a
  direct evaluation of the valuation integral);
* a value frozen in ``expected.json`` from a run of the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

DEFAULT_SEED = 0
TIMING_KEYS = ("elapsed_ms", "wall_ms")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Job:
    """One chevalab job: a CLI argv, or the direct ``count_sharded`` resume pair."""

    id: str
    argv: List[str]
    seeded: bool = False  # outputs depend on --seed
    # parameters the gate needs; for the resume job also the count_sharded call
    params: dict = field(default_factory=dict)
    part: str = ""  # the job list it comes from; with id, its key in expected.json

    @property
    def is_resume(self) -> bool:
        return not self.argv


# --------------------------------------------------------------------------
# independent characteristic polynomials at m = 0 over a prime field
# --------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    sign, seen = 1, list(perm)
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


def ref_charpolys(mats: np.ndarray, p: int) -> np.ndarray:
    """(N, n, n) integer matrices -> (N, n) coefficients c_1..c_n mod p of
    det(zI - A) = z^n + c_1 z^(n-1) + ... + c_n, with c_k = (-1)^k E_k and E_k
    the sum of the principal k x k minors."""
    N, n, _ = mats.shape
    out = np.zeros((N, n), dtype=np.int64)
    for k in range(1, n + 1):
        e_k = np.zeros(N, dtype=np.int64)
        for rows in itertools.combinations(range(n), k):
            for perm in itertools.permutations(range(k)):
                term = np.full(N, _perm_sign(perm), dtype=np.int64)
                for a, b in zip(rows, perm):
                    term *= mats[:, a, rows[b]]
                e_k += term
        out[:, k - 1] = ((-1) ** k * e_k) % p
    return out


def index_matrices(n: int, p: int, lo: int, hi: int) -> np.ndarray:
    """Matrices with sweep indices lo..hi-1 at m = 0, entry (0,0) the most
    significant base-p digit (the documented chevalab enumeration order)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    cells = np.zeros((hi - lo, n * n), dtype=np.int64)
    for e in range(n * n - 1, -1, -1):
        cells[:, e] = idx % p
        idx //= p
    return cells.reshape(-1, n, n)


def ref_fiber_count(n: int, p: int, x: List[int], lo: int = 0, hi: Optional[int] = None) -> int:
    hi = p ** (n * n) if hi is None else hi
    cps = ref_charpolys(index_matrices(n, p, lo, hi), p)
    return int(np.all(cps == np.array(x, dtype=np.int64), axis=1).sum())


def ref_fiber_sizes(n: int, p: int) -> List[int]:
    cps = ref_charpolys(index_matrices(n, p, 0, p ** (n * n)), p)
    _, counts = np.unique(cps, axis=0, return_counts=True)
    return [int(c) for c in counts]


def _seeded_x(rng: random.Random, n: int, p: int) -> List[int]:
    """Coefficients of the charpoly of a seeded matrix, so its fiber is non-empty."""
    mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    return [int(c) for c in ref_charpolys(mat[None], p)[0]]


def _x_arg(x: List[int]) -> str:
    return "|".join(str(c) for c in x)


def _seeded_poly(rng: random.Random, ell: int, deg: int) -> str:
    coeffs = [rng.randrange(ell) for _ in range(deg)] + [1 + rng.randrange(ell - 1)]
    return ",".join(str(c) for c in coeffs)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

# A workload runs one or more job lists in order.  enum-scalar and
# shard-checkpoint share one workload so that the benchmark's time budget
# gives each run more seconds; README.md says why.
PARTS = {"enum-shard": ("enum-scalar", "shard-checkpoint"), "small-ring": ("small-ring",),
         "tiny": ("tiny",)}


def build(workload: str, seed: int, workdir: str) -> List[Job]:
    """The workload's jobs for this seed, each tagged with its job list."""
    jobs = []
    for part in PARTS[workload]:
        for job in build_part(part, seed, workdir):
            job.part = part
            jobs.append(job)
    return jobs


def build_part(part: str, seed: int, workdir: str) -> List[Job]:
    """One job list for this seed.  The seed picks only inputs that leave
    the work per job unchanged: fiber targets, the single shard id, the
    val-int polynomial and the audits' --seed.  README.md says why each list
    exists.  ``tiny`` is not measured: it is every job kind at a small size,
    for the self-test and as the probe ending every traced pass."""
    rng = random.Random(f"{part}:{seed}")
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    if part == "enum-scalar":
        return [
            Job("density-n3-q3-M1", "density --n 3 --ell 3 --M 1".split()),
            Job("density-n2-q4-M2", "density --n 2 --ell 2 --k 2 --M 2".split()),
            Job("nilcone-n3-q2-m1", "count --n 3 --ell 2 --m 1 --target nilcone".split()),
        ]
    if part == "shard-checkpoint":
        x3, x4 = _seeded_x(rng, 3, 3), _seeded_x(rng, 4, 2)
        sid, rj = rng.randrange(8), rng.randrange(4)
        xr = _seeded_x(rng, 3, 3)
        return [
            Job("fiber-n3-q3-4shards", ["count", "--n", "3", "--ell", "3", "--m", "0", "--target", "fiber",
                                        "--x", _x_arg(x3), "--shards", "4", "--threads", "2",
                                        "--out", out("fiber-n3.jsonl")], True),
            Job("nilcone-n3-q2-m1-4shards", "count --n 3 --ell 2 --m 1 --target nilcone "
                                            "--shards 4 --threads 2".split()),
            Job("fiber-n4-q2-shard", ["count", "--n", "4", "--ell", "2", "--m", "0", "--target", "fiber",
                                      "--x", _x_arg(x4), "--shards", "8", "--shard-id", str(sid)], True),
            Job("gi-n2-q3-i2", "count --n 2 --ell 3 --m 0 --target gi --i 2 --shards 2 "
                               "--threads 2".split()),
            Job("resume-n3-q3", [], True, {"n": 3, "ell": 3, "m": 0, "x": xr, "shards": 4,
                                           "shard_id": rj, "chunk": 128,
                                           "checkpoint": out("resume.jsonl")}),
        ]
    if part == "small-ring":
        return [
            Job("hist-mult-q3-M5", "hist-mult --ell 3 --M 5".split()),
            Job("density-n2-q3-M4-csv", ["density", "--n", "2", "--ell", "3", "--M", "4",
                                         "--format", "csv", "--out", out("density.csv")]),
            Job("density-n2-q2-M6", "density --n 2 --ell 2 --M 6".split()),
            Job("subreg-n3-q2-M2", ["subreg", "--n", "3", "--ell", "2", "--M", "2",
                                    "--seed", str(seed)]),
            Job("slice-audit-31-M", ["slice-audit", "--n", "4", "--ell", "3", "--partition", "3,1",
                                     "--kind", "M", "--seed", str(seed)]),
            Job("val-int-q3-M6", ["val-int", "--ell", "3", "--M", "6",
                                  "--poly", _seeded_poly(rng, 3, 4)], True),
        ]
    if part == "tiny":
        x3, x4, xr = _seeded_x(rng, 3, 2), _seeded_x(rng, 4, 2), _seeded_x(rng, 3, 2)
        return [
            Job("density-n2-q2-M2", "density --n 2 --ell 2 --M 2".split()),
            Job("density-n2-q4-M1-csv", ["density", "--n", "2", "--ell", "2", "--k", "2", "--M", "1",
                                         "--format", "csv", "--out", out("tiny-density.csv")]),
            Job("nilcone-n3-q2-m0", "count --n 3 --ell 2 --m 0 --target nilcone".split()),
            Job("fiber-n3-q2-2shards", ["count", "--n", "3", "--ell", "2", "--m", "0", "--target", "fiber",
                                        "--x", _x_arg(x3), "--shards", "2", "--threads", "2",
                                        "--out", out("tiny-fiber.jsonl")], True),
            Job("fiber-n4-q2-shard", ["count", "--n", "4", "--ell", "2", "--m", "0", "--target", "fiber",
                                      "--x", _x_arg(x4), "--shards", "64",
                                      "--shard-id", str(rng.randrange(64))], True),
            Job("gi-n2-q2-i2", "count --n 2 --ell 2 --m 0 --target gi --i 2 --shards 2 "
                               "--threads 2".split()),
            Job("resume-n3-q2", [], True, {"n": 3, "ell": 2, "m": 0, "x": xr, "shards": 2,
                                           "shard_id": rng.randrange(2), "chunk": 32,
                                           "checkpoint": out("tiny-resume.jsonl")}),
            Job("hist-mult-q2-M2", "hist-mult --ell 2 --M 2".split()),
            Job("subreg-n3-q2-M1", ["subreg", "--n", "3", "--ell", "2", "--M", "1",
                                    "--seed", str(seed)]),
            Job("slice-audit-21-M", ["slice-audit", "--n", "3", "--ell", "2", "--partition", "2,1",
                                     "--kind", "M", "--seed", str(seed)]),
            Job("val-int-q2-M3", ["val-int", "--ell", "2", "--M", "3",
                                  "--poly", _seeded_poly(rng, 2, 3)], True),
        ]
    raise ValueError(f"unknown job list {part!r}")


# --------------------------------------------------------------------------
# the correctness gate
# --------------------------------------------------------------------------

def strip_timing(obj):
    """Drop wall-clock fields, which differ between runs of the same job."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def frozen_value(value):
    """The value as frozen in expected.json: long values as a sha256 digest."""
    text = json.dumps(value, sort_keys=True)
    return value if len(text) <= 120 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _matches_frozen(frozen: dict, outputs) -> bool:
    """Every frozen output is present with the same value; added keys are allowed."""
    return isinstance(outputs, dict) and all(
        k in outputs and frozen_value(outputs[k]) == v for k, v in frozen.items())


def opt(argv: List[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _frac(text: str) -> Fraction:
    """'0.25 (=1/4)' or '1/4' -> Fraction."""
    if "(=" in text:
        text = text.split("(=")[1].rstrip(")")
    return Fraction(text)


def ref_val_integral(coeffs: List[int], ell: int, M: int) -> Fraction:
    """q^-(M+1) * sum over z in F_ell[t]/t^(M+1) of min(val f(z), M+1)."""
    L = M + 1
    rest = np.arange(ell ** L, dtype=np.int64)
    digits = np.zeros((rest.size, L), dtype=np.int64)
    for j in range(L - 1, -1, -1):
        digits[:, j] = rest % ell
        rest //= ell
    acc = np.zeros_like(digits)
    for c in reversed(coeffs):
        nxt = np.zeros_like(digits)
        for i in range(L):
            nxt[:, i:] += acc[:, i:i + 1] * digits[:, :L - i]
        nxt[:, 0] += c
        acc = nxt % ell
    nonzero = acc != 0
    val = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), L)
    return Fraction(int(val.sum()), ell ** L)


def _check_count(job: Job, report: dict, errors: List[str]) -> None:
    argv = job.argv
    n, ell, k, m = (int(opt(argv, f"--{a}", d)) for a, d in (("n", 2), ("ell", 2), ("k", 1), ("m", 0)))
    target, shards = opt(argv, "--target"), int(opt(argv, "--shards", 1))
    count = int(report["outputs"]["count"])
    ref = None
    if target == "nilcone" and m == 0:
        ref = (ell ** k) ** (n * n - n)
    elif target == "fiber" and m == 0 and k == 1:
        x = [int(c) for c in opt(argv, "--x").split("|")]
        sid = opt(argv, "--shard-id")
        if sid is None:
            ref = ref_fiber_count(n, ell, x)
        else:
            total = ell ** (n * n)
            ref = ref_fiber_count(n, ell, x, int(sid) * total // shards, (int(sid) + 1) * total // shards)
    elif target == "gi" and m == 0 and k == 1:
        ref = sum(v ** int(opt(argv, "--i")) for v in ref_fiber_sizes(n, ell))
    if ref is not None and count != ref:
        errors.append(f"count {count} != independent value {ref}")
    out = opt(argv, "--out")
    if out:
        with open(out) as fh:
            records = [strip_timing(json.loads(line)) for line in fh if line.strip()]
        if len(records) != 1 or int(records[0]["count"]) != count:
            errors.append(f"{out} does not hold the printed count {count}")


def _check_density(job: Job, report: dict, errors: List[str]) -> None:
    argv = job.argv
    if report["outputs"].get("mass") != "1":
        errors.append(f"density mass {report['outputs'].get('mass')} != 1")
    out = opt(argv, "--out")
    if out:
        n, q, M = int(opt(argv, "--n")), int(opt(argv, "--ell")) ** int(opt(argv, "--k", 1)), int(opt(argv, "--M"))
        with open(out, newline="") as fh:
            total = sum(int(row["fiber_count"]) for row in csv.DictReader(fh))
        if total != q ** (M * n * n):
            errors.append(f"{out}: fiber counts sum to {total}, not q^(M n^2) = {q ** (M * n * n)}")


def _check_hist(job: Job, report: dict, errors: List[str]) -> None:
    q, M = int(opt(job.argv, "--ell")) ** int(opt(job.argv, "--k", 1)), int(opt(job.argv, "--M"))
    buckets = {int(r): Fraction(v) for r, v in report["outputs"]["buckets"].items()}
    closed = {r: Fraction((q - 1) ** 2 * (r + 1), q ** (r + 2)) for r in range(M + 1)}
    if buckets != closed:
        errors.append("valuation buckets differ from ((q-1)^2/q^2)(r+1)q^-r")
    if Fraction(report["outputs"]["tail"]) != 1 - sum(closed.values()):
        errors.append("histogram tail is not 1 - sum of buckets")


def _check_val_int(job: Job, report: dict, errors: List[str]) -> None:
    coeffs = [int(c) for c in opt(job.argv, "--poly").split(",")]
    ref = ref_val_integral(coeffs, int(opt(job.argv, "--ell")), int(opt(job.argv, "--M")))
    if _frac(report["outputs"]["integral"]) != ref:
        errors.append(f"val integral {report['outputs']['integral']} != independent value {ref}")


def _check_subreg(job: Job, report: dict, errors: List[str]) -> None:
    if report["outputs"].get("mass") != "1":
        errors.append(f"subregular density mass {report['outputs'].get('mass')} != 1")


_CHECKS = {"count": _check_count, "density": _check_density, "hist-mult": _check_hist,
           "val-int": _check_val_int, "subreg": _check_subreg}


def check_resume(job: Job, result: dict) -> List[str]:
    p = job.params
    total = p["ell"] ** (p["n"] * p["n"])
    lo = p["shard_id"] * total // p["shards"]
    hi = (p["shard_id"] + 1) * total // p["shards"]
    ref = ref_fiber_count(p["n"], p["ell"], p["x"], lo, hi)
    errors = []
    if result["first"] != ref:
        errors.append(f"shard subtotal {result['first']} != independent value {ref}")
    if result["second"] != result["first"]:
        errors.append(f"resumed subtotal {result['second']} != uninterrupted {result['first']}")
    if result["journal_lines"] < 1:
        errors.append("checkpoint journal is empty")
    return errors


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(job: Job, result: dict, seed: int, expected: Dict[str, dict]) -> List[str]:
    """Errors for one job's result (empty when correct).

    ``result`` holds ``error`` (an exception text) or, for a CLI job, ``rc``
    and ``stdout``; for the resume job ``first``, ``second`` and
    ``journal_lines``.
    """
    if result.get("error"):
        return [result["error"]]
    if job.is_resume:
        return check_resume(job, result)
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    try:
        report = strip_timing(json.loads(result["stdout"]))
    except json.JSONDecodeError as exc:
        return [f"unparsable report: {exc}"]
    errors = [f"verdict {name} is false" for name, ok in report.get("verdicts", {}).items() if not ok]
    try:
        if job.argv[0] in _CHECKS:
            _CHECKS[job.argv[0]](job, report, errors)
    except (KeyError, ValueError, OSError) as exc:
        errors.append(f"output not checkable: {exc!r}")
    frozen = expected.get(f"{job.part}/{job.id}")
    if frozen is not None and (not job.seeded or seed == DEFAULT_SEED):
        if not _matches_frozen(frozen, report.get("outputs")):
            errors.append("outputs differ from the values frozen in expected.json")
    return errors
