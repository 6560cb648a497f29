"""Exact jet-scheme point counts: nilpotent-cone jets, fibers of the
characteristic-polynomial map, fiber tables, power sums, dimension fits,
and a shardable, checkpointed enumeration kernel.

All counts are exhaustive enumerations (no lifting shortcuts); counts are
Python ints of unbounded size and serialize as decimal strings.

Engines: every sweep and shard decodes its index range in blocks of at most
BLOCK matrices into arrays of ring indices and runs them through the batched
Samuelson-Berkowitz kernel ``matrices.charpoly_batch``; the encoded
characteristic polynomials then give the counts.  The n = 2 fiber table for
q^(m+1) <= 512 runs on ``_fiber_table_np``, which hoists b*c out of its loop.
The scalar ``matrices.charpoly`` is the reference the kernel is tested
against; it also takes the n = 1 sweeps over rings too large for dense tables.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BadConfig, CorruptCheckpoint, CtxMismatch,
                     InsufficientData, ShardOutOfRange, TooLarge)
from .field import (RING_TABLE_LIMIT, FieldCtx, TruncCtx, field_make,
                    ring_tables, trunc_make)
from .matrices import CharCoeffs, JetMatrix, charpoly, charpoly_batch

SCHEMA_VERSION = 1
ENGINE_VERSION = "chevalab-0.1.0"
SHARD_GUARD = 1 << 40
SWEEP_GUARD = 1 << 30  # single-process full-sweep guard
_NP_RING_LIMIT = 512  # max q^(m+1) for the vectorized n=2 engine
BLOCK = 1 << 11  # matrices per charpoly_batch call; larger blocks add peak memory, not speed

FiberKey = Tuple[tuple, ...]  # (c_1, ..., c_n), each a series tuple


@dataclass(frozen=True)
class CountQuery:
    n: int
    ell: int
    k: int
    m: int
    kind: str  # "nilcone" | "fiber" | "gi" | "fibertable"
    x: Optional[FiberKey] = None
    i: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.ell < 2 or self.k < 1 or self.m < 0:
            raise BadConfig("need n >= 1, ell >= 2, k >= 1, m >= 0")
        if self.kind not in ("nilcone", "fiber", "gi", "fibertable"):
            raise BadConfig(f"unknown target kind {self.kind!r}")
        if self.kind == "fiber" and self.x is None:
            raise BadConfig("fiber target needs coefficients x")
        if self.kind == "gi" and (self.i is None or self.i < 1):
            raise BadConfig("gi target needs power i >= 1")

    def ctx(self) -> TruncCtx:
        return trunc_make(field_make(self.ell, self.k), self.m)

    def target_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.x is not None:
            d["x"] = [list(ci) for ci in self.x]
        if self.i is not None:
            d["i"] = self.i
        return d


@dataclass
class CountRecord:
    schema_version: int
    n: int
    ell: int
    k: int
    m: int
    target: dict
    count: int
    shards: int = 1
    shard_id: Optional[int] = None
    elapsed_ms: int = 0
    engine_version: str = ENGINE_VERSION

    def to_json(self) -> str:
        d = dict(self.__dict__)
        d["count"] = str(self.count)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CountRecord":
        try:
            d = json.loads(line)
            if "schema_version" not in d:
                raise BadConfig("record missing schema_version")
            d["count"] = int(d["count"])
            return CountRecord(**d)
        except (ValueError, TypeError, KeyError) as exc:  # ValueError covers bad JSON
            raise BadConfig(f"malformed count record: {exc}") from exc


# --------------------------------------------------------------------------
# enumeration of matrices
# --------------------------------------------------------------------------

def matrix_space_size(n: int, ctx: TruncCtx) -> int:
    return ctx.size ** (n * n)


def _check_sweep(n: int, ctx: TruncCtx, guard: int = SWEEP_GUARD) -> None:
    if matrix_space_size(n, ctx) > guard:
        raise TooLarge(
            f"q^((m+1)n^2) = {matrix_space_size(n, ctx)} exceeds the sweep guard; shard the run"
        )


def enumerate_matrices(n: int, ctx: TruncCtx) -> Iterable[JetMatrix]:
    """All matrices, entry (0,0) outermost, each entry in ring order."""
    for flat in itertools.product(ctx.elements(), repeat=n * n):
        rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        yield JetMatrix(ctx, n, rows)


def matrix_from_index(n: int, ctx: TruncCtx, idx: int) -> JetMatrix:
    P = ctx.size
    cells = []
    for _ in range(n * n):
        cells.append(ctx.from_index(idx % P))
        idx //= P
    cells.reverse()
    rows = tuple(tuple(cells[i * n + j] for j in range(n)) for i in range(n))
    return JetMatrix(ctx, n, rows)


# --------------------------------------------------------------------------
# block decoders: index ranges -> entry arrays for charpoly_batch
# --------------------------------------------------------------------------

def _blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The indices lo..hi-1 as int64 arrays of at most BLOCK entries."""
    for start in range(lo, hi, BLOCK):
        yield np.arange(start, min(start + BLOCK, hi), dtype=np.int64)


def _rows(n: int, cells: list) -> list:
    return [cells[i * n:(i + 1) * n] for i in range(n)]


def _full_entries(n: int, P: int, idx: np.ndarray) -> list:
    """Entry arrays of the matrices with sweep indices idx, in the order of
    matrix_from_index: entry (0,0) is the most significant base-P digit."""
    cells = []
    for _ in range(n * n):
        cells.append(idx % P)
        idx = idx // P
    cells.reverse()
    return _rows(n, cells)


def _nilcone_entries(n: int, ctx: TruncCtx, bases: np.ndarray, idx: np.ndarray) -> list:
    """Entry arrays of the pruned nilcone layout.  Index idx takes the m = 0
    nilpotent base matrix bases[idx // q^(m n^2)] and reads the higher
    t-coefficients of every entry from the base-q digits of idx % q^(m n^2),
    entry (0,0) and t^1 most significant."""
    Q = ctx.field.q ** ctx.m  # choices of the higher coefficients of one entry
    base = bases[idx // Q ** (n * n)]
    h = idx % Q ** (n * n)
    cells = []
    for e in range(n * n - 1, -1, -1):
        cells.append(base[:, e] * Q + h % Q)
        h = h // Q
    cells.reverse()
    return _rows(n, cells)


def _encode_key(ctx: TruncCtx, key: FiberKey) -> int:
    """(c_1, ..., c_n) -> sum_i index(c_i) P^(n-i), the key _charpoly_keys gives."""
    code = 0
    for ci in key:
        code = code * ctx.size + ctx.index(ci)
    return code


def _decode_key(n: int, ctx: TruncCtx, code: int) -> FiberKey:
    cs = []
    for _ in range(n):
        cs.append(ctx.from_index(code % ctx.size))
        code //= ctx.size
    return tuple(reversed(cs))


def _charpoly_keys(n: int, ctx: TruncCtx, entries) -> np.ndarray:
    """Encoded characteristic polynomials (see _encode_key) of a block."""
    P = ctx.size
    if P > RING_TABLE_LIMIT:
        # Too large for dense tables; under the sweep and shard guards only
        # n = 1 gets here, so the scalar engine takes these matrices one by one.
        flat = np.broadcast_arrays(*(x for row in entries for x in row))
        keys = []
        for b in range(flat[0].size):
            A = JetMatrix(ctx, n, tuple(tuple(ctx.from_index(int(flat[i * n + j][b]))
                                              for j in range(n)) for i in range(n)))
            keys.append(_encode_key(ctx, charpoly(A).c))
        return np.array(keys, dtype=np.int64)
    cs = charpoly_batch(n, ring_tables(ctx), entries)
    key = cs[0]
    for c in cs[1:]:
        key = key * P + c
    return key


def _table_from_counts(n: int, ctx: TruncCtx, counts: np.ndarray) -> Dict[FiberKey, int]:
    return {_decode_key(n, ctx, code): int(counts[code]) for code in np.nonzero(counts)[0].tolist()}


def _nilpotent_bases(n: int, field: FieldCtx) -> np.ndarray:
    """m = 0 nilpotent matrices in sweep order, one row of n^2 field codes each."""
    ctx0 = trunc_make(field, 0)
    q = field.q
    found = []
    for idx in _blocks(0, q ** (n * n)):
        entries = _full_entries(n, q, idx)
        cells = np.stack([x for row in entries for x in row], axis=1)
        found.append(cells[_charpoly_keys(n, ctx0, entries) == 0])
    return np.concatenate(found)


def _target_space(n: int, ctx: TruncCtx, kind: str, x=None, i: Optional[int] = None):
    """(index count, hit) of a count target; hit maps a block of indices to
    the mask of those the target counts.

    The enumeration orders fix shard boundaries and checkpoints:
    nilcone: the pruned layout of _nilcone_entries;
    fiber: the full matrix space in matrix_from_index order;
    gi: i-tuples of matrices, matrix j in base-|Mat_n(R_m)| digit j, least
    significant first.
    """
    P = ctx.size
    if kind == "nilcone":
        bases = _nilpotent_bases(n, ctx.field)
        total = len(bases) * ctx.field.q ** (ctx.m * n * n)
        return total, lambda idx: _charpoly_keys(n, ctx, _nilcone_entries(n, ctx, bases, idx)) == 0
    if kind == "fiber":
        target = _encode_key(ctx, _fiber_key(n, ctx, x))
        return (matrix_space_size(n, ctx),
                lambda idx: _charpoly_keys(n, ctx, _full_entries(n, P, idx)) == target)
    if kind == "gi":
        S = matrix_space_size(n, ctx)

        def hit(idx: np.ndarray) -> np.ndarray:
            first = _charpoly_keys(n, ctx, _full_entries(n, P, idx % S))
            same = np.ones(idx.shape, dtype=bool)
            for _ in range(i - 1):
                idx = idx // S
                same &= _charpoly_keys(n, ctx, _full_entries(n, P, idx % S)) == first
            return same

        return S ** i, hit
    raise BadConfig("fibertable target is not shardable")


def _count_hits(hit, lo: int, hi: int) -> int:
    return sum(int(np.count_nonzero(hit(idx))) for idx in _blocks(lo, hi))


# --------------------------------------------------------------------------
# fiber tables
# --------------------------------------------------------------------------

def fiber_table(n: int, ctx: TruncCtx) -> Dict[FiberKey, int]:
    """count_jet_fiber(x) for every x in c(R_m), by one exhaustive sweep."""
    _check_sweep(n, ctx)
    if n == 2 and ctx.size <= _NP_RING_LIMIT:
        return _fiber_table_np(ctx)
    P = ctx.size
    counts = np.zeros(P ** n, dtype=np.int64)
    for idx in _blocks(0, matrix_space_size(n, ctx)):
        counts += np.bincount(_charpoly_keys(n, ctx, _full_entries(n, P, idx)), minlength=P ** n)
    return _table_from_counts(n, ctx, counts)


def _fiber_table_np(ctx: TruncCtx) -> Dict[FiberKey, int]:
    """n = 2 sweep that hoists b*c out of the loop over the (0,0) entry a."""
    P, add, mul, neg = ring_tables(ctx)
    add, mul = add.reshape(P, P), mul.reshape(P, P)
    counts = np.zeros(P * P, dtype=np.int64)
    idx = np.arange(P ** 3, dtype=np.int64)
    b = idx // (P * P)
    c = (idx // P) % P
    d = idx % P
    bc = mul[b, c]
    for a in range(P):
        c1 = neg[add[a, d]]
        c2 = add[mul[a, d], neg[bc]]
        counts += np.bincount(c1 * P + c2, minlength=P * P)
    return _table_from_counts(2, ctx, counts)


def count_jet_fiber(n: int, ctx: TruncCtx, x) -> int:
    """Exact size of {A in Mat_n(R_m) : charpoly(A) = x}."""
    total, hit = _target_space(n, ctx, "fiber", x=x)
    _check_sweep(n, ctx)
    return _count_hits(hit, 0, total)


def _fiber_key(n: int, ctx: TruncCtx, x) -> FiberKey:
    if isinstance(x, CharCoeffs):
        if x.ctx.key() != ctx.key() or x.n != n:
            raise CtxMismatch("fiber target context does not match query")
        return x.c
    key = tuple(tuple(ci) for ci in x)
    if len(key) != n:
        raise CtxMismatch(f"expected {n} coefficients, got {len(key)}")
    for ci in key:
        ctx.check(ci)
    return key


def count_nilcone_jets(n: int, ctx: TruncCtx) -> int:
    """#J_m(N)(F_q): the fiber over x = 0, swept over the jets of the m = 0
    nilpotent matrices only (J_m(N) lies over J_0(N))."""
    _check_sweep(n, ctx)
    total, hit = _target_space(n, ctx, "nilcone")
    return _count_hits(hit, 0, total)


def count_gi_jets(n: int, ctx: TruncCtx, i: int) -> int:
    """Sum over x in c(R_m) of count_jet_fiber(x)^i (i-tuples sharing a
    characteristic polynomial)."""
    if i < 1:
        raise BadConfig("power i must be >= 1")
    table = fiber_table(n, ctx)
    return sum(v ** i for v in table.values())


# --------------------------------------------------------------------------
# running a query
# --------------------------------------------------------------------------

def run_query(query: CountQuery) -> CountRecord:
    ctx = query.ctx()
    t0 = time.monotonic()
    if query.kind == "nilcone":
        count = count_nilcone_jets(query.n, ctx)
    elif query.kind == "fiber":
        count = count_jet_fiber(query.n, ctx, query.x)
    elif query.kind == "gi":
        count = count_gi_jets(query.n, ctx, query.i)
    else:
        raise BadConfig("fibertable target has no single count; use fiber_table()")
    ms = int((time.monotonic() - t0) * 1000)
    return CountRecord(SCHEMA_VERSION, query.n, query.ell, query.k, query.m,
                       query.target_dict(), count, elapsed_ms=ms)


# --------------------------------------------------------------------------
# sharded, checkpointed counting
# --------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def count_sharded(query: CountQuery, shards: int, shard_id: int,
                  checkpoint_path: Optional[str] = None,
                  chunk: int = 65536) -> CountRecord:
    """Subtotal for one shard of the enumeration; resumable from checkpoint.

    Shards are contiguous prefixes of the fixed enumeration order, so the
    split is reproducible across machines; subtotals add up to the full count.
    """
    if not (0 <= shard_id < shards):
        raise ShardOutOfRange(f"shard {shard_id} outside [0, {shards})")
    ctx = query.ctx()
    if matrix_space_size(query.n, ctx) > SHARD_GUARD:  # before the nilcone base sweep
        raise TooLarge("query exceeds the per-shard-set guard 2^40")
    total, hit = _target_space(query.n, ctx, query.kind, query.x, query.i)
    if total > SHARD_GUARD:  # gi enumerates i-tuples of matrices
        raise TooLarge(f"{total} shard indices exceed the per-shard-set guard 2^40")
    lo = shard_id * total // shards
    hi = (shard_id + 1) * total // shards
    pos, subtotal, lines = lo, 0, []
    if checkpoint_path and os.path.exists(checkpoint_path):
        pos, subtotal, lines = _read_checkpoint(checkpoint_path, query, shards, shard_id, lo, hi)
    t0 = time.monotonic()
    while pos < hi:
        end = min(pos + chunk, hi)
        subtotal += _count_hits(hit, pos, end)
        pos = end
        if checkpoint_path:
            lines.append(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "query": _query_sig(query),
                "shards": shards, "shard_id": shard_id,
                "next_index": pos, "subtotal": str(subtotal),
            }, sort_keys=True))
            _atomic_write(checkpoint_path, "\n".join(lines) + "\n")
    ms = int((time.monotonic() - t0) * 1000)
    return CountRecord(SCHEMA_VERSION, query.n, query.ell, query.k, query.m,
                       query.target_dict(), subtotal, shards=shards,
                       shard_id=shard_id, elapsed_ms=ms)


def _query_sig(query: CountQuery) -> dict:
    return {"n": query.n, "ell": query.ell, "k": query.k, "m": query.m,
            "target": query.target_dict()}


def _read_checkpoint(path: str, query: CountQuery, shards: int, shard_id: int,
                     lo: int, hi: int):
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines:
            return lo, 0, []
        last = json.loads(lines[-1])
        if (last.get("schema_version") != SCHEMA_VERSION
                or last.get("query") != _query_sig(query)
                or last.get("shards") != shards
                or last.get("shard_id") != shard_id):
            raise CorruptCheckpoint(f"checkpoint {path} does not match this query/shard")
        pos = int(last["next_index"])
        subtotal = int(last["subtotal"])
        if not (lo <= pos <= hi):
            raise CorruptCheckpoint(f"checkpoint position {pos} outside shard range")
        return pos, subtotal, lines
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: {exc}") from exc


def combine_records(partials: Sequence[CountRecord]) -> CountRecord:
    if not partials:
        raise InsufficientData("no partial records to combine")
    head = partials[0]
    for r in partials[1:]:
        if (r.n, r.ell, r.k, r.m, r.target) != (head.n, head.ell, head.k, head.m, head.target):
            raise BadConfig("cannot combine records of different queries")
    total = sum(r.count for r in partials)
    return CountRecord(SCHEMA_VERSION, head.n, head.ell, head.k, head.m,
                       head.target, total, shards=head.shards, shard_id=None,
                       elapsed_ms=sum(r.elapsed_ms for r in partials))


# --------------------------------------------------------------------------
# Lang-Weil dimension fitting
# --------------------------------------------------------------------------

@dataclass
class DimFit:
    n: int
    ell: int
    target_kind: str
    entries: List[dict] = dc_field(default_factory=list)  # per record: k, m, count, C_m
    slopes: Dict[int, Fraction] = dc_field(default_factory=dict)  # per m

    @property
    def slope(self):
        if not self.slopes:
            raise InsufficientData("need >= 2 distinct extension degrees k for a slope")
        return self.slopes[min(self.slopes)]


def expected_dimension_rate(n: int, target: dict) -> int:
    """Per-jet-order dimension growth: n^2 - n for nilcone/fiber targets,
    i(n^2 - n) + n for the i-fold fiber power."""
    if target["kind"] in ("nilcone", "fiber"):
        return n * n - n
    if target["kind"] == "gi":
        return target["i"] * (n * n - n) + n
    raise BadConfig(f"no expected dimension for target {target['kind']}")


def _log_q(count: int, q: int):
    """log_q(count), exact as an int when count is a perfect power of q."""
    if count <= 0:
        raise InsufficientData("cannot fit a zero count")
    e = round(math.log(count) / math.log(q))
    if q ** e == count:
        return e
    return math.log(count) / math.log(q)


def fit_dimension(records: Sequence[CountRecord]) -> DimFit:
    if not records:
        raise InsufficientData("no records")
    head = records[0]
    kind = head.target["kind"]
    for r in records:
        if (r.n, r.ell, r.target["kind"]) != (head.n, head.ell, kind):
            raise BadConfig("fit_dimension needs consistent (n, ell, target)")
    fit = DimFit(head.n, head.ell, kind)
    d_rate = expected_dimension_rate(head.n, head.target)
    by_m: Dict[int, List[Tuple[int, int]]] = {}
    for r in records:
        q = r.ell ** r.k
        c_m = _log_q(r.count, q) - r.m * d_rate
        fit.entries.append({"k": r.k, "m": r.m, "count": r.count,
                            "C_m": float(c_m)})
        by_m.setdefault(r.m, []).append((r.k, r.count))
    for m, pts in by_m.items():
        ks = sorted({k for k, _ in pts})
        if len(ks) < 2:
            continue
        # least squares of log_ell(count) against k (slope = dimension)
        xs, ys, exact = [], [], True
        for k, count in pts:
            xs.append(Fraction(k))
            y = _log_q(count, head.ell)
            if not isinstance(y, int):
                exact = False
            ys.append(Fraction(y) if isinstance(y, int) else y)
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = sum((x - xbar) ** 2 for x in xs)
        slope = Fraction(num, den) if exact else num / den
        fit.slopes[m] = slope
    return fit
