"""Exact jet-scheme point counts: nilpotent-cone jets, fibers of the
characteristic-polynomial map, fiber tables, power sums, dimension fits,
and a shardable, checkpointed enumeration kernel.

All counts are exhaustive enumerations (no lifting shortcuts); counts are
Python ints of unbounded size and serialize as decimal strings.

Engines: every sweep and shard decodes its index range in blocks of at most
BLOCK matrices into arrays of ring indices and runs them through the batched
Samuelson-Berkowitz kernel ``matrices.charpoly_batch``; the encoded
characteristic polynomials then give the counts.  The n = 2 fiber table is
one integer matrix product (``_fiber_table_np``); it still counts every
matrix (a, b, c, d), only grouped by the pairs (a, d) and (b, c).
The kernel is tested against the cofactor expansion in ``tests/oracles.py``.
An n = 1 sweep needs no kernel and no tables: c_1 = -a is ``field.ring_neg``
on the ring indices, at every ring size.

Sharding: every target has one index space and one ``subtotal(lo, hi)``
(``_target_space``).  A count is ``subtotal(0, total)``; ``count_sharded``
counts one contiguous slice, so subtotals add up to the full count.  nilcone
and fiber index matrices; gi indexes the characteristic polynomials x, each
adding N(x)^i read from the one fiber table.  Shards run one after another
in one process; separate processes, one per shard id, are the way to run
nilcone and fiber shards in parallel.  A shard's checkpoint is one JSON line
holding its latest state, replaced atomically after every chunk.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BadConfig, CorruptCheckpoint, CtxMismatch,
                     InsufficientData, ShardOutOfRange, TooLarge)
from .field import FieldCtx, TruncCtx, field_make, ring_neg, ring_tables, trunc_make
from .matrices import CharCoeffs, JetMatrix, charpoly_batch
from .reporting import SCHEMA_VERSION, CountRecord, atomic_write_text

SHARD_GUARD = 1 << 40
SWEEP_GUARD = 1 << 30  # single-process full-sweep guard
BLOCK = 1 << 11  # matrices per charpoly_batch call; larger blocks add peak memory, not speed

FiberKey = Tuple[tuple, ...]  # (c_1, ..., c_n), each a series tuple


@dataclass(frozen=True)
class CountQuery:
    n: int
    ell: int
    k: int
    m: int
    kind: str  # "nilcone" | "fiber" | "gi"
    x: Optional[FiberKey] = None
    i: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.ell < 2 or self.k < 1 or self.m < 0:
            raise BadConfig("need n >= 1, ell >= 2, k >= 1, m >= 0")
        if self.kind not in ("nilcone", "fiber", "gi"):
            raise BadConfig(f"unknown target kind {self.kind!r}")
        if self.kind == "fiber" and self.x is None:
            raise BadConfig("fiber target needs coefficients x")
        if self.kind == "gi" and (self.i is None or self.i < 1):
            raise BadConfig("gi target needs power i >= 1")
        if self.kind != "fiber" and self.x is not None:
            raise BadConfig(f"{self.kind} target takes no coefficients x")
        if self.kind != "gi" and self.i is not None:
            raise BadConfig(f"{self.kind} target takes no power i")

    def ctx(self) -> TruncCtx:
        return trunc_make(field_make(self.ell, self.k), self.m)

    def target_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.x is not None:
            d["x"] = [list(ci) for ci in self.x]
        if self.i is not None:
            d["i"] = self.i
        return d


# --------------------------------------------------------------------------
# enumeration of matrices
# --------------------------------------------------------------------------

def matrix_space_size(n: int, ctx: TruncCtx) -> int:
    return ctx.size ** (n * n)


def _check_sweep(size: int, what: str, shardable: bool = False) -> None:
    if size > SWEEP_GUARD:
        raise TooLarge(f"{what} = {size} exceeds the sweep guard 2^30"
                       + ("; shard the run" if shardable else ""))


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


def _digits(P: int, count: int, idx: np.ndarray) -> list:
    """The count base-P digits of idx, most significant first."""
    return [idx // P ** (count - 1 - d) % P for d in range(count)]


def _full_entries(n: int, P: int, idx: np.ndarray) -> list:
    """Entry arrays of the matrices with sweep indices idx, in the order of
    matrix_from_index: entry (0,0) is the most significant base-P digit."""
    return _rows(n, _digits(P, n * n, idx))


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
    if n == 1:  # c_1 = -a, on rings of any size
        return ring_neg(ctx, entries[0][0])
    cs = charpoly_batch(n, ring_tables(ctx), entries)
    key = cs[0]
    for c in cs[1:]:
        key = key * ctx.size + c
    return key


def _table_from_counts(n: int, ctx: TruncCtx, counts: np.ndarray) -> Dict[FiberKey, int]:
    return {_decode_key(n, ctx, code): int(counts[code]) for code in np.nonzero(counts)[0].tolist()}


@functools.lru_cache(maxsize=4)
def _nilpotent_bases(n: int, field: FieldCtx) -> np.ndarray:
    """m = 0 nilpotent matrices in sweep order, one row of n^2 field codes each;
    built once per (n, field.key()) and read-only, since every nilcone shard
    of a run starts from the same bases.  Nilpotent matrices have trace 0, so
    the sweep runs over the other n^2 - 1 entries and sets entry (n-1, n-1),
    the least significant digit, to minus the rest of the diagonal."""
    if n == 1:  # the single base 0; q may be too large for dense tables
        bases = np.zeros((1, 1), dtype=np.int64)
    else:
        _check_sweep(field.q ** (n * n - 1), "q^(n^2-1) trace-zero bases")
        ctx0 = trunc_make(field, 0)
        q, add, _, neg = ring_tables(ctx0)
        found = []
        for idx in _blocks(0, q ** (n * n - 1)):
            cells = [x for row in _full_entries(n, q, idx * q) for x in row]
            trace = cells[0]
            for i in range(1, n - 1):
                trace = add[trace * q + cells[i * (n + 1)]]
            cells[-1] = neg[trace]
            keep = _charpoly_keys(n, ctx0, _rows(n, cells)) == 0
            found.append(np.stack(cells, axis=1)[keep])
        bases = np.concatenate(found)
    bases.flags.writeable = False
    return bases


def _target_space(n: int, ctx: TruncCtx, kind: str, x=None, i: Optional[int] = None):
    """(index count, subtotal) of a count target; subtotal(lo, hi) counts what
    the target finds at indices lo..hi-1, so the subtotals of a split add up.

    The index spaces fix shard boundaries and checkpoints:
    nilcone: the pruned layout of _nilcone_entries;
    fiber: the full matrix space in matrix_from_index order;
    gi: the encoded characteristic polynomials x in _encode_key order, index x
    adding N(x)^i with N(x) read from _fiber_counts.
    """
    if kind == "gi":
        counts = _fiber_counts(n, ctx)
        return len(counts), lambda lo, hi: sum(v ** i for v in counts[lo:hi].tolist())
    if kind == "nilcone":
        bases = _nilpotent_bases(n, ctx.field)
        total = len(bases) * ctx.field.q ** (ctx.m * n * n)
        hit = lambda idx: _charpoly_keys(n, ctx, _nilcone_entries(n, ctx, bases, idx)) == 0
    else:
        total, target = matrix_space_size(n, ctx), _encode_key(ctx, _fiber_key(n, ctx, x))
        hit = lambda idx: _charpoly_keys(n, ctx, _full_entries(n, ctx.size, idx)) == target
    return total, lambda lo, hi: _count_hits(hit, lo, hi)


def _count_hits(hit, lo: int, hi: int) -> int:
    return sum(int(np.count_nonzero(hit(idx))) for idx in _blocks(lo, hi))


def _count(n: int, ctx: TruncCtx, kind: str, x=None, i: Optional[int] = None) -> int:
    """The whole count of a target, subtotal(0, total), guarding the total that runs."""
    total, subtotal = _target_space(n, ctx, kind, x, i)
    _check_sweep(total, f"{kind} index count", shardable=kind != "gi")
    return subtotal(0, total)


# --------------------------------------------------------------------------
# fiber tables
# --------------------------------------------------------------------------

def fiber_table(n: int, ctx: TruncCtx) -> Dict[FiberKey, int]:
    """count_jet_fiber(x) for every x in c(R_m) with a nonempty fiber."""
    return _table_from_counts(n, ctx, _fiber_counts(n, ctx))


@functools.lru_cache(maxsize=4)
def _fiber_counts(n: int, ctx: TruncCtx) -> np.ndarray:
    """The fiber sizes N(x) of every encoded x (_encode_key), one dense array of
    P^n counts; cached per (n, ctx.key()) and read-only, since density levels
    and every gi shard of a run read the same table.  Each guard bounds the
    work that runs: P^3 multiply-adds for the n = 2 product, the whole
    matrix space for a sweep."""
    P = ctx.size
    if n == 2:
        _check_sweep(P ** 3, "P^3 multiply-adds of the n = 2 product")
        counts = _fiber_table_np(ctx)
    else:
        _check_sweep(matrix_space_size(n, ctx), "q^((m+1)n^2)")
        counts = sum(np.bincount(_charpoly_keys(n, ctx, _full_entries(n, P, idx)), minlength=P ** n)
                     for idx in _blocks(0, matrix_space_size(n, ctx)))
    counts.flags.writeable = False
    return counts


def _fiber_table_np(ctx: TruncCtx) -> np.ndarray:
    """The n = 2 fiber counts as one integer matrix product.  charpoly([[a, b], [c, d]])
    is (-(a+d), ad - bc), so H[c1, p] = #{(a, d) : -(a+d) = c1, ad = p} and
    B[p, c2] = #{(b, c) : bc = p - c2} give the counts H @ B.  Every entry is
    a count <= P^4 <= 2^40 under the guard P^3 <= 2^30, so int64 is exact."""
    P, add, mul, neg = ring_tables(ctx)
    H = np.bincount(neg[add] * P + mul, minlength=P * P).reshape(P, P)
    B = np.bincount(mul, minlength=P)[add.reshape(P, P)[:, neg]]
    return (H @ B).ravel()


def count_jet_fiber(n: int, ctx: TruncCtx, x) -> int:
    """Exact size of {A in Mat_n(R_m) : charpoly(A) = x}."""
    return _count(n, ctx, "fiber", x=x)


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
    return _count(n, ctx, "nilcone")


def count_gi_jets(n: int, ctx: TruncCtx, i: int) -> int:
    """Sum over x in c(R_m) of count_jet_fiber(x)^i (i-tuples sharing a
    characteristic polynomial)."""
    if i < 1:
        raise BadConfig("power i must be >= 1")
    return _count(n, ctx, "gi", i=i)


# --------------------------------------------------------------------------
# running a query
# --------------------------------------------------------------------------

def run_query(query: CountQuery) -> CountRecord:
    ctx = query.ctx()
    if query.kind == "nilcone":
        count = count_nilcone_jets(query.n, ctx)
    elif query.kind == "fiber":
        count = count_jet_fiber(query.n, ctx, query.x)
    else:
        count = count_gi_jets(query.n, ctx, query.i)
    return CountRecord(SCHEMA_VERSION, query.n, query.ell, query.k, query.m,
                       query.target_dict(), count)


# --------------------------------------------------------------------------
# sharded, checkpointed counting
# --------------------------------------------------------------------------

def count_sharded(query: CountQuery, shards: int, shard_id: int,
                  checkpoint_path: Optional[str] = None,
                  chunk: int = 65536) -> CountRecord:
    """Subtotal for one shard of the target's index space (_target_space);
    resumable from checkpoint.

    Shards are contiguous slices of the fixed index order, so the split is
    reproducible across machines; subtotals add up to the full count.  A gi
    shard builds the whole fiber table and sums N(x)^i over its slice of the
    codes x, so gi shards gain nothing from running as parallel processes.
    After every chunk the checkpoint is replaced by one line holding the
    latest state: the query, the shard, the next index and the subtotal.
    """
    if not (0 <= shard_id < shards):
        raise ShardOutOfRange(f"shard {shard_id} outside [0, {shards})")
    if chunk < 1:
        raise BadConfig(f"chunk {chunk} must be >= 1")
    ctx = query.ctx()
    if matrix_space_size(query.n, ctx) > SHARD_GUARD:  # before the nilcone base sweep
        raise TooLarge("query exceeds the per-shard-set guard 2^40")
    total, subtotal_of = _target_space(query.n, ctx, query.kind, query.x, query.i)
    lo = shard_id * total // shards
    hi = (shard_id + 1) * total // shards
    pos, subtotal = lo, 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        pos, subtotal = _read_checkpoint(checkpoint_path, query, shards, shard_id, lo, hi)
    while pos < hi:
        end = min(pos + chunk, hi)
        subtotal += subtotal_of(pos, end)
        pos = end
        if checkpoint_path:
            atomic_write_text(checkpoint_path, json.dumps({
                "schema_version": SCHEMA_VERSION,
                "query": _query_sig(query),
                "shards": shards, "shard_id": shard_id,
                "next_index": pos, "subtotal": str(subtotal),
            }, sort_keys=True) + "\n")
    return CountRecord(SCHEMA_VERSION, query.n, query.ell, query.k, query.m,
                       query.target_dict(), subtotal, shards=shards, shard_id=shard_id)


def _query_sig(query: CountQuery) -> dict:
    # gi checkpoints name their index space; older ones counted i-tuples of matrices
    index = {"index": "charpoly codes"} if query.kind == "gi" else {}
    return {"n": query.n, "ell": query.ell, "k": query.k, "m": query.m,
            "target": query.target_dict(), **index}


def _read_checkpoint(path: str, query: CountQuery, shards: int, shard_id: int,
                     lo: int, hi: int) -> Tuple[int, int]:
    """(next index, subtotal) from the last non-empty line, so that a
    multi-line journal of an older version resumes as well."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if ln.strip()]
        if not lines:
            return lo, 0
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
        return pos, subtotal
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: {exc}") from exc


def combine_records(partials: Sequence[CountRecord]) -> CountRecord:
    if not partials:
        raise InsufficientData("no partial records to combine")
    head = partials[0]
    for r in partials[1:]:
        if (r.n, r.ell, r.k, r.m, r.target) != (head.n, head.ell, head.k, head.m, head.target):
            raise BadConfig("cannot combine records of different queries")
    ids = {(r.shards, r.shard_id) for r in partials}
    if len(partials) != head.shards or ids != {(head.shards, j) for j in range(head.shards)}:
        raise BadConfig(f"partials are not the shard ids 0..{head.shards - 1} of one split")
    total = sum(r.count for r in partials)
    return CountRecord(SCHEMA_VERSION, head.n, head.ell, head.k, head.m,
                       head.target, total, shards=head.shards, shard_id=None)


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
