"""Exact jet-scheme point counts: nilpotent-cone jets, fibers of the
characteristic-polynomial map, fiber tables, power sums, dimension fits,
and a shardable, checkpointed counting kernel.

Counts are exact Python ints of unbounded size and serialize as decimal
strings.  ``count_engine`` names the engine that runs each count:

* lift: write A = B + t^h U with h = floor(m/2) + 1 and B in
  Mat_n(R_(h-1)).  Since 2h >= m+1, c(A) = c(B) + t^h Dc_B(U) exactly,
  with Dc_B linear over F_ell in the digits of U.  Only B is enumerated; the
  U with c(A) = x form an empty set or a coset of ker Dc_B, found by one
  batched elimination over F_ell (``matrices.row_echelon``).  The columns
  of Dc_B are c(B + t^l g E_ij) - c(B) for l >= h and g in an F_ell-basis
  of F_q, from the same kernel.  nilcone and fiber counts (_lift_space) and
  the n >= 3 fiber table (_lift_counts) run this way.  At m = 0, h = 1 and
  the top half is empty: B is A, and each A with c(A) = x adds 1.  The
  kernel runs in the arithmetic ``matrices.charpoly_batch`` picks from the
  ring, ``field.ring_ops`` when int64 is not exact, which works on every
  ring, so the lift has no ring-size wall of its own.
* n2-product: the n = 2 fiber table at every m is one integer matrix
  product (``_fiber_table_np``), grouping the matrices by (a, d) and (b, c),
  read from ``field.ring_ops`` on the P x P grid of index pairs.
The kernel is tested against the cofactor expansion in ``tests/oracles.py``.

Sharding: every target has one index space and one ``subtotal(lo, hi)``
(``_target_space``).  A count is ``subtotal(0, total)``; ``count_sharded``
counts one contiguous slice, so subtotals add up to the full count.  Under
the lift engine nilcone and fiber index the bases B at level h-1 as jets
of the m = 0 fiber of x mod t (_fiber_bases, _jet_entries), the nilcone
being the fiber over 0; the m = 0 fiber alone indexes all of Mat_n(F_q).
gi indexes the characteristic polynomials x, each adding N(x)^i read from
the one fiber table.  Shards run one after another in one process;
separate processes, one per shard id, run nilcone and fiber shards in
parallel.  A shard's checkpoint is one JSON line holding its latest state,
replaced atomically after every chunk; chunks end on page boundaries.

Pages, not chunks, are what runs: subtotal(lo, hi) reads slices of the
BLOCK-aligned pages covering lo..hi-1 from two memos, _charpoly_page (m = 0
charpoly codes, read by the m = 0 fiber table too) and _lift_page (m >= 1).
A process evaluates each page at most once, whatever chunks, shards and
counts cut the index space, and under 2 BLOCK indices outside lo..hi-1.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BadConfig, CorruptCheckpoint, CtxMismatch, IoError,
                     InsufficientData, ShardOutOfRange, TooLarge)
from .field import FieldCtx, TruncCtx, field_make, ring_ops, trunc_make
from .matrices import CharCoeffs, JetMatrix, charpoly_batch, row_echelon
from .reporting import SCHEMA_VERSION, CountRecord, atomic_write_text

SHARD_GUARD = 1 << 40
SWEEP_GUARD = 1 << 30  # single-process full-sweep guard
BLOCK = 1 << 11  # matrices per charpoly_batch call; larger blocks add peak memory, not speed
PAGE_CACHE = 1 << 7  # pages kept per memo: 2^7 pages of BLOCK int64 values are 2 MB
TABLE_GUARD = 1 << 20  # codes of a dense fiber table, the most the n = 2 product reaches (P <= 2^10)

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


def _size_text(size: int) -> str:
    """A size for a guard message: exact below 2^64, else "about 2^b"."""
    return str(size) if size < 1 << 64 else f"about 2^{round(math.log2(size))}"


def _check_sweep(size: int, what: str, shardable: bool = False) -> None:
    if size > SWEEP_GUARD:
        raise TooLarge(f"{what} = {_size_text(size)} exceeds the sweep guard 2^30"
                       + ("; shard the run, one process per --shard-id" if shardable else ""))


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

def _blocks(lo: int, hi: int, size: int = BLOCK) -> Iterator[np.ndarray]:
    """The indices lo..hi-1 as int64 arrays of at most size entries."""
    for start in range(lo, hi, size):
        yield np.arange(start, min(start + size, hi), dtype=np.int64)


def _draws(seed: int, highs: Sequence[int], samples: int) -> Iterator[list]:
    """samples points of random.Random(seed), digit d of each drawn from
    range(highs[d]), in blocks of at most BLOCK points, each block a list of
    one int64 array per digit."""
    rng = random.Random(seed)
    for start in range(0, samples, BLOCK):
        block = [[rng.randrange(h) for h in highs] for _ in range(min(BLOCK, samples - start))]
        yield list(np.array(block, dtype=np.int64).T)


def _rows(n: int, cells: list) -> list:
    return [cells[i * n:(i + 1) * n] for i in range(n)]


def _digits(P: int, count: int, idx: np.ndarray) -> list:
    """The count base-P digits of idx, most significant first."""
    return [idx // P ** (count - 1 - d) % P for d in range(count)]


def _full_entries(n: int, P: int, idx: np.ndarray) -> list:
    """Entry arrays of the matrices with sweep indices idx, in the order of
    matrix_from_index: entry (0,0) is the most significant base-P digit."""
    return _rows(n, _digits(P, n * n, idx))


def _jet_entries(n: int, ctx: TruncCtx, bases: np.ndarray, idx: np.ndarray) -> list:
    """Entry arrays of the jets of m = 0 bases (_fiber_bases).  Index idx takes
    the base matrix bases[idx // q^(m n^2)] and reads the higher
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
    cs = charpoly_batch(n, ctx, entries)
    key = cs[0]
    for c in cs[1:]:
        key = key * ctx.size + c
    return key


def _table_from_counts(n: int, ctx: TruncCtx, counts: np.ndarray) -> Dict[FiberKey, int]:
    return {_decode_key(n, ctx, code): int(counts[code]) for code in np.nonzero(counts)[0].tolist()}


@functools.lru_cache(maxsize=4)
def _fiber_bases(n: int, field: FieldCtx, x0: int) -> np.ndarray:
    """m = 0 matrices B with c(B) = x0 (an _encode_key code) in sweep order, one
    row of n^2 field codes each; built once per (n, field.key(), x0) and
    read-only, since every shard of a run starts from the same bases.  As
    trace B = -c_1, the sweep runs over the other n^2 - 1 entries and sets
    entry (n-1, n-1), the least significant digit, to -c_1(x0) minus the rest
    of the diagonal, the whole of it at n = 1.  n >= 1."""
    _check_sweep(field.q ** (n * n - 1), "q^(n^2-1) bases of fixed trace")
    ctx0, q = trunc_make(field, 0), field.q
    add, _, neg = ring_ops(ctx0)
    found = []
    for idx in _blocks(0, q ** (n * n - 1)):
        cells = [x for row in _full_entries(n, q, idx * q) for x in row]
        trace = np.full_like(idx, x0 // q ** (n - 1))
        for i in range(n - 1):
            trace = add(trace, cells[i * (n + 1)])
        cells[-1] = neg(trace)
        keep = _charpoly_keys(n, ctx0, _rows(n, cells)) == x0
        found.append(np.stack(cells, axis=1)[keep])
    bases = np.concatenate(found)
    bases.flags.writeable = False
    return bases


def count_engine(n: int, kind: str) -> str:
    """The engine that runs a count of kind nilcone, fiber or gi on Mat_n(R_m),
    the same at every m.

    "n2-product": the n = 2 fiber table as one matrix product (gi only);
    "lift": the low half B of each matrix swept, the top half solved over
    F_ell (_lift_space, _lift_counts), at every n and ring size: the kernel
    runs on any ring; at m = 0 the top half is empty.
    gi reads the fiber table, so its engine is the table's (_fiber_counts)."""
    if kind == "gi" and n == 2:
        return "n2-product"
    return "lift"


def _target_space(n: int, ctx: TruncCtx, kind: str, x=None, i: Optional[int] = None):
    """(index count, subtotal) of a count target; subtotal(lo, hi) counts what
    the target finds at indices lo..hi-1, so the subtotals of a split add up.

    The index spaces fix shard boundaries and checkpoints:
    gi: the encoded characteristic polynomials x in _encode_key order, index x
    adding N(x)^i with N(x) read from _fiber_counts;
    nilcone and fiber: the bases B of _lift_space (all matrices for the
    m = 0 fiber).
    """
    if kind == "gi":
        counts = _fiber_counts(n, ctx)
        return len(counts), lambda lo, hi: sum(v ** i for v in counts[lo:hi].tolist())
    return _lift_space(n, ctx, kind, x)


def _whole_count(n: int, ctx: TruncCtx, kind: str, x=None, i: Optional[int] = None):
    """subtotal(0, total) of a target, not yet run, once the total passes the
    sweep guard: a whole count, or all shards of one run, runs in one process."""
    total, subtotal = _target_space(n, ctx, kind, x, i)
    _check_sweep(total, f"{kind} index count", shardable=kind != "gi")
    return functools.partial(subtotal, 0, total)


# --------------------------------------------------------------------------
# lifting: A = B + t^h U with c(A) = c(B) + t^h Dc_B(U)
# --------------------------------------------------------------------------

def _lift_levels(ctx: TruncCtx) -> Tuple[TruncCtx, int]:
    """(R_(h-1), K) for h = floor(m/2) + 1.  B has entries in R_(h-1); in R_m
    they are the ring indices of R_(h-1) times ell^K, since the K = k(m+1-h)
    least significant base-ell digits of a ring index are the t^h..t^m
    coefficients, which t^h U fills."""
    h = ctx.m // 2 + 1
    return trunc_make(ctx.field, h - 1), (ctx.m + 1 - h) * ctx.field.k


def _low_digits(cs, ell: int, K: int) -> np.ndarray:
    """The K least significant base-ell digits of each c_i, stacked on a new
    first axis of n K digits: c_1 digit 0, ..., c_1 digit K-1, c_2 digit 0, ..."""
    return np.stack([np.asarray(c) // ell ** s % ell for c in cs for s in range(K)])


def _lift_gens(n: int, ctx: TruncCtx, K: int, entries: list, c0: list) -> np.ndarray:
    """Generators of t^h Im Dc_B as F_ell digit vectors, shape (n^2 K, n K, b).

    Row e K + s is c(B + ell^s E_e) - c(B) for entry e = (i, j): adding ell^s to
    a ring index adds t^l g E_ij for one l >= h and one g of the F_ell-basis
    x^0..x^(k-1) of F_q, and (t^l)^2 = 0 makes the difference exact.  The
    bases run in slices, so no charpoly_batch call takes more than BLOCK
    matrices."""
    ell, nn = ctx.field.ell, n * n
    delta = (np.eye(nn, dtype=np.int64)[:, :, None] * ell ** np.arange(K)).reshape(nn, nn * K)
    per = max(1, BLOCK // (nn * K))
    gens = []
    for lo in range(0, len(c0[0]), per):
        part = slice(lo, lo + per)
        moved = [[entries[i][j][None, part] + delta[i * n + j][:, None] for j in range(n)]
                 for i in range(n)]
        low = _low_digits(charpoly_batch(n, ctx, moved), ell, K)
        gens.append((low - _low_digits([c[part] for c in c0], ell, K)[:, None]) % ell)
    return np.concatenate(gens, axis=2).transpose(1, 0, 2)


def _jet_space(n: int, ctx: TruncCtx, code: int):
    """(index count, decode) of the B that _lift_space runs for the target code:
    the jets at level h-1 of _fiber_bases(code mod t)."""
    low, q = _lift_levels(ctx)[0], ctx.field.q
    x0 = sum(xi // q ** ctx.m * q ** (n - 1 - i) for i, xi in enumerate(_digits(ctx.size, n, code)))
    bases = _fiber_bases(n, ctx.field, x0)
    return len(bases) * q ** (low.m * n * n), lambda idx: _jet_entries(n, low, bases, idx)


def _lift_space(n: int, ctx: TruncCtx, kind: str, x=None):
    """(index count, subtotal) of a nilcone or fiber count by lifting.

    Write A = B + t^h U with B in Mat_n(R_(h-1)), h = floor(m/2) + 1.  Since
    2h >= m+1, every term of degree 2 in t^h U vanishes and
    c(A) = c(B) + t^h Dc_B(U) exactly, Dc_B being F_ell-linear in the
    N = k n^2 (m+1-h) digits of U.  So B contributes ell^(N - rank Dc_B) when
    x - c(B) lies in t^h Im Dc_B (in particular x = c(B) mod t^h), and nothing
    otherwise (_lift_page); the top digits of A are never enumerated.  At
    m = 0, h = 1 and N = 0: each B with c(B) = x adds 1, with no elimination.

    The index space is the B that run.  B mod t lies in the m = 0 fiber of
    x mod t, so B runs over the jets at level h-1 of _fiber_bases(x mod t)
    (_jet_space), nilcone being the fiber over 0; at h = 1 they are the
    bases themselves, so each m = 0 nilcone index adds 1.  The m = 0 fiber
    alone sweeps all of Mat_n(F_q) in matrix_from_index order, the index
    space of its older shards, reading _charpoly_page."""
    _, K = _lift_levels(ctx)
    code = 0 if kind == "nilcone" else _encode_key(ctx, _fiber_key(n, ctx, x))
    if K == 0 and kind == "fiber":
        pages = functools.partial(_charpoly_page, n, ctx)
        return matrix_space_size(n, ctx), lambda lo, hi: sum(
            int(np.count_nonzero(codes == code)) for codes in _pages(lo, hi, pages))
    total, _ = _jet_space(n, ctx, code)
    if K == 0:
        return total, lambda lo, hi: hi - lo
    ell, pages = ctx.field.ell, functools.partial(_lift_page, n, ctx, code)
    return total, lambda lo, hi: sum(c * ell ** v for nullity in _pages(lo, hi, pages)
                                     for v, c in enumerate(np.bincount(nullity[nullity >= 0]).tolist()))


def _pages(lo: int, hi: int, page) -> Iterator[np.ndarray]:
    """The values at indices lo..hi-1 as slices of the pages page(p) covering them."""
    for p in range(lo // BLOCK, -(-hi // BLOCK)):
        yield page(p)[max(lo - p * BLOCK, 0):hi - p * BLOCK]


@functools.lru_cache(maxsize=PAGE_CACHE)
def _charpoly_page(n: int, ctx: TruncCtx, page: int) -> np.ndarray:
    """The charpoly codes (_encode_key) of the m = 0 matrices p BLOCK..(p+1) BLOCK-1
    in matrix_from_index order; read-only, shared by every m = 0 fiber reader."""
    lo = page * BLOCK
    idx = np.arange(lo, min(lo + BLOCK, matrix_space_size(n, ctx)), dtype=np.int64)
    codes = _charpoly_keys(n, ctx, _full_entries(n, ctx.size, idx))
    codes.flags.writeable = False
    return codes


@functools.lru_cache(maxsize=PAGE_CACHE)
def _lift_page(n: int, ctx: TruncCtx, code: int, page: int) -> np.ndarray:
    """N - rank Dc_B for the B at indices p BLOCK..(p+1) BLOCK-1 of _jet_space, or
    -1 where x - c(B) is not in t^h Im Dc_B (see _lift_space); m >= 1, read-only."""
    _, K = _lift_levels(ctx)
    ell, shift = ctx.field.ell, ctx.field.ell ** K
    xs = [int(d) for d in _digits(ctx.size, n, code)]
    total, decode = _jet_space(n, ctx, code)
    idx = np.arange(page * BLOCK, min((page + 1) * BLOCK, total), dtype=np.int64)
    nullity = np.full(len(idx), -1, dtype=np.int64)
    entries = [[e * shift for e in row] for row in decode(idx)]
    c0 = charpoly_batch(n, ctx, entries)
    keep = np.flatnonzero(np.logical_and.reduce([c // shift == xi // shift for c, xi in zip(c0, xs)]))
    if len(keep):
        entries, c0 = [[e[keep] for e in row] for row in entries], [c[keep] for c in c0]
        y = (_low_digits(xs, ell, K)[:, None] - _low_digits(c0, ell, K)) % ell
        rank, _, ok = row_echelon(_lift_gens(n, ctx, K, entries, c0), ell, y)
        nullity[keep[ok]] = n * n * K - rank[ok]
    nullity.flags.writeable = False
    return nullity


def _lift_counts(n: int, ctx: TruncCtx) -> np.ndarray:
    """The fiber counts of every code by lifting (see _lift_space).  Each B adds
    ell^(N - rank) to every code of the coset c(B) + t^h Im Dc_B.  The
    ell^(n K) combinations of the n K rows of the padded echelon basis reach
    each coset code ell^(n K - rank) times, so their codes are counted once
    each and the whole array is scaled by ell^(N - n K) at the end.

    Most B have full rank n K, and their coset is every code sharing the
    high digits of c(B).  Those B only count their high codes, and that
    histogram is spread over all low digits once at the end; the other B
    scatter their cosets code by code.  At m = 0 (K = 0) each B is its own
    coset, the code c(B), read from _charpoly_page."""
    low, K = _lift_levels(ctx)
    ell, shift, P, R = ctx.field.ell, ctx.field.ell ** K, ctx.size, n * K
    H = P // shift  # high parts of one c_i
    total = matrix_space_size(n, low)
    _check_sweep(total, "q^(h n^2) lifting bases B")
    if P ** n > TABLE_GUARD:
        raise TooLarge(f"P^n = {_size_text(P ** n)} codes of the fiber table exceed the table guard 2^20")
    if R == 0:  # m = 0: B is A, and each A adds 1 to its code c(A)
        pages = functools.partial(_charpoly_page, n, ctx)
        return sum(np.bincount(codes, minlength=P ** n) for codes in _pages(0, total, pages))
    weights = (ell ** np.arange(K) * P ** np.arange(n - 1, -1, -1)[:, None]).ravel()
    counts = np.zeros(P ** n, dtype=np.int64)
    full_high = np.zeros(H ** n, dtype=np.int64)
    for idx in _blocks(0, total, min(BLOCK, max(1, (1 << 16) // ell ** R))):
        entries = [[e * shift for e in row] for row in _full_entries(n, low.size, idx)]
        c0 = charpoly_batch(n, ctx, entries)
        rank, basis, _ = row_echelon(_lift_gens(n, ctx, K, entries, c0), ell)
        full = rank == R
        full_high += np.bincount(sum(c[full] // shift * H ** (n - 1 - i) for i, c in enumerate(c0)),
                                 minlength=H ** n)
        if full.all():
            continue
        c0, basis = [c[~full] for c in c0], basis[:, :, ~full]
        steps = np.arange(ell, dtype=basis.dtype)[:, None, None, None]
        coset = _low_digits(c0, ell, K)[None].astype(basis.dtype)  # c(B) + span, one row at a time
        for row in basis:
            coset = ((coset[None] + steps * row) % ell).reshape(-1, R, len(c0[0]))
        high = sum((c - c % shift) * P ** (n - 1 - i) for i, c in enumerate(c0))
        counts += np.bincount((high + np.einsum("erb,r->eb", coset, weights)).ravel(), minlength=P ** n)
    spread = counts.reshape((H, shift) * n)  # a view: c_i = its high part * shift + its low digits
    spread += full_high.reshape((H, 1) * n)
    return counts * ell ** (n * n * K - R)


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
    and every gi shard of a run read the same table.

    The engine is count_engine(n, "gi"): the n = 2 matrix product
    (_fiber_table_np) at every m, else lifting (_lift_counts) at every m,
    m = 0 included.  Each guard bounds the work that runs before it
    allocates: P^3 multiply-adds for the product, which keep its P^2 codes
    within TABLE_GUARD, and for lifting the bases B, then the P^n codes."""
    if count_engine(n, "gi") == "n2-product":
        _check_sweep(ctx.size ** 3, "P^3 multiply-adds of the n = 2 product")
        counts = _fiber_table_np(ctx)
    else:
        counts = _lift_counts(n, ctx)
    counts.flags.writeable = False
    return counts


def _fiber_table_np(ctx: TruncCtx) -> np.ndarray:
    """The n = 2 fiber counts as one integer matrix product.  charpoly([[a, b], [c, d]])
    is (-(a+d), ad - bc), so H[c1, p] = #{(a, d) : -(a+d) = c1, ad = p} and
    B[p, c2] = #{(b, c) : bc = p - c2} give the counts H @ B, both read from
    the ops of ``field.ring_ops`` on the P x P grid of index pairs.  Every
    entry is a count <= P^4 <= 2^40 under the guard P^3 <= 2^30, so int64 is
    exact."""
    P, (add, mul, neg) = ctx.size, ring_ops(ctx)
    i = np.arange(P, dtype=np.int64)[:, None]
    prod = mul(i, i.T)
    H = np.bincount((neg(add(i, i.T)) * P + prod).ravel(), minlength=P * P).reshape(P, P)
    B = np.bincount(prod.ravel(), minlength=P)[add(neg(i), i.T)].T  # column-major: H @ B runs 7x faster
    return (H @ B).ravel()


def count_jet_fiber(n: int, ctx: TruncCtx, x) -> int:
    """Exact size of {A in Mat_n(R_m) : charpoly(A) = x}: the sum of
    ell^(N - rank Dc_B) over the jets B in R_(h-1) of the m = 0 fiber of
    x mod t with x - c(B) in t^h Im Dc_B (_lift_space); at m = 0, N = 0 and
    that counts the matrices B with c(B) = x."""
    return _whole_count(n, ctx, "fiber", x=x)()


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
    """#J_m(N)(F_q): the fiber over x = 0, counted as count_jet_fiber counts
    any fiber.  J_m(N) lies over J_0(N), so only the jets B in R_(h-1) of
    the m = 0 nilpotent matrices (_fiber_bases over 0) run, and at m = 0
    those matrices themselves, 1 each."""
    return _whole_count(n, ctx, "nilcone")()


def count_gi_jets(n: int, ctx: TruncCtx, i: int) -> int:
    """Sum over x in c(R_m) of count_jet_fiber(x)^i (i-tuples sharing a
    characteristic polynomial)."""
    if i < 1:
        raise BadConfig("power i must be >= 1")
    return _whole_count(n, ctx, "gi", i=i)()


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
    A chunk only sets where a checkpoint falls: it reads slices of the
    memoised pages (see the module docstring), evaluating no page twice.
    A chunk spans at least ``chunk`` indices and ends on the next page
    boundary (or at the shard's end): a resume re-evaluates the whole page
    holding its start, so a checkpoint inside a page saves no work and
    costs an fsync.
    """
    if not (0 <= shard_id < shards):
        raise ShardOutOfRange(f"shard {shard_id} outside [0, {shards})")
    if chunk < 1:
        raise BadConfig(f"chunk {chunk} must be >= 1")
    total, subtotal_of = _target_space(query.n, query.ctx(), query.kind, query.x, query.i)
    if total > SHARD_GUARD:
        raise TooLarge(f"{query.kind} index count = {_size_text(total)}"
                       " exceeds the per-shard-set guard 2^40")
    lo = shard_id * total // shards
    hi = (shard_id + 1) * total // shards
    _check_sweep(hi - lo, f"shard {shard_id} index count", shardable=True)
    pos, subtotal = lo, 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        pos, subtotal = _read_checkpoint(checkpoint_path, query, shards, shard_id, lo, hi)
    while pos < hi:
        end = min(-(-(pos + chunk) // BLOCK) * BLOCK, hi)
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
    # gi and lifted checkpoints name their index space; older ones counted
    # i-tuples of matrices (gi), or matrices, all bases B or, at n = 1, ring
    # elements (m >= 1).  At m = 0 the nilcone bases and the fiber's
    # matrices are what they swept.
    if query.kind == "gi":
        index = {"index": "charpoly codes"}
    elif query.m >= 1:
        index = {"index": "lifting bases B" if query.kind == "nilcone" else "jets of fiber bases B"}
    else:
        index = {}
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
        if not isinstance(last, dict):
            raise CorruptCheckpoint(f"checkpoint {path} holds no JSON object")
        if (last.get("schema_version") != SCHEMA_VERSION
                or last.get("query") != _query_sig(query)
                or last.get("shards") != shards
                or last.get("shard_id") != shard_id):
            raise CorruptCheckpoint(f"checkpoint {path} does not match this query/shard")
        pos, text = last["next_index"], last["subtotal"]
        if type(pos) is not int:  # bool is an int subclass, so isinstance would pass True
            raise CorruptCheckpoint(f"checkpoint position {pos!r} is not an integer")
        if not (lo <= pos <= hi):
            raise CorruptCheckpoint(f"checkpoint position {pos} outside shard range")
        # count_sharded writes str(subtotal) of a count, never negative
        if not isinstance(text, str) or not text.isdigit() or str(int(text)) != text:
            raise CorruptCheckpoint(f"checkpoint subtotal {text!r} is not a non-negative decimal")
        return pos, int(text)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc


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
    kind, i = target.get("kind"), target.get("i")
    if kind in ("nilcone", "fiber"):
        return n * n - n
    if kind == "gi" and type(i) is int:
        return i * (n * n - n) + n
    raise BadConfig(f"no expected dimension for target {target}")


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
    kind = head.target.get("kind")
    for r in records:
        if (r.n, r.ell, r.target) != (head.n, head.ell, head.target):
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
