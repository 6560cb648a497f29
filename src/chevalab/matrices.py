"""Matrices over R_m: division-free characteristic polynomials, and the one
elimination over F_ell with the ad-ranks built on it.

The sign convention for the characteristic polynomial is fixed everywhere as

    charpoly(A)(z) = det(zI - A) = z^n + c_1 z^(n-1) + ... + c_n.

R_m has nilpotents, so all polynomial computations are division-free.  The
characteristic polynomial is one Samuelson-Berkowitz body, ``_berkowitz``,
written against the ring ops it is given, behind four adapters:

* table gathers (``charpoly_batch`` over ``table_ops``): ring-index arrays,
  one matrix per element, over any R_m with dense tables
  (``field.RING_TABLE_LIMIT``) at three numpy calls per op.  Every base B of
  the lift engine in ``counting`` and every exhaustive sweep of ``slices``
  and ``subreg`` runs in a batch;
* int64 +, * and - (``charpoly_batch`` when ``_int64_exact``), reduced mod P
  once, when P is prime, i.e. the ring is F_ell with residues as indices,
  and (n+1)(n(P-1))^n < 2^63: n <= 5 at ell = 251, n <= 15 at ell = 2;
* the table-free ring ops (``charpoly_ring`` over ``ring_ops``):
  ``field.ring_add``, ``ring_mul`` and ``ring_neg`` on ring-index arrays,
  for any ring whose indices fit int64.  The sampled audits of ``slices``
  and ``subreg`` run their batches of R_1 points this way, past the tables;
* series arithmetic (``charpoly``), one ``JetMatrix`` at a time in
  ``TruncCtx`` arithmetic.  No program path runs it: it stays for the
  benchmark's per-matrix probe and for the oracles and property tests.

The int64 path is exact: with entries in [0, B], B = P - 1, step i of
``_berkowitz`` (leading i x i block A_i, i < n) has |A_i^j col| <= (iB)^j B
entrywise, so toep[j] = -row A_i^(j-2) col and every partial dot product is
at most (nB)^j; c_s of A_i sums C(i, s) minors of at most s! B^s, so
|c_s| <= (iB)^s.  A new coefficient sums at most n + 1 products
toep[r-s] c_s of at most (nB)^n each, so no intermediate exceeds (n+1)(nB)^n.

``row_echelon``, batched over many systems, is the one elimination: over
F_ell, for the lift engine of ``counting`` and for the ranks of ad_y, which
``ad_digits`` writes as F_ell digit rows for a batch of m = 0 matrices y.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .field import (FieldCtx, RingTables, TruncCtx, _is_prime, _power_rows, ring_add, ring_mul,
                    ring_neg)


@dataclass(frozen=True)
class JetMatrix:
    ctx: TruncCtx
    n: int
    entries: tuple  # n tuples of n series, row-major


@dataclass(frozen=True)
class CharCoeffs:
    ctx: TruncCtx
    n: int
    c: tuple  # (c_1, ..., c_n), each a series


def _berkowitz(n: int, add, mul, neg, e) -> list:
    """Samuelson-Berkowitz: [c_1, ..., c_n] of the n x n matrix e (e[i][j])
    over any commutative ring given by add, mul and neg, with no divisions."""

    def dot(xs, ys):
        acc = mul(xs[0], ys[0])
        for x, y in zip(xs[1:], ys[1:]):
            acc = add(acc, mul(x, y))
        return acc

    coeffs: list = []  # c_1..c_i of the leading i x i block; c_0 = 1 is implicit
    for i in range(n):
        row = e[i][:i]
        # toep[j] for j >= 1: -a, -row.col, -row.A.col, ...; toep[0] = 1 is implicit
        toep = [None, neg(e[i][i])]
        w = [e[j][i] for j in range(i)]
        for j in range(2, i + 2):
            toep.append(neg(dot(row, w)))
            if j <= i:
                w = [dot(e[r][:i], w) for r in range(i)]
        new = []
        for r in range(1, i + 2):
            acc = toep[r]
            for s in range(1, min(r, i) + 1):
                acc = add(acc, coeffs[s - 1] if s == r else mul(toep[r - s], coeffs[s - 1]))
            new.append(acc)
        coeffs = new
    return coeffs


def charpoly(A: JetMatrix) -> CharCoeffs:
    """Samuelson-Berkowitz on one matrix, in TruncCtx series arithmetic."""
    ctx = A.ctx
    return CharCoeffs(ctx, A.n, tuple(_berkowitz(A.n, ctx.add, ctx.mul, ctx.neg, A.entries)))


def _int64_exact(n: int, P: int) -> bool:
    """Whether charpoly_batch runs on int64 residues (see the module docstring)."""
    return _is_prime(P) and (n + 1) * (n * (P - 1)) ** n < 2 ** 63


def table_ops(tabs: RingTables) -> tuple:
    """(add, mul, neg) on ring indices, gathered from the dense tables ``tabs``."""
    P, add, mul, neg = tabs
    return lambda x, y: add[x * P + y], lambda x, y: mul[x * P + y], neg.__getitem__


def ring_ops(ctx: TruncCtx) -> tuple:
    """(add, mul, neg) on the ring indices of ``ctx`` with no table:
    ``field.ring_add``, ``ring_mul`` and ``ring_neg``."""
    return tuple(functools.partial(op, ctx) for op in (ring_add, ring_mul, ring_neg))


def _broadcast(coeffs: list, entries) -> List[np.ndarray]:
    shape = np.broadcast_shapes(*(np.shape(x) for r in entries for x in r))
    return [np.broadcast_to(c, shape) for c in coeffs]


def charpoly_batch(n: int, tabs: RingTables, entries) -> List[np.ndarray]:
    """Samuelson-Berkowitz on ring indices, elementwise across a batch: the
    body of ``charpoly`` on int64 residues or table gathers (module docstring).

    ``entries[i][j]`` is an int64 array of ring indices or a scalar broadcast
    against the others; ``tabs`` is ``field.ring_tables(ctx)``.  Returns
    ``[c_1, ..., c_n]`` as ring-index arrays of the broadcast shape, the
    same coefficients as ``charpoly`` on each matrix.
    """
    P = tabs.P
    if _int64_exact(n, P):
        coeffs = [c % P for c in _berkowitz(n, operator.add, operator.mul, operator.neg, entries)]
    else:
        coeffs = _berkowitz(n, *table_ops(tabs), entries)
    return _broadcast(coeffs, entries)


def charpoly_ring(n: int, ctx: TruncCtx, entries) -> List[np.ndarray]:
    """``charpoly_batch`` with no table: the same body over ``ring_ops(ctx)``,
    for rings past ``field.RING_TABLE_LIMIT``, such as R_1 of F_37."""
    return _broadcast(_berkowitz(n, *ring_ops(ctx), entries), entries)


# --- linear algebra over F_ell ---

def row_echelon(gens: np.ndarray, ell: int, y: Optional[np.ndarray] = None):
    """Gaussian elimination over F_ell (ell prime), batched over the last axis.

    gens[:, :, b] holds g generator rows of a subspace of F_ell^r, entries in
    [0, ell), so gens has shape (g, r, batch).  Returns (rank, basis,
    consistent): rank[b] is the dimension of the span; basis[:, :, b] is
    r x r, its first rank[b] rows the reduced row echelon basis of the span
    and the other rows zero; consistent[b] says whether y[:, b] (y of shape
    (r, batch)) lies in the span, None without y.  y is carried as one more
    row that every pivot reduces and that is never a pivot itself, so it
    ends zero exactly when it lies in the span."""
    g, r, b = gens.shape
    dtype = np.uint8 if ell <= 16 else np.uint16  # a + (ell - f) p <= ell^2 - ell fits
    extra = np.zeros((1, r, b), dtype=np.int64) if y is None else np.asarray(y)[None]
    rows = (np.concatenate([gens, extra]) % ell).astype(dtype)
    inv = np.array([0] + [pow(a, ell - 2, ell) for a in range(1, ell)], dtype=dtype)
    rank = np.zeros(b, dtype=np.int64)
    items, row_ids = np.arange(b), np.arange(g + 1)[:, None]
    for c in range(r):
        eligible = (rows[:, c] != 0) & (row_ids >= rank) & (row_ids < g)
        found = eligible.any(axis=0)
        src = np.where(found, eligible.argmax(axis=0), rank)  # rank <= g; no move without a pivot
        pivot = rows[src, :, items]
        pivot = pivot * np.where(found, inv[pivot[:, c]], 1)[:, None] % ell
        rows[src, :, items] = rows[rank, :, items]
        rows[rank, :, items] = pivot
        factor = (ell - rows[:, c]) % ell * found
        factor[rank, items] = 0
        rows = (rows + factor[:, None] * pivot.T) % ell
        rank += found
    basis = np.zeros((r, r, b), dtype=dtype)
    basis[:min(g, r)] = rows[:min(g, r)]
    return rank, basis, None if y is None else ~rows[g].any(axis=0)


def ad_digits(y: np.ndarray, field: FieldCtx) -> np.ndarray:
    """The F_ell digit rows of [y, g^f E_ac] for y an int64 array (n, n, b)
    of m = 0 field codes, shape (n^2 k, n^2 k, b): row (a n + c) k + f, column
    (i n + j) k + r for digit r of entry (i, j), g^f running over the
    F_ell-basis of F_q.  Built from the rows g^j mod the modulus that the
    packed ring layout reduces by (``field._power_rows``), with no table, for
    any q <= 2^16.  The F_ell-rank is k times the F_q-rank of ad_y."""
    ell, k, n = field.ell, field.k, y.shape[0]
    S = _power_rows(field)[np.add.outer(np.arange(k), np.arange(k))]  # S[e, f, r]: digit r of g^e g^f
    dy = np.asarray(y, dtype=np.int64)[..., None] // ell ** np.arange(k) % ell
    yg = np.einsum("iaBe,efr->iafrB", dy, S)  # digit r of y_ia g^f, unreduced
    eye = np.eye(n, dtype=np.int64)
    # [y, g^f E_ac]: y_ia g^f in column c of every row i, minus g^f y_cj in row a
    ad = np.einsum("iafrB,cj->acfijrB", yg, eye) - np.einsum("cjfrB,ai->acfijrB", yg, eye)
    return (ad % ell).reshape(n * n * k, n * n * k, -1)


def ad_ranks(y: np.ndarray, field: FieldCtx) -> np.ndarray:
    """The F_q-rank of ad_y for each y of an int64 array (n, n, b) of m = 0
    field codes, from one row_echelon of ad_digits."""
    return row_echelon(ad_digits(y, field), field.ell)[0] // field.k

