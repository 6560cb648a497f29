"""Matrices over R_m: division-free characteristic polynomials, companion
matrices, scalar shifts, and ad-rank computations.

The sign convention for the characteristic polynomial is fixed everywhere as

    charpoly(A)(z) = det(zI - A) = z^n + c_1 z^(n-1) + ... + c_n.

R_m has nilpotents, so all polynomial computations are division-free.  Two
engines compute the characteristic polynomial:

* ``charpoly_batch``: Samuelson-Berkowitz over arrays of ring indices with
  the dense tables of ``field.ring_tables``, one matrix per array element.
  Every exhaustive sweep and shard in ``counting`` and the exhaustive slice
  audit run on it.
* ``charpoly``: one ``JetMatrix`` at a time, by direct minor expansion for
  n <= 3 and Samuelson-Berkowitz above.  It is the readable reference that
  the batched engine is tested against, and serves single matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import CtxMismatch, SizeTooSmall
from .field import FieldCtx, RingTables, TruncCtx


@dataclass(frozen=True)
class JetMatrix:
    ctx: TruncCtx
    n: int
    entries: tuple  # n tuples of n series, row-major

    def entry(self, i: int, j: int) -> tuple:
        return self.entries[i][j]

    def add(self, other: "JetMatrix") -> "JetMatrix":
        _same_ctx(self, other)
        ctx = self.ctx
        rows = tuple(
            tuple(ctx.add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return JetMatrix(ctx, self.n, rows)

    def matmul(self, other: "JetMatrix") -> "JetMatrix":
        _same_ctx(self, other)
        ctx, n = self.ctx, self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ctx.zero
                for l in range(n):
                    acc = ctx.add(acc, ctx.mul(self.entries[i][l], other.entries[l][j]))
                row.append(acc)
            rows.append(tuple(row))
        return JetMatrix(ctx, n, tuple(rows))

    def scale(self, c: int) -> "JetMatrix":
        ctx = self.ctx
        rows = tuple(tuple(ctx.smul(c, e) for e in row) for row in self.entries)
        return JetMatrix(ctx, self.n, rows)


@dataclass(frozen=True)
class CharCoeffs:
    ctx: TruncCtx
    n: int
    c: tuple  # (c_1, ..., c_n), each a series

    def is_zero(self) -> bool:
        return all(ci == self.ctx.zero for ci in self.c)


def _same_ctx(a, b) -> None:
    if a.ctx.key() != b.ctx.key():
        raise CtxMismatch(f"{a.ctx} vs {b.ctx}")


def mat_make(ctx: TruncCtx, rows: Sequence[Sequence]) -> JetMatrix:
    n = len(rows)
    ent = []
    for row in rows:
        if len(row) != n:
            raise CtxMismatch("matrix must be square")
        r = []
        for e in row:
            ctx.check(e)
            r.append(tuple(e))
        ent.append(tuple(r))
    return JetMatrix(ctx, n, tuple(ent))


def mat_zero(ctx: TruncCtx, n: int) -> JetMatrix:
    return JetMatrix(ctx, n, tuple(tuple(ctx.zero for _ in range(n)) for _ in range(n)))


def mat_scalar(ctx: TruncCtx, n: int, z: tuple) -> JetMatrix:
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = z
    return JetMatrix(ctx, n, tuple(tuple(r) for r in rows))


def mat_identity(ctx: TruncCtx, n: int) -> JetMatrix:
    return mat_scalar(ctx, n, ctx.one)


def charpoly(A: JetMatrix) -> CharCoeffs:
    n = A.n
    if n <= 3:
        return _charpoly_direct(A)
    return charpoly_berkowitz(A)


def _charpoly_direct(A: JetMatrix) -> CharCoeffs:
    ctx = A.ctx
    e = A.entries
    n = A.n
    if n == 1:
        return CharCoeffs(ctx, 1, (ctx.neg(e[0][0]),))
    if n == 2:
        (a, b), (c, d) = e
        c1 = ctx.neg(ctx.add(a, d))
        c2 = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
        return CharCoeffs(ctx, 2, (c1, c2))
    (a, b, c), (d, f, g), (h, i, j) = e
    c1 = ctx.neg(ctx.add(ctx.add(a, f), j))
    minors = ctx.add(
        ctx.add(ctx.sub(ctx.mul(a, f), ctx.mul(b, d)), ctx.sub(ctx.mul(a, j), ctx.mul(c, h))),
        ctx.sub(ctx.mul(f, j), ctx.mul(g, i)),
    )
    det = ctx.add(
        ctx.sub(
            ctx.mul(a, ctx.sub(ctx.mul(f, j), ctx.mul(g, i))),
            ctx.mul(b, ctx.sub(ctx.mul(d, j), ctx.mul(g, h))),
        ),
        ctx.mul(c, ctx.sub(ctx.mul(d, i), ctx.mul(f, h))),
    )
    return CharCoeffs(ctx, 3, (c1, minors, ctx.neg(det)))


def charpoly_berkowitz(A: JetMatrix) -> CharCoeffs:
    """Samuelson-Berkowitz: valid over any commutative ring, no divisions."""
    ctx = A.ctx
    n = A.n
    e = A.entries
    coeffs = [ctx.one]  # char poly of the empty leading block
    for i in range(n):
        a = e[i][i]
        row = [e[i][j] for j in range(i)]
        col = [e[j][i] for j in range(i)]
        toep = [ctx.one, ctx.neg(a)]
        w = col
        for j in range(2, i + 2):
            acc = ctx.zero
            for r, wr in zip(row, w):
                acc = ctx.add(acc, ctx.mul(r, wr))
            toep.append(ctx.neg(acc))
            if j <= i:
                w = [
                    _dot(ctx, [e[r][s] for s in range(i)], w) for r in range(i)
                ]
        new = []
        for r in range(i + 2):
            acc = ctx.zero
            for s in range(min(r, i) + 1):
                if r - s < len(toep):
                    acc = ctx.add(acc, ctx.mul(toep[r - s], coeffs[s]))
            new.append(acc)
        coeffs = new
    return CharCoeffs(ctx, n, tuple(coeffs[1:]))


def _dot(ctx: TruncCtx, xs, ys) -> tuple:
    acc = ctx.zero
    for x, y in zip(xs, ys):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def charpoly_batch(n: int, tabs: RingTables, entries) -> List[np.ndarray]:
    """Samuelson-Berkowitz on ring indices, elementwise across a batch.

    ``entries[i][j]`` is an int64 array of ring indices or a scalar broadcast
    against the others; ``tabs`` is ``field.ring_tables(ctx)``.  Returns
    ``[c_1, ..., c_n]`` as ring-index arrays of the broadcast shape, the
    same coefficients as ``charpoly_berkowitz`` on each matrix.
    """
    P, add, mul, neg = tabs

    def dot(xs, ys):
        acc = mul[xs[0] * P + ys[0]]
        for x, y in zip(xs[1:], ys[1:]):
            acc = add[acc * P + mul[x * P + y]]
        return acc

    e = entries
    coeffs: list = []  # c_1..c_i of the leading i x i block; c_0 = 1 is implicit
    for i in range(n):
        row = [e[i][j] for j in range(i)]
        # toep[j] for j >= 1: -a, -row.col, -row.A.col, ...; toep[0] = 1 is implicit
        toep = [None, neg[e[i][i]]]
        w = [e[j][i] for j in range(i)]
        for j in range(2, i + 2):
            toep.append(neg[dot(row, w)])
            if j <= i:
                w = [dot([e[r][s] for s in range(i)], w) for r in range(i)]
        new = []
        for r in range(1, i + 2):
            acc = toep[r]
            for s in range(1, min(r, i) + 1):
                term = coeffs[s - 1] if s == r else mul[toep[r - s] * P + coeffs[s - 1]]
                acc = add[acc * P + term]
            new.append(acc)
        coeffs = new
    shape = np.broadcast_shapes(*(np.shape(x) for r in e for x in r))
    return [np.broadcast_to(c, shape) for c in coeffs]


def is_nilpotent_jet(A: JetMatrix) -> bool:
    """Scheme-theoretic test: all characteristic coefficients vanish in R_m."""
    return charpoly(A).is_zero()


def companion(f: CharCoeffs, alpha: Optional[tuple] = None) -> JetMatrix:
    """Companion matrix with coefficients down the first column and ones on
    the superdiagonal; with alpha, the (n-1, n) superdiagonal entry becomes
    alpha instead of 1 (the one-parameter deformation of the slice)."""
    ctx, n = f.ctx, f.n
    if alpha is not None and n < 2:
        raise SizeTooSmall("alpha deformation needs n >= 2")
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][0] = ctx.neg(f.c[i])
    for i in range(n - 1):
        rows[i][i + 1] = ctx.one
    if alpha is not None:
        ctx.check(alpha)
        rows[n - 2][n - 1] = alpha
    return JetMatrix(ctx, n, tuple(tuple(r) for r in rows))


def shift_scalar(A: JetMatrix, z: tuple) -> JetMatrix:
    """A + zI."""
    A.ctx.check(z)
    return A.add(mat_scalar(A.ctx, A.n, z))


def charpoly_shift(f: CharCoeffs, z: tuple) -> CharCoeffs:
    """Coefficients of f(lambda - z), i.e. the char poly after adding zI."""
    ctx, n = f.ctx, f.n
    # polynomial in lambda, low-degree-first lists of series
    lam_minus_z = [ctx.neg(z), ctx.one]
    result = _poly_const(ctx, ctx.one)
    for _ in range(n):
        result = _poly_mul(ctx, result, lam_minus_z)
    power = _poly_const(ctx, ctx.one)
    # accumulate c_i * (lambda - z)^(n-i) from i = n down to 1
    for i in range(n, 0, -1):
        term = [ctx.mul(f.c[i - 1], p) for p in power]
        result = _poly_add(ctx, result, term)
        power = _poly_mul(ctx, power, lam_minus_z)
    result += [ctx.zero] * (n + 1 - len(result))
    # result = lambda^n + sum c'_i lambda^(n-i); extract high-to-low tail
    cs = tuple(result[n - i] for i in range(1, n + 1))
    return CharCoeffs(ctx, n, cs)


def _poly_const(ctx, c):
    return [c]


def _poly_add(ctx, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = ctx.add(out[i], x)
    return out


def _poly_mul(ctx, a, b):
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != ctx.zero:
            for j, y in enumerate(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def shift_scalar_audit(A: JetMatrix, z: tuple) -> bool:
    """Check charpoly(A + zI)(lambda) = charpoly(A)(lambda - z) coefficientwise."""
    lhs = charpoly(shift_scalar(A, z))
    rhs = charpoly_shift(charpoly(A), z)
    return lhs.c == rhs.c


def scale_coeffs(f: CharCoeffs, lam: int) -> CharCoeffs:
    """The weight-(1,...,n) scaling action: c_i -> lam^i c_i."""
    ctx = f.ctx
    field = ctx.field
    out = []
    p = 1
    for ci in f.c:
        p = field.mul(p, lam)
        out.append(ctx.smul(p, ci))
    return CharCoeffs(ctx, f.n, tuple(out))


# --- linear algebra over the residue field (m = 0 only) ---

def rank_over_field(rows: Sequence[Sequence[int]], field: FieldCtx) -> int:
    """Row rank by Gaussian elimination; entries are field element codes."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def bracket_rank(x: JetMatrix) -> int:
    """Rank of ad_x : gl_n(F_q) -> gl_n(F_q); requires m = 0."""
    ctx = x.ctx
    if ctx.m != 0:
        raise CtxMismatch("bracket_rank is defined at jet order m = 0")
    field = ctx.field
    n = x.n
    xm = [[x.entries[i][j][0] for j in range(n)] for i in range(n)]
    rows = []
    for a in range(n):
        for b in range(n):
            # vec of [x, E_ab] = x E_ab - E_ab x
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                out[i][b] = field.add(out[i][b], xm[i][a])
            for j in range(n):
                out[a][j] = field.sub(out[a][j], xm[b][j])
            rows.append([out[i][j] for i in range(n) for j in range(n)])
    return rank_over_field(rows, field)
