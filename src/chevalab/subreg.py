"""Closed-form valuation statistics and the subregular slice density.

All integrals are truncated expectations over R_M with the valuation capped
at M+1, so every comparison is exact; the closed-form bounds dominate every
truncated value because capping only lowers the integral.

Exhaustive slice sweeps run in index blocks through ``matrices.charpoly_batch``;
the density's analytic path runs Horner on the ops of ``field.ring_ops``
alone, never ``charpoly_batch``, so its two paths stay independent.  Past
its exhaustive limit the m = 1 identity check samples seeded points of R_1
ring indices, batched in blocks of at most ``counting.BLOCK``; one body
serves both branches, in the arithmetic ``charpoly_batch`` and
``field.ring_ops`` pick from the ring.
The valuation sweeps (``mult_pushforward_hist``, ``val_integral``)
run ``field.ring_mul`` and ``ring_add`` on blocks of ring indices, through
the ring's packed layout (at most 2^12 entries a table), never the dense
tables of ``ring_ops``: one sweep would spend as long building P^2 table
entries as it spends sweeping.  The histogram multiplies each unordered
pair of the P ring indices once, about P(P+1)/2 products instead of P^2,
counts a pair of distinct indices twice, and reads each product's
valuation from one array of ``field.ring_val`` over the P indices; it is
still an exhaustive sweep, so it checks the closed form rather than
relying on it.  Their scalar loops live in ``tests/oracles.py`` as
references.

Both slice-density paths give dense count arrays over the codes of
``counting._encode_key``, with the denominator q^(2M); mass, sup and the
dual-path comparison run on the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .counting import _blocks, _charpoly_keys, _digits, _draws
from .errors import BadConfig, LevelTooLow, TheoremCheckFailed, TooLarge, WrongCharacteristic
from .field import FieldCtx, TruncCtx, _row_blocks, ring_add, ring_mul, ring_ops, ring_val, trunc_make
from .matrices import CharCoeffs, charpoly_batch

HIST_GUARD = 1 << 34
VAL_GUARD = 1 << 24
MAX_POLY_DEG = 8
SLICE_GUARD = 1 << 26
M1_EXHAUSTIVE_LIMIT = 1 << 14


@dataclass
class ValHistogram:
    field: FieldCtx
    M: int
    buckets: Dict[int, Fraction]  # r -> exact mass, r in {0, ..., M}
    tail: Fraction  # mass of "valuation >= M+1"

    def total(self) -> Fraction:
        return sum(self.buckets.values(), Fraction(0)) + self.tail


def closed_form_bucket(field: FieldCtx, r: int) -> Fraction:
    """((q-1)^2 / q^2) (r+1) q^{-r}: mass of val(x*y) = r for Haar (x, y)."""
    q = field.q
    return Fraction((q - 1) ** 2 * (r + 1), q ** (r + 2))


def mult_pushforward_hist(field: FieldCtx, M: int) -> ValHistogram:
    """Exact histogram of val(x*y) over R_M^2, counted per product index and then
    summed by the valuation of each index (P <= 2^17 under HIST_GUARD).

    x*y = y*x, so the sweep multiplies each unordered pair {x, y} of indices once:
    every row block of indices i against the indices j >= its first row, about
    P(P+1)/2 products in all.  A pair with j > i stands for two ordered pairs and
    j == i for one; the pairs j < i inside a block's own rows are subtracted
    again, from bincounts in int64.  Those pairs are one fixed triangle of the
    block's leading square: a strict lower mask, built once for the first
    block's height and cut to the shorter last block.  Every product still
    comes from ``ring_mul``, so the sweep stays exhaustive and independent of
    ``closed_form_bucket``."""
    if M < 0:
        raise BadConfig(f"resolution M={M}: need M >= 0")
    denom = field.q ** (2 * (M + 1))  # pairs (x, y)
    if denom > HIST_GUARD:
        raise TooLarge("multiplication histogram sweep exceeds its guard")
    ctx = trunc_make(field, M)
    P = ctx.size
    ys = np.arange(P, dtype=np.int64)
    products = np.zeros(P, dtype=np.int64)  # ordered pairs per product index
    blocks = _row_blocks(P)
    lower = np.tri(len(ys[blocks[0]]), k=-1, dtype=bool)  # j < i in a block's leading square
    for rows in blocks:
        prod = ring_mul(ctx, ys[rows, None], ys[rows.start:])  # row i, column j - rows.start
        r = len(prod)
        below = prod[:, :r][lower[:r, :r]]  # j < i, already counted as (j, i)
        products += (2 * (np.bincount(prod.ravel(), minlength=P) - np.bincount(below, minlength=P))
                     - np.bincount(prod.diagonal(), minlength=P))
    val = ring_val(ctx, ys)
    counts = [int(products[val == r].sum()) for r in range(M + 2)]
    buckets = {r: Fraction(counts[r], denom) for r in range(M + 1)}  # counts[M + 1]: the tail
    return ValHistogram(field, M, buckets, Fraction(counts[M + 1], denom))


def val_integral(coeffs_low: Sequence[tuple], field: FieldCtx, M: int) -> Fraction:
    """Truncated I_M(f) = q^{-(M+1)} sum_z min(val(f(z)), M+1) over R_M, by Horner."""
    if M < 0:
        raise BadConfig(f"resolution M={M}: need M >= 0")
    deg = len(coeffs_low) - 1
    if deg > MAX_POLY_DEG:
        raise TooLarge(f"polynomial degree {deg} exceeds {MAX_POLY_DEG}")
    q = field.q
    if q ** (M + 1) > VAL_GUARD:
        raise TooLarge("valuation integral sweep exceeds its guard")
    ctx = trunc_make(field, M)
    coeffs = [ctx.index(ctx.make(c)) for c in reversed(coeffs_low)]
    total = 0
    for z in _blocks(0, ctx.size):
        acc = np.zeros_like(z)
        for c in coeffs:
            acc = ring_add(ctx, ring_mul(ctx, acc, z), c)
        total += int(np.sum(ring_val(ctx, acc)))
    return Fraction(total, q ** (M + 1))


def val_integral_bound(deg: int, field: FieldCtx, M: int) -> Fraction:
    """Truncated form of the deg(f)/(ell-1) bound, with tail slack."""
    return Fraction(deg, field.ell - 1) + Fraction(M + 2, field.q ** M)


def h_formula(g: CharCoeffs, field: FieldCtx, M: int) -> Fraction:
    """Truncated h(g) = (q-1)/q * mean_z (min(val(g(z)), M+1) + 1).

    Always at most n/ell + 1; capping the valuation only lowers the value, so
    the closed-form bound dominates every truncated one.
    """
    q = field.q
    ctx = trunc_make(field, M)
    coeffs = [ctx.make(c) for c in reversed(g.c)] + [ctx.one]  # z^n + c_1 z^(n-1) + ... + c_n
    integral = val_integral(coeffs, field, M)
    h = Fraction(q - 1, q) * (integral + 1)
    bound = Fraction(g.n, field.ell) + 1
    if h > bound:
        raise TheoremCheckFailed(f"h(g) = {h} exceeds the bound n/ell + 1 = {bound}")
    return h


def mult_fiber_count(w: tuple, ctx: TruncCtx) -> int:
    """#{(u, a) in R_m^2 : u*a = w}, closed form.

    val(w) = r <= m gives (r+1)(q-1)q^m; w = 0 gives (m+1)(q-1)q^m + q^(m+1).
    """
    q = ctx.field.q
    m = ctx.m
    r = ctx.val(w)
    if r is None:
        return (m + 1) * (q - 1) * q ** m + q ** (m + 1)
    return (r + 1) * (q - 1) * q ** m


@dataclass
class SubregDensity:
    n: int
    field: FieldCtx
    M: int
    counts: np.ndarray  # direct slice sweep, dense by _encode_key code; density counts / q^(2M)
    analytic_counts: np.ndarray  # multiplication-fiber formula path, same codes

    def mass(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.field.q ** (self.M * (self.n + 2)))

    def sup(self) -> Fraction:
        return Fraction(int(self.counts.max()), self.field.q ** (2 * self.M))

    def dual_path_equal(self) -> bool:
        return np.array_equal(self.counts, self.analytic_counts)


def subreg_slice_density(n: int, field: FieldCtx, M: int) -> SubregDensity:
    """Pushforward density of Haar measure on the subregular slice (shape
    (n-1, 1)) through the characteristic polynomial, at resolution M.

    Computed two independent ways over R_(M-1): the direct path sweeps the
    slice coordinates (f, alpha, z) in blocks through charpoly_batch; the
    analytic path sums the multiplication-fiber closed form over g(z), z in R.
    """
    if 2 * field.ell <= n:
        raise WrongCharacteristic(f"need char > n/2, got ell={field.ell}, n={n}")
    if n < 3:
        raise TooLarge("the subregular slice shape degenerates below n = 3; "
                       "use density_profile for n = 2")
    if M < 1:
        raise LevelTooLow("resolution M must be >= 1")
    if field.q ** ((n + 2) * M) > SLICE_GUARD:
        raise TooLarge("subregular slice sweep exceeds its guard")
    ctx = trunc_make(field, M - 1)
    P, ops, one = ctx.size, ring_ops(ctx), ctx.index(ctx.one)
    add, mul, _ = ops
    direct = np.zeros(P ** n, dtype=np.int64)
    for idx in _blocks(0, P ** (n + 2)):
        *f, alpha, z = _digits(P, n + 2, idx)
        keys = _charpoly_keys(n, ctx, _companion_entries(n, ops, one, f, alpha, z))
        direct += np.bincount(keys, minlength=P ** n)
    fiber = np.array([mult_fiber_count(w, ctx) for w in ctx.elements()])  # by ring index
    zs = np.arange(P)
    analytic = np.zeros(P ** n, dtype=np.int64)
    for codes in _blocks(0, P ** n):
        acc = one  # g(z) = z^n + c_1 z^(n-1) + ... + c_n, one row per g, one column per z
        for c in _digits(P, n, codes):
            acc = add(mul(acc, zs), c[:, None])
        analytic[codes] = fiber[acc].sum(axis=1)
    return SubregDensity(n, field, M, direct, analytic)


def _companion_entries(n: int, ops, one: int, f, alpha, z=0) -> list:
    """Entry arrays of c(f) + (alpha - 1) e_{n-1,n} + zI over the ring whose (add,
    mul, neg) on ring indices are ``ops`` and whose 1 has index ``one``: -f_i down
    the first column, ones on the superdiagonal but alpha at (n-2, n-1), z
    added on the diagonal."""
    add, _, neg = ops
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        e[i][0] = neg(f[i])
        e[i][i] = add(e[i][i], z)
        if i < n - 1:
            e[i][i + 1] = alpha if i == n - 2 else one
    return e


def m1_identity_check(n: int, field: FieldCtx, samples: int = 1000, seed: int = 0) -> bool:
    """charpoly(c(f) + (alpha-1) e_{n-1,n}) = f - f(0) + alpha * f(0).

    Exhaustive at m = 0 while the q^(n+1) points (f, alpha) fit
    M1_EXHAUSTIVE_LIMIT; else ``samples`` seeded points of R_1 ring indices,
    batched in blocks of at most BLOCK like the exhaustive points."""
    if n < 2:
        raise TooLarge("identity needs n >= 2")
    if samples < 1:
        raise BadConfig(f"samples={samples}: need at least 1 sample")
    q = field.q
    if q ** (n + 1) <= M1_EXHAUSTIVE_LIMIT:
        ctx = trunc_make(field, 0)
        points = (_digits(q, n + 1, idx) for idx in _blocks(0, q ** (n + 1)))
    else:
        ctx = trunc_make(field, 1)
        points = _draws(seed, [ctx.size] * (n + 1), samples)
    ops = ring_ops(ctx)
    one, mul = ctx.index(ctx.one), ops[1]
    for *f, alpha in points:
        got = charpoly_batch(n, ctx, _companion_entries(n, ops, one, f, alpha))
        # f - f(0) + alpha*f(0): only the constant coefficient changes
        if not all(np.array_equal(g, e) for g, e in zip(got, f[:-1] + [mul(alpha, f[-1])])):
            return False
    return True
