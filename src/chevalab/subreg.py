"""Closed-form valuation statistics and the subregular slice density.

All integrals are truncated expectations over R_M with the valuation capped
at M+1, so every comparison is exact; the closed-form bounds dominate every
truncated value because capping only lowers the integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .counting import FiberKey
from .errors import TheoremCheckFailed, TooLarge, WrongCharacteristic
from .field import FieldCtx, TruncCtx, trunc_make
from .matrices import CharCoeffs, JetMatrix, charpoly, companion, shift_scalar

HIST_GUARD = 1 << 34
VAL_GUARD = 1 << 24
MAX_POLY_DEG = 8
SLICE_GUARD = 1 << 26


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
    """Exact histogram of val(x*y) over R_M^2, by enumeration."""
    q = field.q
    if q ** (2 * (M + 1)) > HIST_GUARD:
        raise TooLarge("multiplication histogram sweep exceeds its guard")
    ctx = trunc_make(field, M)
    counts = [0] * (M + 2)  # index M+1 = tail
    for x in ctx.elements():
        for y in ctx.elements():
            v = ctx.val(ctx.mul(x, y))
            counts[M + 1 if v is None else v] += 1
    denom = q ** (2 * (M + 1))
    buckets = {r: Fraction(counts[r], denom) for r in range(M + 1)}
    return ValHistogram(field, M, buckets, Fraction(counts[M + 1], denom))


def poly_eval(coeffs_low: Sequence[tuple], z: tuple, ctx: TruncCtx) -> tuple:
    """Evaluate sum coeffs_low[i] * z^i by Horner."""
    acc = ctx.zero
    for c in reversed(coeffs_low):
        acc = ctx.add(ctx.mul(acc, z), c)
    return acc


def val_integral(coeffs_low: Sequence[tuple], field: FieldCtx, M: int) -> Fraction:
    """Truncated I_M(f) = q^{-(M+1)} sum_z min(val(f(z)), M+1) over R_M."""
    deg = len(coeffs_low) - 1
    if deg > MAX_POLY_DEG:
        raise TooLarge(f"polynomial degree {deg} exceeds {MAX_POLY_DEG}")
    q = field.q
    if q ** (M + 1) > VAL_GUARD:
        raise TooLarge("valuation integral sweep exceeds its guard")
    ctx = trunc_make(field, M)
    coeffs = [ctx.make(c) for c in coeffs_low]
    total = 0
    for z in ctx.elements():
        total += ctx.val_capped(poly_eval(coeffs, z, ctx), M + 1)
    return Fraction(total, q ** (M + 1))


def val_integral_bound(deg: int, field: FieldCtx, M: int) -> Fraction:
    """Truncated form of the deg(f)/(ell-1) bound, with tail slack."""
    return Fraction(deg, field.ell - 1) + Fraction(M + 2, field.q ** M)


def _monic_low_coeffs(g: CharCoeffs, ctx: TruncCtx) -> List[tuple]:
    # z^n + c_1 z^(n-1) + ... + c_n, listed low-degree-first
    return [ctx.make(c) for c in reversed(g.c)] + [ctx.one]


def h_formula(g: CharCoeffs, field: FieldCtx, M: int) -> Fraction:
    """Truncated h(g) = (q-1)/q * mean_z (min(val(g(z)), M+1) + 1).

    Always at most n/ell + 1; capping the valuation only lowers the value, so
    the closed-form bound dominates every truncated one.
    """
    q = field.q
    ctx = trunc_make(field, M)
    coeffs = _monic_low_coeffs(g, ctx)
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
    counts: Dict[FiberKey, int]  # direct slice enumeration
    analytic_counts: Dict[FiberKey, int]  # multiplication-fiber formula path
    density: Dict[FiberKey, Fraction]

    def mass(self) -> Fraction:
        q = self.field.q
        return sum(self.density.values(), Fraction(0)) / Fraction(q ** (self.M * self.n))

    def sup(self) -> Fraction:
        return max(self.density.values()) if self.density else Fraction(0)

    def dual_path_equal(self) -> bool:
        keys = set(self.counts) | set(self.analytic_counts)
        return all(self.counts.get(k, 0) == self.analytic_counts.get(k, 0) for k in keys)


def subreg_slice_density(n: int, field: FieldCtx, M: int) -> SubregDensity:
    """Pushforward density of Haar measure on the subregular slice (shape
    (n-1, 1)) through the characteristic polynomial, at resolution M.

    Computed two independent ways: direct enumeration of the n+2 slice
    coordinates (f, alpha, z), and boxwise via the multiplication-fiber
    closed form applied to g(z).
    """
    if 2 * field.ell <= n:
        raise WrongCharacteristic(f"need char > n/2, got ell={field.ell}, n={n}")
    if n < 3:
        raise TooLarge("the subregular slice shape degenerates below n = 3; "
                       "use density_profile for n = 2")
    q = field.q
    if q ** ((n + 2) * M) > SLICE_GUARD:
        raise TooLarge("subregular slice sweep exceeds its guard")
    ctx = trunc_make(field, M - 1)
    counts: Dict[FiberKey, int] = {}
    ring = list(ctx.elements())
    for fcoeffs in itertools.product(ring, repeat=n):
        for alpha in ring:
            A = companion(CharCoeffs(ctx, n, fcoeffs), alpha)
            for z in ring:
                key = charpoly(shift_scalar(A, z)).c
                counts[key] = counts.get(key, 0) + 1
    # analytic path: count(g) = sum_z #{(u, alpha) : u*alpha = g(z)}
    analytic: Dict[FiberKey, int] = {}
    for gcoeffs in itertools.product(ring, repeat=n):
        g = CharCoeffs(ctx, n, gcoeffs)
        low = _monic_low_coeffs(g, ctx)
        total = 0
        for z in ring:
            total += mult_fiber_count(poly_eval(low, z, ctx), ctx)
        if total:
            analytic[gcoeffs] = total
    denom = q ** (2 * M)
    density = {k: Fraction(c, denom) for k, c in counts.items()}
    return SubregDensity(n, field, M, counts, analytic, density)


def m1_identity_check(n: int, field: FieldCtx, samples: int = 1000,
                      seed: int = 0, exhaustive_limit: int = 1 << 14) -> bool:
    """charpoly(c(f) + (alpha-1) e_{n-1,n}) = f - f(0) + alpha * f(0)."""
    import random

    if n < 2:
        raise TooLarge("identity needs n >= 2")
    q = field.q
    ctx0 = trunc_make(field, 0)
    if q ** (n + 1) <= exhaustive_limit:
        space = itertools.product(ctx0.elements(), repeat=n + 1)
        for tup in space:
            if not _m1_identity_one(n, ctx0, tup[:n], tup[n]):
                return False
        return True
    rng = random.Random(seed)
    ctx = trunc_make(field, 1)
    for _ in range(samples):
        fcoeffs = tuple(ctx.make([rng.randrange(q), rng.randrange(q)]) for _ in range(n))
        alpha = ctx.make([rng.randrange(q), rng.randrange(q)])
        if not _m1_identity_one(n, ctx, fcoeffs, alpha):
            return False
    return True


def _m1_identity_one(n: int, ctx: TruncCtx, fcoeffs, alpha) -> bool:
    f = CharCoeffs(ctx, n, tuple(fcoeffs))
    A = companion(f, alpha)
    got = charpoly(A).c
    # f - f(0) + alpha*f(0): only the constant coefficient changes
    expect = tuple(f.c[:-1]) + (ctx.mul(alpha, f.c[-1]),)
    return got == expect
