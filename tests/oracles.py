"""Independent reference implementations used only to freeze expected values.

Deliberately naive: the characteristic polynomial is computed by cofactor
expansion of det(zI - A) in a dense polynomial ring over R_m, with no shared
code paths with the package kernels.  The scalar slice-layer sweeps at the
end run one point at a time through the package's scalar ``charpoly`` and
are the references for its batched sweeps; the scalar valuation sweeps run
one series tuple at a time through ``TruncCtx`` and are the references for
the ring-index sweeps of ``subreg``.  The per-box export loop is the
reference for ``measure.profile_to_csv``, and the scalar Gauss-Jordan
elimination the reference for ``counting.row_echelon``, and the unfiltered
modulus search at the very end the reference for ``field._find_modulus``.
"""

import itertools
from fractions import Fraction

import numpy as np

from chevalab.counting import _decode_key
from chevalab.field import TruncCtx, is_irreducible, trunc_make
from chevalab.matrices import (CharCoeffs, bracket_rank, charpoly, companion,
                               is_nilpotent_jet, scale_coeffs, shift_scalar)
from chevalab.slices import _scaled_coords, jordan_matrix, slice_basis, slice_point
from chevalab.subreg import ValHistogram, mult_fiber_count


def poly_add(ctx: TruncCtx, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = ctx.add(out[i], x)
    return out


def poly_mul(ctx: TruncCtx, a, b):
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def poly_neg(ctx: TruncCtx, a):
    return [ctx.neg(x) for x in a]


def det_poly(ctx: TruncCtx, mat):
    """Determinant of a matrix of z-polynomials, by first-row cofactors."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = [ctx.zero]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = poly_mul(ctx, mat[0][j], det_poly(ctx, minor))
        if j % 2:
            term = poly_neg(ctx, term)
        total = poly_add(ctx, total, term)
    return total


def charpoly_oracle(ctx: TruncCtx, entries):
    """(c_1, ..., c_n) of det(zI - A); entries is an n x n list of series."""
    n = len(entries)
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            # polynomial in z: constant -A[i][j], plus z on the diagonal
            p = [ctx.neg(entries[i][j])]
            if i == j:
                p.append(ctx.one)
            row.append(p)
        mat.append(row)
    d = det_poly(ctx, mat)
    d = d + [ctx.zero] * (n + 1 - len(d))
    assert d[n] == ctx.one
    return tuple(d[n - i] for i in range(1, n + 1))


def all_matrices(ctx: TruncCtx, n):
    ring = list(ctx.elements())
    for flat in itertools.product(ring, repeat=n * n):
        yield [[flat[i * n + j] for j in range(n)] for i in range(n)]


def fiber_counts_oracle(ctx: TruncCtx, n):
    """Exhaustive fiber table via the oracle characteristic polynomial."""
    table = {}
    for mat in all_matrices(ctx, n):
        key = charpoly_oracle(ctx, mat)
        table[key] = table.get(key, 0) + 1
    return table


# --------------------------------------------------------------------------
# scalar sweeps of the slice layer, one point at a time through matrices.charpoly;
# the references for the batched sweeps in subreg and slices
# --------------------------------------------------------------------------

def subreg_slice_oracle(n, field, M):
    """(counts, analytic_counts) of subreg.subreg_slice_density: the direct
    (f, alpha, z) sweep and the multiplication-fiber sum over z."""
    ctx = trunc_make(field, M - 1)
    counts = {}
    ring = list(ctx.elements())
    for fcoeffs in itertools.product(ring, repeat=n):
        for alpha in ring:
            A = companion(CharCoeffs(ctx, n, fcoeffs), alpha)
            for z in ring:
                key = charpoly(shift_scalar(A, z)).c
                counts[key] = counts.get(key, 0) + 1
    analytic = {}
    for gcoeffs in itertools.product(ring, repeat=n):
        low = [ctx.make(c) for c in reversed(gcoeffs)] + [ctx.one]
        total = sum(mult_fiber_count(poly_eval(low, z, ctx), ctx) for z in ring)
        if total:
            analytic[gcoeffs] = total
    return counts, analytic


def equivariance_exhaustive_oracle(basis, field):
    """slices._equivariance_exhaustive_np one point at a time."""
    ctx = trunc_make(field, 0)
    ncoords = len(basis.entries)
    for raw in itertools.product(range(field.q), repeat=basis.dim):
        coords = [(c,) for c in raw[:ncoords]]
        z = (raw[ncoords],) if basis.has_center else None
        A = slice_point(basis, field, coords, 0, z)
        base = charpoly(A)
        for lam in range(1, field.q):
            sc = _scaled_coords(basis, field, ctx, coords, lam)
            sz = ctx.smul(lam, z) if z is not None else None
            As = slice_point(basis, field, sc, 0, sz)
            if charpoly(As).c != scale_coeffs(base, lam).c:
                return False
    return True


def orbit_jump_oracle(partition, field):
    """slices.audit_orbit_jump one point at a time."""
    basis = slice_basis(partition, "L")
    rx = bracket_rank(jordan_matrix(partition, field))
    for raw in itertools.product(range(field.q), repeat=len(basis.entries)):
        if not any(raw):
            continue
        y = slice_point(basis, field, [(c,) for c in raw], 0, None)
        if is_nilpotent_jet(y) and bracket_rank(y) <= rx:
            return False
    return True


# --------------------------------------------------------------------------
# scalar valuation sweeps, one series tuple at a time through TruncCtx;
# the references for subreg.mult_pushforward_hist and subreg.val_integral
# --------------------------------------------------------------------------

def mult_hist_oracle(field, M):
    """subreg.mult_pushforward_hist by the P^2 double loop over series tuples."""
    q = field.q
    ctx = trunc_make(field, M)
    counts = [0] * (M + 2)  # index M+1 = tail
    for x in ctx.elements():
        for y in ctx.elements():
            v = ctx.val(ctx.mul(x, y))
            counts[M + 1 if v is None else v] += 1
    denom = q ** (2 * (M + 1))
    buckets = {r: Fraction(counts[r], denom) for r in range(M + 1)}
    return ValHistogram(field, M, buckets, Fraction(counts[M + 1], denom))


def poly_eval(coeffs_low, z, ctx):
    """Evaluate sum coeffs_low[i] * z^i by Horner."""
    acc = ctx.zero
    for c in reversed(coeffs_low):
        acc = ctx.add(ctx.mul(acc, z), c)
    return acc


def val_integral_oracle(coeffs_low, field, M):
    """subreg.val_integral by the loop over series tuples z."""
    q = field.q
    ctx = trunc_make(field, M)
    coeffs = [ctx.make(c) for c in coeffs_low]
    total = 0
    for z in ctx.elements():
        total += ctx.val_capped(poly_eval(coeffs, z, ctx), M + 1)
    return Fraction(total, q ** (M + 1))


# --------------------------------------------------------------------------
# per-box density export, one row at a time through Fraction;
# the reference for measure.profile_to_csv
# --------------------------------------------------------------------------

def _coeff_str(series: tuple) -> str:
    return ";".join(str(c) for c in series)


def _min_q_exponent(f: Fraction, q: int) -> int:
    """The smallest e with f * q^e an integer."""
    e = 0
    while (f * q ** e).denominator != 1:
        e += 1
    return e


def profile_rows_oracle(profile):
    """The CSV rows of profile_to_csv as dicts, one box at a time, in ascending code order."""
    ctx = trunc_make(profile.field, profile.M - 1)
    q = profile.field.q
    rows = []
    for code in np.flatnonzero(profile.counts).tolist():
        count = int(profile.counts[code])
        f = Fraction(count, profile.denom())
        e = _min_q_exponent(f, q)
        rows.append({
            "box": "|".join(_coeff_str(ci) for ci in _decode_key(profile.n, ctx, code)),
            "fiber_count": str(count),
            "f_numerator": str(f * q ** e),
            "f_denominator_exp": e,
        })
    return rows


# --------------------------------------------------------------------------
# scalar Gauss-Jordan elimination over F_ell, one system at a time;
# the reference for counting.row_echelon
# --------------------------------------------------------------------------

def gauss_oracle(gens, ell, r):
    """(rank, reduced row echelon rows) of the span of the rows gens in F_ell^r."""
    rows = [[v % ell for v in row] for row in gens]
    rank = 0
    for c in range(r):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = pow(rows[rank][c], -1, ell)
        rows[rank] = [v * inv % ell for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % ell for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows[:rank]


def in_span_oracle(gens, y, ell, r):
    """Whether y lies in the span of the rows gens: adding it keeps the rank."""
    return gauss_oracle(list(gens) + [y], ell, r)[0] == gauss_oracle(gens, ell, r)[0]


def find_modulus_oracle(ell, k):
    """field._find_modulus without its root filter: the Rabin test on every
    monic candidate of degree k, constant coefficient outermost."""
    for lower in itertools.product(range(ell), repeat=k):
        poly = list(lower) + [1]
        if is_irreducible(poly, ell):
            return tuple(poly)
    return None
