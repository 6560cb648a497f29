"""Independent reference implementations used only to freeze expected values.

Deliberately naive: the characteristic polynomial is computed by cofactor
expansion of det(zI - A) in a dense polynomial ring over R_m, with no shared
code paths with the package kernels; only ``TruncCtx`` series arithmetic
runs, and the minors' determinants are memoised per ring.  ``FieldCtx`` and
``TruncCtx`` call no packed op, so every oracle's F_q product, at every k,
is ``field._poly_mulmod`` of the digit polynomials mod the modulus, and
every sum is digitwise mod ell; ``charpoly_oracle``
is the independent reference for both ``charpoly`` and ``charpoly_batch``.
The scalar slice-layer sweeps run one point at a time through the package's
scalar ``charpoly``, which shares its Samuelson-Berkowitz body with
``charpoly_batch``; what they check independently of the batched sweeps is
how the slice and companion entries are built.  The series builders they
and the property tests use live here, written on ``TruncCtx`` arithmetic,
because the package builds its matrices only as ring-index arrays:
``mat_make``, ``matmul``, ``shift_scalar`` (A + zI), ``companion``,
``scale_coeffs``, ``charpoly_shift``, ``slice_point`` and ``scaled_coords``
moved in from ``matrices`` and ``slices``.  The batched
block sweep (``sweep_count_oracle``, ``sweep_counts_oracle``) runs every
matrix of a count through ``charpoly_batch`` and is the reference for the
lift engine of ``counting``.  The n = 2 closed forms (``nilcone_n2_oracle``,
``split_fiber_n2_oracle``) are the references for counts past the dense
ring tables, where no sweep of every matrix runs, and the m = 1 closed form
over Jordan types (``nilcone_m1_oracle``) the one for m = 1 nilcone counts
at every n; no engine shares its formula.
``bracket_rank_oracle`` ranks ad_x by scalar Gaussian elimination over F_q
in ``FieldCtx`` arithmetic, independent of ``row_echelon``: it is the
reference for ``matrices.ad_ranks``, and ``orbit_jump_oracle``, which
tests nilpotency by matrix powers in the same arithmetic, the one for
``slices.audit_orbit_jump``.  The scalar valuation sweeps run one series tuple at a
time through ``TruncCtx`` and are the references for the ring-index sweeps
of ``subreg``.  The per-box export loop is the reference for
``measure.profile_to_csv``, the scalar Gauss-Jordan elimination over F_ell
the reference for ``matrices.row_echelon``, the brute-force factor search
the reference for ``field.is_irreducible``, and the unfiltered modulus
search at the very end the reference for ``field._find_modulus``.
"""

import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np

from chevalab.counting import (_blocks, _charpoly_keys, _decode_key, _encode_key, _fiber_key,
                               _fiber_bases, _full_entries, _jet_entries, matrix_space_size)
from chevalab.field import TruncCtx, is_irreducible, trunc_make
from chevalab.matrices import CharCoeffs, JetMatrix, charpoly
from chevalab.slices import all_partitions, jordan_matrix, slice_basis
from chevalab.subreg import ValHistogram, mult_fiber_count


# --------------------------------------------------------------------------
# scalar builders in TruncCtx series arithmetic, one JetMatrix at a time;
# the package builds the same matrices as ring-index arrays
# --------------------------------------------------------------------------

def mat_make(ctx: TruncCtx, rows) -> JetMatrix:
    """The JetMatrix of an n x n list of series."""
    for row in rows:
        assert len(row) == len(rows)
        for e in row:
            ctx.check(e)
    return JetMatrix(ctx, len(rows), tuple(tuple(tuple(e) for e in row) for row in rows))


def matmul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    ctx, n = a.ctx, a.n
    return mat_make(ctx, [[functools.reduce(ctx.add, (ctx.mul(a.entries[i][l], b.entries[l][j])
                                                      for l in range(n)))
                           for j in range(n)] for i in range(n)])


def shift_scalar(a: JetMatrix, z) -> JetMatrix:
    """A + zI."""
    ctx = a.ctx
    return mat_make(ctx, [[ctx.add(e, z) if i == j else e for j, e in enumerate(row)]
                          for i, row in enumerate(a.entries)])


def companion(f: CharCoeffs, alpha=None) -> JetMatrix:
    """Coefficients -c_i down the first column and ones on the superdiagonal;
    with alpha, the (n-1, n) superdiagonal entry is alpha instead of 1."""
    ctx, n = f.ctx, f.n
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][0] = ctx.neg(f.c[i])
        if i < n - 1:
            rows[i][i + 1] = ctx.one
    if alpha is not None:
        rows[n - 2][n - 1] = alpha
    return mat_make(ctx, rows)


def scale_coeffs(f: CharCoeffs, lam: int) -> CharCoeffs:
    """The weight-(1, ..., n) action of lam in F_q: c_i -> lam^i c_i."""
    ctx = f.ctx
    return CharCoeffs(ctx, f.n, tuple(ctx.smul(ctx.field.pow(lam, i), ci) for i, ci in enumerate(f.c, 1)))


def charpoly_shift(f: CharCoeffs, z) -> CharCoeffs:
    """The coefficients of f(lambda - z), the char poly after adding zI: a
    Horner Taylor shift of [1, c_1, ..., c_n] by -z."""
    ctx, n = f.ctx, f.n
    a, s = [ctx.one, *f.c], ctx.neg(z)
    for i in range(n):
        for j in range(1, n - i + 1):
            a[j] = ctx.add(a[j], ctx.mul(s, a[j - 1]))
    return CharCoeffs(ctx, n, tuple(a[1:]))


def slice_point(basis, field, coords, m=0, z=None) -> JetMatrix:
    """x + sum coords[e] E_e (+ zI for kind M) over R_m, x = jordan_matrix."""
    ctx = trunc_make(field, m)
    rows = [[ctx.make(e) for e in row] for row in jordan_matrix(basis.partition, field).entries]
    for e, c in zip(basis.entries, coords):
        rows[e.row][e.col] = ctx.add(rows[e.row][e.col], c)
    a = mat_make(ctx, rows)
    return a if z is None else shift_scalar(a, z)


def scaled_coords(basis, field, ctx: TruncCtx, coords, lam: int) -> list:
    """Coordinate e times lam^(its weight)."""
    return [ctx.smul(field.pow(lam, e.exponent), c) for e, c in zip(basis.entries, coords)]


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


_MINOR_DETS: dict = {}  # ctx.key() -> {minor entries as tuples: its determinant}


def det_poly(ctx: TruncCtx, mat):
    """Determinant of a matrix of z-polynomials, by first-row cofactors.
    The determinants of the (n-1) x (n-1) minors are memoised per ring."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    dets = _MINOR_DETS.setdefault(ctx.key(), {})
    total = [ctx.zero]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        key = tuple(tuple(map(tuple, row)) for row in minor)
        if key not in dets:
            dets[key] = det_poly(ctx, minor)
        term = poly_mul(ctx, mat[0][j], dets[key])
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
# the batched block sweep, every matrix through charpoly_batch;
# the reference for the lift engine of counting
# --------------------------------------------------------------------------

def sweep_count_oracle(n, ctx: TruncCtx, kind, x=None):
    """count_nilcone_jets or count_jet_fiber (n >= 2) by sweeping every matrix:
    for nilcone the jets (_jet_entries) of the m = 0 nilpotent bases
    (_fiber_bases over 0) with every higher coefficient, and for fiber all
    of Mat_n(R_m), independent of the base lists."""
    if kind == "nilcone":
        bases = _fiber_bases(n, ctx.field, 0)
        total, target = len(bases) * ctx.field.q ** (ctx.m * n * n), 0
        decode = lambda idx: _jet_entries(n, ctx, bases, idx)  # noqa: E731
    else:
        total, target = matrix_space_size(n, ctx), _encode_key(ctx, _fiber_key(n, ctx, x))
        decode = lambda idx: _full_entries(n, ctx.size, idx)  # noqa: E731
    return sum(int(np.count_nonzero(_charpoly_keys(n, ctx, decode(idx)) == target))
               for idx in _blocks(0, total))


def sweep_counts_oracle(n, ctx: TruncCtx):
    """The fiber counts of every code in _encode_key order (n >= 2), by
    sweeping all of Mat_n(R_m)."""
    P = ctx.size
    return sum(np.bincount(_charpoly_keys(n, ctx, _full_entries(n, P, idx)), minlength=P ** n)
               for idx in _blocks(0, matrix_space_size(n, ctx)))


def nilcone_n2_oracle(q, m):
    """#J_m(N) for n = 2: S_(m+1) of the recurrence S_0 = 1, S_1 = q^2,
    S_k = (q^2 - 1) q^(2k-2) + q^3 S_(k-2)."""
    S = [1, q * q]
    for k in range(2, m + 2):
        S.append((q * q - 1) * q ** (2 * k - 2) + q ** 3 * S[k - 2])
    return S[m + 1]


def split_fiber_n2_oracle(q, m):
    """The n = 2 fiber over an x whose residue x mod t has two distinct roots
    in F_q: the q^2 + q matrices of a regular semisimple orbit mod t, each
    lifting smoothly, q^2 ways a level."""
    return (q * q + q) * q ** (2 * m)


def nilpotent_orbit_size(partition, q):
    """|O_λ| = |GL_n(q)| / |C(J_λ)| for the nilpotent orbit of Jordan type λ,
    with |C(J_λ)| = q^(Σ_i λ'_i²) Π_i Π_(j <= m_i(λ)) (1 - q^(-j)), λ' the
    conjugate partition and m_i(λ) the number of parts equal to i."""
    parts, n = partition.parts, partition.n
    conj = [sum(p >= i for p in parts) for i in range(1, parts[0] + 1)]
    cent = Fraction(q ** sum(c * c for c in conj))
    for i in set(parts):
        for j in range(1, parts.count(i) + 1):
            cent *= 1 - Fraction(1, q ** j)
    gl = math.prod(q ** n - q ** i for i in range(n))
    size = gl / cent
    assert size.denominator == 1
    return size.numerator


def nilcone_m1_oracle(n, q):
    """#J_1(N) = Σ_λ |O_λ| q^(n² - λ_1): over B in O_λ the t-digit U lifts
    exactly when Dc_B(U) = 0, a kernel of dimension n² - rank Dc_B = n² - λ_1."""
    return sum(nilpotent_orbit_size(p, q) * q ** (n * n - p.parts[0]) for p in all_partitions(n))


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
    """slices.audit_equivariance's exhaustive sweep one point at a time."""
    ctx = trunc_make(field, 0)
    ncoords = len(basis.entries)
    for raw in itertools.product(range(field.q), repeat=basis.dim):
        coords = [(c,) for c in raw[:ncoords]]
        z = (raw[ncoords],) if basis.has_center else None
        A = slice_point(basis, field, coords, 0, z)
        base = charpoly(A)
        for lam in range(1, field.q):
            sc = scaled_coords(basis, field, ctx, coords, lam)
            sz = ctx.smul(lam, z) if z is not None else None
            As = slice_point(basis, field, sc, 0, sz)
            if charpoly(As).c != scale_coeffs(base, lam).c:
                return False
    return True


def bracket_rank_oracle(xm, field):
    """Rank of ad_x over F_q for x an n x n list of F_q codes: the rows
    [x, E_ab], ranked by scalar Gaussian elimination in FieldCtx arithmetic."""
    n = len(xm)
    rows = []
    for a in range(n):
        for b in range(n):
            # vec of [x, E_ab] = x E_ab - E_ab x
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                out[i][b] = field.add(out[i][b], xm[i][a])
            for j in range(n):
                out[a][j] = field.sub(out[a][j], xm[b][j])
            rows.append([v for row in out for v in row])
    rank = 0
    for col in range(n * n):
        p = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [field.sub(v, field.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _is_nilpotent_oracle(y, field):
    """Whether y^(2^j) = 0 for 2^j >= n, y an n x n list of F_q codes; the
    trace is tested first, as it vanishes on every nilpotent y."""
    n = len(y)
    if functools.reduce(field.add, (y[i][i] for i in range(n))):
        return False
    power = 1
    while power < n:
        y = [[functools.reduce(field.add, (field.mul(y[i][l], y[l][j]) for l in range(n)))
              for j in range(n)] for i in range(n)]
        power *= 2
    return not any(any(row) for row in y)


def orbit_jump_oracle(partition, field):
    """slices.audit_orbit_jump one point at a time in FieldCtx arithmetic: y is
    nilpotent when a power y^(2^j), 2^j >= n, vanishes, and is ranked by
    bracket_rank_oracle."""
    basis = slice_basis(partition, "L")
    x = [[e[0] for e in row] for row in jordan_matrix(partition, field).entries]
    rx = bracket_rank_oracle(x, field)
    for raw in itertools.product(range(field.q), repeat=len(basis.entries)):
        if not any(raw):
            continue
        y = [list(row) for row in x]
        for c, e in zip(raw, basis.entries):
            y[e.row][e.col] = field.add(y[e.row][e.col], c)
        if _is_nilpotent_oracle(y, field) and bracket_rank_oracle(y, field) <= rx:
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


def profile_csv_oracle(profile) -> bytes:
    """The bytes of profile_to_csv: profile_rows_oracle through csv.DictWriter."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["box", "fiber_count", "f_numerator", "f_denominator_exp"],
                       lineterminator="\r\n")
    w.writeheader()
    w.writerows(profile_rows_oracle(profile))
    return buf.getvalue().encode()


# --------------------------------------------------------------------------
# scalar Gauss-Jordan elimination over F_ell, one system at a time;
# the reference for matrices.row_echelon
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


def is_irreducible_oracle(poly, ell):
    """Whether the monic poly (low-degree-first, degree >= 1) over Z/ell is no
    product of two monic polynomials of positive degree, by trying them all."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low_a in itertools.product(range(ell), repeat=d):
            for low_b in itertools.product(range(ell), repeat=k - d):
                a, b = list(low_a) + [1], list(low_b) + [1]
                prod = [0] * (k + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % ell
                if prod == list(poly):
                    return False
    return True


def find_modulus_oracle(ell, k):
    """field._find_modulus without its root filter: the Rabin test on every
    monic candidate of degree k, constant coefficient outermost."""
    for lower in itertools.product(range(ell), repeat=k):
        poly = list(lower) + [1]
        if is_irreducible(poly, ell):
            return tuple(poly)
    return None
