import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalab.errors import CtxMismatch, SizeTooSmall
from chevalab.field import field_make, ring_tables, trunc_make
from chevalab.matrices import (
    CharCoeffs,
    bracket_rank,
    charpoly,
    charpoly_batch,
    charpoly_berkowitz,
    charpoly_shift,
    companion,
    is_nilpotent_jet,
    mat_identity,
    mat_make,
    mat_scalar,
    mat_zero,
    rank_over_field,
    scale_coeffs,
    shift_scalar,
    shift_scalar_audit,
)

from oracles import charpoly_oracle

F2 = field_make(2)
F3 = field_make(3)


def rand_matrix(ctx, n, rng):
    return mat_make(ctx, [[tuple(rng.randrange(ctx.field.q) for _ in range(ctx.m + 1))
                           for _ in range(n)] for _ in range(n)])


def test_charpoly_identity():
    r = trunc_make(F3, 0)
    f = charpoly(mat_identity(r, 2))
    # det(zI - I) = (z-1)^2 = z^2 - 2z + 1, so c = (-2, 1) = (1, 1) mod 3
    assert f.c == ((1,), (1,))


def test_charpoly_jordan_block():
    r = trunc_make(F2, 0)
    j = mat_make(r, [[(0,), (1,)], [(0,), (0,)]])
    assert charpoly(j).c == ((0,), (0,))
    assert is_nilpotent_jet(j)


def test_charpoly_scalar_t():
    r = trunc_make(F3, 1)
    a = mat_scalar(r, 2, (0, 1))
    # det(zI - tI) = z^2 - 2tz + t^2; t^2 = 0 at m = 1 but c_1 = t survives
    assert charpoly(a).c == ((0, 1), (0, 0))
    assert not is_nilpotent_jet(a)


def test_nilpotent_scalar_depends_on_char():
    assert is_nilpotent_jet(mat_scalar(trunc_make(F2, 1), 2, (0, 1)))
    b = mat_scalar(trunc_make(F3, 1), 3, (0, 1))
    # c_1 = -3t = 0 mod 3, c_2 = 3t^2 = 0, c_3 = -t^3 = 0: still nilpotent
    assert is_nilpotent_jet(b)


@pytest.mark.parametrize("n,ell,m", [(2, 2, 0), (2, 3, 1), (3, 2, 1), (4, 3, 0)])
def test_berkowitz_matches_cofactor_oracle(n, ell, m):
    ctx = trunc_make(field_make(ell), m)
    rng = random.Random(n * 100 + ell * 10 + m)
    for _ in range(60):
        a = rand_matrix(ctx, n, rng)
        got = charpoly_berkowitz(a).c
        assert got == charpoly_oracle(ctx, [list(r) for r in a.entries])
        assert got == charpoly(a).c


def _det_unit(ctx, a):
    cn = charpoly(a).c[-1]
    return cn[0] != 0  # det = (-1)^n c_n, unit iff t^0 part nonzero


def test_conjugation_invariance():
    for ell, m in [(2, 1), (3, 1)]:
        ctx = trunc_make(field_make(ell), m)
        rng = random.Random(7 * ell + m)
        done = 0
        while done < 100:
            g = rand_matrix(ctx, 3, rng)
            if not _det_unit(ctx, g):
                continue
            a = rand_matrix(ctx, 3, rng)
            ginv = _invert(ctx, g)
            conj = g.matmul(a).matmul(ginv)
            assert charpoly(conj).c == charpoly(a).c
            done += 1


def _invert(ctx, g):
    """Gauss-Jordan over R_m; assumes the reduction never needs a non-unit pivot
    swap beyond row exchange (true when det is a unit)."""
    n = g.n
    aug = [list(g.entries[i]) + [ctx.one if j == i else ctx.zero for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col][0] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _series_inv(ctx, aug[col][col])
        aug[col] = [ctx.mul(inv, e) for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != ctx.zero:
                f = aug[r][col]
                aug[r] = [ctx.sub(aug[r][j], ctx.mul(f, aug[col][j]))
                          for j in range(2 * n)]
    return mat_make(ctx, [row[n:] for row in aug])


def _series_inv(ctx, s):
    f = ctx.field
    u = f.inv(s[0])
    out = [u] + [0] * ctx.m
    for i in range(1, ctx.m + 1):
        acc = 0
        for j in range(1, i + 1):
            acc = f.add(acc, f.mul(s[j], out[i - j]))
        out[i] = f.neg(f.mul(u, acc))
    return tuple(out)


def test_homothety_covariance():
    ctx = trunc_make(F3, 1)
    rng = random.Random(3)
    for _ in range(200):
        a = rand_matrix(ctx, 3, rng)
        lam = rng.randrange(1, 3)
        assert charpoly(a.scale(lam)).c == scale_coeffs(charpoly(a), lam).c


def test_companion_layout():
    ctx = trunc_make(F2, 0)
    f = CharCoeffs(ctx, 2, ((1,), (1,)))  # z^2 + z + 1
    c = companion(f)
    assert c.entries[0][0] == (1,)  # -c_1 in the (1,1) slot
    assert c.entries[0][1] == (1,)
    assert c.entries[1][0] == (1,)
    assert charpoly(c).c == f.c


def test_companion_alpha_slot():
    ctx = trunc_make(F3, 0)
    f = CharCoeffs(ctx, 3, ((1,), (2,), (1,)))
    c = companion(f, alpha=ctx.zero)
    assert c.entries[1][2] == ctx.zero  # the (2,3) superdiagonal entry
    assert c.entries[0][1] == ctx.one
    with pytest.raises(SizeTooSmall):
        companion(CharCoeffs(ctx, 1, ((1,),)), alpha=ctx.one)


@pytest.mark.parametrize("n,ell,m", [(2, 2, 1), (2, 3, 0), (3, 2, 0), (3, 3, 0)])
def test_companion_roundtrip_exhaustive(n, ell, m):
    from chevalab.field import enumerate_ring
    import itertools
    ctx = trunc_make(field_make(ell), m)
    for cs in itertools.product(enumerate_ring(ctx), repeat=n):
        f = CharCoeffs(ctx, n, tuple(cs))
        assert charpoly(companion(f)).c == f.c


def test_shift_scalar_identity_exhaustive():
    from chevalab.counting import enumerate_matrices
    from chevalab.field import enumerate_ring
    ctx = trunc_make(F2, 1)
    zs = list(enumerate_ring(ctx))
    for a in enumerate_matrices(2, ctx):
        for z in zs:
            assert shift_scalar_audit(a, z)


def test_charpoly_shift_example():
    ctx = trunc_make(F3, 0)
    f = CharCoeffs(ctx, 2, ((0,), (0,)))  # z^2
    g = charpoly_shift(f, (1,))  # (z - 1 + 1)... substitute z -> z + z0 style shift
    a = companion(f)
    assert charpoly(shift_scalar(a, (1,))).c == g.c


def test_ctx_mismatch_rejected():
    a = mat_identity(trunc_make(F2, 0), 2)
    b = mat_identity(trunc_make(F3, 0), 2)
    with pytest.raises(CtxMismatch):
        a.add(b)


def test_rank_over_field():
    assert rank_over_field([[1, 0], [0, 1]], F2) == 2
    assert rank_over_field([[1, 1], [1, 1]], F2) == 1
    assert rank_over_field([[0, 0], [0, 0]], F3) == 0
    assert rank_over_field([[1, 2], [2, 4]], F3) == 1


def test_bracket_rank_values():
    r = trunc_make(F2, 0)
    assert bracket_rank(mat_zero(r, 2)) == 0
    j2 = mat_make(r, [[(0,), (1,)], [(0,), (0,)]])
    assert bracket_rank(j2) == 2
    r3 = trunc_make(F2, 0)
    j3 = mat_make(r3, [[(0,), (1,), (0,)], [(0,), (0,), (1,)], [(0,), (0,), (0,)]])
    assert bracket_rank(j3) == 6
    with pytest.raises(CtxMismatch):
        bracket_rank(mat_zero(trunc_make(F2, 1), 2))


@given(n=st.integers(1, 4), ell_k=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       m=st.integers(0, 2), data=st.data())
@settings(max_examples=50, deadline=None)
def test_charpoly_batch_matches_scalar_and_oracle(n, ell_k, m, data):
    ctx = trunc_make(field_make(*ell_k), m)
    batch = 3
    ring_index = st.integers(0, ctx.size - 1)
    cols = data.draw(st.lists(st.lists(ring_index, min_size=batch, max_size=batch),
                              min_size=n * n, max_size=n * n))
    entries = [[np.array(cols[i * n + j], dtype=np.int64) for j in range(n)] for i in range(n)]
    if n > 1:  # one entry passed as a scalar, broadcast over the batch
        i0, j0 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        entries[i0][j0] = cols[i0 * n + j0][0]
    got = charpoly_batch(n, ring_tables(ctx), entries)
    assert [c.shape for c in got] == [(batch,)] * n
    for b in range(batch):
        rows = [[ctx.from_index(int(np.broadcast_to(entries[i][j], (batch,))[b])) for j in range(n)]
                for i in range(n)]
        expect = charpoly(mat_make(ctx, rows)).c
        assert tuple(ctx.from_index(int(c[b])) for c in got) == expect
        assert expect == charpoly_oracle(ctx, rows)
