import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalab import matrices
from chevalab.errors import TooLarge
from chevalab.field import RING_TABLE_LIMIT, field_make, ring_tables, trunc_make
from chevalab.matrices import CharCoeffs, ad_ranks, charpoly, charpoly_batch, charpoly_ring

from oracles import (all_matrices, bracket_rank_oracle, charpoly_oracle, charpoly_shift, companion,
                     mat_make, matmul, scale_coeffs, shift_scalar)

F2 = field_make(2)
F3 = field_make(3)


def scalar_matrix(ctx, n, z):
    """zI, in the series arithmetic of the oracles."""
    return shift_scalar(mat_make(ctx, [[ctx.zero] * n for _ in range(n)]), z)


def is_nilpotent(a):
    """All characteristic coefficients vanish in R_m."""
    return charpoly(a).c == (a.ctx.zero,) * a.n


def rand_matrix(ctx, n, rng):
    return mat_make(ctx, [[tuple(rng.randrange(ctx.field.q) for _ in range(ctx.m + 1))
                           for _ in range(n)] for _ in range(n)])


def test_charpoly_identity():
    r = trunc_make(F3, 0)
    f = charpoly(scalar_matrix(r, 2, r.one))
    # det(zI - I) = (z-1)^2 = z^2 - 2z + 1, so c = (-2, 1) = (1, 1) mod 3
    assert f.c == ((1,), (1,))


def test_charpoly_jordan_block():
    r = trunc_make(F2, 0)
    j = mat_make(r, [[(0,), (1,)], [(0,), (0,)]])
    assert charpoly(j).c == ((0,), (0,))
    assert is_nilpotent(j)


def test_charpoly_scalar_t():
    r = trunc_make(F3, 1)
    a = scalar_matrix(r, 2, (0, 1))
    # det(zI - tI) = z^2 - 2tz + t^2; t^2 = 0 at m = 1 but c_1 = t survives
    assert charpoly(a).c == ((0, 1), (0, 0))
    assert not is_nilpotent(a)


def test_nilpotent_scalar_depends_on_char():
    assert is_nilpotent(scalar_matrix(trunc_make(F2, 1), 2, (0, 1)))
    b = scalar_matrix(trunc_make(F3, 1), 3, (0, 1))
    # c_1 = -3t = 0 mod 3, c_2 = 3t^2 = 0, c_3 = -t^3 = 0: still nilpotent
    assert is_nilpotent(b)


@pytest.mark.parametrize("n,ell,k,m", [(2, 2, 1, 0), (2, 3, 1, 1), (3, 2, 1, 1), (4, 3, 1, 0), (3, 2, 2, 1)],
                         ids=["2-2-0", "2-3-1", "3-2-1", "4-3-0", "3-2-2-1"])
def test_berkowitz_matches_cofactor_oracle(n, ell, k, m):
    # both adapters of the one Samuelson-Berkowitz body against cofactor expansion
    ctx = trunc_make(field_make(ell, k), m)
    rng = random.Random(n * 100 + ell * 10 + m)
    mats = [rand_matrix(ctx, n, rng) for _ in range(60)]
    want = [charpoly_oracle(ctx, [list(r) for r in a.entries]) for a in mats]
    assert [charpoly(a).c for a in mats] == want
    entries = [[np.array([ctx.index(a.entries[i][j]) for a in mats], dtype=np.int64) for j in range(n)]
               for i in range(n)]
    got = charpoly_batch(n, ring_tables(ctx), entries)
    assert [tuple(ctx.from_index(int(c[b])) for c in got) for b in range(len(mats))] == want


def _both_paths(monkeypatch, n, tabs, entries):
    """charpoly_batch on int64 residues and, with that path switched off, on the tables."""
    assert matrices._int64_exact(n, tabs.P)
    ints = charpoly_batch(n, tabs, entries)
    with monkeypatch.context() as patched:
        patched.setattr(matrices, "_int64_exact", lambda n, P: False)
        return ints, charpoly_batch(n, tabs, entries)


@pytest.mark.parametrize("n,ell", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_int64_path_matches_tables_on_every_matrix(monkeypatch, n, ell):
    idx = np.arange(ell ** (n * n), dtype=np.int64)
    digits = [idx // ell ** d % ell for d in range(n * n)]
    entries = [digits[i * n:(i + 1) * n] for i in range(n)]
    ints, tables = _both_paths(monkeypatch, n, ring_tables(trunc_make(field_make(ell), 0)), entries)
    assert all(np.array_equal(a, b) for a, b in zip(ints, tables))


def test_int64_path_at_its_bound_matches_oracle(monkeypatch):
    # n = 5 at ell = 251 is the largest n the int64 path takes there; all-250 is the worst case
    ctx = trunc_make(field_make(251), 0)
    rng = random.Random(251)
    mats = [[[250] * 5 for _ in range(5)]] + [[[rng.randrange(251) for _ in range(5)] for _ in range(5)]
                                             for _ in range(50)]
    entries = [[np.array([a[i][j] for a in mats], dtype=np.int64) for j in range(5)] for i in range(5)]
    want = [tuple(c[0] for c in charpoly_oracle(ctx, [[(e,) for e in row] for row in a])) for a in mats]
    for got in _both_paths(monkeypatch, 5, ring_tables(ctx), entries):
        assert [tuple(int(c[b]) for c in got) for b in range(len(mats))] == want


def test_int64_path_only_below_its_bound():
    # (n+1)(n(P-1))^n < 2^63: n <= 5 at 251 and n <= 15 at 2; R_m with q^(m+1) not prime never
    assert matrices._int64_exact(5, 251) and not matrices._int64_exact(6, 251)
    assert matrices._int64_exact(15, 2) and not matrices._int64_exact(16, 2)
    assert not any(matrices._int64_exact(3, P) for P in (4, 8, 9, 25))
    ctx = trunc_make(field_make(251), 0)  # so n = 6 gathers from the tables, and stays exact
    got = charpoly_batch(6, ring_tables(ctx), [[250] * 6 for _ in range(6)])
    assert tuple(int(c) for c in got) == tuple(c[0] for c in charpoly_oracle(ctx, [[(250,)] * 6] * 6))


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
            conj = matmul(matmul(g, a), ginv)
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
        scaled = mat_make(ctx, [[ctx.smul(lam, e) for e in row] for row in a.entries])
        assert charpoly(scaled).c == scale_coeffs(charpoly(a), lam).c


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


@pytest.mark.parametrize("n,ell,m", [(2, 2, 1), (2, 3, 0), (3, 2, 0), (3, 3, 0)])
def test_companion_roundtrip_exhaustive(n, ell, m):
    ctx = trunc_make(field_make(ell), m)
    for cs in itertools.product(ctx.elements(), repeat=n):
        f = CharCoeffs(ctx, n, tuple(cs))
        assert charpoly(companion(f)).c == f.c


def test_shift_scalar_identity_exhaustive():
    # charpoly(A + zI)(lambda) = charpoly(A)(lambda - z) on every A and z
    ctx = trunc_make(F2, 1)
    zs = list(ctx.elements())
    for rows in all_matrices(ctx, 2):
        a = mat_make(ctx, rows)
        for z in zs:
            assert charpoly(shift_scalar(a, z)).c == charpoly_shift(charpoly(a), z).c


def test_charpoly_shift_example():
    ctx = trunc_make(F3, 0)
    f = CharCoeffs(ctx, 2, ((0,), (0,)))  # z^2
    g = charpoly_shift(f, (1,))  # (z - 1 + 1)... substitute z -> z + z0 style shift
    a = companion(f)
    assert charpoly(shift_scalar(a, (1,))).c == g.c


@pytest.mark.parametrize("n,ell,k,m", [(1, 3, 1, 2), (3, 3, 1, 1), (4, 2, 1, 2), (3, 2, 2, 1)])
def test_charpoly_shift_matches_shifted_matrix(n, ell, k, m):
    ctx = trunc_make(field_make(ell, k), m)
    rng = random.Random(f"shift:{n}:{ell}:{k}:{m}")
    for _ in range(40):
        a, z = rand_matrix(ctx, n, rng), ctx.from_index(rng.randrange(ctx.size))
        assert charpoly_shift(charpoly(a), z).c == charpoly(shift_scalar(a, z)).c


def test_bracket_rank_values():
    def rank(rows):
        return int(ad_ranks(np.array(rows, dtype=np.int64)[:, :, None], F2)[0])
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[0, 1], [0, 0]]) == 2
    assert rank([[0, 1, 0], [0, 0, 1], [0, 0, 0]]) == 6


@pytest.mark.parametrize("n,ell,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 5, 1), (2, 2, 3)])
def test_ad_ranks_match_scalar_elimination_exhaustive(n, ell, k):
    # every m = 0 matrix, ranked in one batch against the scalar F_q elimination
    field = field_make(ell, k)
    flat = np.array(list(itertools.product(range(field.q), repeat=n * n)), dtype=np.int64)
    got = ad_ranks(flat.T.reshape(n, n, -1), field)
    want = [bracket_rank_oracle(codes.reshape(n, n).tolist(), field) for codes in flat]
    assert got.tolist() == want


def test_ad_ranks_f2048_without_ring_tables():
    # q = 2048 is past the dense-table limit, so only the table-free path runs
    field = field_make(2, 11)
    rng = random.Random(2048)
    mats = [[[rng.randrange(field.q) for _ in range(3)] for _ in range(3)] for _ in range(20)]
    mats[0] = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]  # regular nilpotent: rank 6
    got = ad_ranks(np.array(mats, dtype=np.int64).transpose(1, 2, 0), field)
    want = [bracket_rank_oracle(m, field) for m in mats]
    assert got.tolist() == want and want[0] == 6


@pytest.mark.parametrize("n,ell,k", [(3, 37, 1), (2, 2, 6), (3, 2, 6)], ids=["3-37", "2-64", "3-64"])
def test_charpoly_ring_matches_oracle_past_table_limit(n, ell, k):
    # R_1 of F_37 and of F_64 have no dense tables; the Berkowitz body runs on ring_add/mul/neg
    ctx = trunc_make(field_make(ell, k), 1)
    assert ctx.size > RING_TABLE_LIMIT
    with pytest.raises(TooLarge):
        ring_tables(ctx)
    rng = random.Random(f"ring:{n}:{ell}:{k}")
    mats = [[[rng.randrange(ctx.size) for _ in range(n)] for _ in range(n)] for _ in range(40)]
    entries = [[np.array([a[i][j] for a in mats], dtype=np.int64) for j in range(n)] for i in range(n)]
    got = charpoly_ring(n, ctx, entries)
    want = [charpoly_oracle(ctx, [[ctx.from_index(e) for e in row] for row in a]) for a in mats]
    assert [tuple(ctx.from_index(int(c[b])) for c in got) for b in range(len(mats))] == want


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
