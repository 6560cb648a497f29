import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from chevalab import subreg
from chevalab.counting import BLOCK, _table_from_counts
from chevalab.errors import BadConfig, TooLarge, WrongCharacteristic
from chevalab.field import _row_blocks, field_make, ring_ops, ring_val, trunc_make
from chevalab.matrices import CharCoeffs
from chevalab.subreg import (
    closed_form_bucket,
    h_formula,
    m1_identity_check,
    mult_fiber_count,
    mult_pushforward_hist,
    subreg_slice_density,
    val_integral,
    val_integral_bound,
)
from oracles import mult_hist_oracle, poly_eval, subreg_slice_oracle, val_integral_oracle

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


@pytest.mark.parametrize("ell", [2, 3, 5])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_hist_matches_closed_form(ell, M):
    field = field_make(ell)
    h = mult_pushforward_hist(field, M)
    assert h.total() == 1
    for r, mass in h.buckets.items():
        assert mass == closed_form_bucket(field, r)
        # (q-1)^2 (r+1) / q^(r+2) explicitly
        q = field.q
        assert mass == Fraction((q - 1) ** 2 * (r + 1), q ** (r + 2))


def test_hist_q2_values():
    h = mult_pushforward_hist(F2, 3)
    assert h.buckets[0] == Fraction(1, 4)
    assert h.buckets[1] == Fraction(1, 4)
    assert h.buckets[2] == Fraction(3, 16)
    assert h.tail == Fraction(3, 16)


@pytest.mark.parametrize("ell,k,M", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1)])
def test_hist_from_direct_enumeration(ell, k, M):
    # independent check: the scalar double loop over all pairs of series tuples
    field = field_make(ell, k)
    h, ref = mult_pushforward_hist(field, M), mult_hist_oracle(field, M)
    assert h.buckets == ref.buckets
    assert h.tail == ref.tail


@pytest.mark.parametrize("ell,k,M", [(3, 1, 5), (2, 1, 9), (2, 2, 4), (2, 1, 0), (3, 1, 0),
                                      (2, 2, 0), (31, 1, 0)])
def test_hist_multi_block_matches_ring_tables(ell, k, M):
    # every ordered pair through ring_ops' product on the P x P grid, read through ring_val
    field = field_make(ell, k)
    ctx = trunc_make(field, M)
    P = ctx.size
    assert (len(_row_blocks(P)) > 1) == (P > 256)  # (3, 1, 5): 34 blocks, the last one shorter
    i = np.arange(P, dtype=np.int64)[:, None]
    counts = np.bincount(ring_val(ctx, ring_ops(ctx)[1](i, i.T)).ravel(), minlength=M + 2)
    h = mult_pushforward_hist(field, M)
    denom = field.q ** (2 * (M + 1))
    assert h.buckets == {r: Fraction(int(counts[r]), denom) for r in range(M + 1)}
    assert h.tail == Fraction(int(counts[M + 1]), denom)


@pytest.mark.parametrize("ell,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_mult_fiber_count_vs_enumeration(ell, m):
    ctx = trunc_make(field_make(ell), m)
    direct = {}
    for u in ctx.elements():
        for v in ctx.elements():
            w = ctx.mul(u, v)
            direct[w] = direct.get(w, 0) + 1
    for w, cnt in direct.items():
        assert mult_fiber_count(w, ctx) == cnt


def test_poly_eval_horner():
    ctx = trunc_make(F2, 1)
    # f(z) = 1 + z + z^2 at z = t: 1 + t + t^2 = 1 + t mod t^2
    coeffs = [(1, 0), (1, 0), (1, 0)]
    assert poly_eval(coeffs, (0, 1), ctx) == (1, 1)


def test_val_integral_constant_unit():
    assert val_integral([(1, 0, 0)], F2, 2) == 0


def test_val_integral_z_closed_form():
    # f = z: I_M = sum_{r=0}^{M} min(r, M+1) membership, settled to 7/8 at M = 2
    assert val_integral([(0, 0, 0), (1, 0, 0)], F2, 2) == Fraction(7, 8)
    # per M: sum_r r * #{val = r} + (M+1) for the zero element, over q^{M+1}
    for M in range(4):
        ctx = trunc_make(F2, M)
        coeffs = [ctx.zero, ctx.one]
        got = val_integral(coeffs, F2, M)
        expected = Fraction(sum(r * 2 ** (M - r) for r in range(M + 1)) +
                            (M + 1), 2 ** (M + 1))
        assert got == expected


def test_val_integral_unit_denominator_poly():
    # z^3 + z + 1 has no root in O/t^3 over F_2, so the integrand vanishes
    one = (1, 0, 0)
    zero = (0, 0, 0)
    assert val_integral([one, one, zero, one], F2, 2) == 0


def test_val_integral_monotone_in_M():
    fixed = [(0,), (1,)]
    vals = []
    for M in range(4):
        ctx = trunc_make(F2, M)
        coeffs = [c + (0,) * M for c in fixed]
        vals.append(val_integral(coeffs, F2, M))
    assert vals == sorted(vals)


@pytest.mark.parametrize("ell,k,M", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 1, 3), (2, 1, 5)])
def test_val_integral_matches_scalar_sweep(ell, k, M):
    # series coefficients with t-terms, degrees 0..8, against the loop over series tuples
    field = field_make(ell, k)
    rng = random.Random(ell * 100 + k * 10 + M)
    for deg in range(9):
        coeffs = [tuple(rng.randrange(field.q) for _ in range(M + 1)) for _ in range(deg + 1)]
        assert val_integral(coeffs, field, M) == val_integral_oracle(coeffs, field, M)


def test_val_integral_bound_corpus():
    # 20 monic polynomials of degree <= 4 over two fields, two resolutions
    rng = random.Random(23)
    checked = 0
    for field in (F2, F3):
        for M in (1, 2):
            ctx = trunc_make(field, M)
            for _ in range(5):
                deg = rng.randrange(1, 5)
                coeffs = [tuple(rng.randrange(field.q) for _ in range(M + 1))
                          for _ in range(deg)] + [ctx.one]
                i = val_integral(coeffs, field, M)
                assert i <= val_integral_bound(deg, field, M)
                checked += 1
    assert checked == 20


def test_h_formula_values():
    ctx = trunc_make(F2, 2)
    one = ctx.one
    zero = ctx.zero
    # z^3 + z + 1 has no root over F_2, so I = 0 and h = (q-1)/q * (0 + 1)
    g_unit = CharCoeffs(ctx, 3, (zero, one, one))
    assert h_formula(g_unit, F2, 2) == Fraction(1, 2)
    # z^3 + z^2 + z = z(z^2+z+1): exactly one simple root at 0
    g = CharCoeffs(ctx, 3, ((1, 0, 0), (1, 0, 0), zero))
    assert h_formula(g, F2, 2) == Fraction(15, 16)


def test_h_formula_bound():
    # h <= n/ell + 1 over a sweep of cubics
    ctx = trunc_make(F2, 1)
    for cs in itertools.product(ctx.elements(), repeat=3):
        h = h_formula(CharCoeffs(ctx, 3, cs), F2, 1)
        assert h <= Fraction(3, 2) + 1


def test_m1_identity_exhaustive_small():
    assert m1_identity_check(2, F2)
    assert m1_identity_check(3, F2)
    assert m1_identity_check(2, F3)


def test_m1_identity_exhaustive_detects_mismatch(monkeypatch):
    # the batched sweep compares every coefficient: reversed ones must fail
    real = subreg.charpoly_batch
    monkeypatch.setattr(subreg, "charpoly_batch", lambda n, ctx, e: real(n, ctx, e)[::-1])
    assert not m1_identity_check(3, F2)


def test_m1_identity_sampled(monkeypatch):
    # a limit below the 5^4 sweep samples it; it admits at most 150 samples
    monkeypatch.setattr(subreg, "M1_EXHAUSTIVE_LIMIT", 150)
    assert m1_identity_check(3, F5, samples=150, seed=4)


def _alpha_in_wrong_slot(monkeypatch):
    # alpha at (0, 1), 1 at (n-2, n-1): then c_2 = alpha f_2 as well, not f_2
    real = subreg._companion_entries

    def swapped(n, ops, one, f, alpha, z=0):
        e = real(n, ops, one, f, alpha, z)
        e[0][1], e[n - 2][n - 1] = e[n - 2][n - 1], e[0][1]
        return e
    monkeypatch.setattr(subreg, "_companion_entries", swapped)


@pytest.mark.parametrize("field,limit", [(F2, None), (F5, 600), (field_make(13), None)],
                         ids=["exhaustive-q2", "sampled-q5", "sampled-q13"])
def test_m1_identity_fails_on_alpha_in_wrong_slot(monkeypatch, field, limit):
    # a limit of 600 < 5^4 samples the sweep at q = 5, with at most 600 samples
    samples = 1000
    if limit is not None:
        monkeypatch.setattr(subreg, "M1_EXHAUSTIVE_LIMIT", limit)
        samples = limit
    assert m1_identity_check(3, field, samples)
    _alpha_in_wrong_slot(monkeypatch)
    assert not m1_identity_check(3, field, samples)


def test_m1_identity_samples_past_one_block(monkeypatch):
    # BLOCK + 1 samples run as a full block and a block of one, with the verdict of one block
    real, sizes = subreg.charpoly_batch, []

    def spy(n, ctx, entries):
        out = real(n, ctx, entries)
        sizes.append(len(out[0]))
        return out
    monkeypatch.setattr(subreg, "charpoly_batch", spy)
    F13 = field_make(13)
    assert m1_identity_check(3, F13, samples=BLOCK + 1) == m1_identity_check(3, F13, samples=BLOCK)
    assert m1_identity_check(3, F13, samples=BLOCK + 1)
    assert sizes[:2] == [BLOCK, 1]
    _alpha_in_wrong_slot(monkeypatch)
    assert not m1_identity_check(3, F13, samples=BLOCK + 1)


def test_subreg_density_q2_M2():
    d = subreg_slice_density(3, F2, 2)
    assert int(d.counts.sum()) == 1024
    assert d.mass() == 1
    assert d.sup() == Fraction(7, 4)
    assert d.dual_path_equal()


def test_subreg_density_q3_M1():
    d = subreg_slice_density(3, F3, 1)
    assert d.mass() == 1
    assert d.dual_path_equal()
    assert d.sup() <= Fraction(5, 2)


@pytest.mark.parametrize("n,ell,k,M", [(3, 2, 1, 1), (3, 2, 1, 2), (3, 3, 1, 1), (3, 3, 1, 2),
                                        (3, 5, 1, 1), (4, 3, 1, 1), (3, 2, 2, 1)])
def test_subreg_density_matches_scalar_sweep(n, ell, k, M):
    d = subreg_slice_density(n, field_make(ell, k), M)
    counts, analytic = subreg_slice_oracle(n, field_make(ell, k), M)
    ctx = trunc_make(d.field, M - 1)
    assert _table_from_counts(n, ctx, d.counts) == counts
    assert _table_from_counts(n, ctx, d.analytic_counts) == analytic


def test_dual_path_detects_off_by_one():
    d = subreg_slice_density(3, F2, 1)
    assert d.dual_path_equal()
    d.analytic_counts = d.analytic_counts.copy()
    d.analytic_counts[int(np.flatnonzero(d.analytic_counts)[0])] += 1
    assert not d.dual_path_equal()


def test_subreg_density_n4_q3_M2():
    d = subreg_slice_density(4, F3, 2)
    assert int(d.counts.sum()) == 9 ** 6
    assert d.mass() == 1
    assert d.dual_path_equal()


def test_subreg_guards():
    with pytest.raises(WrongCharacteristic):
        subreg_slice_density(7, F3, 1)
    with pytest.raises(TooLarge):
        subreg_slice_density(2, F2, 1)


@pytest.mark.parametrize("samples", [0, -3, subreg.M1_EXHAUSTIVE_LIMIT + 1])
def test_m1_identity_rejects_samples_below_one(monkeypatch, samples):
    with pytest.raises(BadConfig, match="samples"):
        m1_identity_check(2, F2, samples=samples)
    monkeypatch.setattr(subreg, "M1_EXHAUSTIVE_LIMIT", 1)
    with pytest.raises(BadConfig, match="samples"):
        m1_identity_check(3, F5, samples=samples)
