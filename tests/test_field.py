import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevalab import field
from chevalab.errors import BadConfig, NoModulusInTable, NonPrime, TooLarge
from chevalab.field import (
    BOTTOM,
    FieldCtx,
    field_make,
    is_irreducible,
    ring_add,
    ring_mul,
    ring_neg,
    ring_tables,
    ring_val,
    trunc_make,
)
from oracles import find_modulus_oracle, is_irreducible_oracle


def test_prime_field_basics():
    f2 = field_make(2)
    assert f2.q == 2
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1
    f5 = field_make(5)
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.neg(3) == 2


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        field_make(4)
    with pytest.raises(NonPrime):
        field_make(1)


def test_size_guards():
    with pytest.raises((TooLarge, NoModulusInTable)):
        field_make(257)
    with pytest.raises((TooLarge, NoModulusInTable)):
        field_make(2, 17)
    with pytest.raises(TooLarge, match=r"2\^16 field guard"):
        field_make(251, 9)  # q above 2^16
    with pytest.raises(BadConfig, match="k=0: need k >= 1"):
        field_make(2, 0)


def test_f4_modulus_is_lex_least():
    f4 = field_make(2, 2)
    # x^2 + x + 1 is the only irreducible quadratic over F_2
    assert f4.modulus == (1, 1, 1)
    a = 2  # the class of x
    assert f4.mul(a, a) == f4.add(a, 1)  # x^2 = x + 1


def test_f9_modulus():
    f9 = field_make(3, 2)
    assert f9.modulus[-1] == 1
    assert is_irreducible(f9.modulus, 3)
    # lex-least monic irreducible quadratic over F_3 is x^2 + 1
    assert f9.modulus == (1, 0, 1)


@pytest.mark.parametrize("ell,max_deg", [(2, 4), (3, 4), (5, 2)])
def test_is_irreducible_matches_factor_search(ell, max_deg):
    # every monic polynomial of degree 1..max_deg, linear ones included
    for k in range(1, max_deg + 1):
        for low in itertools.product(range(ell), repeat=k):
            poly = list(low) + [1]
            assert is_irreducible(poly, ell) == is_irreducible_oracle(poly, ell), poly


@pytest.mark.parametrize("ell,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
def test_field_axioms_sampled(ell, k):
    f = field_make(ell, k)
    rng = random.Random(11)
    els = list(f.elements())
    assert len(els) == f.q
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_f7_ring_laws_hypothesis(a, b, c):
    f = field_make(7)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.pow(a, 7) == a  # Frobenius fixes F_7


def test_digits_roundtrip():
    f = field_make(3, 2)
    for e in f.elements():
        assert f.encode(f.digits(e)) == e


def test_series_mul_truncates():
    r = trunc_make(field_make(2), 1)
    one_plus_t = (1, 1)
    assert r.mul(one_plus_t, one_plus_t) == (1, 0)  # (1+t)^2 = 1 + t^2 = 1
    assert r.mul((0, 1), (0, 1)) == (0, 0)  # t * t dies at m = 1


def test_series_mul_char3():
    r = trunc_make(field_make(3), 2)
    assert r.mul((1, 1, 0), (1, 2, 0)) == (1, 0, 2)


def test_valuation():
    r = trunc_make(field_make(2), 2)
    assert r.val((1, 0, 0)) == 0
    assert r.val((0, 0, 1)) == 2
    assert r.val((0, 0, 0)) is BOTTOM
    assert r.val_capped((0, 0, 0)) == 3


def test_val_submultiplicative_exact_for_nonzero_product():
    r = trunc_make(field_make(3), 2)
    rng = random.Random(5)
    for _ in range(500):
        a = tuple(rng.randrange(3) for _ in range(3))
        b = tuple(rng.randrange(3) for _ in range(3))
        p = r.mul(a, b)
        va, vb, vp = r.val(a), r.val(b), r.val(p)
        if va is not BOTTOM and vb is not BOTTOM and va + vb <= 2:
            assert vp == va + vb


def test_ring_index_roundtrip_and_order():
    r = trunc_make(field_make(3), 1)
    els = list(r.elements())
    assert len(els) == 9
    assert els[0] == (0, 0)
    assert els[1] == (0, 1)  # t^1 coefficient varies fastest
    assert els[3] == (1, 0)  # t^0 coefficient is outermost
    assert els[-1] == (2, 2)
    for i, e in enumerate(els):
        assert r.index(e) == i
        assert r.from_index(i) == e


@pytest.mark.parametrize("ell,k,m", [(2, 1, 0), (2, 1, 3), (3, 1, 1), (3, 1, 3), (5, 1, 2),
                                    (2, 2, 0), (2, 2, 1), (2, 2, 3), (3, 2, 0), (3, 2, 1),
                                    (2, 3, 0), (2, 3, 1), (2, 3, 2)])
def test_ring_tables_match_ring_ops(ell, k, m):
    # every pair up to P = 128, else a seeded sample of pairs
    r = trunc_make(field_make(ell, k), m)
    P, add, mul, neg = ring_tables(r)
    if P <= 128:
        pairs = [(a, b) for a in range(P) for b in range(P)]
    else:
        rng = random.Random(P)
        pairs = [(rng.randrange(P), rng.randrange(P)) for _ in range(4000)]
    for a, b in pairs:
        x, y = r.from_index(a), r.from_index(b)
        assert add[a * P + b] == r.index(r.add(x, y))
        assert mul[a * P + b] == r.index(r.mul(x, y))
    assert [int(v) for v in neg] == [r.index(r.neg(r.from_index(a))) for a in range(P)]


@pytest.mark.parametrize("ell,k,m", [(2, 1, 3), (3, 1, 2), (2, 2, 1), (3, 2, 1), (2, 3, 1), (5, 1, 1)])
def test_ring_functions_on_ints_match_ring_ops(ell, k, m):
    # Python-int ring indices, every element and a seeded sample of pairs
    r = trunc_make(field_make(ell, k), m)
    P = r.size
    rng = random.Random(P)
    for a in range(P):
        x = r.from_index(a)
        v = r.val(x)
        assert ring_val(r, a) == (m + 1 if v is None else v)
        assert ring_neg(r, a) == r.index(r.neg(x))
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        x, y = r.from_index(a), r.from_index(b)
        assert ring_add(r, a, b) == r.index(r.add(x, y))
        assert ring_mul(r, a, b) == r.index(r.mul(x, y))


def _products_by_linearity(r):
    """The P x P product table of ring indices from TruncCtx.mul: y -> x * y is
    F_ell-linear, so x * y = sum_f digit_f(y) * (x * ell^f), added digitwise mod ell.
    Callers build r's field past _TABLE_LIMIT, so it multiplies by _mul_raw and
    not by tables that ring_tables, and so ring_mul, filled."""
    ell, P = r.field.ell, r.size
    place = ell ** np.arange(r.field.k * (r.m + 1))
    digits = np.arange(P)[:, None] // place % ell
    basis = [r.from_index(int(b)) for b in place]
    out = np.empty((P, P), dtype=np.int64)
    for a in range(P):
        x = r.from_index(a)
        images = np.array([r.index(r.mul(x, b)) for b in basis])[:, None] // place % ell
        out[a] = digits @ images % ell @ place
    return out


SMALL_RINGS = [(ell, k, m) for ell in (2, 3, 5, 7, 31) for k in (1, 2, 3) for m in range(10)
               if ell ** (k * (m + 1)) <= 1024]


@pytest.mark.parametrize("ell,k,m", SMALL_RINGS)
def test_ring_mul_every_pair(ell, k, m, monkeypatch):
    monkeypatch.setattr(field, "_TABLE_LIMIT", 1)
    r = trunc_make(field_make(ell, k), m)
    idx = np.arange(r.size)
    assert np.array_equal(ring_mul(r, idx[:, None], idx), _products_by_linearity(r))


def _sums_by_halves(r):
    """The P x P sum table of ring indices from TruncCtx.add.  x = x_hi + x_lo,
    split between the top and bottom halves of the base-ell digits, so
    x + y = (x_hi + y_hi) + (x_lo + y_lo), two sums on disjoint digits whose
    indices add: every pair of halves is one call of TruncCtx.add."""
    P, B = r.size, r.field.ell ** (r.field.k * (r.m + 1) // 2)

    def table(idx):
        return np.array([[r.index(r.add(r.from_index(a), r.from_index(b))) for b in idx] for a in idx])

    hi, lo, x = table(range(0, P, B)), table(range(B)), np.arange(P)
    return hi[x[:, None] // B, x // B] + lo[x[:, None] % B, x % B]


@pytest.mark.parametrize("ell,k,m", SMALL_RINGS)
def test_ring_add_every_pair_and_neg_every_element(ell, k, m, monkeypatch):
    monkeypatch.setattr(field, "_TABLE_LIMIT", 1)  # the field adds on digits, not by ring_tables
    r = trunc_make(field_make(ell, k), m)
    idx = np.arange(r.size)
    assert np.array_equal(ring_add(r, idx[:, None], idx), _sums_by_halves(r))
    assert ring_neg(r, idx).tolist() == [r.index(r.neg(r.from_index(a))) for a in range(r.size)]


# field_make(2, 16)'s modulus, x^16 + x^15 + x^13 + x^11 + 1, the least irreducible of degree 16
F2_16_MODULUS = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)

MODULUS_GRID = [(ell, k) for ell in range(2, 252) if field._is_prime(ell)
                for k in range(2, 11) if ell ** k <= 1 << 10]  # k = 1 is x, not searched


@pytest.mark.parametrize("ell,k", MODULUS_GRID)
def test_find_modulus_matches_unfiltered_search(ell, k):
    field._find_modulus.cache_clear()
    assert field._find_modulus(ell, k) == find_modulus_oracle(ell, k)


def test_f2_16_modulus():
    field._find_modulus.cache_clear()
    assert field_make(2, 16).modulus == F2_16_MODULUS


# Chunk words of each wide ring's packed layout; 7^22 is about 2^61.8, near the int64 limit.
WIDE_CHUNKS = {(2, 16, 0): 6, (2, 8, 1): 5, (251, 2, 1): 3, (2, 1, 16): 3, (3, 1, 10): 3, (7, 1, 21): 8}


@pytest.mark.parametrize("ell,k,m", list(WIDE_CHUNKS))
def test_ring_mul_multi_word_and_wide_slots(ell, k, m, monkeypatch):
    # seeded pairs, every basis pair, and (P-1, P-1): every digit ell - 1, each slot at its maximum
    monkeypatch.setattr(field, "_TABLE_LIMIT", 1)
    r = trunc_make(field_make(ell, k), m)
    lay = field._layout(r)
    assert lay.chunks == WIDE_CHUNKS[ell, k, m]  # every product adds chunk products across words
    # a t-degree of 2k - 1 > 1 slots outgrows a table and is reduced by the rows g^j mod the
    # modulus; so is one digit slot of 18 bits at ell = 251, where sums unpack arithmetically too
    assert (lay.products[1] is not None, lay.sums[1] is not None) == (k > 1, ell == 251)
    P, N = r.size, k * (m + 1)
    rng = random.Random(P)
    pairs = [(rng.randrange(P), rng.randrange(P)) for _ in range(4000)]
    pairs += [(ell ** e, ell ** g) for e in range(N) for g in range(N)] + [(P - 1, P - 1)]
    xs, ys = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    elements = [(r.from_index(a), r.from_index(b)) for a, b in pairs]
    assert ring_mul(r, xs, ys).tolist() == [r.index(r.mul(x, y)) for x, y in elements]
    assert ring_add(r, xs, ys).tolist() == [r.index(r.add(x, y)) for x, y in elements]
    assert ring_neg(r, xs).tolist() == [r.index(r.neg(x)) for x, _ in elements]


def test_ring_mul_shapes(monkeypatch):
    monkeypatch.setattr(field, "_TABLE_LIMIT", 1)
    r = trunc_make(field_make(3, 2), 1)
    P = r.size
    ref = _products_by_linearity(r)
    got = ring_mul(r, 80, 41)
    assert type(got) is int and got == ref[80, 41]
    xs = np.arange(24).reshape(4, 6)
    assert np.array_equal(ring_mul(r, xs, xs[::-1]), ref[xs, xs[::-1]])
    rows = np.arange(5, 12)[:, None]
    assert np.array_equal(ring_mul(r, rows, np.arange(P)), ref[5:12])
    assert np.array_equal(ring_mul(r, 7, np.arange(P)), ref[7])
    assert np.array_equal(ring_mul(r, np.arange(P), 7), ref[:, 7])
    for zero_d in (np.int64(80), np.array(80)):  # 0-d ints in, an int out
        for got in (ring_add(r, zero_d, 41), ring_mul(r, zero_d, np.int64(41)), ring_neg(r, zero_d)):
            assert type(got) is int
    big = trunc_make(field_make(251), 8)  # 251^9 indices pass int64
    for op in (lambda: ring_add(big, 1, 1), lambda: ring_mul(big, 1, 1), lambda: ring_neg(big, 1)):
        with pytest.raises(TooLarge):
            op()


@pytest.mark.parametrize("ell,k", [(2, 2), (2, 3), (3, 2), (2, 6), (5, 2)])
def test_field_mul_table_matches_mul_raw(ell, k, monkeypatch):
    # the tables come from ring_tables at m = 0; _mul_raw reduces by the modulus
    # itself, and a field built past the table limit adds and negates on digits
    f = field_make(ell, k)
    assert f._mul_table is not None
    monkeypatch.setattr(field, "_TABLE_LIMIT", 1)
    digits = field_make(ell, k)
    assert digits._add_table is None and digits._neg_table is None
    for a in range(f.q):
        assert f.neg(a) == digits.neg(a)
        for b in range(f.q):
            assert f.mul(a, b) == f._mul_raw(a, b)
            assert f.add(a, b) == digits.add(a, b)
            assert f.sub(a, b) == digits.sub(a, b)


def test_ctx_equality_and_hash():
    a = field_make(2, 2)
    b = field_make(2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != field_make(2)
    assert isinstance(a, FieldCtx)
