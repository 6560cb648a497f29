import csv
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from chevalab import measure
from chevalab.counting import _encode_key, count_gi_jets, fiber_table
from chevalab.errors import LevelTooLow, WrongCharacteristic
from chevalab.field import field_make, trunc_make
from chevalab.measure import (
    anfrs_ratio,
    density_profile,
    insep_probe,
    lt_norm,
    profile_summary,
    profile_to_csv,
    refinement_check,
    summary_to_json,
    sup_density,
)
from oracles import profile_csv_oracle, profile_rows_oracle

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
CSV_COLS = ["box", "fiber_count", "f_numerator", "f_denominator_exp"]


def _table(p):
    """{box: f_M(box)} over the nonempty boxes, in Fractions from fiber_table."""
    denom = p.field.q ** (p.M * (p.n * p.n - p.n))
    return {x: Fraction(c, denom)
            for x, c in fiber_table(p.n, trunc_make(p.field, p.M - 1)).items()}


def _density_at(p, box):
    ctx = trunc_make(p.field, p.M - 1)
    return Fraction(int(p.counts[_encode_key(ctx, box)]), p.field.q ** (p.M * (p.n * p.n - p.n)))


def test_profile_n1_is_flat():
    # n = 1: the map is the identity up to sign, density is constant 1
    p = density_profile(1, F2, 2)
    assert all(f == 1 for f in _table(p).values())
    assert p.mass() == 1
    assert lt_norm(p, 7) == 1
    assert sup_density(p) == (Fraction(1), sorted(_table(p)))


def test_profile_n2_q2_M1_values():
    p = density_profile(2, F2, 1)
    assert _density_at(p, ((0,), (0,))) == 1
    assert _density_at(p, ((1,), (0,))) == Fraction(3, 2)
    assert _density_at(p, ((0,), (1,))) == 1
    assert _density_at(p, ((1,), (1,))) == Fraction(1, 2)
    assert p.mass() == 1
    assert sup_density(p) == (Fraction(3, 2), [((1,), (0,))])


def test_profile_n2_q2_M2_at_zero():
    p = density_profile(2, F2, 2)
    assert _density_at(p, ((0, 0), (0, 0))) == Fraction(5, 4)
    assert p.mass() == 1


@pytest.mark.parametrize("n,ell,k,M", [(1, 5, 1, 3), (2, 2, 1, 3), (2, 2, 2, 2), (3, 2, 1, 2)])
def test_summaries_match_fraction_reference(n, ell, k, M):
    p = density_profile(n, field_make(ell, k), M)
    table = _table(p)
    vol = Fraction(1, p.field.q ** (M * n))  # Haar volume of one box
    assert p.mass() == sum(table.values()) * vol == 1
    for t in (1, 2, 3):
        assert lt_norm(p, t) == sum(f ** t for f in table.values()) * vol
    best = max(table.values())
    assert sup_density(p) == (best, sorted(x for x, f in table.items() if f == best))


def test_lt_norm_values():
    p = density_profile(2, F2, 1)
    assert lt_norm(p, 1) == 1
    # (1 + (3/2)^2 + 1 + (1/4)) / 4 = 9/8
    assert lt_norm(p, 2) == Fraction(9, 8)


@pytest.mark.parametrize("n,ell,k,M", [(2, 3, 1, 4), (3, 2, 1, 2), (2, 2, 2, 3)])
def test_lt_norm_matches_per_entry_sum(n, ell, k, M):
    # the distinct-size sum against every entry raised to t; at t = 8 the
    # powers pass 2^63, so both sums must stay in Python ints
    p = density_profile(n, field_make(ell, k), M)
    assert int(p.counts.max()) ** 8 > 1 << 63
    for t in (1, 2, 4, 8):
        total = sum(c ** t for c in p.counts.tolist())
        assert lt_norm(p, t) == Fraction(total, p.denom() ** t * p.field.q ** (M * n))


@pytest.mark.parametrize("ell,M", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_mass_conservation(ell, M):
    assert density_profile(2, field_make(ell), M).mass() == 1


@pytest.mark.parametrize("ell,M", [(2, 1), (2, 2), (3, 1)])
def test_refinement(ell, M):
    assert refinement_check(2, field_make(ell), M)


def test_refinement_detects_moved_count(monkeypatch):
    # move one unit of fine count from code x to a box whose c_1 has another parent
    n, M = 2, 1
    real = measure._fiber_counts

    def moved(n_, ctx):
        counts = real(n_, ctx)
        if ctx.m < M:
            return counts
        counts = counts.copy()
        P = ctx.size
        x = int(np.flatnonzero(counts)[0])
        counts[x] -= 1
        counts[(x + F2.q * P ** (n - 1)) % P ** n] += 1
        return counts

    assert refinement_check(n, F2, M)
    monkeypatch.setattr(measure, "_fiber_counts", moved)
    assert not refinement_check(n, F2, M)


def test_profile_homothety_invariance():
    # f_M(lambda . x) = f_M(x) for the weighted scaling c_i -> lambda^i c_i
    p = density_profile(2, F3, 2)
    ctx = trunc_make(F3, 1)
    table = _table(p)
    for lam in (1, 2):
        for (c1, c2), f in table.items():
            scaled = (ctx.smul(lam, c1), ctx.smul(lam * lam % 3, c2))
            assert table[scaled] == f


def test_anfrs_trivial_scale():
    assert anfrs_ratio(2, F2, 0) == 1


def test_anfrs_q2_a1():
    assert anfrs_ratio(2, F2, 1) == Fraction(5, 4)


def test_anfrs_q3_a1_matches_direct_oracle():
    # direct ellipsoid mass over all 3^8 matrices at level 2
    from chevalab.matrices import charpoly
    from oracles import all_matrices, mat_make
    ctx = trunc_make(F3, 1)
    hit = 0
    for rows in all_matrices(ctx, 2):
        c1, c2 = charpoly(mat_make(ctx, rows)).c
        v1 = ctx.val(c1)
        v2 = ctx.val(c2)
        if (v1 is None or v1 >= 1) and (v2 is None or v2 >= 2):
            hit += 1
    expected = Fraction(hit, 3 ** 8) * 3 ** 3
    assert anfrs_ratio(2, F3, 1) == expected


def test_anfrs_level_guard():
    with pytest.raises(LevelTooLow):
        anfrs_ratio(2, F2, -1)


def test_insep_probe_trace():
    pts = insep_probe(F2, limit=3)
    assert [(p.M, p.density) for p in pts] == [
        (1, Fraction(1)), (2, Fraction(3, 4)), (3, Fraction(3, 4))]


def test_insep_probe_wrong_char():
    with pytest.raises(WrongCharacteristic):
        insep_probe(F3)


def test_csv_export_round_trip(tmp_path):
    p = density_profile(2, F2, 1)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0].keys()) == CSV_COLS
    by_box = {r["box"]: r for r in rows}
    r = by_box["1|0"]
    assert r["fiber_count"] == "6"
    # 6/4 as numerator over q^exp: 6 / 2^2
    q = 2
    assert Fraction(int(r["f_numerator"]), q ** int(r["f_denominator_exp"])) == Fraction(3, 2)


def test_export_bytes(tmp_path):
    p = density_profile(2, F2, 1)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, str(path))
    data = path.read_bytes()
    assert data.startswith(b"box,fiber_count,f_numerator,f_denominator_exp\r\n")
    assert data.count(b"\r\n") == data.count(b"\n") == 5
    s = profile_summary(p)
    summary_to_json(s, str(path))
    assert path.read_text() == json.dumps(s, indent=2, sort_keys=True) + "\n"
    assert not os.path.exists(str(path) + ".tmp")


def test_csv_export_deterministic(tmp_path):
    p = density_profile(2, F3, 1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    profile_to_csv(p, str(a))
    profile_to_csv(p, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_summary_json(tmp_path):
    p = density_profile(2, F2, 2)
    s = profile_summary(p)
    assert s["mass"] == "1"
    path = tmp_path / "s.json"
    summary_to_json(s, str(path))
    assert json.loads(path.read_text())["mass"] == "1"
    rows = profile_rows_oracle(p)
    assert len(rows) == len(_table(p))


@pytest.mark.parametrize("n,ell,k,M", [(1, 5, 1, 3), (1, 2, 2, 2), (2, 3, 1, 2), (2, 2, 1, 3),
                                       (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 1, 1), (3, 3, 1, 1),
                                       (2, 11, 1, 1), (2, 3, 1, 4), (2, 2, 3, 2), (3, 2, 1, 2),
                                       (1, 31, 1, 2)])
def test_csv_matches_row_oracle(tmp_path, n, ell, k, M):
    # (2, 11, 1, 1) has two-digit coefficients; (2, 3, 1, 4) is the shape the benchmark exports
    p = density_profile(n, field_make(ell, k), M)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, str(path))
    assert path.read_bytes() == profile_csv_oracle(p)


@pytest.mark.parametrize("n,ell,k,M", [(2, 2, 2, 3), (2, 2, 2, 2), (1, 2, 2, 3), (2, 2, 1, 3),
                                       (2, 3, 1, 2), (3, 2, 1, 1)])
def test_csv_f_columns_exact_and_minimal(tmp_path, n, ell, k, M):
    # f = fiber_count / q^(M(n^2-n)) = f_numerator / q^exp, with exp the smallest such exponent
    q = ell ** k
    path = tmp_path / "profile.csv"
    profile_to_csv(density_profile(n, field_make(ell, k), M), str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        count, num, exp = int(r["fiber_count"]), int(r["f_numerator"]), int(r["f_denominator_exp"])
        assert count * q ** exp == num * q ** (M * (n * n - n)), r
        assert exp == 0 or num % q != 0, r


def test_summary_argmax_matches_sup_density():
    for n, field, M in [(1, F3, 2), (2, F3, 2), (2, F4, 2), (3, F2, 1)]:
        p = density_profile(n, field, M)
        sup, argmax = sup_density(p)
        s = profile_summary(p)
        assert s["sup"] == str(sup)
        assert s["argmax"] == ["|".join(";".join(map(str, c)) for c in x) for x in argmax]


def test_n2_table_past_old_sweep_guard():
    # P = 4^4 = 256: P^4 = 2^32 matrices, but the n = 2 product does P^3 = 2^24 multiply-adds
    p = density_profile(2, F4, 4)
    assert p.mass() == 1
    assert refinement_check(2, F4, 3)
    ctx = trunc_make(F4, 3)
    assert count_gi_jets(2, ctx, 2) == sum(v ** 2 for v in fiber_table(2, ctx).values())
