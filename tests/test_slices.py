import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import chevalab
import numpy as np
import pytest
from chevalab import slices
from hypothesis import given, settings, strategies as st

from chevalab.counting import BLOCK
from chevalab.errors import BadConfig, TooLarge
from chevalab.field import field_make
from chevalab.matrices import charpoly
from chevalab.slices import (
    Partition,
    all_partitions,
    audit_equivariance,
    audit_orbit_jump,
    audit_transversality,
    exponent_sum,
    exponent_sum_formula,
    jordan_matrix,
    slice_basis,
    subregular_threshold,
    weight_report,
)
from oracles import equivariance_exhaustive_oracle, orbit_jump_oracle, slice_point

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def test_partition_parse_and_flags():
    p = Partition.parse("2,1")
    assert p.parts == (2, 1) and p.n == 3
    assert p.is_subregular() and not p.is_regular()
    assert Partition((4,)).is_regular()
    assert Partition((3, 1)).is_subregular()
    assert not Partition((2, 2)).is_subregular()
    with pytest.raises(BadConfig):
        Partition((1, 2))  # must be non-increasing
    with pytest.raises(BadConfig):
        Partition(())


def test_all_partitions_counts():
    assert [len(all_partitions(n)) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def test_jordan_matrix_shape():
    j = jordan_matrix(Partition((2, 1)), F2)
    assert j.n == 3
    assert j.entries[0][1] == (1,)
    assert sum(1 for r in j.entries for e in r if e != (0,)) == 1
    assert charpoly(j).c == ((0,),) * 3


def test_basis_dim_is_min_sum():
    for n in range(1, 7):
        for p in all_partitions(n):
            b = slice_basis(p)
            expected = sum(min(a, c) for a in p.parts for c in p.parts)
            assert b.dim == expected
            assert all(e >= 1 for e in b.exponents())


def test_regular_slice_is_smallest():
    for n in range(1, 7):
        dims = {p.parts: slice_basis(p).dim for p in all_partitions(n)}
        assert dims[(n,)] == n
        assert min(dims.values()) == n


def test_exponent_sums_match_formula():
    for n in range(1, 8):
        for p in all_partitions(n):
            assert exponent_sum(p, "L") == exponent_sum_formula(p)


def test_exponent_sum_examples():
    assert exponent_sum(Partition((1, 1)), "L") == 4
    assert exponent_sum(Partition((2, 1)), "L") == 7
    assert exponent_sum(Partition((3,)), "L") == 6
    assert exponent_sum(Partition((2, 2)), "L") == 12


def test_regular_meets_threshold_with_equality():
    for n in range(1, 7):
        for p in all_partitions(n):
            w = weight_report(p, "L")
            if p.is_regular():
                assert w.total == w.threshold
            else:
                assert w.total > w.threshold


def test_kind_m_relation():
    for n in range(1, 7):
        for p in all_partitions(n):
            drop = 1 if p.parts[-1] == 1 else 0
            assert exponent_sum(p, "M") == exponent_sum(p, "L") + 1 - drop
            bl, bm = slice_basis(p, "L"), slice_basis(p, "M")
            assert bm.dim == bl.dim - drop + 1
            assert bm.has_center and not bl.has_center
            assert bm.center_exponent == 1


def test_subregular_threshold_split():
    for n in range(2, 8):
        for p in all_partitions(n):
            r = subregular_threshold(p)
            should_exceed = not (p.is_regular() or p.is_subregular())
            assert r["exceeds"] == should_exceed
            assert r["threshold_ok"]
            assert r["center_weight_ok"]


def test_subregular_certified_flag():
    assert slice_basis(Partition((2, 1)), "M").certified
    assert not slice_basis(Partition((2, 2)), "M").certified


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["q2", "q3", "q5"])
def test_transversality_all_partitions_n_le_5(field):
    for n in range(1, 6):
        for p in all_partitions(n):
            assert audit_transversality(p, field)


@pytest.mark.parametrize("field", [field_make(2, 2), field_make(2, 11)], ids=["q4", "q2048"])
def test_transversality_extension_fields_n_le_3(field):
    for n in range(1, 4):
        for p in all_partitions(n):
            assert audit_transversality(p, field)


@pytest.mark.parametrize("field", [F2, F3, field_make(2, 2)], ids=["q2", "q3", "q4"])
def test_transversality_fails_on_a_dropped_or_repeated_vector(monkeypatch, field):
    # dropping a vector loses the span; repeating one, the direct sum
    full = slices.slice_basis
    for p in [Partition((1, 1)), Partition((2, 1)), Partition((2, 2)), Partition((3, 1, 1))]:
        basis = full(p, "L")
        for i, e in enumerate(basis.entries):
            for entries in [basis.entries[:i] + basis.entries[i + 1:], basis.entries + (e,)]:
                bad = dataclasses.replace(basis, entries=entries)
                monkeypatch.setattr(slices, "slice_basis", lambda *_, b=bad: b)
                assert not audit_transversality(p, field)


def test_slice_point_shape():
    b = slice_basis(Partition((2, 1)))
    pt = slice_point(b, F2, [(1,)] * len(b.entries))
    assert pt.n == 3
    assert pt.entries[0][1] == (1,)  # the Jordan part stays


def test_slice_point_center_shift():
    b = slice_basis(Partition((2, 1)), "M")
    pt = slice_point(b, F3, [(0,)] * len(b.entries), z=(2,))
    for i in range(3):
        assert pt.entries[i][i][0] == 2


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
def test_equivariance_small_exhaustive(field):
    for parts in [(2,), (1, 1), (2, 1), (3,)]:
        for kind in ("L", "M"):
            assert audit_equivariance(Partition(parts), kind, field)


def test_equivariance_sampled_larger(monkeypatch):
    monkeypatch.setattr(slices, "EQUIVARIANCE_EXHAUSTIVE_LIMIT", 1)
    assert audit_equivariance(Partition((2, 2)), "L", F5, samples=200, seed=1)
    assert audit_equivariance(Partition((1, 1, 1)), "M", F3, samples=200, seed=2)


@pytest.mark.parametrize("samples", [0, -3])
def test_equivariance_rejects_samples_below_one(monkeypatch, samples):
    with pytest.raises(BadConfig, match="samples"):
        audit_equivariance(Partition((1, 1, 1, 1)), "L", F3, samples=samples)
    monkeypatch.setattr(slices, "EQUIVARIANCE_EXHAUSTIVE_LIMIT", 1)
    with pytest.raises(BadConfig, match="samples"):
        audit_equivariance(Partition((2, 1)), "L", F2, samples=samples)


def test_equivariance_numpy_batch_path():
    # the largest exhaustive sweep here: 2^16 points, dim 16 at q = 2
    assert audit_equivariance(Partition((1, 1, 1, 1)), "L", F2)


def test_equivariance_batch_path_extension_field():
    # the scalar sweep is the reference for the batched one
    F4 = field_make(2, 2)
    for F, parts, kind in [(F4, (1, 1), "L"), (F4, (1, 1), "M"), (F4, (2,), "L"),
                           (F2, (2, 1), "M"), (F3, (2, 1), "L"), (F3, (3,), "M")]:
        basis = slice_basis(Partition(parts), kind)
        assert audit_equivariance(Partition(parts), kind, F) == equivariance_exhaustive_oracle(basis, F)


def _off_by_one_weight(monkeypatch):
    # the first slice vector, on the diagonal, scaled by lambda^2 where its weight is 1
    full = slices.slice_basis

    def bad(partition, kind="L"):
        basis = full(partition, kind)
        e = basis.entries[0]
        return dataclasses.replace(basis, entries=(dataclasses.replace(e, exponent=e.exponent + 1),
                                                   *basis.entries[1:]))
    monkeypatch.setattr(slices, "slice_basis", bad)


@pytest.mark.parametrize("field,limit", [(F3, None), (F3, 1), (field_make(37), None)],
                         ids=["exhaustive-q3", "sampled-q3", "sampled-q37"])
def test_equivariance_fails_on_a_wrong_weight(monkeypatch, field, limit):
    if limit is not None:
        monkeypatch.setattr(slices, "EQUIVARIANCE_EXHAUSTIVE_LIMIT", limit)
    for kind in ("L", "M"):
        assert audit_equivariance(Partition((2, 1)), kind, field)
    _off_by_one_weight(monkeypatch)
    for kind in ("L", "M"):
        assert not audit_equivariance(Partition((2, 1)), kind, field)


def test_equivariance_samples_past_one_block(monkeypatch):
    # BLOCK + 1 samples run as a full block and a block of one, with the verdict of one block
    real, sizes = slices.charpoly_ring, []

    def spy(n, ctx, entries):
        out = real(n, ctx, entries)
        sizes.append(len(out[0]))
        return out
    monkeypatch.setattr(slices, "charpoly_ring", spy)
    F37, p = field_make(37), Partition((2, 1))
    assert audit_equivariance(p, "M", F37, samples=BLOCK + 1) == audit_equivariance(p, "M", F37, samples=BLOCK)
    assert audit_equivariance(p, "M", F37, samples=BLOCK + 1)
    assert sizes[:4] == [BLOCK, BLOCK, 1, 1]
    _off_by_one_weight(monkeypatch)
    assert not audit_equivariance(p, "M", F37, samples=BLOCK + 1)
    assert not audit_equivariance(p, "M", F37, samples=BLOCK)


def test_theorem_check_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from chevalab import slices
        from chevalab.errors import TheoremCheckFailed
        assert False, "asserts must be stripped: run under python -O"
        formula = slices.exponent_sum_formula
        slices.exponent_sum_formula = lambda p: formula(p) + 1
        try:
            slices.exponent_sum(slices.Partition((2, 1)))
        except TheoremCheckFailed:
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(chevalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_orbit_jump(monkeypatch):
    assert audit_orbit_jump(Partition((1, 1)), F2)
    assert audit_orbit_jump(Partition((2, 1)), F2)
    assert audit_orbit_jump(Partition((2,)), F3)  # regular: vacuous
    monkeypatch.setattr(slices, "ORBIT_JUMP_GUARD", 10)
    with pytest.raises(TooLarge):
        audit_orbit_jump(Partition((1, 1, 1)), F5)


@pytest.mark.parametrize("parts,field", [((2, 1, 1), F2), ((2, 2), F3), ((3, 1), F3),
                                         ((1, 1, 1), F2), ((1, 1, 1), field_make(2, 2)),
                                         ((1, 1, 1, 1), F2)],
                         ids=["211-q2", "22-q3", "31-q3", "111-q2", "111-q4", "1111-q2"])
def test_orbit_jump_matches_scalar_sweep(parts, field):
    assert audit_orbit_jump(Partition(parts), field) == orbit_jump_oracle(Partition(parts), field)


def test_orbit_jump_reaches_nilpotent_points(monkeypatch):
    # with every rank read as 0 no nilpotent y jumps, so the audit must fail
    monkeypatch.setattr(slices, "ad_ranks", lambda y, field: np.zeros(y.shape[2], dtype=np.int64))
    assert not audit_orbit_jump(Partition((2, 1, 1)), F2)


def test_orbit_jump_needs_ring_tables():
    # F_2048 passes the q^dim guard for (1,) and (2,) but has no dense tables
    F2048 = field_make(2, 11)
    for parts in [(1,), (2,)]:
        with pytest.raises(TooLarge, match="dense-table limit"):
            audit_orbit_jump(Partition(parts), F2048)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_exponent_positivity_random_partition(n, rnd):
    ps = all_partitions(n)
    p = ps[rnd.randrange(len(ps))]
    b = slice_basis(p, "M" if rnd.random() < 0.5 else "L")
    assert len(b.exponents()) == b.dim
    assert min(b.exponents()) >= 1
    assert sum(b.exponents()) == exponent_sum(p, b.kind)
