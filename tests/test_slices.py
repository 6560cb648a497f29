import os
import subprocess
import sys
import textwrap
from pathlib import Path

import chevalab
import pytest
from hypothesis import given, settings, strategies as st

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
    slice_point,
    subregular_threshold,
    weight_report,
)

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
    assert charpoly(j).is_zero()


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


def test_equivariance_sampled_larger():
    assert audit_equivariance(Partition((2, 2)), "L", F5, samples=200, seed=1,
                              exhaustive_limit=1)
    assert audit_equivariance(Partition((1, 1, 1)), "M", F3, samples=200, seed=2,
                              exhaustive_limit=1)


def test_equivariance_numpy_batch_path():
    # forces the vectorized exhaustive branch: 2^13 > 2^10 points
    assert audit_equivariance(Partition((1, 1, 1, 1)), "L", F2)


def test_equivariance_batch_path_extension_field():
    from chevalab.slices import _equivariance_exhaustive, _equivariance_exhaustive_np
    F4 = field_make(2, 2)
    for parts, kind in [((1, 1), "L"), ((1, 1), "M"), ((2,), "L")]:
        basis = slice_basis(Partition(parts), kind)
        assert _equivariance_exhaustive_np(basis, F4) == _equivariance_exhaustive(basis, F4)


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


def test_orbit_jump():
    assert audit_orbit_jump(Partition((1, 1)), F2)
    assert audit_orbit_jump(Partition((2, 1)), F2)
    assert audit_orbit_jump(Partition((2,)), F3)  # regular: vacuous
    with pytest.raises(TooLarge):
        audit_orbit_jump(Partition((1, 1, 1)), F5, guard=10)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_exponent_positivity_random_partition(n, rnd):
    ps = all_partitions(n)
    p = ps[rnd.randrange(len(ps))]
    b = slice_basis(p, "M" if rnd.random() < 0.5 else "L")
    assert len(b.exponents()) == b.dim
    assert min(b.exponents()) >= 1
    assert sum(b.exponents()) == exponent_sum(p, b.kind)
