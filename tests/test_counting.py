import importlib
import itertools
import json
import math
import os
import pkgutil
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chevalab
from chevalab import counting
from chevalab.counting import (
    CountQuery,
    CountRecord,
    combine_records,
    count_engine,
    count_gi_jets,
    count_jet_fiber,
    count_nilcone_jets,
    count_sharded,
    expected_dimension_rate,
    fiber_table,
    fit_dimension,
    matrix_from_index,
    matrix_space_size,
    run_query,
)
from chevalab.errors import (
    BadConfig,
    CorruptCheckpoint,
    InsufficientData,
    ShardOutOfRange,
    TooLarge,
)
from chevalab.field import RING_TABLE_LIMIT, field_make, trunc_make
from chevalab.matrices import charpoly, row_echelon
from chevalab.measure import refinement_check
from chevalab.slices import all_partitions, slice_basis

from oracles import (all_matrices, charpoly_oracle, fiber_counts_oracle, gauss_oracle,
                     in_span_oracle, jordan_m2_values_oracle, mat_make, nilcone_m1_oracle,
                     nilcone_n2_oracle,
                     nilpotent_orbit_size, split_fiber_n2_oracle, sweep_count_oracle,
                     sweep_counts_oracle)

F2 = field_make(2)
F3 = field_make(3)


def test_fiber_table_n2_q2_m0():
    ctx = trunc_make(F2, 0)
    t = fiber_table(2, ctx)
    assert t == {((0,), (0,)): 4, ((1,), (0,)): 6, ((0,), (1,)): 4, ((1,), (1,)): 2}


def test_count_jet_fiber_single():
    ctx = trunc_make(F2, 0)
    assert count_jet_fiber(2, ctx, ((1,), (0,))) == 6
    assert count_jet_fiber(2, ctx, ((1,), (1,))) == 2


@pytest.mark.parametrize("n,ell,m", [(2, 2, 0), (2, 2, 1), (2, 3, 0), (2, 3, 1), (3, 2, 0), (3, 2, 1)])
def test_fiber_table_matches_oracle(n, ell, m):
    ctx = trunc_make(field_make(ell), m)
    assert fiber_table(n, ctx) == fiber_counts_oracle(ctx, n)


@pytest.mark.parametrize("ell,k,m", [(2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 0),
                                     (3, 1, 1), (3, 1, 2), (2, 2, 0), (2, 2, 1), (2, 3, 0),
                                     (5, 1, 1)])
def test_fiber_table_n2_matches_block_sweep(ell, k, m):
    # the factorised n = 2 table against the block sweep of every matrix
    ctx = trunc_make(field_make(ell, k), m)
    P = ctx.size
    swept = counting._table_from_counts(2, ctx, sweep_counts_oracle(2, ctx))
    table = fiber_table(2, ctx)
    assert table == swept
    assert sum(table.values()) == P ** 4


def test_fiber_table_extension_field():
    ctx = trunc_make(field_make(2, 2), 0)
    assert fiber_table(2, ctx) == fiber_counts_oracle(ctx, 2)


@pytest.mark.parametrize("ell,m", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_conservation(ell, m):
    ctx = trunc_make(field_make(ell), m)
    t = fiber_table(2, ctx)
    assert sum(t.values()) == matrix_space_size(2, ctx)
    assert len(t) == ctx.size ** 2  # every fiber is nonempty


def test_refinement_law():
    # summing level m+1 fibers over lifts of a level m target recovers
    # count(m) * q^(n^2), here n = 2, q = 2
    c0 = trunc_make(F2, 0)
    c1 = trunc_make(F2, 1)
    t1 = fiber_table(2, c1)
    for key0, cnt0 in fiber_table(2, c0).items():
        lifted = 0
        for h1 in range(2):
            for h2 in range(2):
                lifted += t1.get(((key0[0][0], h1), (key0[1][0], h2)), 0)
        assert lifted == cnt0 * 2 ** 4


def test_homothety_invariance_of_counts():
    ctx = trunc_make(F3, 1)
    t = fiber_table(2, ctx)
    for (c1, c2), cnt in t.items():
        lam = 2
        scaled = (ctx.smul(lam, c1), ctx.smul(lam ** 2 % 3, c2))
        assert t[scaled] == cnt


def test_nilcone_counts():
    assert count_nilcone_jets(2, trunc_make(F2, 0)) == 4
    assert count_nilcone_jets(2, trunc_make(F2, 1)) == 20
    assert count_nilcone_jets(2, trunc_make(F3, 0)) == 9


@pytest.mark.parametrize("n,ell,k", [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)])
def test_nilcone_m0_fine_herstein(n, ell, k):
    # the nilpotent n x n matrices over F_q number q^(n^2 - n)
    q = ell ** k
    assert count_nilcone_jets(n, trunc_make(field_make(ell, k), 0)) == q ** (n * n - n)


@pytest.mark.parametrize("n,ell,k,count", [
    (2, 2, 1, 20), (2, 3, 1, 99), (3, 2, 1, 5_632), (3, 3, 1, 688_905), (2, 5, 1, 725),
    (3, 2, 2, 20_709_376), (4, 2, 1, 25_837_568), (2, 2, 3, 4_544)])
def test_nilcone_m1_closed_form_matches_lift(n, ell, k, count):
    # #J_1(N) = sum over Jordan types of |O_λ| q^(n² - λ_1), and the orbits of the
    # nilpotent matrices add up to q^(n² - n) (Fine-Herstein); the jordan engine against
    # the closed form and against the lift of the fiber over 0
    q = ell ** k
    ctx = trunc_make(field_make(ell, k), 1)
    assert sum(nilpotent_orbit_size(p, q) for p in all_partitions(n)) == q ** (n * n - n)
    assert count_engine(n, "nilcone", 1) == "jordan"
    assert count_nilcone_jets(n, ctx) == nilcone_m1_oracle(n, q) == count
    assert count_jet_fiber(n, ctx, (ctx.zero,) * n) == count


def test_nilcone_m1_closed_form_n6():
    # past the lift's reach (its bases sweep 2^35 matrices); the jordan engine's value
    assert nilcone_m1_oracle(6, 2) == 2_011_493_043_399_557_120
    assert count_nilcone_jets(6, trunc_make(F2, 1)) == 2_011_493_043_399_557_120


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("ell,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_jordan_matches_n2_recursion(ell, k, m):
    # #J_m(N) = S_(m+1) at n = 2, with S_0 = 1, S_1 = q^2, S_k = (q^2 - 1) q^(2k-2) + q^3 S_(k-2)
    assert count_engine(2, "nilcone", m) == "jordan"
    assert count_nilcone_jets(2, trunc_make(field_make(ell, k), m)) == nilcone_n2_oracle(ell ** k, m)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_jordan_orbit_sizes(q):
    # the engine's exact-int orbit sizes against the Fraction oracle, its d_λ against the
    # slice dimension, and Fine-Herstein: the nilpotent orbits add up to q^(n^2 - n)
    for n in range(1, 7):
        parts = all_partitions(n)
        types = counting._jordan_types(n, q)
        assert len(types) == len(parts) == counting._partition_count(n)
        assert [lam for lam, _, _ in types] == parts
        assert [size for _, size, _ in types] == [nilpotent_orbit_size(lam, q) for lam in parts]
        assert [dim for _, _, dim in types] == [slice_basis(lam, "L").dim for lam in parts]
        assert sum(size for _, size, _ in types) == q ** (n * n - n)


@pytest.mark.parametrize("n,ell,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 5, 1), (2, 2, 2)])
def test_jordan_m2_matches_lift_and_oracle(n, ell, k):
    # every slice point's value against the cofactor oracle, and the count against the
    # lift of the fiber over 0
    field = field_make(ell, k)
    ctx = trunc_make(field, 2)
    values = jordan_m2_values_oracle(n, field)
    total, subtotal = counting._target_space(n, ctx, "nilcone")
    assert total == len(values)
    assert [subtotal(i, i + 1) for i in range(total)] == values
    assert count_nilcone_jets(n, ctx) == sum(values) == count_jet_fiber(n, ctx, (ctx.zero,) * n)


def test_jordan_guards_run_before_enumeration(monkeypatch):
    # the m = 2 guard reads the slice points that run, 2^3 + 2^5 + 2^9 = 552 at (3, 2);
    # the partition guard counts the Jordan types before listing them; an m = 1 count is at
    # most q^(2n^2 - n): 251^1770 has 4,248 digits and runs, 251^1891 has 4,538
    assert len(str(count_nilcone_jets(30, trunc_make(field_make(251), 1)))) == 4176
    with pytest.raises(TooLarge, match="4300 decimal digits"):
        count_nilcone_jets(31, trunc_make(field_make(251), 1))
    monkeypatch.setattr(counting, "charpoly_batch", None)
    monkeypatch.setattr(counting, "SWEEP_GUARD", 551)
    with pytest.raises(TooLarge, match="nilcone index count = 552 exceeds the sweep guard"):
        count_nilcone_jets(3, trunc_make(F2, 2))
    monkeypatch.setattr(counting, "PARTITION_GUARD", 41)
    with pytest.raises(TooLarge, match="42 Jordan types of n = 10 exceed the partition guard"):
        count_nilcone_jets(10, trunc_make(F2, 1))
    assert count_nilcone_jets(9, trunc_make(F2, 1)) == nilcone_m1_oracle(9, 2)


def test_ring_past_table_limit_n1():
    # past the dense-table limit the lift runs on the packed ring ops: one matrix per fiber
    ctx = trunc_make(F2, 10)
    assert ctx.size > RING_TABLE_LIMIT
    assert count_nilcone_jets(1, ctx) == 1
    t = fiber_table(1, ctx)
    assert len(t) == ctx.size and set(t.values()) == {1}
    x = (ctx.make((0, 0, 0, 1)),)  # t^3
    assert count_jet_fiber(1, ctx, x) == 1
    q = CountQuery(n=1, ell=2, k=1, m=10, kind="fiber", x=x)
    assert sum(count_sharded(q, 3, s).count for s in range(3)) == 1


def test_charpoly_keys_past_table_limit_match_oracle():
    # R_10 of F_2 has no dense tables; the keys come from the packed ring ops
    ctx = trunc_make(F2, 10)
    assert ctx.size > RING_TABLE_LIMIT
    rng = random.Random(10)
    for n in (2, 3):
        mats = [[[rng.randrange(ctx.size) for _ in range(n)] for _ in range(n)] for _ in range(12)]
        entries = [[np.array([a[i][j] for a in mats], dtype=np.int64) for j in range(n)] for i in range(n)]
        want = [counting._encode_key(ctx, charpoly_oracle(ctx, [[ctx.from_index(e) for e in row] for row in a]))
                for a in mats]
        assert counting._charpoly_keys(n, ctx, entries).tolist() == want


@pytest.mark.parametrize("ell,m,nilcone", [(2, 0, 4), (2, 1, 20), (2, 4, 1408), (3, 2, 891), (5, 1, 725),
                                           (37, 1, 1_923_445), (11, 2, 1_917_971)])
def test_n2_closed_forms_match_lift(ell, m, nilcone):
    # the n = 2 nilcone recurrence and the split-residue fiber (q^2 + q) q^(2m); R_1 of F_37 and
    # R_2 of F_11 (P = 1369, 1331) are past the dense-table limit, so the lift, and the jordan
    # engine's slice points at (11, 2), run on packed ops
    ctx = trunc_make(field_make(ell), m)
    assert count_nilcone_jets(2, ctx) == nilcone_n2_oracle(ell, m) == nilcone
    x = (ctx.make([ell - 1, 3, 4]), ctx.make([0, 5, 6]))  # x mod t = z (z - 1)
    assert count_jet_fiber(2, ctx, x) == split_fiber_n2_oracle(ell, m)


def test_nilcone_n1_builds_no_tables():
    # q = 2^11 is past RING_TABLE_LIMIT, so m = 0 runs on the packed ring ops, not tables
    assert count_nilcone_jets(1, trunc_make(field_make(2, 11), 0)) == 1


@pytest.mark.parametrize("ell,m", [(2, 0), (3, 1), (2, 2)])
def test_n1_closed_form_matches_oracle(ell, m):
    # c_1 = -a is a bijection: one matrix per fiber, the nilcone the jet a = 0.  The lift
    # indexes the q^(h-1) jets at level h - 1 of the one base -x_1 mod t, and only the jet
    # -x_1 mod t^h lifts; the m = 0 fiber indexes all of F_q in matrix_from_index order.
    ctx = trunc_make(field_make(ell), m)
    low = trunc_make(ctx.field, m // 2)  # R_(h-1)
    oracle = fiber_counts_oracle(ctx, 1)
    assert fiber_table(1, ctx) == oracle
    assert count_nilcone_jets(1, ctx) == oracle[(ctx.zero,)] == 1
    for kind, x in [("nilcone", None)] + [("fiber", x) for x in oracle]:
        a = ctx.zero if x is None else ctx.neg(x[0])  # the one matrix of the fiber
        if kind == "fiber" and m == 0:
            total, hit = ctx.size, ctx.index(a)
        else:
            total = ell ** low.m
            hit = low.index(a[:low.m + 1]) % total
        assert counting._target_space(1, ctx, kind, x)[0] == total
        q = CountQuery(1, ell, 1, m, kind, x=x)
        parts = [count_sharded(q, 3, s).count for s in range(3)]
        assert parts == [int(lo <= hit < hi) for lo, hi in (_shard_range(total, 3, s) for s in range(3))]
        assert sum(parts) == run_query(q).count == 1


@pytest.mark.parametrize("kind", ["nilcone", "fiber"])
def test_n1_checkpoint_of_closed_form_rejected(tmp_path, kind):
    # the n = 1 closed form indexed ring elements at m >= 1, and its checkpoint named no index
    # space; n = 1 now lifts, indexing the jets of its one base, so such a checkpoint is refused
    ctx = trunc_make(F2, 2)
    q = CountQuery(1, 2, 1, 2, kind, x=(ctx.zero,) if kind == "fiber" else None)
    old = {k: v for k, v in counting._query_sig(q).items() if k != "index"}
    assert old != counting._query_sig(q)
    path = tmp_path / "n1.jsonl"
    path.write_text(json.dumps({"next_index": 1, "query": old, "schema_version": 1,
                                "shard_id": 0, "shards": 1, "subtotal": "0"}) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 1, 0, str(path))


@pytest.mark.parametrize("n,ell,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_fiber_bases_match_full_sweep(n, ell, k):
    # the fixed-trace sweep keeps the bases, and their order, of a full m = 0 sweep, for
    # every code x0; the nilcone's are the bases over x0 = 0
    field = field_make(ell, k)
    ctx = trunc_make(field, 0)
    rows = {}
    for A in (mat_make(ctx, rows) for rows in all_matrices(ctx, n)):
        rows.setdefault(counting._encode_key(ctx, charpoly(A).c), []).append(
            [ctx.index(e) for row in A.entries for e in row])
    for x0 in range(field.q ** n):
        bases = counting._fiber_bases(n, field, x0)
        assert bases.tolist() == rows.get(x0, []) and not bases.flags.writeable
    assert len(counting._fiber_bases(n, field, 0)) == field.q ** (n * n - n)


def test_nilcone_guard_counts_pruned_space(monkeypatch):
    # at m = 2 lifting runs B in R_1: the nilcone, and now the fiber over 0 too, index
    # 2^6 bases x 2^9 lifts = 2^15 B, not all 2^18 matrices over R_1
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 16)
    ctx = trunc_make(F2, 2)
    assert count_nilcone_jets(3, ctx) == count_jet_fiber(3, ctx, (ctx.zero,) * 3) == 460_800
    assert counting._target_space(3, ctx, "fiber", (ctx.zero,) * 3)[0] == 2 ** 15
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 14)
    with pytest.raises(TooLarge, match="shard the run"):
        count_jet_fiber(3, ctx, (ctx.zero,) * 3)


def test_guard_sizes_exact_below_2_64():
    assert counting._size_text(2 ** 64 - 1) == str(2 ** 64 - 1)
    assert counting._size_text(2 ** 64) == "about 2^64"
    assert counting._size_text(3 ** 1000) == "about 2^1585"


def test_fiber_bases_guard_their_sweep(monkeypatch):
    # the bases sweep q^(n^2 - 1) = 2^8 matrices of fixed trace, though the count needs 2^6 indices
    counting._fiber_bases.cache_clear()
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 7)
    with pytest.raises(TooLarge, match="bases of fixed trace"):
        count_nilcone_jets(3, trunc_make(F2, 0))


@pytest.mark.parametrize("n,ell,k,m", [(2, 3, 1, 2), (3, 2, 1, 1), (2, 2, 2, 1), (2, 2, 1, 3)])
def test_lift_fiber_matches_sweep(n, ell, k, m):
    # m >= 1 fibers run the jets of the m = 0 fiber of x mod t; the oracle sweeps Mat_n(R_m)
    ctx = trunc_make(field_make(ell, k), m)
    rng = random.Random(f"{n}:{ell}:{k}:{m}")
    xs = [charpoly(matrix_from_index(n, ctx, rng.randrange(ctx.size ** (n * n)))).c for _ in range(3)]
    xs += [counting._decode_key(n, ctx, rng.randrange(ctx.size ** n)) for _ in range(2)]
    for x in xs:
        assert count_jet_fiber(n, ctx, x) == sweep_count_oracle(n, ctx, "fiber", x)


@pytest.mark.parametrize("n,ell,k,m,x,expected", [
    (3, 2, 1, 3, ((1,), (0,), (0,)), 40_370_176),
    (3, 2, 1, 3, ((1, 1), (0, 1), (1,)), 6_291_456),
    (2, 3, 1, 4, ((0, 1), (2,)), 78_732),
])
def test_lift_fiber_frozen(n, ell, k, m, x, expected):
    # values of the earlier layout, which swept all of Mat_n(R_(h-1))
    ctx = trunc_make(field_make(ell, k), m)
    assert count_jet_fiber(n, ctx, tuple(ctx.make(c) for c in x)) == expected


def test_nilcone_matches_zero_fiber():
    for ell, m in [(2, 0), (2, 1), (3, 0), (3, 1)]:
        ctx = trunc_make(field_make(ell), m)
        assert count_nilcone_jets(2, ctx) == count_jet_fiber(2, ctx, (ctx.zero,) * 2)


def test_gi_counts():
    ctx = trunc_make(F2, 0)
    assert count_gi_jets(2, ctx, 1) == 16
    assert count_gi_jets(2, ctx, 2) == 72


def test_gi_matches_tuple_oracle():
    # brute force: pairs and triples sharing a characteristic polynomial
    ctx = trunc_make(F2, 0)
    t = fiber_table(2, ctx)
    keys = [charpoly(mat_make(ctx, rows)).c for rows in all_matrices(ctx, 2)]
    for i in (2, 3):
        tuples = sum(1 for xs in itertools.product(keys, repeat=i) if len(set(xs)) == 1)
        assert count_gi_jets(2, ctx, i) == sum(v ** i for v in t.values()) == tuples
        q = CountQuery(2, 2, 1, 0, "gi", i=i)
        assert sum(count_sharded(q, 3, s).count for s in range(3)) == tuples


@pytest.mark.parametrize("n,ell,k,m,i,shards,expected", [
    (2, 3, 1, 0, 2, 2, 783), (3, 2, 1, 0, 3, 4, 3_713_024), (2, 2, 2, 1, 2, 5, None),
    (1, 3, 1, 1, 2, 2, None),
    (1, 2, 1, 0, 2, 3, None),  # more shards than the 2 codes: some shards are empty
])
def test_gi_shards_split_fiber_codes(n, ell, k, m, i, shards, expected):
    full = count_gi_jets(n, trunc_make(field_make(ell, k), m), i)
    q = CountQuery(n, ell, k, m, "gi", i=i)
    parts = [count_sharded(q, shards, s).count for s in range(shards)]
    assert sum(parts) == full == (expected or full)
    assert combine_records([count_sharded(q, shards, s) for s in range(shards)]).count == full


def test_run_query_record():
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    rec = run_query(q)
    assert rec.count == 20
    line = rec.to_json()
    back = CountRecord.from_json(line)
    assert back.count == 20
    assert json.loads(line)["count"] == "20"
    assert json.loads(line)["schema_version"] == 1
    assert "elapsed_ms" not in json.loads(line)


def test_record_with_elapsed_ms_loads():
    # records written before the field was dropped carry wall time
    d = json.loads(run_query(CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")).to_json())
    back = CountRecord.from_json(json.dumps(dict(d, elapsed_ms=7)))
    assert back.count == 20
    assert back.to_json() == json.dumps(d, sort_keys=True)
    with pytest.raises(BadConfig):
        CountRecord.from_json(json.dumps(dict(d, wall_ms=7)))


def test_query_validation():
    with pytest.raises(BadConfig):
        CountQuery(n=0, ell=2, k=1, m=0, kind="nilcone")
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="bogus")
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="gi")  # missing i
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="fiber")  # missing x
    x = ((0,), (0,))
    for kind, extra in [("nilcone", {"i": 3}), ("nilcone", {"x": x}), ("gi", {"i": 2, "x": x}),
                        ("fiber", {"x": x, "i": 2})]:
        with pytest.raises(BadConfig):  # an option the target does not read
            CountQuery(n=2, ell=2, k=1, m=0, kind=kind, **extra)


def test_sharding_matches_full(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    parts = [count_sharded(q, 4, s, str(tmp_path / f"ck{s}.jsonl")) for s in range(4)]
    assert sum(p.count for p in parts) == 20
    combined = combine_records(parts)
    assert combined.count == 20
    single = count_sharded(q, 1, 0, str(tmp_path / "single.jsonl"))
    assert single.count == 20


def test_sharding_gi(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="gi", i=2)
    parts = [count_sharded(q, 3, s, str(tmp_path / f"g{s}.jsonl")) for s in range(3)]
    assert sum(p.count for p in parts) == 72


def test_gi_shard_guard_counts_matrices(monkeypatch):
    # 2^48 i-tuples, once past the tuple guard; each shard now sums codes of 2^8 matrices
    q = CountQuery(2, 2, 1, 1, "gi", i=6)
    assert sum(count_sharded(q, 3, s).count for s in range(3)) == \
        count_gi_jets(2, trunc_make(F2, 1), 6)
    # every gi shard builds the whole table: at m = 3 its 2^18 lifting bases B over R_1
    # exceed the guard, and sharding would not help
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 17)
    with pytest.raises(TooLarge) as exc:
        count_sharded(CountQuery(3, 2, 1, 3, "gi", i=1), 64, 5)
    assert "shard the run" not in str(exc.value)


def test_gi_fiber_counts_cached_read_only():
    counting._fiber_counts.cache_clear()
    ctx = trunc_make(F3, 0)
    fiber_table(2, ctx)
    count_gi_jets(2, ctx, 2)
    info = counting._fiber_counts.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    counts = counting._fiber_counts(2, ctx)
    assert not counts.flags.writeable
    assert counts.sum() == 3 ** 4


def _shard_range(total, shards, s):
    return s * total // shards, (s + 1) * total // shards


def test_shard_subtotals_match_scalar_engine():
    ctx = trunc_make(F3, 0)
    x = charpoly(matrix_from_index(3, ctx, 12345)).c
    q = CountQuery(n=3, ell=3, k=1, m=0, kind="fiber", x=x)
    total = matrix_space_size(3, ctx)
    for s in range(4):
        lo, hi = _shard_range(total, 4, s)
        scalar = sum(1 for idx in range(lo, hi) if charpoly(matrix_from_index(3, ctx, idx)).c == x)
        assert count_sharded(q, 4, s).count == scalar


def _fiber_query_n3():
    x = charpoly(matrix_from_index(3, trunc_make(F3, 0), 777)).c
    return CountQuery(n=3, ell=3, k=1, m=0, kind="fiber", x=x)


def _checkpoint_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class _Killed(Exception):
    pass


def _wrap_chunks(monkeypatch, before_chunk):
    """Make every chunk's subtotal call before_chunk(lo) first."""
    real = counting._target_space

    def wrapped(*args):
        total, subtotal = real(*args)
        return total, lambda lo, hi: before_chunk(lo) or subtotal(lo, hi)

    monkeypatch.setattr(counting, "_target_space", wrapped)


def _interrupted(monkeypatch, q, path, chunks_done, chunk=128, shards=4, shard=1):
    """Run shard of shards, killing it when chunk number chunks_done + 1 starts."""
    calls = []

    def count_or_kill(lo):
        if len(calls) == chunks_done:
            raise _Killed
        calls.append(lo)

    with monkeypatch.context() as patched:
        _wrap_chunks(patched, count_or_kill)
        with pytest.raises(_Killed):
            count_sharded(q, shards, shard, path, chunk=chunk)


def _chunk_ends(lo, hi, chunk):
    """Where a shard lo..hi-1 checkpoints: e_(i+1) = min(hi, ceil((e_i + chunk) / BLOCK) BLOCK)."""
    ends, e = [], lo
    while e < hi:
        e = min(hi, math.ceil((e + chunk) / counting.BLOCK) * counting.BLOCK)
        ends.append(e)
    return ends


def test_checkpoint_journal_steps_by_chunk(tmp_path, monkeypatch):
    # shard 1 of 2 (9842 indices) checkpoints 6 times at chunk 128, one of 4 only 3 times
    q = _fiber_query_n3()
    full = count_sharded(q, 2, 1, chunk=128).count
    lo, hi = _shard_range(3 ** 9, 2, 1)
    ends = _chunk_ends(lo, hi, 128)
    assert ends == [10240, 12288, 14336, 16384, 18432, hi]
    for k in (1, 3):
        path = str(tmp_path / f"steps{k}.jsonl")
        _interrupted(monkeypatch, q, path, k, shards=2)
        (state,) = _checkpoint_lines(path)
        assert state["next_index"] == ends[k - 1]
        assert count_sharded(q, 2, 1, path, chunk=128).count == full


def test_shard_out_of_range(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")
    with pytest.raises(ShardOutOfRange):
        count_sharded(q, 4, 4, str(tmp_path / "x.jsonl"))


def test_fibertable_not_shardable():
    # fiber tables come from fiber_table(); no count query asks for one
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="fibertable")


def test_checkpoint_resume(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    path = str(tmp_path / "resume.jsonl")
    full = count_sharded(q, 1, 0, path, chunk=1)
    (state,) = _checkpoint_lines(path)  # one line after many chunks
    assert state["next_index"] == 2  # the jordan engine indexes the 2 Jordan types of n = 2
    assert int(state["subtotal"]) == full.count == 20
    assert count_sharded(q, 1, 0, path, chunk=1).count == 20


def test_checkpoint_resumes_multiline_journal(tmp_path, monkeypatch):
    # Older versions appended one state line per chunk; the last line counts.
    q = _fiber_query_n3()
    full = count_sharded(q, 2, 1, chunk=128).count
    states = []
    for k in (1, 2, 3):
        path = tmp_path / f"part{k}.jsonl"
        _interrupted(monkeypatch, q, str(path), k, shards=2)
        states.append(path.read_text())
    journal = tmp_path / "journal.jsonl"
    journal.write_text("".join(states))
    journal = str(journal)
    calls = []
    _wrap_chunks(monkeypatch, calls.append)
    assert count_sharded(q, 2, 1, journal, chunk=128).count == full
    assert calls[0] == _chunk_ends(*_shard_range(3 ** 9, 2, 1), 128)[2]
    assert len(_checkpoint_lines(journal)) == 1


def test_m0_checkpoint_of_older_version_resumes(tmp_path):
    # at m = 0 the lifting bases B are the matrices older versions swept, so a
    # fiber checkpoint that names no index space resumes
    q = _fiber_query_n3()
    ctx = trunc_make(F3, 0)
    full = count_sharded(q, 4, 1, chunk=128).count
    lo, _ = _shard_range(3 ** 9, 4, 1)
    done = sum(charpoly(matrix_from_index(3, ctx, idx)).c == q.x for idx in range(lo, lo + 256))
    path = tmp_path / "old-m0.jsonl"
    path.write_text(json.dumps({
        "next_index": lo + 256, "query": {"k": 1, "ell": 3, "m": 0, "n": 3,
                                          "target": {"kind": "fiber", "x": [list(c) for c in q.x]}},
        "schema_version": 1, "shard_id": 1, "shards": 4, "subtotal": str(done)}) + "\n")
    assert count_sharded(q, 4, 1, str(path), chunk=128).count == full
    (state,) = _checkpoint_lines(str(path))
    assert "index" not in state["query"]


def test_checkpoint_mismatch_rejected(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    path = str(tmp_path / "mix.jsonl")
    count_sharded(q, 1, 0, path, chunk=4)
    other = CountQuery(n=2, ell=3, k=1, m=1, kind="nilcone")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(other, 1, 0, path, chunk=4)


def test_gi_checkpoint_resumes_over_codes(tmp_path):
    q = CountQuery(2, 3, 1, 0, "gi", i=2)
    path = tmp_path / "gi.jsonl"
    full = count_sharded(q, 2, 1, str(path), chunk=7).count
    (state,) = _checkpoint_lines(str(path))
    assert state["query"]["index"] == "charpoly codes"
    lo, hi = _shard_range(3 ** 2, 2, 1)
    assert state["next_index"] == hi
    _, subtotal = counting._target_space(2, trunc_make(F3, 0), "gi", i=2)
    state.update(next_index=lo + 2, subtotal=str(subtotal(lo, lo + 2)))
    path.write_text(json.dumps(state) + "\n")
    assert count_sharded(q, 2, 1, str(path), chunk=7).count == full


def test_gi_tuple_checkpoint_rejected(tmp_path):
    # gi checkpoints of older versions count i-tuples of matrices in next_index
    q = CountQuery(2, 2, 1, 0, "gi", i=2)
    path = tmp_path / "old-gi.jsonl"
    path.write_text(json.dumps({
        "next_index": 2, "query": {"k": 1, "ell": 2, "m": 0, "n": 2,
                                   "target": {"i": 2, "kind": "gi"}},
        "schema_version": 1, "shard_id": 0, "shards": 1, "subtotal": "3"}) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 1, 0, str(path))


@pytest.mark.parametrize("chunk", [0, -3])
def test_chunk_below_one_rejected(chunk):
    with pytest.raises(BadConfig):
        count_sharded(CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone"), 1, 0, chunk=chunk)


@pytest.mark.parametrize("key,value", [
    ("subtotal", "-5"),  # once resumed shard 0 of 2 of the (3, 2, m = 0) nilcone to 27, not 32
    ("subtotal", "+5"), ("subtotal", " 5"), ("subtotal", "05"), ("subtotal", "1_0"), ("subtotal", "0x5"),
    ("subtotal", "\u0665"), ("subtotal", 5), ("subtotal", 5.0), ("subtotal", None),
    ("next_index", 16.0), ("next_index", True), ("next_index", "16"),
])
def test_checkpoint_malformed_state_rejected(tmp_path, key, value):
    q = CountQuery(n=3, ell=2, k=1, m=0, kind="nilcone")
    path = tmp_path / "ck.jsonl"
    count_sharded(q, 2, 0, str(path))
    (state,) = _checkpoint_lines(path)
    state.update(next_index=0, subtotal="0")
    path.write_text(json.dumps(state) + "\n")
    assert count_sharded(q, 2, 0, str(path)).count == 32
    state[key] = value
    path.write_text(json.dumps(state) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 2, 0, str(path))


@pytest.mark.parametrize("line", ["[]", '"32"', "32", "null"])
def test_checkpoint_not_an_object_rejected(tmp_path, line):
    path = tmp_path / "ck.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(CountQuery(n=3, ell=2, k=1, m=0, kind="nilcone"), 2, 0, str(path))


def test_checkpoint_garbage_rejected(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write("{not json\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 1, 0, path)


def test_combine_rejects_mixed_targets():
    a = run_query(CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone"))
    b = run_query(CountQuery(n=2, ell=3, k=1, m=0, kind="nilcone"))
    with pytest.raises(BadConfig):
        combine_records([a, b])


def test_combine_needs_one_whole_split():
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="gi", i=2)
    r0, r1, r2 = (count_sharded(q, 3, s) for s in range(3))
    assert combine_records([r2, r0, r1]).count == 72
    other = count_sharded(q, 2, 0)
    for partials in ([r0, r0, r1], [r0, r1], [r0, r1, r2, r2], [r0, r1, other],
                     [run_query(q)]):
        with pytest.raises(BadConfig):
            combine_records(partials)


# --------------------------------------------------------------------------
# lifting: B swept, the top half solved over F_ell
# --------------------------------------------------------------------------

_SYSTEM_SHAPES = {"zero": (4, 3), "full-rank": (5, 5), "tall": (9, 4), "wide": (2, 6),
                  "low-rank": (7, 5), "inconsistent": (6, 5)}


def _system(rng, ell, kind):
    """(gens, y) of one seeded system: g generator rows in F_ell^r and a target y."""
    g, r = _SYSTEM_SHAPES[kind]
    rand = lambda a, b: [[rng.randrange(ell) for _ in range(b)] for _ in range(a)]  # noqa: E731
    mul = lambda x, y: [[sum(a * b for a, b in zip(row, col)) % ell for col in zip(*y)]  # noqa: E731
                        for row in x]
    if kind == "zero":
        gens = [[0] * r for _ in range(g)]
    elif kind == "full-rank":  # unit lower times unit upper triangular: invertible
        lower = [[1 if i == j else rng.randrange(ell) if j < i else 0 for j in range(r)] for i in range(r)]
        upper = [[1 if i == j else rng.randrange(ell) if j > i else 0 for j in range(r)] for i in range(r)]
        gens = mul(lower, upper)
    elif kind in ("low-rank", "inconsistent"):  # rank <= 2 in F_ell^5
        gens = mul(rand(g, 2), rand(2, r))
    else:
        gens = rand(g, r)
    if kind == "inconsistent" or rng.random() < 0.5:
        y = rand(1, r)[0]
    else:  # a combination of the generators
        y = mul(rand(1, g), gens)[0]
    return gens, y


@pytest.mark.parametrize("kind", list(_SYSTEM_SHAPES))
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 17, 251])  # from 17 on, digits are 16-bit
def test_row_echelon_matches_scalar_gauss(ell, kind):
    rng = random.Random(f"{ell}:{kind}")
    systems = [_system(rng, ell, kind) for _ in range(40)]
    g, r = _SYSTEM_SHAPES[kind]
    gens = np.array([s[0] for s in systems]).transpose(1, 2, 0)
    y = np.array([s[1] for s in systems]).T
    rank, basis, consistent = row_echelon(gens, ell, y)
    assert basis.shape == (r, r, len(systems))
    for b, (rows, yb) in enumerate(systems):
        want_rank, want_rows = gauss_oracle(rows, ell, r)
        assert rank[b] == want_rank
        # reduced row echelon form is unique, so equal spans give equal rows
        assert basis[:want_rank, :, b].tolist() == want_rows
        assert not basis[want_rank:, :, b].any()
        assert consistent[b] == in_span_oracle(rows, yb, ell, r)
    if kind == "full-rank":
        assert (rank == r).all() and consistent.all()
    if kind == "inconsistent":
        assert not consistent.all()
    assert row_echelon(gens, ell)[2] is None


def test_count_engine():
    for m in range(4):
        assert count_engine(1, "nilcone", m) == count_engine(1, "fiber", m) == count_engine(1, "gi", m) == "lift"
        assert count_engine(2, "gi", m) == "n2-product"
        assert count_engine(2, "fiber", m) == count_engine(3, "gi", m) == count_engine(3, "fiber", m) == "lift"
        assert count_engine(2, "nilcone", m) == count_engine(5, "nilcone", m) == (
            "jordan" if m in (1, 2) else "lift")


@pytest.mark.parametrize("ell,k,m,sample", [(2, 1, 1, None), (2, 1, 3, None), (3, 1, 2, None),
                                            (5, 1, 1, None), (2, 2, 1, None), (2, 2, 3, 24),
                                            (2, 1, 5, 24), (17, 1, 1, 24)])
def test_lift_n2_matches_product(ell, k, m, sample):
    # lifted counts against the H @ B product, with k = 2 and ell | n (ell = 2) covered
    ctx = trunc_make(field_make(ell, k), m)
    product = counting._fiber_counts(2, ctx)
    assert np.array_equal(counting._lift_counts(2, ctx), product)  # every code at once
    assert count_nilcone_jets(2, ctx) == product[0]
    codes = range(len(product)) if sample is None else \
        random.Random(m).sample(range(len(product)), sample)
    for code in codes:
        assert count_jet_fiber(2, ctx, counting._decode_key(2, ctx, code)) == product[code]


def test_lift_n3_matches_sweep():
    ctx = trunc_make(F2, 1)
    assert count_nilcone_jets(3, ctx) == sweep_count_oracle(3, ctx, "nilcone") == 5632
    swept = sweep_counts_oracle(3, ctx)
    assert np.array_equal(counting._fiber_counts(3, ctx), swept)
    assert swept.all()  # every x is the charpoly of its companion matrix: no fiber is empty
    rng = random.Random(3)
    for code in rng.sample(range(len(swept)), 6):
        x = counting._decode_key(3, ctx, code)
        assert count_jet_fiber(3, ctx, x) == sweep_count_oracle(3, ctx, "fiber", x) == swept[code]


def test_lift_nilcone_n3_q3_m1():
    assert count_nilcone_jets(3, trunc_make(F3, 1)) == 688_905  # the sweep's value


@pytest.mark.parametrize("ell,k,m", [(2, 1, 2), (3, 1, 1), (2, 2, 1)])
def test_lift_table_mass_and_refinement(ell, k, m):
    field = field_make(ell, k)
    counts = counting._fiber_counts(3, trunc_make(field, m))
    assert counts.sum() == field.q ** ((m + 1) * 9)
    assert refinement_check(3, field, m)  # the table at m against the one at m - 1


def test_lift_gi_shards_add_up():
    ctx = trunc_make(F2, 1)
    full = count_gi_jets(3, ctx, 2)
    assert full == sum(v * v for v in sweep_counts_oracle(3, ctx).tolist())
    q = CountQuery(3, 2, 1, 1, "gi", i=2)
    assert sum(count_sharded(q, 5, s).count for s in range(5)) == full


@pytest.mark.parametrize("n,ell,k,m,kind", [(3, 2, 1, 2, "nilcone"), (2, 3, 1, 2, "nilcone"),
                                            (3, 2, 1, 1, "fiber"), (2, 2, 2, 3, "fiber")])
def test_lift_shards_add_up(n, ell, k, m, kind):
    ctx = trunc_make(field_make(ell, k), m)
    x = None
    if kind == "fiber":
        x = charpoly(matrix_from_index(n, ctx, random.Random(m).randrange(ctx.size ** (n * n)))).c
    q = CountQuery(n, ell, k, m, kind, x=x)
    parts = [count_sharded(q, 5, s) for s in range(5)]
    assert combine_records(parts).count == run_query(q).count > 0


def _zero_fiber_n3_m2():
    """The lifted fiber over 0 of (3, 2, m = 2): 2^6 nilpotent bases x 2^9 lifts = 2^15 B,
    the index space the nilcone had under the lift."""
    return CountQuery(3, 2, 1, 2, "fiber", x=(trunc_make(F2, 2).zero,) * 3)


def test_lift_shard_resumes(tmp_path, monkeypatch):
    q = _zero_fiber_n3_m2()  # 2^15 bases B, 2^14 per shard
    full = count_sharded(q, 2, 1, chunk=1000).count
    path = str(tmp_path / "lift.jsonl")
    _interrupted(monkeypatch, q, path, 3, chunk=1000, shards=2)
    (state,) = _checkpoint_lines(path)
    assert state["query"]["index"] == "jets of fiber bases B"
    # each chunk of 1000 runs on to the end of its page of 2^11
    assert state["next_index"] == 2 ** 14 + 3 * 2 ** 11 == _chunk_ends(2 ** 14, 2 ** 15, 1000)[2]
    assert count_sharded(q, 2, 1, path, chunk=1000).count == full


def test_lift_fiber_checkpoint_of_older_layout_rejected(tmp_path):
    # m >= 1 fiber checkpoints that counted all of Mat_n(R_(h-1)) in next_index
    ctx = trunc_make(F2, 1)
    q = CountQuery(3, 2, 1, 1, "fiber", x=(ctx.one, ctx.zero, ctx.zero))
    path = tmp_path / "old-fiber.jsonl"
    old = dict(counting._query_sig(q), index="lifting bases B")
    path.write_text(json.dumps({"next_index": 64, "query": old, "schema_version": 1,
                                "shard_id": 0, "shards": 1, "subtotal": "0"}) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 1, 0, str(path))


@pytest.mark.parametrize("n,m,kind,index", [
    (1, 0, "nilcone", None), (1, 1, "nilcone", "lifting bases B"), (2, 0, "nilcone", None),
    (2, 1, "nilcone", "Jordan types"), (2, 2, "nilcone", "slice points of Jordan types"),
    (2, 3, "nilcone", "lifting bases B"),
    (1, 0, "fiber", None), (1, 1, "fiber", "jets of fiber bases B"), (2, 0, "fiber", None),
    (2, 1, "fiber", "jets of fiber bases B"),
    (1, 0, "gi", "charpoly codes"), (1, 1, "gi", "charpoly codes"),
    (2, 0, "gi", "charpoly codes"), (2, 1, "gi", "charpoly codes"),
])
def test_query_sig_names_index_space(n, m, kind, index):
    # a change of an index layout must rename its checkpoint signature here
    x = ((0,) * (m + 1),) * n if kind == "fiber" else None
    sig = counting._query_sig(CountQuery(n, 2, 1, m, kind, x=x, i=2 if kind == "gi" else None))
    assert sig.get("index") == index


def test_shard_guard_bounds_index_count(monkeypatch):
    # the guard reads the index count that runs: 2^6 nilpotent bases x 2^9 lifts at m = 2
    q = _zero_fiber_n3_m2()
    monkeypatch.setattr(counting, "SHARD_GUARD", 2 ** 15)
    assert sum(count_sharded(q, 4, s).count for s in range(4)) == 460_800
    monkeypatch.setattr(counting, "SHARD_GUARD", 2 ** 15 - 1)
    with pytest.raises(TooLarge, match="per-shard-set guard"):
        count_sharded(q, 64, 5)


def test_shard_sweep_guard_bounds_its_range(monkeypatch):
    # each shard checks the indices it runs: 2^15 B in two shards of 2^14
    q = _zero_fiber_n3_m2()
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 14)
    assert sum(count_sharded(q, 2, s).count for s in range(2)) == 460_800
    with pytest.raises(TooLarge, match="--shard-id"):
        count_sharded(q, 1, 0)


@pytest.mark.parametrize("m", [1, 2])
def test_lift_era_nilcone_checkpoint_rejected(tmp_path, m):
    # m = 1, 2 nilcone checkpoints of the lift counted its bases B; the jordan engine
    # indexes Jordan types and slice points, so they are refused
    q = CountQuery(3, 2, 1, m, "nilcone")
    path = tmp_path / "lift-nilcone.jsonl"
    path.write_text(json.dumps({
        "next_index": 1, "query": dict(counting._query_sig(q), index="lifting bases B"),
        "schema_version": 1, "shard_id": 0, "shards": 1, "subtotal": "0"}) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(q, 1, 0, str(path))


@pytest.mark.parametrize("chunk", [1, 7, counting.BLOCK - 1, counting.BLOCK + 1])
def test_jordan_shards_resume_and_add_up(tmp_path, monkeypatch, chunk):
    # the 3^3 + 3^5 + 3^9 = 19,953 slice points of (3, 3, m = 2) in 3 shards of several
    # pages each: a shard killed after one chunk resumes to its uninterrupted subtotal,
    # and the subtotals add up to the lift's count; the 5 Jordan types of (4, 2, m = 1) too
    q = CountQuery(3, 3, 1, 2, "nilcone")
    parts = []
    for s in range(3):
        parts.append(count_sharded(q, 3, s, chunk=chunk).count)
        path = str(tmp_path / f"ck{s}-{chunk}.jsonl")
        _interrupted(monkeypatch, q, path, 1, chunk=chunk, shards=3, shard=s)
        (state,) = _checkpoint_lines(path)
        assert state["next_index"] == _chunk_ends(*_shard_range(19_953, 3, s), chunk)[0]
        assert count_sharded(q, 3, s, path, chunk=chunk).count == parts[-1]
    assert sum(parts) == 622_317_411
    q1 = CountQuery(4, 2, 1, 1, "nilcone")
    assert sum(count_sharded(q1, 3, s, chunk=chunk).count for s in range(3)) == 25_837_568


def test_lift_matrix_index_checkpoint_rejected(tmp_path):
    # m >= 1 checkpoints of older versions count matrices of the pruned layout in next_index
    path = tmp_path / "old-nilcone.jsonl"
    path.write_text(json.dumps({
        "next_index": 64, "query": {"k": 1, "ell": 2, "m": 1, "n": 3, "target": {"kind": "nilcone"}},
        "schema_version": 1, "shard_id": 0, "shards": 1, "subtotal": "0"}) + "\n")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(CountQuery(3, 2, 1, 1, "nilcone"), 1, 0, str(path))


def _clear_pages():
    counting._charpoly_page.cache_clear()
    counting._lift_page.cache_clear()
    counting._slice_page.cache_clear()


def _page_targets():
    ctx0, ctx1, ctx2 = trunc_make(F3, 0), trunc_make(F2, 1), trunc_make(F3, 2)
    values = jordan_m2_values_oracle(2, field_make(7))  # 7^2 + 7^4 = 2450 slice points
    return [  # (query, shards, per-shard subtotals of the sweep before pages, or of the oracle)
        (CountQuery(3, 3, 1, 0, "fiber", x=charpoly(matrix_from_index(3, ctx0, 12345)).c), 4,
         [103, 103, 104, 122]),
        (CountQuery(3, 2, 1, 1, "fiber", x=(ctx1.zero,) * 3), 3, [2240, 1664, 1728]),
        (CountQuery(2, 3, 1, 2, "fiber", x=charpoly(matrix_from_index(2, ctx2, 12345)).c), 2,
         [243, 243]),
        (CountQuery(2, 7, 1, 2, "nilcone"), 3,
         [sum(values[lo:hi]) for lo, hi in (_shard_range(len(values), 3, s) for s in range(3))]),
    ]


def _run_shards(monkeypatch, tmp_path, q, shards, order, chunk):
    """{shard: (count, [(next_index, subtotal) of every checkpoint written])}; the
    checkpoints are recorded, not written, so every run starts afresh."""
    written = {}
    monkeypatch.setattr(counting, "atomic_write_text",
                        lambda path, text: written.setdefault(path, []).append(json.loads(text)))
    out = {}
    for s in order:
        path = str(tmp_path / f"ck{s}")
        count = count_sharded(q, shards, s, path, chunk=chunk).count
        out[s] = count, [(w["next_index"], int(w["subtotal"])) for w in written[path]]
    return out


def _cold_prefix(q):
    """(index count, subtotal, prefix sums of subtotal(i, i + 1) over pages built cold)."""
    total, subtotal = counting._target_space(q.n, q.ctx(), q.kind, q.x)
    _clear_pages()
    return total, subtotal, [0] + list(itertools.accumulate(subtotal(i, i + 1) for i in range(total)))


@pytest.mark.parametrize("chunk", [1, 7, 128, counting.BLOCK - 1, counting.BLOCK + 1])
def test_checkpoints_under_pages(tmp_path, monkeypatch, chunk):
    # pages change what a chunk evaluates, never what a shard returns or writes
    for q, shards, expected in _page_targets():
        total, subtotal, prefix = _cold_prefix(q)
        forward = _run_shards(monkeypatch, tmp_path, q, shards, range(shards), chunk)
        for s in range(shards):
            lo, hi = _shard_range(total, shards, s)
            count, states = forward[s]
            assert count == expected[s]
            assert [j for j, _ in states] == _chunk_ends(lo, hi, chunk)
            assert all(sub == prefix[j] - prefix[lo] for j, sub in states)
            for j, sub in (states[0], states[-1]):
                _clear_pages()
                assert subtotal(lo, j) == sub
        _clear_pages()
        assert _run_shards(monkeypatch, tmp_path, q, shards, reversed(range(shards)), chunk) == forward
        _clear_pages()
        assert _run_shards(monkeypatch, tmp_path, q, shards, range(shards), chunk) == forward


def _record_pages(monkeypatch):
    """The page numbers that the two page memos are asked for from now on."""
    read = []
    for name in ("_charpoly_page", "_lift_page"):
        memo = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *args, memo=memo: read.append(args[-1]) or memo(*args))
    return read


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lifted=st.booleans(), shard=st.integers(0, 1), chunk=st.integers(1, 3 * counting.BLOCK),
       kill=st.integers(0, 15))
def test_resume_after_kill_skips_finished_pages(tmp_path, monkeypatch, lifted, shard, chunk, kill):
    # a kill at the start of any chunk resumes to the uninterrupted count, and the
    # resumed run evaluates no page that the killed run had finished
    q = _zero_fiber_n3_m2() if lifted else _fiber_query_n3()
    total, _ = counting._target_space(q.n, q.ctx(), q.kind, q.x)
    lo, hi = _shard_range(total, 2, shard)
    kill %= len(_chunk_ends(lo, hi, chunk))
    full = count_sharded(q, 2, shard).count
    path = tmp_path / "killed.jsonl"
    path.unlink(missing_ok=True)
    _clear_pages()
    with monkeypatch.context() as patched:
        finished = _record_pages(patched)
        _interrupted(patched, q, str(path), kill, chunk=chunk, shards=2, shard=shard)
    _clear_pages()
    with monkeypatch.context() as patched:
        resumed = _record_pages(patched)
        assert count_sharded(q, 2, shard, str(path), chunk=chunk).count == full
    assert set(finished).isdisjoint(resumed)
    assert set(finished + resumed) == set(range(lo // counting.BLOCK, -(-hi // counting.BLOCK)))


def test_bench_resume_pair_writes_three_checkpoints(tmp_path, monkeypatch):
    # the benchmark's resume pair, shard 1 of 4 of the (3, 3, m = 0) fiber at chunk 128,
    # spans 3 pages: it writes 3 checkpoints, where one per 128 indices wrote 39
    written = []
    monkeypatch.setattr(counting, "atomic_write_text", lambda path, text: written.append(text))
    count_sharded(_fiber_query_n3(), 4, 1, str(tmp_path / "ck.jsonl"), chunk=128)
    assert len(written) == 3


@pytest.mark.parametrize("total,shards,shard", [(5 * 2 ** 16 + 12345, 1, 0), (3 * 2 ** 20, 3, 1)])
def test_default_chunk_cadence_on_page_aligned_shards(tmp_path, monkeypatch, total, shards, shard):
    # the CLI's chunk, 2^16, is a multiple of BLOCK: a shard that starts on a page
    # boundary still checkpoints after every 2^16 indices and at its end
    monkeypatch.setattr(counting, "_target_space", lambda *args: (total, lambda lo, hi: hi - lo))
    written = []
    monkeypatch.setattr(counting, "atomic_write_text", lambda path, text: written.append(json.loads(text)))
    lo, hi = _shard_range(total, shards, shard)
    assert lo % counting.BLOCK == 0
    count_sharded(CountQuery(2, 2, 1, 0, "nilcone"), shards, shard, str(tmp_path / "ck.jsonl"))
    assert [w["next_index"] for w in written] == list(range(lo + 2 ** 16, hi, 2 ** 16)) + [hi]
    assert [int(w["subtotal"]) for w in written] == [j - lo for j in range(lo + 2 ** 16, hi, 2 ** 16)] + [hi - lo]


def test_subtotal_windows_match_single_indices():
    # windows of 7 and of BLOCK + 1 indices, ending at every index: the short ones end
    # inside a page, the long ones straddle a page edge
    for q, _, _ in _page_targets():
        total, subtotal, prefix = _cold_prefix(q)
        for width in (7, counting.BLOCK + 1):
            for hi in range(1, total + 1):
                lo = max(0, hi - width)
                assert subtotal(lo, hi) == prefix[hi] - prefix[lo]


@pytest.mark.parametrize("n,ell", [(3, 2), (3, 3), (4, 2)])
def test_nilcone_m0_indices_count_one_each(tmp_path, monkeypatch, n, ell):
    # every base over 0 is nilpotent, so no charpoly runs once the bases are built
    field = field_make(ell)
    counting._fiber_bases(n, field, 0)
    monkeypatch.setattr(counting, "charpoly_batch", None)
    q = CountQuery(n, ell, 1, 0, "nilcone")
    parts = []
    for s in range(3):
        path = tmp_path / f"nil{s}.jsonl"
        parts.append(count_sharded(q, 3, s, str(path), chunk=7))
        lo, hi = _shard_range(ell ** (n * n - n), 3, s)
        (state,) = _checkpoint_lines(path)
        assert (state["next_index"], int(state["subtotal"])) == (hi, hi - lo) == (hi, parts[-1].count)
        assert count_sharded(q, 3, s, str(path), chunk=7).count == hi - lo
    assert combine_records(parts).count == ell ** (n * n - n)


def test_every_memo_is_bounded():
    # no lru_cache of the package may grow without bound
    memos = {}
    for info in pkgutil.iter_modules(chevalab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"chevalab.{info.name}")
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    memos[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"counting._charpoly_page", "counting._lift_page", "counting._slice_page", "field.ring_ops",
            "field._digit_sum", "field._digit_product"} <= set(memos)
    assert [name for name, maxsize in memos.items() if maxsize is None] == []


def test_page_memos_bounded():
    # a page holds at most BLOCK int64 values; the three memos together hold at most 6 MB
    for memo in (counting._charpoly_page, counting._lift_page, counting._slice_page):
        assert memo.cache_info().maxsize * counting.BLOCK * 8 <= 2 << 20


def _nilcone_record(ell, k, m):
    return run_query(CountQuery(n=2, ell=ell, k=k, m=m, kind="nilcone"))


def test_fit_dimension_exact_slope():
    # counts 4, 16, 64 over F_2, F_4, F_8 at m = 0: slope exactly 2
    recs = [_nilcone_record(2, k, 0) for k in (1, 2, 3)]
    assert [r.count for r in recs] == [4, 16, 64]
    fit = fit_dimension(recs)
    assert fit.slope == 2
    assert fit.entries[0]["C_m"] == 2.0


def test_fit_dimension_cm_values():
    import math
    recs = [_nilcone_record(2, 1, m) for m in range(3)]
    fit = fit_dimension(recs)
    cms = {e["m"]: e["C_m"] for e in fit.entries}
    assert cms[0] == pytest.approx(2.0)
    assert cms[1] == pytest.approx(math.log2(20) - 2)
    assert cms[2] == pytest.approx(math.log2(80) - 4)
    with pytest.raises(InsufficientData):
        fit.slope  # single k per m: no slope, C_m table still present


def test_fit_dimension_rejects_mixed_targets():
    # gi at i = 2 and i = 3 have their own slopes; mixed, they used to fit to one between them
    recs = {i: [run_query(CountQuery(n=2, ell=2, k=k, m=0, kind="gi", i=i)) for k in (1, 2)]
            for i in (2, 3)}
    assert [round(fit_dimension(recs[i]).slope, 2) for i in (2, 3)] == [5.90, 7.73]
    with pytest.raises(BadConfig):
        fit_dimension(recs[2] + recs[3])


def test_expected_dimension_rate():
    assert expected_dimension_rate(2, {"kind": "nilcone"}) == 2
    assert expected_dimension_rate(3, {"kind": "fiber"}) == 6
    assert expected_dimension_rate(2, {"kind": "gi", "i": 2}) == 6
