import itertools
import json
import os

import pytest

from chevalab.counting import (
    CountQuery,
    CountRecord,
    combine_records,
    count_gi_jets,
    count_jet_fiber,
    count_nilcone_jets,
    count_sharded,
    enumerate_matrices,
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
from chevalab.matrices import charpoly

from oracles import fiber_counts_oracle

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


@pytest.mark.parametrize("n,ell,m", [(2, 2, 0), (2, 2, 1), (2, 3, 0), (2, 3, 1), (3, 2, 0)])
def test_fiber_table_matches_oracle(n, ell, m):
    ctx = trunc_make(field_make(ell), m)
    assert fiber_table(n, ctx) == fiber_counts_oracle(ctx, n)


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


def test_ring_past_table_limit_n1():
    # no dense tables past the limit: n = 1 sweeps run on the scalar engine
    ctx = trunc_make(F2, 10)
    assert ctx.size > RING_TABLE_LIMIT
    assert count_nilcone_jets(1, ctx) == 1
    t = fiber_table(1, ctx)
    assert len(t) == ctx.size and set(t.values()) == {1}
    x = (ctx.t_power(3),)
    assert count_jet_fiber(1, ctx, x) == 1
    q = CountQuery(n=1, ell=2, k=1, m=10, kind="fiber", x=x)
    assert sum(count_sharded(q, 3, s).count for s in range(3)) == 1


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
    for i in (2, 3):
        assert count_gi_jets(2, ctx, i) == sum(v ** i for v in t.values())
    mats = list(enumerate_matrices(2, ctx))
    from chevalab.matrices import charpoly
    keys = [charpoly(a).c for a in mats]
    pairs = sum(1 for x, y in itertools.product(keys, repeat=2) if x == y)
    assert pairs == count_gi_jets(2, ctx, 2)


def test_run_query_record():
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    rec = run_query(q)
    assert rec.count == 20
    line = rec.to_json()
    back = CountRecord.from_json(line)
    assert back.count == 20
    assert json.loads(line)["count"] == "20"
    assert json.loads(line)["schema_version"] == 1


def test_query_validation():
    with pytest.raises(BadConfig):
        CountQuery(n=0, ell=2, k=1, m=0, kind="nilcone")
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="bogus")
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="gi")  # missing i
    with pytest.raises(BadConfig):
        CountQuery(n=2, ell=2, k=1, m=0, kind="fiber")  # missing x


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


def test_gi_shard_guard_counts_tuples():
    # i-tuples: (2^8)^6 = 2^48 indices, past the 2^40 guard
    q = CountQuery(2, 2, 1, 1, "gi", i=6)
    with pytest.raises(TooLarge):
        count_sharded(q, 1, 0)


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


def test_checkpoint_journal_steps_by_chunk(tmp_path):
    x = charpoly(matrix_from_index(3, trunc_make(F3, 0), 777)).c
    q = CountQuery(n=3, ell=3, k=1, m=0, kind="fiber", x=x)
    path = str(tmp_path / "steps.jsonl")
    rec = count_sharded(q, 4, 1, path, chunk=128)
    lo, hi = _shard_range(3 ** 9, 4, 1)
    with open(path) as fh:
        journal = [json.loads(line) for line in fh]
    assert [j["next_index"] for j in journal] == list(range(lo + 128, hi, 128)) + [hi]
    assert int(journal[-1]["subtotal"]) == rec.count


def test_shard_out_of_range(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")
    with pytest.raises(ShardOutOfRange):
        count_sharded(q, 4, 4, str(tmp_path / "x.jsonl"))


def test_fibertable_not_shardable(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=0, kind="fibertable")
    with pytest.raises(BadConfig):
        count_sharded(q, 2, 0, str(tmp_path / "x.jsonl"))


def test_checkpoint_resume(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    path = str(tmp_path / "resume.jsonl")
    full = count_sharded(q, 1, 0, path, chunk=4)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) >= 3
    # simulate a kill after the first chunk and restart from the checkpoint
    with open(path, "w") as fh:
        fh.write(lines[0] + "\n")
    resumed = count_sharded(q, 1, 0, path, chunk=4)
    assert resumed.count == full.count == 20


def test_checkpoint_mismatch_rejected(tmp_path):
    q = CountQuery(n=2, ell=2, k=1, m=1, kind="nilcone")
    path = str(tmp_path / "mix.jsonl")
    count_sharded(q, 1, 0, path, chunk=4)
    other = CountQuery(n=2, ell=3, k=1, m=1, kind="nilcone")
    with pytest.raises(CorruptCheckpoint):
        count_sharded(other, 1, 0, path, chunk=4)


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


def test_expected_dimension_rate():
    assert expected_dimension_rate(2, {"kind": "nilcone"}) == 2
    assert expected_dimension_rate(3, {"kind": "fiber"}) == 6
    assert expected_dimension_rate(2, {"kind": "gi", "i": 2}) == 6
