import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chevalab import cli, counting, measure, slices, subreg
from chevalab.cli import build_parser, main, run
from chevalab.counting import CountQuery, count_sharded, run_query
from chevalab.field import field_make, ring_ops, trunc_make
from chevalab.errors import IoError
from chevalab.reporting import Report, atomic_write_text, emit, load_jsonl
from oracles import profile_csv_oracle


def _main_out(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_count_nilcone(capsys):
    code, doc = _main_out(capsys, ["count", "--target", "nilcone", "--m", "1"])
    assert code == 0
    assert doc["outputs"]["count"] == "20"
    assert doc["anchor"] == "Thm A"


def test_count_fiber_with_x(capsys):
    code, doc = _main_out(capsys, ["count", "--target", "fiber", "--m", "0",
                                   "--x", "1|0"])
    assert code == 0
    assert doc["outputs"]["count"] == "6"


def test_count_gi(capsys):
    code, doc = _main_out(capsys, ["count", "--target", "gi", "--m", "0", "--i", "2"])
    assert code == 0
    assert doc["outputs"]["count"] == "72"
    assert doc["anchor"] == "Thm C"


def test_count_sharded_threads(capsys, tmp_path, monkeypatch):
    # --threads still parses and changes nothing
    _, single = _main_out(capsys, ["count", "--target", "nilcone", "--m", "1", "--shards", "1"])
    code, doc = _main_out(capsys, ["count", "--target", "nilcone", "--m", "1",
                                   "--shards", "4", "--threads", "2",
                                   "--checkpoint", str(tmp_path / "ck")])
    assert code == 0
    assert doc["outputs"]["count"] == single["outputs"]["count"] == "20"
    monkeypatch.setenv("JETFORGE_THREADS", "bogus")
    code, doc = _main_out(capsys, ["count", "--target", "nilcone", "--m", "1", "--shards", "4"])
    assert code == 0
    assert doc["outputs"]["count"] == "20"


def test_count_reports_engine(capsys):
    for m, engine in (("1", "lift"), ("0", "lift")):
        code, doc = _main_out(capsys, ["count", "--n", "3", "--target", "nilcone", "--m", m])
        assert code == 0
        assert doc["outputs"]["engine"] == engine


def test_density_reports_engine(capsys, tmp_path):
    # the table's engine is reported beside the summary, which --out writes without it
    for n, M, engine in (("2", "2", "n2-product"), ("3", "1", "lift"), ("3", "2", "lift")):
        out = tmp_path / f"summary-{n}-{M}.json"
        code, doc = _main_out(capsys, ["density", "--n", n, "--M", M, "--out", str(out)])
        assert code == 0
        assert doc["outputs"]["engine"] == engine
        assert json.loads(out.read_text()) == {k: v for k, v in doc["outputs"].items() if k != "engine"}


def test_n2_fiber_count_past_matrix_guard(capsys):
    # 2^32 matrices over F_4[t]/(t^4) exceed the sweep guard; lifting runs 2^16 bases B
    code, doc = _main_out(capsys, ["count", "--n", "2", "--ell", "2", "--k", "2", "--m", "3",
                                   "--target", "fiber", "--x", "0;0;0;0|0;0;0;0"])
    assert code == 0
    ctx = trunc_make(field_make(2, 2), 3)
    x = counting._encode_key(ctx, (ctx.zero, ctx.zero))
    assert doc["outputs"]["count"] == str(counting._fiber_counts(2, ctx)[x])


def test_nilcone_shards_build_bases_once(capsys):
    # one build, read by the guard of all shards, by each of the 4 shards and by
    # the one lift page of the 2^6 bases
    counting._fiber_bases.cache_clear()
    counting._lift_page.cache_clear()
    code, doc = _main_out(capsys, ["count", "--n", "3", "--target", "nilcone", "--m", "1",
                                   "--shards", "4"])
    assert code == 0
    assert doc["outputs"]["count"] == "5632"
    info = counting._fiber_bases.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert not counting._fiber_bases(3, field_make(2), 0).flags.writeable


def test_fiber_shards_build_bases_once(capsys):
    # the bases over x mod t = (1, 0, 1), code 1 * 4 + 0 * 2 + 1; read as above
    counting._fiber_bases.cache_clear()
    counting._lift_page.cache_clear()
    code, doc = _main_out(capsys, ["count", "--n", "3", "--target", "fiber", "--m", "1",
                                   "--x", "1;0|0;1|1;1", "--shards", "4"])
    assert code == 0
    assert doc["outputs"]["count"] == "1536"
    info = counting._fiber_bases.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert not counting._fiber_bases(3, field_make(2), 5).flags.writeable


@pytest.mark.parametrize("shards", [["--shards", "4"], ["--shards", "1", "--shard-id", "0"]])
def test_shards_in_one_process_guarded(capsys, monkeypatch, shards):
    # 2^9 matrices of the m = 0 fiber past a guard of 2^8: all shards in this process, or
    # one shard of them all, exit 2 before sweeping; a shard of 2^7 runs
    monkeypatch.setattr(counting, "SWEEP_GUARD", 2 ** 8)
    argv = ["count", "--n", "3", "--target", "fiber", "--m", "0", "--x", "0|0|0"]
    code = main(argv + shards)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and "--shard-id" in captured.err
    code, doc = _main_out(capsys, argv + ["--shards", "4", "--shard-id", "1"])
    assert code == 0


def test_gi_shards_build_table_once(capsys):
    counting._fiber_counts.cache_clear()
    code, doc = _main_out(capsys, ["count", "--ell", "3", "--target", "gi", "--m", "0",
                                   "--i", "2", "--shards", "4"])
    assert code == 0
    assert doc["outputs"]["count"] == "783"
    info = counting._fiber_counts.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert not counting._fiber_counts(2, trunc_make(field_make(3), 0)).flags.writeable


@pytest.mark.parametrize("shards", [[], ["--shards", "2"]])
def test_count_out_byte_reproducible(capsys, tmp_path, shards):
    # an m = 0 sweep of 3^9 matrices; an m = 1 nilcone count by lifting can finish within 1 ms.
    # The pages of the sweep are dropped before each run, so that each run sweeps them.
    argv = ["count", "--n", "3", "--ell", "3", "--target", "fiber", "--m", "0", "--x", "0|0|0"] + shards
    outs = []
    for run_id in range(2):
        counting._charpoly_page.cache_clear()
        out = tmp_path / f"rec{run_id}.jsonl"
        code, doc = _main_out(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert doc["wall_ms"] >= 1  # long enough for a wall-time field to differ
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_checkpoint_write_failure_exit_2(capsys, tmp_path):
    code = main(["count", "--target", "nilcone", "--m", "1", "--shards", "2",
                 "--checkpoint", str(tmp_path / "missing" / "ck")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write")


def test_failed_write_leaves_no_temp_file(capsys, tmp_path):
    # the temp file is written, but renaming it over a directory fails
    out = tmp_path / "out"
    out.mkdir()
    code = main(["count", "--n", "2", "--ell", "2", "--m", "0", "--target", "nilcone", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(out.iterdir()) == []


def test_failed_fsync_keeps_old_content(tmp_path, monkeypatch):
    path = tmp_path / "ck"
    path.write_text("old\n")

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(IoError, match="disk full"):
        atomic_write_text(str(path), "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_checkpoint_directory_exit_2(capsys, tmp_path):
    code = main(["count", "--target", "nilcone", "--m", "1", "--shards", "3", "--shard-id", "2",
                 "--checkpoint", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("error: cannot read")


@pytest.mark.parametrize("argv", [
    ["subreg", "--n", "3", "--M", "1", "--samples", "5"],
    ["insep-probe", "--limit", "1"],
    ["val-int", "--poly", "0,1", "--M", "1"],
])
def test_reports_name_k(capsys, argv):
    for k in (1, 2):
        code, doc = _main_out(capsys, argv + ["--k", str(k)])
        assert code == 0
        assert doc["inputs"]["k"] == k


def test_count_emit_and_fit_dim(capsys, tmp_path):
    recs = [run_query(CountQuery(n=2, ell=2, k=k, m=0, kind="nilcone"))
            for k in (1, 2, 3)]
    path = tmp_path / "recs.jsonl"
    emit(recs, "json", str(path))
    assert [r.count for r in load_jsonl(str(path))] == [4, 16, 64]
    code, doc = _main_out(capsys, ["fit-dim", "--in", str(path)])
    assert code == 0
    assert doc["outputs"]["slopes"]["0"] == 2.0


def test_density_cmd(capsys, tmp_path):
    out = tmp_path / "prof.csv"
    code, doc = _main_out(capsys, ["density", "--M", "1", "--format", "csv",
                                   "--out", str(out)])
    assert code == 0
    assert doc["verdicts"]["mass_is_one"]
    assert out.exists()
    # byte-stable rerun
    first = out.read_bytes()
    main(["density", "--M", "1", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == first


def test_density_csv_matches_row_oracle(capsys, tmp_path):
    # the benchmark's density export; its own check reads only the column sum
    out = tmp_path / "prof.csv"
    code, _ = _main_out(capsys, ["density", "--n", "2", "--ell", "3", "--M", "4", "--format", "csv",
                                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == profile_csv_oracle(measure.density_profile(2, field_make(3), 4))


@pytest.mark.parametrize("argv", [
    ["density", "--n", "2", "--ell", "2", "--k", "2", "--M", "2", "--format", "csv"],
    ["count", "--n", "3", "--target", "nilcone", "--m", "1", "--format", "csv"],
])
def test_exports_byte_identical_across_runs(capsys, tmp_path, argv):
    # count --format json is test_count_out_byte_reproducible
    outs = []
    for run_id in range(2):
        out = tmp_path / f"run{run_id}.csv"
        code, doc = _main_out(capsys, argv + ["--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and outs[0]


def test_anfrs_cmd(capsys):
    code, doc = _main_out(capsys, ["anfrs", "--a", "1"])
    assert code == 0
    assert "5/4" in doc["outputs"]["ratio"]


def test_slice_audit_cmd(capsys):
    code, doc = _main_out(capsys, ["slice-audit", "--n", "3", "--partition", "2,1",
                                   "--kind", "M"])
    assert code == 0
    assert all(doc["verdicts"].values())
    assert doc["outputs"]["total"] == 7  # drops one weight-1 line, gains the center


def test_slice_audit_partition_mismatch(capsys):
    code, _ = _main_out(capsys, ["slice-audit", "--n", "2", "--partition", "2,1"])
    assert code == 2


def test_subreg_cmd(capsys):
    code, doc = _main_out(capsys, ["subreg", "--n", "3", "--M", "2"])
    assert code == 0
    assert doc["outputs"]["mass"] == "1"
    assert doc["verdicts"]["dual_path_equal"]


def test_insep_probe_cmd(capsys):
    code, doc = _main_out(capsys, ["insep-probe"])
    assert code == 0
    assert doc["verdicts"] == {}  # exploratory: no verdicts attached
    assert [p["density"] for p in doc["outputs"]["trace"]] == ["1", "3/4", "3/4"]


def test_hist_mult_cmd(capsys):
    code, doc = _main_out(capsys, ["hist-mult", "--ell", "3", "--M", "2"])
    assert code == 0
    assert doc["verdicts"]["masses_sum_to_one"]
    assert doc["outputs"]["buckets"]["0"] == "4/9"


def test_hist_mult_checks_bucket_M(capsys, monkeypatch):
    # the verdicts cover every bucket r <= M, so a closed form wrong only at r = M fails
    real = subreg.closed_form_bucket
    monkeypatch.setattr(subreg, "closed_form_bucket",
                        lambda field, r: real(field, r) + (r == 2))
    code, doc = _main_out(capsys, ["hist-mult", "--ell", "3", "--M", "2"])
    assert code == 1
    assert not doc["verdicts"]["bucket_2"] and doc["verdicts"]["bucket_1"]


def test_val_int_cmd(capsys):
    code, doc = _main_out(capsys, ["val-int", "--poly", "0,1", "--M", "2"])
    assert code == 0
    assert "7/8" in doc["outputs"]["integral"]


def test_every_subcommand_reports_wall_ms(capsys, monkeypatch):
    # cli.run times the handler: a clock stepping 0.5 s per reading gives 500 ms
    clock = iter(range(10 ** 6))
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock) * 0.5)
    code, doc = _main_out(capsys, ["val-int", "--poly", "0,1", "--M", "2"])
    assert code == 0
    assert doc["wall_ms"] == 500


def test_bad_config_exit_2(capsys):
    code = main(["count", "--target", "gi", "--m", "0"])  # gi without --i
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["count", "--target", "fiber", "--m", "0", "--x", "a|b"],
    ["val-int", "--poly", "1,x"],
    ["slice-audit", "--n", "3", "--partition", "2,a"],
    ["slice-audit", "--n", "3", "--partition", ","],
    ["count", "--target", "fiber", "--m", "0", "--x", "0;1|0"],
    ["count", "--target", "fiber", "--m", "0", "--x", "2|0"],
    ["val-int", "--poly", "0"],
    ["val-int", "--poly", "0,0"],
    ["val-int", "--poly", "3,1"],
    ["val-int", "--poly", "1,-1"],
])
def test_malformed_number_exit_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["count", "--target", "nilcone", "--m", "1", "--shards", "-2"],
    ["count", "--target", "nilcone", "--m", "1", "--shards", "0"],
    ["count", "--target", "nilcone", "--m", "1", "--i", "3"],
    ["count", "--target", "gi", "--m", "0", "--i", "2", "--x", "0|0"],
    ["count", "--target", "fiber", "--m", "0", "--x", "0|0", "--i", "2"],
])
def test_bad_count_option_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["density", "--n", "0", "--M", "1"],
    ["density", "--n", "-1", "--M", "1"],
    ["anfrs", "--n", "0", "--a", "1"],
    ["anfrs", "--n", "-1", "--a", "0"],
    ["slice-audit", "--n", "4", "--ell", "3", "--partition", "1,1,1,1", "--samples", "0"],
    ["slice-audit", "--n", "4", "--ell", "3", "--partition", "1,1,1,1", "--samples", "-3"],
    ["slice-audit", "--n", "2", "--partition", "1,1", "--samples", "0"],
    ["subreg", "--n", "3", "--samples", "0"],
    ["subreg", "--n", "3", "--ell", "5", "--M", "1", "--samples", "-3"],
    ["insep-probe", "--limit", "0"],
    ["insep-probe", "--limit", "-2"],
    ["density", "--k", "0", "--M", "1"],
    ["hist-mult", "--M", "-1"],
    ["val-int", "--M", "-1", "--poly", "1,1"],
])
def test_bad_size_or_samples_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("config error:")


def test_fit_dim_mixed_targets_exit_2(capsys, tmp_path):
    recs = [run_query(CountQuery(n=2, ell=2, k=k, m=0, kind="gi", i=i)) for i in (2, 3) for k in (1, 2)]
    path = tmp_path / "recs.jsonl"
    emit(recs, "json", str(path))
    code = main(["fit-dim", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("config error:")


@pytest.mark.parametrize("shards,guard", [([], "sweep guard 2^30"), (["--shards", "4", "--shard-id", "0"],
                                                                    "per-shard-set guard 2^40")])
def test_count_n1_past_int64_hits_size_guard(capsys, shards, guard):
    # R_31 over F_251 has 256-bit indices; the guards read the 251^15 jets the lift would run
    x = ";".join(["3"] * 32)
    code = main(["count", "--n", "1", "--ell", "251", "--m", "31", "--target", "fiber", "--x", x] + shards)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and f"exceeds the {guard}" in captured.err


@pytest.mark.parametrize("argv,count", [
    (["count", "--n", "2", "--ell", "37", "--m", "1", "--target", "nilcone"], "1923445"),
    (["count", "--n", "2", "--ell", "37", "--m", "1", "--target", "fiber", "--x", "1;5|3;7"], "1924814"),
    (["count", "--n", "1", "--ell", "2", "--m", "31", "--target", "nilcone"], "1"),
], ids=["nilcone-n2-q37", "fiber-n2-q37", "nilcone-n1-m31"])
def test_count_past_table_limit(capsys, argv, count):
    # rings of 1369 and 2^32 elements have no dense tables; the lift runs on the packed ring ops
    code, doc = _main_out(capsys, argv)
    assert code == 0 and doc["outputs"] == {"count": count, "engine": "lift"}


def test_m0_fiber_over_prime_field_builds_no_tables(capsys):
    # charpoly_batch alone picks the arithmetic: over F_3 it runs on int64 residues, no tables
    before = ring_ops.cache_info()
    code, doc = _main_out(capsys, ["count", "--n", "3", "--ell", "3", "--m", "0", "--target", "fiber",
                                   "--x", "1|2|0"])
    assert code == 0 and int(doc["outputs"]["count"]) > 0
    assert ring_ops.cache_info() == before


@pytest.mark.parametrize("argv", [
    ["count", "--n", "1", "--ell", "2", "--m", "30", "--target", "gi", "--i", "2"],
    ["count", "--n", "1", "--ell", "2", "--m", "29", "--target", "gi", "--i", "1"],
    ["density", "--n", "1", "--ell", "2", "--M", "30"],
    ["anfrs", "--n", "1", "--ell", "2", "--a", "30"],
    ["count", "--n", "1", "--ell", "3", "--m", "17", "--target", "gi", "--i", "1"],
], ids=["gi-2-30", "gi-2-29", "density-2-30", "anfrs-2-30", "gi-3-17"])
def test_count_n1_table_hits_its_guard(capsys, argv):
    # each n = 1 table would hold P = 2^30 or more codes, 8 GiB of int64; the table guard
    # stops it before the lift allocates
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and peak < 1 << 26
    assert len(captured.err.strip().splitlines()) == 1 and "exceed the table guard 2^20" in captured.err


@pytest.mark.parametrize("argv", [
    ["density", "--n", "40", "--ell", "2", "--M", "1"],
    ["count", "--n", "1", "--ell", "251", "--m", "31", "--target", "fiber", "--x", ";".join(["3"] * 32),
     "--shards", "4", "--shard-id", "0"],
])
def test_huge_size_guard_message_is_short(capsys, argv):
    # 2^1600 lifting bases, a 2^120 shard set: the sizes are printed as powers of 2, not in full
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and len(captured.err) < 200
    assert "about 2^" in captured.err


def test_fit_dim_unknown_record_key_exit_2(capsys, tmp_path):
    rec = json.loads(run_query(CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")).to_json())
    rec["bogus"] = 1
    path = tmp_path / "recs.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code = main(["fit-dim", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")


@pytest.mark.parametrize("change", [
    {"count": 4.7}, {"count": True}, {"count": "-4"}, {"count": "4.0"}, {"n": "2"}, {"ell": True},
    {"k": 1.0}, {"m": None}, {"shards": "1"}, {"shard_id": "0"}, {"shard_id": False},
    {"target": "nilcone"}, {"target": {}}, {"target": {"kind": "gi"}},
], ids=["count-float", "count-bool", "count-negative", "count-decimal-point", "n-str", "ell-bool",
        "k-float", "m-null", "shards-str", "shard_id-str", "shard_id-bool", "target-str",
        "target-no-kind", "target-gi-no-i"])
def test_fit_dim_malformed_record_exit_2(capsys, tmp_path, change):
    rec = json.loads(run_query(CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")).to_json())
    path = tmp_path / "recs.jsonl"
    path.write_text(json.dumps(rec | change) + "\n")
    code = main(["fit-dim", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("config error:")


def test_fit_dim_binary_input_exit_2(capsys, tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\xff\xfe\n")
    code = main(["fit-dim", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and captured.err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["slice-audit", "--n", "3", "--ell", "37", "--partition", "2,1", "--kind", "M"],
    ["subreg", "--n", "3", "--ell", "13", "--M", "1"],
], ids=["slice-audit-q37", "subreg-q13"])
def test_sampled_audits_past_table_limit(capsys, argv):
    # both sample R_1 points: of F_37, 1369 > RING_TABLE_LIMIT elements on the packed ring ops,
    # and of F_13, 169 elements on its dense tables
    code, doc = _main_out(capsys, argv)
    assert code == 0
    assert doc["verdicts"] and all(doc["verdicts"].values())


@pytest.mark.parametrize("argv", [
    ["count", "--target", "nilcone", "--m", "0", "--seed", "1"],
    ["count", "--target", "nilcone", "--m", "0", "--samples", "5"],
    ["fit-dim", "--in", "r.jsonl", "--n", "3"],
    ["fit-dim", "--in", "r.jsonl", "--format", "csv"],
    ["density", "--M", "1", "--threads", "2"],
    ["density", "--M", "1", "--seed", "1"],
    ["anfrs", "--a", "1", "--out", "f"],
    ["anfrs", "--a", "1", "--format", "csv"],
    ["slice-audit", "--partition", "2", "--format", "csv", "--out", "s.csv"],
    ["slice-audit", "--partition", "2", "--threads", "2"],
    ["subreg", "--n", "3", "--out", "f"],
    ["insep-probe", "--n", "2"],
    ["insep-probe", "--samples", "5"],
    ["hist-mult", "--out", "f"],
    ["hist-mult", "--n", "2"],
    ["val-int", "--poly", "0,1", "--n", "2"],
    ["val-int", "--poly", "0,1", "--seed", "1"],
    ["anfrs", "--a", "1", "--level", "3"],
    ["count", "--target", "nilcone", "--m", "0", "--format", "csv"],
    ["density", "--M", "1", "--format", "csv"],
])
def test_unread_option_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "--target", "nilcone"], ["count", "--m", "0"], ["fit-dim"], ["density"],
    ["anfrs"], ["slice-audit"], ["val-int"],
])
def test_missing_required_option_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["enum-scalar", "shard-checkpoint", "small-ring", "tiny"])
def test_bench_job_argvs_parse(capsys, tmp_path, monkeypatch, part):
    # every job of the benchmark runs at seed 0 and passes the benchmark's own gate
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    expected = workloads.load_expected()
    for job in workloads.build_part(part, 0, str(tmp_path)):
        job.part = part
        if job.is_resume:  # a count, then a resume from its checkpoint, as the benchmark runs them
            p = job.params
            query = CountQuery(p["n"], p["ell"], 1, p["m"], "fiber", x=tuple((c,) for c in p["x"]))
            first, second = (count_sharded(query, p["shards"], p["shard_id"], p["checkpoint"],
                                           chunk=p["chunk"]).count for _ in range(2))
            with open(p["checkpoint"], "rb") as fh:
                result = {"first": first, "second": second, "journal_lines": fh.read().count(b"\n")}
        else:
            result = {"rc": main(job.argv), "stdout": capsys.readouterr().out}
        assert workloads.check(job, result, 0, expected) == [], job.id


def test_build_parser_is_cached():
    assert build_parser() is build_parser()


def _outcome(capsys, argv, out):
    """Exit code, report without wall_ms, stderr, --out bytes and the namespace that
    cli.build_parser() gives for argv after the call (or its exit code)."""
    out.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    try:
        parsed = vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    cap = capsys.readouterr()
    doc = json.loads(cap.out) if cap.out.strip() else None
    if doc:
        doc.pop("wall_ms")
    return code, doc, cap.err, out.read_bytes() if out.exists() else None, parsed


def test_cached_parser_matches_fresh_parser(capsys, tmp_path, monkeypatch):
    # one parser serves every main call in a process: no option of one call reaches the next
    out = tmp_path / "f.csv"
    calls = [
        ["count", "--target", "nilcone", "--m", "1", "--shards", "4", "--threads", "2"],
        ["count", "--target", "nilcone", "--m", "1"],
        ["density", "--M", "1", "--format", "csv", "--out", str(out)],
        ["density", "--M", "1", "--format", "csv"],
        ["count", "--target", "nilcone", "--m", "1", "--bogus"],
    ]
    cached = [_outcome(capsys, argv, out) for argv in calls]
    assert [c[0] for c in cached] == [0, 0, 0, 2, 2]
    assert cached[1][4]["shards"] == 1 and cached[2][3]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert [_outcome(capsys, argv, out) for argv in calls] == cached


def test_python_m_chevalab(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run_module(*args):
        return subprocess.run([sys.executable, "-m", "chevalab", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run_module("count", "--target", "nilcone", "--m", "0")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["outputs"]["count"] == "4"
    bad = run_module("count", "--target", "nilcone", "--m", "0", "--bogus")
    assert bad.returncode == 2
    assert "unrecognized arguments: --bogus" in bad.stderr
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize("argv", [
    ["density", "--M", "0"],
    ["subreg", "--n", "3", "--M", "0"],
    ["count", "--target", "nilcone", "--m", "1", "--checkpoint", "ck"],
    ["count", "--target", "nilcone", "--m", "1", "--shards", "1", "--checkpoint", "ck"],
])
def test_explicit_input_not_replaced_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "ck").exists()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_failed_verdict_exit_1(capsys, monkeypatch):
    # a false verdict still prints the whole report, and the exit code is 1
    monkeypatch.setattr(subreg, "m1_identity_check", lambda *args: False)
    code, doc = _main_out(capsys, ["subreg", "--n", "3", "--M", "1", "--samples", "5"])
    assert code == 1
    assert doc["verdicts"] == {"mass_is_one": True, "dual_path_equal": True, "sup_bounded": True,
                               "m1_identity": False}
    assert doc["outputs"]["mass"] == "1"


def test_slice_audit_wrong_closed_form_exit_1(capsys, monkeypatch):
    # exponent_sum raises on a wrong closed form: a false verdict with the report, not a config error
    formula = slices.exponent_sum_formula
    monkeypatch.setattr(slices, "exponent_sum_formula", lambda p: formula(p) + 1)
    code, doc = _main_out(capsys, ["slice-audit", "--n", "3", "--ell", "2", "--partition", "2,1"])
    assert code == 1
    assert doc["verdicts"]["exponent_sum_formula"] is False
    assert doc["verdicts"]["transversality"] and doc["outputs"]["total"] == 7


class _Declared:
    """A parsed namespace that fails on any name its subparser does not declare,
    also through getattr(ns, name, default)."""

    def __init__(self, args):
        self._names = vars(args)

    def __getattr__(self, name):
        if name not in self._names:
            raise LookupError(f"undeclared option {name!r} read")
        return self._names[name]


def test_handlers_read_only_declared_options(tmp_path):
    recs = tmp_path / "recs.jsonl"
    emit([run_query(CountQuery(n=2, ell=2, k=k, m=0, kind="nilcone")) for k in (1, 2)], "json", str(recs))
    out = str(tmp_path / "out")
    argvs = [
        ["count", "--target", "fiber", "--m", "1", "--x", "0|0", "--shards", "2", "--threads", "2",
         "--checkpoint", str(tmp_path / "ck"), "--out", out, "--format", "csv"],
        ["count", "--target", "gi", "--m", "0", "--i", "2", "--shards", "2", "--shard-id", "1"],
        ["fit-dim", "--in", str(recs), "--out", out],
        ["density", "--M", "1", "--out", out, "--format", "csv"],
        ["anfrs", "--a", "1"],
        ["slice-audit", "--n", "3", "--partition", "2,1", "--kind", "M", "--samples", "5", "--out", out],
        ["subreg", "--n", "3", "--M", "1", "--samples", "5"],
        ["insep-probe", "--limit", "1", "--out", out],
        ["hist-mult", "--M", "1"],
        ["val-int", "--poly", "0,1", "--M", "1"],
    ]
    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "subcommand")
    assert {argv[0] for argv in argvs} == set(subcommands)
    for argv in argvs:
        assert run(_Declared(build_parser().parse_args(argv))).passed(), argv


def test_report_passed_semantics():
    assert Report("x", "Thm A", {}, {}).passed()
    assert Report("x", "Thm A", {}, {}, {"a": True, "b": True}).passed()
    assert not Report("x", "Thm A", {}, {}, {"a": True, "b": False}).passed()
