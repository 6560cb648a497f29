import json

import pytest

from chevalab.cli import RunConfig, build_parser, main, run
from chevalab.counting import CountQuery, run_query
from chevalab.errors import BadConfig
from chevalab.reporting import Report, emit, load_jsonl


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
    monkeypatch.setenv("JETFORGE_THREADS", "2")
    code, doc = _main_out(capsys, ["count", "--target", "nilcone", "--m", "1",
                                   "--shards", "4",
                                   "--checkpoint", str(tmp_path / "ck")])
    assert code == 0
    assert doc["outputs"]["count"] == "20"


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


def test_val_int_cmd(capsys):
    code, doc = _main_out(capsys, ["val-int", "--poly", "0,1", "--M", "2"])
    assert code == 0
    assert "7/8" in doc["outputs"]["integral"]


def test_bad_config_exit_2(capsys):
    code = main(["count", "--target", "gi", "--m", "0"])  # gi without --i
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["count", "--target", "fiber", "--m", "0", "--x", "a|b"],
    ["val-int", "--poly", "1,x"],
])
def test_malformed_number_exit_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")


def test_fit_dim_unknown_record_key_exit_2(capsys, tmp_path):
    rec = json.loads(run_query(CountQuery(n=2, ell=2, k=1, m=0, kind="nilcone")).to_json())
    rec["bogus"] = 1
    path = tmp_path / "recs.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code = main(["fit-dim", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error:")


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
    with pytest.raises(BadConfig):
        run(RunConfig(subcommand="frobnicate"))


def test_failed_verdict_exit_1(capsys):
    rep = Report("x", "Thm A", {}, {}, {"ok": False})
    assert not rep.passed()
    assert rep.to_dict()["verdicts"] == {"ok": False}


def test_report_passed_semantics():
    assert Report("x", "Thm A", {}, {}).passed()
    assert Report("x", "Thm A", {}, {}, {"a": True, "b": True}).passed()
    assert not Report("x", "Thm A", {}, {}, {"a": True, "b": False}).passed()
