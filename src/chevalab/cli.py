"""Command-line driver.

Exit codes: 0 on success/pass, 1 on any audit failure, 2 on config errors.
``count --shards S`` runs the S shards one after another and adds their
subtotals; to run shards in parallel, start one process per ``--shard-id``
and add the subtotals they print.  ``count --threads`` is accepted only because
the benchmark's job argvs pass it; it selects nothing.

Each subparser declares its options and names the handler that reads them.
The parser is built once per process, on the first ``main`` call
(``build_parser`` is memoised), not at import; ``main`` only parses with it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import measure, slices, subreg
from .counting import (CountQuery, _whole_count, combine_records, count_engine, count_sharded,
                       fit_dimension, run_query)
from .errors import BadConfig, ChevalabError, TheoremCheckFailed
from .field import field_make, trunc_make
from .reporting import Report, atomic_write_text, emit, load_jsonl


def _parse_ints(text: str, sep: str, flag: str) -> List[int]:
    try:
        return [int(c) for c in text.split(sep)]
    except ValueError as exc:
        raise BadConfig(f"{flag} {text!r}: expected integers separated by {sep!r}") from exc


def _parse_coeffs(text: str, ctx) -> tuple:
    # "0;1|1;0" -> one series per c_i, coefficients of t^j separated by ';'
    parts = [_parse_ints(part, ";", "--x") for part in text.split("|")]
    if any(len(cs) > ctx.m + 1 or not all(0 <= c < ctx.field.q for c in cs) for cs in parts):
        raise BadConfig(f"--x {text!r}: each c_i takes at most m+1 = {ctx.m + 1} "
                        f"coefficients in [0, {ctx.field.q})")
    return tuple(ctx.make(cs) for cs in parts)


def _frac_str(f: Fraction) -> str:
    return f"{float(f)} (={f.numerator}/{f.denominator})"


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _run_count(cfg: argparse.Namespace) -> Report:
    if cfg.shards < 1:
        raise BadConfig(f"--shards {cfg.shards}: need at least 1 shard")
    ctx = trunc_make(field_make(cfg.ell, cfg.k), cfg.m)
    x = _parse_coeffs(cfg.x, ctx) if cfg.x else None
    query = CountQuery(cfg.n, cfg.ell, cfg.k, cfg.m, cfg.target, x=x, i=cfg.i)
    if cfg.checkpoint and cfg.shards <= 1 and cfg.shard_id is None:
        raise BadConfig("--checkpoint needs --shards > 1 or --shard-id")
    if cfg.shard_id is not None:
        record = count_sharded(query, cfg.shards, cfg.shard_id, cfg.checkpoint)
    elif cfg.shards > 1:
        _whole_count(cfg.n, ctx, cfg.target, x, cfg.i)  # all shards run here: guard their union
        record = combine_records([count_sharded(query, cfg.shards, j, cfg.checkpoint and f"{cfg.checkpoint}.{j}")
                                  for j in range(cfg.shards)])
    else:
        record = run_query(query)
    if cfg.out:
        emit([record], cfg.fmt or "json", cfg.out)
    anchors = {"nilcone": "Thm A", "fiber": "Thm B", "gi": "Thm C"}
    return Report("count", anchors[cfg.target],
                  inputs=query.target_dict() | {"n": cfg.n, "ell": cfg.ell, "k": cfg.k, "m": cfg.m},
                  outputs={"count": str(record.count),
                           "engine": count_engine(cfg.n, cfg.target)})


def _run_fit_dim(cfg: argparse.Namespace) -> Report:
    records = load_jsonl(cfg.inputs)
    fit = fit_dimension(records)
    outputs = {"entries": fit.entries, "slopes": {str(m): float(s) for m, s in fit.slopes.items()}}
    if cfg.out:
        atomic_write_text(cfg.out, json.dumps(outputs, sort_keys=True) + "\n")
    return Report("fit-dim", "Thm A", {"records": len(records)}, outputs)


def _run_density(cfg: argparse.Namespace) -> Report:
    field = field_make(cfg.ell, cfg.k)
    profile = measure.density_profile(cfg.n, field, cfg.level)
    summary = measure.profile_summary(profile)
    if cfg.out:
        if cfg.fmt == "csv":
            measure.profile_to_csv(profile, cfg.out)
        else:
            measure.summary_to_json(summary, cfg.out)
    verdict = {"mass_is_one": profile.mass() == 1}
    return Report("density", "Thm E", {"n": cfg.n, "ell": cfg.ell, "k": cfg.k, "M": cfg.level},
                  summary | {"engine": count_engine(cfg.n, "gi")}, verdict)


def _run_anfrs(cfg: argparse.Namespace) -> Report:
    field = field_make(cfg.ell, cfg.k)
    ratio = measure.anfrs_ratio(cfg.n, field, cfg.a)
    return Report("anfrs", "Thm 6.3",
                  {"n": cfg.n, "ell": cfg.ell, "k": cfg.k, "a": cfg.a},
                  {"ratio": _frac_str(ratio)})


def _run_slice_audit(cfg: argparse.Namespace) -> Report:
    partition = slices.Partition.parse(cfg.partition)
    if partition.n != cfg.n:
        raise BadConfig(f"partition sums to {partition.n}, not n={cfg.n}")
    field = field_make(cfg.ell, cfg.k)
    rep = slices.weight_report(partition, cfg.kind)
    try:
        sum_ok = slices.exponent_sum(partition, cfg.kind) == rep.total  # raises on a wrong closed form
    except TheoremCheckFailed:
        sum_ok = False
    verdicts = {
        "transversality": slices.audit_transversality(partition, field),
        "equivariance": slices.audit_equivariance(partition, cfg.kind, field,
                                                  cfg.samples, cfg.seed),
        "positivity": rep.all_positive,
        "exponent_sum_formula": sum_ok,
    }
    if cfg.kind == "M":
        verdicts["threshold"] = slices.subregular_threshold(partition)["threshold_ok"]
    outputs = rep.to_dict()
    if cfg.out:
        atomic_write_text(cfg.out, json.dumps(outputs, sort_keys=True) + "\n")
    return Report("slice-audit", "Lemma 6.5", {"partition": cfg.partition, "kind": cfg.kind,
                                               "ell": cfg.ell, "k": cfg.k},
                  outputs, verdicts)


def _run_subreg(cfg: argparse.Namespace) -> Report:
    field = field_make(cfg.ell, cfg.k)
    den = subreg.subreg_slice_density(cfg.n, field, cfg.level)
    bound = Fraction(cfg.n, cfg.ell) + 1
    verdicts = {
        "mass_is_one": den.mass() == 1,
        "dual_path_equal": den.dual_path_equal(),
        "sup_bounded": den.sup() <= bound,
        "m1_identity": subreg.m1_identity_check(cfg.n, field, cfg.samples, cfg.seed),
    }
    outputs = {"mass": str(den.mass()), "sup": _frac_str(den.sup()), "bound": str(bound)}
    return Report("subreg", "Thm E step 4", {"n": cfg.n, "ell": cfg.ell, "k": cfg.k, "M": cfg.level},
                  outputs, verdicts)


def _run_insep_probe(cfg: argparse.Namespace) -> Report:
    field = field_make(cfg.ell, cfg.k)
    trace = [{"M": p.M, "count": str(p.count), "density": str(p.density)}
             for p in measure.insep_probe(field, cfg.limit)]
    outputs = {"note": "exploratory trace, no pass/fail verdict", "trace": trace}
    if cfg.out:
        atomic_write_text(cfg.out, json.dumps(outputs, sort_keys=True) + "\n")
    return Report("insep-probe", "Conj 1.6", {"ell": cfg.ell, "k": cfg.k, "limit": cfg.limit}, outputs)


def _run_hist_mult(cfg: argparse.Namespace) -> Report:
    M = cfg.level
    field = field_make(cfg.ell, cfg.k)
    hist = subreg.mult_pushforward_hist(field, M)
    verdicts = {
        f"bucket_{r}": hist.buckets[r] == subreg.closed_form_bucket(field, r)
        for r in range(M + 1)
    }
    verdicts["masses_sum_to_one"] = hist.total() == 1
    outputs = {
        "buckets": {str(r): str(v) for r, v in hist.buckets.items()},
        "tail": str(hist.tail),
    }
    return Report("hist-mult", "Lemma 13.8", {"ell": cfg.ell, "k": cfg.k, "M": M},
                  outputs, verdicts)


def _run_val_int(cfg: argparse.Namespace) -> Report:
    M = cfg.level
    field = field_make(cfg.ell, cfg.k)
    coeffs = [(c,) for c in _parse_ints(cfg.poly, ",", "--poly")]  # val_integral pads them to R_M
    if not all(0 <= c < field.q for (c,) in coeffs) or not any(c for (c,) in coeffs):
        raise BadConfig(f"--poly {cfg.poly!r}: need coefficients in [0, {field.q}), not all 0")
    value = subreg.val_integral(coeffs, field, M)
    deg = len(coeffs) - 1
    bound = subreg.val_integral_bound(deg, field, M)
    verdicts = {"bounded": value <= bound}
    return Report("val-int", "Lemma 13.6",
                  {"poly": cfg.poly, "ell": cfg.ell, "k": cfg.k, "M": M},
                  {"integral": _frac_str(value), "bound": str(bound)}, verdicts)


def run(args: argparse.Namespace) -> Report:
    t0 = time.monotonic()
    report = args.handler(args)
    report.wall_ms = int((time.monotonic() - t0) * 1000)
    return report


# options shared by several subcommands; each subcommand names the ones its
# handler reads, so any other option exits 2 through argparse
_SHARED = {
    "--n": dict(type=int, default=2),
    "--ell": dict(type=int, default=2),
    "--k": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=1000),
    "--out": dict(default=None),
    "--format": dict(dest="fmt", choices=["json", "csv"], default=None,
                     help="format of the --out file (default json)"),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chevalab",
        description="Exact jet counts and pushforward densities of the "
                    "characteristic-polynomial map over truncated local rings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, text: str, shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for flag in shared.split():
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = add("count", _run_count, "exact jet-scheme point counts", "--n --ell --k --out --format")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--target", choices=["nilcone", "fiber", "gi"], required=True)
    p.add_argument("--x", help="fiber coefficients, e.g. '0;1|1;0'")
    p.add_argument("--i", type=int, help="power for the gi target")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard-id", type=int, dest="shard_id", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--threads", type=int, default=0,
                   help="ignored; run one process per --shard-id to use more cores")

    p = add("fit-dim", _run_fit_dim, "Lang-Weil dimension fit from saved records", "--out")
    p.add_argument("--in", dest="inputs", required=True)

    p = add("density", _run_density, "pushforward density profile at resolution M",
            "--n --ell --k --out --format")
    p.add_argument("--M", type=int, dest="level", required=True)

    p = add("anfrs", _run_anfrs, "shrinking-ellipsoid density ratio", "--n --ell --k")
    p.add_argument("--a", type=int, required=True)

    p = add("slice-audit", _run_slice_audit, "slice weight table and audits",
            "--n --ell --k --seed --samples --out")
    p.add_argument("--partition", required=True)
    p.add_argument("--kind", choices=["L", "M"], default="L")

    p = add("subreg", _run_subreg, "subregular slice density, dual-path checked",
            "--n --ell --k --seed --samples")
    p.add_argument("--M", type=int, dest="level", default=2)

    p = add("insep-probe", _run_insep_probe, "char-2 inseparable-locus density trace", "--ell --k --out")
    p.add_argument("--limit", type=int, default=3)

    p = add("hist-mult", _run_hist_mult, "valuation histogram of a product of Haar variables", "--ell --k")
    p.add_argument("--M", type=int, dest="level", default=3)

    p = add("val-int", _run_val_int, "truncated valuation integral of a polynomial", "--ell --k")
    p.add_argument("--M", type=int, dest="level", default=2)
    p.add_argument("--poly", required=True,
                   help="comma-separated field coefficients, low degree first")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fmt", None) and args.out is None:
        parser.error("unrecognized arguments: --format is read only with --out")
    try:
        report = run(args)
    except BadConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChevalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
