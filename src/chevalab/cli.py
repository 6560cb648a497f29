"""Command-line driver.

Exit codes: 0 on success/pass, 1 on any audit failure, 2 on config errors.
``count --shards S`` runs the S shards one after another and adds their
subtotals; to run shards in parallel, start one process per ``--shard-id``
and add the subtotals they print.  ``count --threads`` is accepted only because
the benchmark's job argvs pass it; it selects nothing.

``count`` and ``density`` report the engine that ran (``counting.count_engine``):
``jordan`` for nilcone counts at n >= 2 and m in {1, 2}, ``n2-product`` for
the n = 2 fiber table behind gi counts and densities, ``lift`` for the rest.

Each subcommand declares its options and names the handler that reads them
(``_SUBCOMMANDS``).  ``main`` builds only the parser of the subcommand its
argv names (``_subcommand_parser``), and the full parser (``build_parser``)
only for a missing or unknown subcommand, the top-level -h, or to report
an argument no parser reads.  Each is built once per process (both are
memoised), not at import.
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
from .errors import BadConfig, ChevalabError
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
                           "engine": count_engine(cfg.n, cfg.target, cfg.m)})


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
                  summary | {"engine": count_engine(cfg.n, "gi", cfg.level - 1)}, verdict)


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
    transversal = slices.audit_transversality(partition, field)  # its size guard runs first
    rep = slices.weight_report(partition, cfg.kind)
    verdicts = {
        "transversality": transversal,
        "equivariance": slices.audit_equivariance(partition, cfg.kind, field,
                                                  cfg.samples, cfg.seed),
        "positivity": rep.all_positive,
        "exponent_sum_formula": rep.total == rep.formula_total,
    }
    if cfg.kind == "M":
        verdicts["threshold"] = rep.exceeds == rep.expected_exceeds
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


# name: (handler, help, the _SHARED options its handler reads, its own options),
# in the order the full parser lists them
_SUBCOMMANDS = {
    "count": (_run_count, "exact jet-scheme point counts", "--n --ell --k --out --format", [
        ("--m", dict(type=int, required=True)),
        ("--target", dict(choices=["nilcone", "fiber", "gi"], required=True)),
        ("--x", dict(help="fiber coefficients, e.g. '0;1|1;0'")),
        ("--i", dict(type=int, help="power for the gi target")),
        ("--shards", dict(type=int, default=1)),
        ("--shard-id", dict(type=int, dest="shard_id", default=None)),
        ("--checkpoint", dict(default=None)),
        ("--threads", dict(type=int, default=0,
                           help="ignored; run one process per --shard-id to use more cores")),
    ]),
    "fit-dim": (_run_fit_dim, "Lang-Weil dimension fit from saved records", "--out", [
        ("--in", dict(dest="inputs", required=True)),
    ]),
    "density": (_run_density, "pushforward density profile at resolution M",
                "--n --ell --k --out --format", [
        ("--M", dict(type=int, dest="level", required=True)),
    ]),
    "anfrs": (_run_anfrs, "shrinking-ellipsoid density ratio", "--n --ell --k", [
        ("--a", dict(type=int, required=True)),
    ]),
    "slice-audit": (_run_slice_audit, "slice weight table and audits",
                    "--n --ell --k --seed --samples --out", [
        ("--partition", dict(required=True)),
        ("--kind", dict(choices=["L", "M"], default="L")),
    ]),
    "subreg": (_run_subreg, "subregular slice density, dual-path checked",
               "--n --ell --k --seed --samples", [
        ("--M", dict(type=int, dest="level", default=2)),
    ]),
    "insep-probe": (_run_insep_probe, "char-2 inseparable-locus density trace", "--ell --k --out", [
        ("--limit", dict(type=int, default=3)),
    ]),
    "hist-mult": (_run_hist_mult, "valuation histogram of a product of Haar variables", "--ell --k", [
        ("--M", dict(type=int, dest="level", default=3)),
    ]),
    "val-int": (_run_val_int, "truncated valuation integral of a polynomial", "--ell --k", [
        ("--M", dict(type=int, dest="level", default=2)),
        ("--poly", dict(required=True, help="comma-separated field coefficients, low degree first")),
    ]),
}


def _add_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    handler, _, shared, own = _SUBCOMMANDS[name]
    parser.set_defaults(subcommand=name, handler=handler)
    for flag in shared.split():
        parser.add_argument(flag, **_SHARED[flag])
    for flag, options in own:
        parser.add_argument(flag, **options)
    return parser


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="chevalab",
        description="Exact jet counts and pushforward densities of the "
                    "characteristic-polynomial map over truncated local rings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text, _, _) in _SUBCOMMANDS.items():
        _add_options(sub.add_parser(name, help=text), name)
    return parser


@functools.lru_cache(maxsize=len(_SUBCOMMANDS))
def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser that ``build_parser()`` hands the rest of ``name``'s argv
    to, built alone: the same prog, options and defaults."""
    return _add_options(argparse.ArgumentParser(prog=f"chevalab {name}"), name)


def parse_args(argv: List[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, the same namespace, messages and
    exit codes, building only the named subcommand's parser: it reads the
    rest of argv, and what it leaves unrecognized the full parser reports,
    under its own usage line."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    args, extra = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        build_parser().error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if getattr(args, "fmt", None) and args.out is None:
        build_parser().error("unrecognized arguments: --format is read only with --out")
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
