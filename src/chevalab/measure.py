"""Pushforward of normalized Haar measure on Mat_n(O) under the
characteristic-polynomial map, at finite resolution.

All masses are exact rationals with power-of-q denominators; floats appear
only in human-readable report columns.  Two region types are kept distinct:
unweighted boxes x + t^M O^n (density profiles) and weighted ellipsoids
{val(c_i) >= a*i} (the shrinking-ellipsoid ratio).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .counting import FiberKey, _digits, _fiber_counts, count_jet_fiber, fiber_table
from .errors import LevelTooLow, TooLarge, WrongCharacteristic
from .field import FieldCtx, ring_val, trunc_make
from .reporting import atomic_write_text, emit_csv


@dataclass
class DensityProfile:
    n: int
    field: FieldCtx
    M: int  # resolution; boxes live in c(R_{M-1})
    counts: Dict[FiberKey, int]
    table: Dict[FiberKey, Fraction]  # f_M(x) = count(x) * q^{-M(n^2-n)}

    def mass(self) -> Fraction:
        q = self.field.q
        return sum(self.table.values(), Fraction(0)) / Fraction(q ** (self.M * self.n))


def density_profile(n: int, field: FieldCtx, M: int) -> DensityProfile:
    if M < 1:
        raise LevelTooLow("resolution M must be >= 1")
    ctx = trunc_make(field, M - 1)
    counts = fiber_table(n, ctx)
    denom = field.q ** (M * (n * n - n))
    table = {x: Fraction(c, denom) for x, c in counts.items()}
    # boxes with empty fibers still carry density 0; keep them implicit
    return DensityProfile(n, field, M, counts, table)


def lt_norm(profile: DensityProfile, t: int) -> Fraction:
    """Exact q^{-Mn} * sum_x f_M(x)^t."""
    if t < 1:
        raise TooLarge("exponent t must be >= 1")
    q = profile.field.q
    total = sum((f ** t for f in profile.table.values()), Fraction(0))
    return total / Fraction(q ** (profile.M * profile.n))


def sup_density(profile: DensityProfile) -> Tuple[Fraction, List[FiberKey]]:
    if not profile.table:
        return Fraction(0), []
    best = max(profile.table.values())
    argmax = sorted(x for x, f in profile.table.items() if f == best)
    return best, argmax


def refinement_check(n: int, field: FieldCtx, M: int) -> bool:
    """Averaging f_{M+1} over the q^n children of each box reproduces f_M."""
    coarse = density_profile(n, field, M)
    fine = density_profile(n, field, M + 1)
    q = field.q
    agg: Dict[FiberKey, Fraction] = {}
    for x, f in fine.table.items():
        parent = tuple(ci[: M] for ci in x)
        agg[parent] = agg.get(parent, Fraction(0)) + f
    for x, f in coarse.table.items():
        if agg.get(x, Fraction(0)) != f * q ** n:
            return False
    extras = set(agg) - set(coarse.table)
    return not any(agg[x] for x in extras)


def anfrs_ratio(n: int, field: FieldCtx, a: int,
                source_level: Optional[int] = None) -> Fraction:
    """Pushed-forward mass of the weighted ellipsoid {val(c_i) >= a*i},
    divided by the ellipsoid's Haar volume q^{-a*n(n+1)/2}."""
    if a < 0:
        raise LevelTooLow("ellipsoid scale a must be >= 0")
    if a == 0:
        return Fraction(1)
    level = a * n if source_level is None else source_level
    if level < a * n:
        raise LevelTooLow(f"truncation level {level} < a*n = {a * n}")
    ctx = trunc_make(field, level - 1)
    counts = _fiber_counts(n, ctx)
    inside = np.ones(len(counts), dtype=bool)  # ring_val of zero is level, the cap
    for i, c in enumerate(_digits(ctx.size, n, np.arange(len(counts))), start=1):
        inside &= ring_val(ctx, c) >= a * i
    mass = Fraction(int(counts[inside].sum()), field.q ** (level * n * n))
    return mass * field.q ** (a * n * (n + 1) // 2)


@dataclass
class InsepTracePoint:
    M: int
    box: FiberKey
    count: int
    density: Fraction


def insep_probe(field: FieldCtx, limit: int = 3) -> List[InsepTracePoint]:
    """Density trace along the nested boxes around the n=2 point with
    coefficients (0, t).  Exploratory output only: no verdict is attached."""
    if field.ell != 2:
        raise WrongCharacteristic("the inseparable probe is specific to characteristic 2")
    n = 2
    out = []
    for M in range(1, limit + 1):
        ctx = trunc_make(field, M - 1)
        x = (ctx.zero, ctx.t_power(1))
        count = count_jet_fiber(n, ctx, x)
        out.append(InsepTracePoint(M, x, count, Fraction(count, field.q ** (M * (n * n - n)))))
    return out


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def _coeff_str(series: tuple) -> str:
    return ";".join(str(c) for c in series)


def profile_rows(profile: DensityProfile) -> List[dict]:
    q = profile.field.q
    rows = []
    for x in sorted(profile.table):
        count = profile.counts[x]
        f = profile.table[x]
        # denominator of f is a power of q by construction
        rows.append({
            "box": "|".join(_coeff_str(ci) for ci in x),
            "fiber_count": str(count),
            "f_numerator": str(f.numerator),
            "f_denominator_exp": _q_exponent(f.denominator, q),
        })
    return rows


def _q_exponent(denom: int, q: int) -> int:
    e = 0
    while denom > 1:
        denom //= q
        e += 1
    return e


def profile_to_csv(profile: DensityProfile, path: str) -> None:
    emit_csv(profile_rows(profile), ["box", "fiber_count", "f_numerator", "f_denominator_exp"],
             path, lineterminator="\r\n")


def profile_summary(profile: DensityProfile, t_exponents=(1, 2)) -> dict:
    sup, argmax = sup_density(profile)
    return {
        "n": profile.n,
        "ell": profile.field.ell,
        "k": profile.field.k,
        "M": profile.M,
        "mass": str(profile.mass()),
        "lt_norms": {str(t): str(lt_norm(profile, t)) for t in t_exponents},
        "sup": str(sup),
        "argmax": ["|".join(_coeff_str(ci) for ci in x) for x in argmax],
    }


def summary_to_json(summary: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
