"""Pushforward of normalized Haar measure on Mat_n(O) under the
characteristic-polynomial map, at finite resolution.

All masses are exact rationals with power-of-q denominators; floats appear
only in human-readable report columns.  Two region types are kept distinct:
unweighted boxes x + t^M O^n (density profiles) and weighted ellipsoids
{val(c_i) >= a*i} (the shrinking-ellipsoid ratio).

A density profile is the dense fiber-count array over the codes of
``counting._encode_key`` with the denominator q^(M(n^2-n)); mass, L^t norms,
sup and refinement run on that array.  Exports work on code arrays too: the
argmax boxes and the CSV rows are the nonzero codes, decoded digitwise into
box strings (``_box_strings``), with the q-power reduction of f done on the
whole count array at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .counting import FiberKey, _decode_key, _digits, _fiber_counts, count_jet_fiber
from .errors import BadConfig, LevelTooLow, TooLarge, WrongCharacteristic
from .field import FieldCtx, TruncCtx, ring_val, trunc_make
from .reporting import atomic_write_text


@dataclass
class DensityProfile:
    n: int
    field: FieldCtx
    M: int  # resolution; boxes live in c(R_{M-1})
    counts: np.ndarray  # dense, read-only, by _encode_key code; f_M(x) = counts[x] / denom()

    def denom(self) -> int:
        """q^(M(n^2-n)), the denominator of every f_M(x)."""
        return self.field.q ** (self.M * (self.n * self.n - self.n))

    def mass(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.field.q ** (self.M * self.n * self.n))


def density_profile(n: int, field: FieldCtx, M: int) -> DensityProfile:
    if n < 1:
        raise BadConfig(f"matrix size n={n}: need n >= 1")
    if M < 1:
        raise LevelTooLow("resolution M must be >= 1")
    return DensityProfile(n, field, M, _fiber_counts(n, trunc_make(field, M - 1)))


def lt_norm(profile: DensityProfile, t: int) -> Fraction:
    """Exact q^{-Mn} * sum_x f_M(x)^t, summed over the distinct fiber sizes
    with their multiplicities as Python ints."""
    if t < 1:
        raise TooLarge("exponent t must be >= 1")
    sizes, mult = np.unique(profile.counts, return_counts=True)
    total = sum(c * v ** t for v, c in zip(sizes.tolist(), mult.tolist()))
    return Fraction(total, profile.denom() ** t * profile.field.q ** (profile.M * profile.n))


def sup_density(profile: DensityProfile) -> Tuple[Fraction, List[FiberKey]]:
    """The largest f_M(x) and its boxes, in ascending code order."""
    best = profile.counts.max()
    ctx = trunc_make(profile.field, profile.M - 1)
    argmax = [_decode_key(profile.n, ctx, code)
              for code in np.flatnonzero(profile.counts == best).tolist()]
    return Fraction(int(best), profile.denom()), argmax


def refinement_check(n: int, field: FieldCtx, M: int) -> bool:
    """Averaging f_{M+1} over the q^n children of each box reproduces f_M.

    A child's code adds one least significant digit (the t^M coefficient) to
    each c_i, so the children of a box are the q axes of the fine counts
    reshaped to (P, q) * n, and their counts sum to q^(n^2) times the box's."""
    coarse = density_profile(n, field, M).counts
    fine = density_profile(n, field, M + 1).counts
    q = field.q
    children = fine.reshape((q ** M, q) * n).sum(axis=tuple(range(1, 2 * n, 2)))
    return np.array_equal(children.ravel(), coarse * q ** (n * n))


def anfrs_ratio(n: int, field: FieldCtx, a: int) -> Fraction:
    """Pushed-forward mass of the weighted ellipsoid {val(c_i) >= a*i},
    divided by the ellipsoid's Haar volume q^{-a*n(n+1)/2}.  The ellipsoid
    is fixed modulo t^(a*n), so the counts are taken at level a*n."""
    if n < 1:
        raise BadConfig(f"matrix size n={n}: need n >= 1")
    if a < 0:
        raise LevelTooLow("ellipsoid scale a must be >= 0")
    if a == 0:
        return Fraction(1)
    level = a * n
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
    if limit < 1:
        raise BadConfig(f"limit {limit}: the trace needs at least one box, limit >= 1")
    n = 2
    out = []
    for M in range(1, limit + 1):
        ctx = trunc_make(field, M - 1)
        x = (ctx.zero, ctx.make((0, 1)))
        count = count_jet_fiber(n, ctx, x)
        out.append(InsepTracePoint(M, x, count, Fraction(count, field.q ** (M * (n * n - n)))))
    return out


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def _box_strings(n: int, ctx: TruncCtx, codes: np.ndarray) -> List[str]:
    """The boxes of codes as "c_1|...|c_n", each c_i its t-coefficients joined
    by ";"; the P coefficient strings of the ring are built once."""
    coeffs = np.array([";".join(map(str, ctx.from_index(i))) for i in range(ctx.size)], dtype=object)
    return list(map("|".join, zip(*(coeffs[d].tolist() for d in _digits(ctx.size, n, codes)))))


def profile_to_csv(profile: DensityProfile, path: str) -> None:
    """One row per box with a nonempty fiber, in ascending code order.  f is
    written as f_numerator / q^f_denominator_exp with the smallest exponent
    e such that f q^e is an integer; for k > 1 the reduced denominator of f
    can be a power of ell that is no power of q."""
    q = profile.field.q
    codes = np.flatnonzero(profile.counts)
    counts = profile.counts[codes]
    num = counts.copy()
    exp = np.full(len(codes), profile.M * (profile.n * profile.n - profile.n), dtype=np.int64)
    while True:
        step = (exp > 0) & (num % q == 0)
        if not step.any():
            break
        num[step] //= q
        exp[step] -= 1
    boxes = _box_strings(profile.n, trunc_make(profile.field, profile.M - 1), codes)
    # the csv module's bytes: no field holds a comma, quote or line break, so none is quoted
    lines = [f"{b},{c},{f},{e}" for b, c, f, e in zip(boxes, counts.tolist(), num.tolist(), exp.tolist())]
    atomic_write_text(path, "\r\n".join(["box,fiber_count,f_numerator,f_denominator_exp", *lines, ""]))


def profile_summary(profile: DensityProfile) -> dict:
    best = profile.counts.max()
    ctx = trunc_make(profile.field, profile.M - 1)
    return {
        "n": profile.n,
        "ell": profile.field.ell,
        "k": profile.field.k,
        "M": profile.M,
        "mass": str(profile.mass()),
        "lt_norms": {str(t): str(lt_norm(profile, t)) for t in (1, 2)},
        "sup": str(Fraction(int(best), profile.denom())),
        "argmax": _box_strings(profile.n, ctx, np.flatnonzero(profile.counts == best)),
    }


def summary_to_json(summary: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
