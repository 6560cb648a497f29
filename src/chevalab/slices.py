"""Partitions, Jordan nilpotents, the transversal slices L_x and M_x with
their one-parameter-subgroup weights, and executable audits of the slice
properties (transversality, equivariance, orbit jumps, weight thresholds).
Every weight verdict (positivity, the closed-form exponent sum, the
threshold) comes from one ``weight_report`` of the slice.

Weight convention: the torus acts by lambda * A = lambda . t(lambda) A
t(lambda)^{-1} with t(lambda) = diag(1, lambda, ..., lambda^{n_i - 1}) per
Jordan block, which gives the column-1 entry at in-block row r weight r.

The audits build their points as ring-index arrays (``_slice_entries``) and
run them in blocks of at most ``counting.BLOCK``, in the arithmetic
``matrices.charpoly_batch`` and ``field.ring_ops`` pick from the ring.
Equivariance sweeps every point at m = 0 while the sweep fits its limit,
and past it samples seeded points at m = 1, R_1 ring indices; one body
serves both branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .counting import BLOCK, _blocks, _digits, _draws
from .errors import BadConfig, TooLarge
from .field import FieldCtx, ring_ops, trunc_make
from .matrices import JetMatrix, ad_digits, ad_ranks, charpoly_batch, row_echelon

EQUIVARIANCE_EXHAUSTIVE_LIMIT = 1 << 20  # (q-1) q^dim points and weights lambda
ORBIT_JUMP_GUARD = 1 << 24  # q^dim slice points
AD_BATCH = 1 << 21  # digits of the ad_y systems ranked in one row_echelon call


@dataclass(frozen=True)
class Partition:
    parts: Tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise BadConfig("partition must be nonempty")
        if any(p < 1 for p in self.parts):
            raise BadConfig("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise BadConfig("partition parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def is_regular(self) -> bool:
        return len(self.parts) == 1

    def is_subregular(self) -> bool:
        return self.parts == (self.n - 1, 1)

    @staticmethod
    def parse(text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise BadConfig(f"--partition {text!r}: expected integers separated by ','") from exc
        return Partition(parts)


def all_partitions(n: int) -> List[Partition]:
    out = []

    def rec(rest: int, cap: int, acc: list):
        if rest == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(cap, rest), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class SliceVector:
    row: int  # global, 0-based
    col: int
    exponent: int


@dataclass(frozen=True)
class SliceBasis:
    """The slice L_x or M_x of the Jordan nilpotent x of ``partition``.  Kind M
    is backed by theory only for the shape (n-1, 1)."""

    kind: str  # "L" | "M"
    partition: Partition
    entries: Tuple[SliceVector, ...]
    has_center: bool  # kind M adjoins the scalar line z*I, weight 1

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dim(self) -> int:
        return len(self.entries) + (1 if self.has_center else 0)

    def exponents(self) -> List[int]:
        out = [e.exponent for e in self.entries]
        if self.has_center:
            out.append(1)
        return out


def _jordan_codes(partition: Partition) -> np.ndarray:
    """The field codes (n, n) of the Jordan nilpotent: ones on the superdiagonal
    inside each block, blocks in order."""
    x = np.eye(partition.n, k=1, dtype=np.int64)
    ends = np.cumsum(partition.parts)[:-1]  # the first row of every block but the first
    x[ends - 1, ends] = 0
    return x


def jordan_matrix(partition: Partition, field: FieldCtx) -> JetMatrix:
    """Block-diagonal nilpotent in Jordan form at m = 0, blocks in order."""
    rows = _jordan_codes(partition).tolist()
    return JetMatrix(trunc_make(field, 0), partition.n, tuple(tuple((c,) for c in row) for row in rows))


def slice_basis(partition: Partition, kind: str = "L") -> SliceBasis:
    if kind not in ("L", "M"):
        raise BadConfig("slice kind must be 'L' or 'M'")
    parts = partition.parts
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    n = partition.n
    entries = []
    for i, ni in enumerate(parts):
        for j, nj in enumerate(parts):
            col = offsets[j]
            lo = ni - nj + 1 if ni >= nj else 1
            for r in range(lo, ni + 1):
                entries.append(SliceVector(offsets[i] + r - 1, col, r))
    if kind == "M":
        entries = [e for e in entries if not (e.row == n - 1 and e.col == n - 1)]
        return SliceBasis("M", partition, tuple(entries), True)
    return SliceBasis("L", partition, tuple(entries), False)


def exponent_sum_formula(partition: Partition) -> int:
    """Closed form for kind L: n(n+1)/2 + sum_j (j-1) n_j."""
    n = partition.n
    return n * (n + 1) // 2 + sum(j * p for j, p in enumerate(partition.parts))


@dataclass
class WeightReport:
    """The torus weights of one slice, read off one ``slice_basis``.  Every
    weight verdict comes from this one report: ``all_positive``, ``total``
    against the closed form ``formula_total``, and ``exceeds`` against
    ``expected_exceeds``, false exactly at the regular shape (and, for kind
    M, the subregular one).  ``to_dict`` holds the weights, not the closed
    forms."""

    partition: Partition
    kind: str
    exponents: Tuple[int, ...]
    total: int
    threshold: int  # n(n+1)/2 for L, n(n+1)/2 + 1 for M
    exceeds: bool
    all_positive: bool
    formula_total: int
    expected_exceeds: bool

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "kind": self.kind,
            "exponents": list(self.exponents),
            "total": self.total,
            "threshold": self.threshold,
            "exceeds": self.exceeds,
            "all_positive": self.all_positive,
        }


def weight_report(partition: Partition, kind: str = "L") -> WeightReport:
    basis = slice_basis(partition, kind)
    exps = tuple(sorted(basis.exponents()))
    total = sum(exps)
    n = partition.n
    threshold = n * (n + 1) // 2 + (1 if kind == "M" else 0)
    formula, expected = exponent_sum_formula(partition), not partition.is_regular()
    if kind == "M":
        # M drops x_nn (weight-1 coordinate, present iff the last part is 1)
        # and adjoins the weight-1 center line.
        formula += 0 if partition.parts[-1] == 1 else 1
        expected = expected and not partition.is_subregular()
    return WeightReport(partition, kind, exps, total, threshold, total > threshold,
                        all(e >= 1 for e in exps), formula, expected)


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

def _slice_entries(basis: SliceBasis, ops, one: int, coords: list, lam) -> list:
    """Entry arrays of the slice points lam * (x + sum coords[e] E_e (+ zI)) over the
    ring whose (add, mul, neg) on ring indices are ``ops`` and whose 1 has index
    ``one``: coordinate e scaled by lam^(its weight), the kind-M center z (last)
    by lam.  lam is the ring index of a unit of F_q, an int or an array
    broadcasting against coords; lam = one leaves the points unscaled."""
    add, mul, _ = ops
    powers = [one]
    for _ in range(max(basis.exponents())):
        powers.append(mul(powers[-1], lam))
    ent = (_jordan_codes(basis.partition) * one).tolist()
    for c, e in zip(coords, basis.entries):
        ent[e.row][e.col] = add(ent[e.row][e.col], mul(c, powers[e.exponent]))
    if basis.has_center:
        z = mul(coords[-1], powers[1])
        for i in range(basis.n):
            ent[i][i] = add(ent[i][i], z)
    return ent


def audit_transversality(partition: Partition, field: FieldCtx) -> bool:
    """span([gl_n, x]) + L_x = gl_n over F_q, by ranks at m = 0.

    One row_echelon call on F_ell digits with a batch of two systems: the
    rows of ad_x, padded with zero rows, and the rows of ad_x together with
    g^f E_e for every slice vector e and f < k.  The sum is all of gl_n when
    the second rank is n^2 k, and it is direct when rank ad_x + dim = n^2.
    The batch holds at most 4 (n^2 k)^2 digits, guarded by AD_BATCH before
    the slice basis is built."""
    n, k = partition.n, field.k
    if 4 * (n * n * k) ** 2 > AD_BATCH:
        raise TooLarge(f"4 (n^2 k)^2 = {4 * (n * n * k) ** 2} digits of the transversality "
                       "ranks exceed the guard 2^21")
    basis = slice_basis(partition, "L")
    ad = ad_digits(_jordan_codes(partition)[:, :, None], field)[:, :, 0]
    slice_rows = np.eye(n * n * k, dtype=np.int64)[
        [(e.row * n + e.col) * k + f for e in basis.entries for f in range(k)]]
    gens = np.stack([np.concatenate([ad, 0 * slice_rows]), np.concatenate([ad, slice_rows])], axis=2)
    rank = row_echelon(gens, field.ell)[0]
    return bool(rank[1] == n * n * k and rank[0] // k + len(basis.entries) == n * n)


def audit_equivariance(partition: Partition, kind: str, field: FieldCtx,
                       samples: int = 1000, seed: int = 0) -> bool:
    """charpoly(lambda * (x + A)) = lambda . charpoly(x + A), with lambda
    acting on coefficients by weights (1, ..., n).

    Exhaustive at m = 0 while the (q-1) q^dim pairs of a point and a lambda
    fit the limit; else ``samples`` seeded R_1 points, at most the limit,
    one random lambda each, so every q <= 2^16 runs.  lambda broadcasts
    against the points: a column of every unit against blocks of
    BLOCK // (q-1) exhaustive points, or one drawn unit per point in blocks
    of BLOCK sampled ones."""
    if not 1 <= samples <= EQUIVARIANCE_EXHAUSTIVE_LIMIT:
        raise BadConfig(f"samples={samples}: need 1 to {EQUIVARIANCE_EXHAUSTIVE_LIMIT} samples")
    basis = slice_basis(partition, kind)
    n, q, dim = basis.n, field.q, basis.dim
    if (q - 1) * q ** dim <= EQUIVARIANCE_EXHAUSTIVE_LIMIT:
        ctx, units = trunc_make(field, 0), np.arange(1, q)[:, None]
        points = ((_digits(q, dim, idx), units) for idx in _blocks(0, q ** dim, max(1, BLOCK // (q - 1))))
    else:
        ctx = trunc_make(field, 1)
        points = ((coords, lam + 1) for *coords, lam in _draws(seed, [ctx.size] * dim + [q - 1], samples))
    ops = ring_ops(ctx)
    one, mul = ctx.index(ctx.one), ops[1]
    for coords, lam in points:
        lam = lam * one
        base = charpoly_batch(n, ctx, _slice_entries(basis, ops, one, coords, one))
        scaled = charpoly_batch(n, ctx, _slice_entries(basis, ops, one, coords, lam))
        w = one
        for got, c in zip(scaled, base):
            w = mul(w, lam)
            if not np.array_equal(got, mul(c, w)):
                return False
    return True


def audit_orbit_jump(partition: Partition, field: FieldCtx) -> bool:
    """Every nonzero nilpotent y = x + l with l in L_x(F_q) sits on a larger
    orbit: rank ad_y > rank ad_x.  charpoly_batch picks out the nilpotent y
    of each block, and one ad_ranks call ranks them together."""
    basis = slice_basis(partition, "L")
    n, q, dim = basis.n, field.q, basis.dim
    if q ** dim > ORBIT_JUMP_GUARD:
        raise TooLarge("orbit-jump sweep exceeds the q^dim guard")
    ctx = trunc_make(field, 0)
    ops = ring_ops(ctx)
    rx = ad_ranks(_jordan_codes(partition)[:, :, None], field)[0]
    block = min(BLOCK, max(1, AD_BATCH // (n * n * field.k) ** 2))
    for idx in _blocks(1, q ** dim, block):  # index 0 is l = 0
        entries = _slice_entries(basis, ops, 1, _digits(q, dim, idx), 1)
        nil = np.logical_and.reduce([c == 0 for c in charpoly_batch(n, ctx, entries)])
        if nil.any():
            y = np.array([[np.broadcast_to(e, nil.shape)[nil] for e in row] for row in entries])
            if (ad_ranks(y, field) <= rx).any():
                return False
    return True
