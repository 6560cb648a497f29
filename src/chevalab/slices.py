"""Partitions, Jordan nilpotents, the transversal slices L_x and M_x with
their one-parameter-subgroup weights, and executable audits of the slice
properties (transversality, equivariance, orbit jumps, weight thresholds).

Weight convention: the torus acts by lambda * A = lambda . t(lambda) A
t(lambda)^{-1} with t(lambda) = diag(1, lambda, ..., lambda^{n_i - 1}) per
Jordan block, which gives the column-1 entry at in-block row r weight r.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import BadConfig, TheoremCheckFailed, TooLarge
from .field import FieldCtx, TruncCtx, ring_tables, trunc_make
from .matrices import (CharCoeffs, JetMatrix, bracket_rank, charpoly,
                       charpoly_batch, is_nilpotent_jet, mat_zero,
                       rank_over_field, scale_coeffs)


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
        return Partition(tuple(int(p) for p in text.split(",")))


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
    block: Tuple[int, int]  # 0-based block pair
    exponent: int


@dataclass(frozen=True)
class SliceBasis:
    kind: str  # "L" | "M"
    partition: Partition
    entries: Tuple[SliceVector, ...]
    has_center: bool  # kind M adjoins the scalar line z*I, weight 1
    certified: bool  # kind M is only backed by theory for shape (n-1, 1)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dim(self) -> int:
        return len(self.entries) + (1 if self.has_center else 0)

    @property
    def center_exponent(self) -> int:
        return 1

    def exponents(self) -> List[int]:
        out = [e.exponent for e in self.entries]
        if self.has_center:
            out.append(self.center_exponent)
        return out


def jordan_matrix(partition: Partition, field: FieldCtx) -> JetMatrix:
    """Block-diagonal nilpotent in Jordan form at m = 0, blocks in order."""
    ctx = trunc_make(field, 0)
    n = partition.n
    rows = [[ctx.zero] * n for _ in range(n)]
    offset = 0
    for p in partition.parts:
        for r in range(p - 1):
            rows[offset + r][offset + r + 1] = ctx.one
        offset += p
    return JetMatrix(ctx, n, tuple(tuple(r) for r in rows))


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
                entries.append(SliceVector(offsets[i] + r - 1, col, (i, j), r))
    if kind == "M":
        entries = [e for e in entries if not (e.row == n - 1 and e.col == n - 1)]
        return SliceBasis("M", partition, tuple(entries), True, partition.is_subregular())
    return SliceBasis("L", partition, tuple(entries), False, True)


def exponent_sum_formula(partition: Partition) -> int:
    """Closed form for kind L: n(n+1)/2 + sum_j (j-1) n_j."""
    n = partition.n
    return n * (n + 1) // 2 + sum(j * p for j, p in enumerate(partition.parts))


def exponent_sum(partition: Partition, kind: str = "L") -> int:
    basis = slice_basis(partition, kind)
    total = sum(basis.exponents())
    if kind == "L":
        expected = exponent_sum_formula(partition)
    else:
        # M drops x_nn (weight-1 coordinate, present iff the last part is 1)
        # and adjoins the weight-1 center line.
        l_total = exponent_sum(partition, "L")
        dropped = 1 if partition.parts[-1] == 1 else 0
        expected = l_total - dropped + 1
    if total != expected:
        raise TheoremCheckFailed(
            f"kind-{kind} exponent sum {total} of {partition.parts} != closed form {expected}")
    return total


@dataclass
class WeightReport:
    partition: Partition
    kind: str
    exponents: Tuple[int, ...]
    total: int
    threshold: int  # n(n+1)/2 for L, n(n+1)/2 + 1 for M
    exceeds: bool
    all_positive: bool

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
    return WeightReport(partition, kind, exps, total, threshold,
                        total > threshold, all(e >= 1 for e in exps))


def subregular_threshold(partition: Partition) -> Dict[str, bool]:
    """Kind-M weight verdict: the total exceeds n(n+1)/2 + 1 exactly when the
    shape is neither regular nor subregular; the center line has weight 1."""
    rep = weight_report(partition, "M")
    expected = not (partition.is_regular() or partition.is_subregular())
    basis = slice_basis(partition, "M")
    return {
        "exceeds": rep.exceeds,
        "expected_exceeds": expected,
        "threshold_ok": rep.exceeds == expected,
        "center_weight_ok": basis.has_center and basis.center_exponent == 1,
    }


# --------------------------------------------------------------------------
# slice points
# --------------------------------------------------------------------------

def slice_point(basis: SliceBasis, field: FieldCtx, coords, m: int = 0,
                z: Optional[tuple] = None) -> JetMatrix:
    """x + sum coords[e] * E_e (+ z*I for kind M), over R_m."""
    ctx = trunc_make(field, m)
    n = basis.n
    x = jordan_matrix(basis.partition, field)
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = ctx.make(x.entries[i][j])
    for e, c in zip(basis.entries, coords):
        rows[e.row][e.col] = ctx.add(rows[e.row][e.col], c)
    if basis.has_center and z is not None:
        for i in range(n):
            rows[i][i] = ctx.add(rows[i][i], z)
    return JetMatrix(ctx, n, tuple(tuple(r) for r in rows))


def _scaled_coords(basis: SliceBasis, field: FieldCtx, ctx: TruncCtx, coords, lam: int):
    out = []
    for e, c in zip(basis.entries, coords):
        out.append(ctx.smul(field.pow(lam, e.exponent), c))
    return out


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

def audit_transversality(partition: Partition, field: FieldCtx) -> bool:
    """span([gl_n, x]) + L_x = gl_n over F_q, by ranks at m = 0."""
    x = jordan_matrix(partition, field)
    basis = slice_basis(partition, "L")
    n = partition.n
    xm = [[x.entries[i][j][0] for j in range(n)] for i in range(n)]
    rows = []
    for a in range(n):
        for b in range(n):
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                out[i][b] = field.add(out[i][b], xm[i][a])
            for j in range(n):
                out[a][j] = field.sub(out[a][j], xm[b][j])
            rows.append([out[i][j] for i in range(n) for j in range(n)])
    for e in basis.entries:
        vec = [0] * (n * n)
        vec[e.row * n + e.col] = 1
        rows.append(vec)
    full = rank_over_field(rows, field) == n * n
    expected = (bracket_rank(x) + len(basis.entries)) == n * n
    return full and expected


def audit_equivariance(partition: Partition, kind: str, field: FieldCtx,
                       samples: int = 1000, seed: int = 0,
                       exhaustive_limit: int = 1 << 20) -> bool:
    """charpoly(lambda * (x + A)) = lambda . charpoly(x + A), with lambda
    acting on coefficients by weights (1, ..., n).

    Exhaustive at m=0 when the sweep fits the limit, else seeded samples
    with series coordinates at m = 1.
    """
    basis = slice_basis(partition, kind)
    q = field.q
    dim = basis.dim
    sweep = (q - 1) * q ** dim
    if sweep <= exhaustive_limit:
        if q ** dim > 1 << 10:
            return _equivariance_exhaustive_np(basis, field)
        return _equivariance_exhaustive(basis, field)
    return _equivariance_sampled(basis, field, samples, seed)


def _lam_action(f: CharCoeffs, lam: int) -> CharCoeffs:
    return scale_coeffs(f, lam)


def _equivariance_exhaustive(basis: SliceBasis, field: FieldCtx) -> bool:
    ctx = trunc_make(field, 0)
    ncoords = len(basis.entries)
    for raw in itertools.product(range(field.q), repeat=basis.dim):
        coords = [(c,) for c in raw[:ncoords]]
        z = (raw[ncoords],) if basis.has_center else None
        A = slice_point(basis, field, coords, 0, z)
        base = charpoly(A)
        for lam in range(1, field.q):
            sc = _scaled_coords(basis, field, ctx, coords, lam)
            sz = ctx.smul(lam, z) if z is not None else None
            As = slice_point(basis, field, sc, 0, sz)
            if charpoly(As).c != _lam_action(base, lam).c:
                return False
    return True


def _equivariance_sampled(basis: SliceBasis, field: FieldCtx,
                          samples: int, seed: int) -> bool:
    rng = random.Random(seed)
    ctx = trunc_make(field, 1)
    for _ in range(samples):
        coords = [ctx.make([rng.randrange(field.q), rng.randrange(field.q)])
                  for _ in basis.entries]
        z = (ctx.make([rng.randrange(field.q), rng.randrange(field.q)])
             if basis.has_center else None)
        lam = rng.randrange(1, field.q)
        A = slice_point(basis, field, coords, 1, z)
        sc = _scaled_coords(basis, field, ctx, coords, lam)
        sz = ctx.smul(lam, z) if z is not None else None
        As = slice_point(basis, field, sc, 1, sz)
        if charpoly(As).c != _lam_action(charpoly(A), lam).c:
            return False
    return True


def _equivariance_exhaustive_np(basis: SliceBasis, field: FieldCtx) -> bool:
    """Vectorized m=0 exhaustive sweep through charpoly_batch."""
    P, add, mul, _ = tabs = ring_tables(trunc_make(field, 0))
    n = basis.n
    dim = basis.dim
    idx = np.arange(P ** dim, dtype=np.int64)
    coords = [(idx // P ** (dim - 1 - d)) % P for d in range(dim)]
    x = jordan_matrix(basis.partition, field)

    def build(lam=None):
        ent = [[x.entries[i][j][0] for j in range(n)] for i in range(n)]
        for c, e in zip(coords, basis.entries):
            if lam is not None:
                c = mul[c * P + field.pow(lam, e.exponent)]
            ent[e.row][e.col] = add[ent[e.row][e.col] * P + c]
        if basis.has_center:
            zc = coords[len(basis.entries)]
            if lam is not None:
                zc = mul[zc * P + lam]
            for i in range(n):
                ent[i][i] = add[ent[i][i] * P + zc]
        return ent

    base_cp = charpoly_batch(n, tabs, build())
    for lam in range(1, P):
        cp = charpoly_batch(n, tabs, build(lam))
        w = 1
        for i in range(n):
            w = field.mul(w, lam)
            if not np.array_equal(cp[i], mul[base_cp[i] * P + w]):
                return False
    return True


def audit_orbit_jump(partition: Partition, field: FieldCtx,
                     guard: int = 1 << 24) -> bool:
    """Every nonzero nilpotent y = x + l with l in L_x(F_q) sits on a larger
    orbit: rank ad_y > rank ad_x."""
    basis = slice_basis(partition, "L")
    q = field.q
    if q ** len(basis.entries) > guard:
        raise TooLarge("orbit-jump sweep exceeds the q^dim guard")
    x = jordan_matrix(partition, field)
    rx = bracket_rank(x)
    for raw in itertools.product(range(q), repeat=len(basis.entries)):
        if not any(raw):
            continue
        y = slice_point(basis, field, [(c,) for c in raw], 0, None)
        if is_nilpotent_jet(y) and bracket_rank(y) <= rx:
            return False
    return True
