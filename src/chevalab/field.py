"""Exact arithmetic in F_{ell^k} and in the truncated ring R_m = F_{ell^k}[t]/(t^(m+1)).

Field elements are encoded as integers in [0, q): the element sum(a_i * x^i)
is encoded as sum(a_i * ell^i).  Truncated series are tuples of m+1 element
codes, index i holding the coefficient of t^i.

Enumeration order is fixed once and for all so shard boundaries are
reproducible: field elements by ascending integer code, series
lexicographically with the t^0 coefficient outermost.

A series is also its ring index (``TruncCtx.index``), a base-ell number
with N = k(m+1) digits: digit e = (m-i)k + j is the x^j coefficient of the
t^i coefficient, so the t^0 coefficient is the top digit.  ``ring_add``,
``ring_neg`` and ``ring_val`` work digitwise on ring indices, ints or
broadcasting int64 arrays; ``ring_tables`` runs add and mul over all pairs.

``ring_mul`` uses that multiplication is F_ell-bilinear in the digits.  R_m
has integer structure constants S[e, f, r], digit r of the product of the
indices ell^e and ell^f, from adding t-degrees and reducing by the field
modulus.  Digit r of x * y is then sum_(e,f) dx_e dy_f S[e, f, r] mod ell.
Each digit gets a bit slot wide enough for its largest sum before
reduction, (ell - 1)^2 sum_(e,f) S[e, f, r], so slots never carry into
each other; slots fill int64 words of at most 62 bits in digit order, and
a word is one integer bilinear form of the two digit vectors.  Unpack
tables of at most 2^12 entries, each the outer sum over a run of slots of
(slot mod ell) * ell^r, turn a word back into its share of the ring index;
a slot wider than a table is reduced arithmetically.  The layout is built
lazily, once per ring (``_mul_layout``).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import BadConfig, CtxMismatch, NoModulusInTable, NonPrime, TooLarge

# Valuation sentinel for the zero element ("valuation >= m+1").
BOTTOM: Optional[int] = None

MAX_Q = 1 << 16
MAX_M = 31
MAX_ENUM = 1 << 40
MAX_ELL = 251
MAX_K = 16

# Add, neg, mul and inv tables are only materialized for small fields.
_TABLE_LIMIT = 512
# Largest ring q^(m+1) with dense add/mul tables: two P*P int64 arrays, 16 MB at the limit.
RING_TABLE_LIMIT = 1 << 10


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# --- dense polynomial helpers over Z/ell, low-degree-first coefficient lists ---

def _poly_trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a: list, b: list, mod: list, ell: int) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % ell
    return _poly_rem(out, mod, ell)


def _poly_rem(a: list, mod: list, ell: int) -> list:
    a = list(a)
    d = len(mod) - 1
    inv_lead = pow(mod[-1], ell - 2, ell)
    while len(_poly_trim(a)) > d:
        shift = len(a) - 1 - d
        c = (a[-1] * inv_lead) % ell
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * mi) % ell
        _poly_trim(a)
    return a


def _poly_gcd(a: list, b: list, ell: int) -> list:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a = _poly_rem(a, b, ell)
        a, b = b, _poly_trim(a)
    return a


def _poly_powmod(base: list, e: int, mod: list, ell: int) -> list:
    result = [1]
    base = _poly_rem(list(base), mod, ell)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, ell)
        base = _poly_mulmod(base, base, mod, ell)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(poly: list, ell: int) -> bool:
    """Rabin test for a monic polynomial over Z/ell (low-degree-first).
    x is reduced mod the polynomial first, which matters for degree 1."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    x = _poly_rem([0, 1], poly, ell)
    xqk = _poly_powmod(x, ell ** k, poly, ell)
    if _poly_trim([(a - b) % ell for a, b in itertools.zip_longest(xqk, x, fillvalue=0)]):
        return False
    for p in _prime_divisors(k):
        xqd = _poly_powmod(x, ell ** (k // p), poly, ell)
        diff = [(a - b) % ell for a, b in itertools.zip_longest(xqd, x, fillvalue=0)]
        g = _poly_gcd(diff, poly, ell)
        if len(_poly_trim(list(g))) - 1 != 0:
            return False
    return True


_MODULUS_CACHE: dict = {}


def _has_root(poly: list, ell: int) -> bool:
    """Whether the polynomial (low-degree-first) vanishes at some a in Z/ell."""
    for a in range(ell):
        v = 0
        for c in reversed(poly):
            v = (v * a + c) % ell
        if v == 0:
            return True
    return False


def _find_modulus(ell: int, k: int) -> tuple:
    """Lexicographically least monic irreducible of degree k over Z/ell.

    The search order (constant coefficient outermost) is fixed, so the
    modulus table is deterministic run to run.  A candidate with a root in
    Z/ell has a linear factor, so it is skipped before the Rabin test; that
    drops every candidate with constant term 0, the first half of the order.
    """
    key = (ell, k)
    if key in _MODULUS_CACHE:
        return _MODULUS_CACHE[key]
    if k == 1:
        mod = (0, 1)
        _MODULUS_CACHE[key] = mod
        return mod
    for lower in itertools.product(range(ell), repeat=k):
        poly = list(lower) + [1]
        if not _has_root(poly, ell) and is_irreducible(poly, ell):
            mod = tuple(poly)
            _MODULUS_CACHE[key] = mod
            return mod
    raise NoModulusInTable(f"no irreducible modulus found for ell={ell}, k={k}")


class FieldCtx:
    """The finite field F_{ell^k} with integer-coded elements."""

    __slots__ = ("ell", "k", "q", "modulus", "_add_table", "_mul_table", "_neg_table",
                 "_inv_table")

    def __init__(self, ell: int, k: int, modulus: tuple):
        self.ell = ell
        self.k = k
        self.q = ell ** k
        self.modulus = modulus
        self._add_table = self._mul_table = self._neg_table = self._inv_table = None
        if self.q <= _TABLE_LIMIT and k > 1:
            self._build_tables()

    # -- element codecs --
    def digits(self, a: int) -> list:
        ell = self.ell
        return [(a // ell ** i) % ell for i in range(self.k)]

    def encode(self, digits: list) -> int:
        ell = self.ell
        return sum((d % ell) * ell ** i for i, d in enumerate(digits))

    # -- arithmetic --
    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.ell
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        ell = self.ell
        return self.encode([(x + y) % ell for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.ell
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.ell
        if self._neg_table is not None:
            return self._neg_table[a]
        return self.encode([(-x) % self.ell for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.ell
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        return self.encode(_poly_mulmod(self.digits(a), self.digits(b), list(self.modulus), self.ell))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.ell - 2, self.ell)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def _build_tables(self) -> None:
        q = self.q
        tabs = ring_tables(TruncCtx(self, 0))
        self._add_table, self._mul_table, self._neg_table = (t.tolist() for t in tabs[1:])
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.pow(a, q - 2)
        self._inv_table = inv

    def key(self) -> tuple:
        return (self.ell, self.k)

    def __repr__(self) -> str:
        return f"FieldCtx(ell={self.ell}, k={self.k}, q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def field_make(ell: int, k: int = 1) -> FieldCtx:
    """Construct the field context for F_{ell^k}; deterministic per (ell, k)."""
    if not _is_prime(ell):
        raise NonPrime(f"{ell} is not prime")
    if k < 1:
        raise BadConfig(f"extension degree k={k}: need k >= 1")
    if ell ** k > MAX_Q:
        raise TooLarge(f"ell^k = {ell}^{k} exceeds the 2^16 field guard")
    if ell > MAX_ELL or k > MAX_K:
        raise NoModulusInTable(f"modulus table covers ell <= {MAX_ELL}, k <= {MAX_K}")
    modulus = _find_modulus(ell, k)
    if k > 1 and not is_irreducible(list(modulus), ell):
        raise NoModulusInTable(f"modulus for ({ell},{k}) failed irreducibility check")
    return FieldCtx(ell, k, modulus)


class TruncCtx:
    """The truncated ring R_m = F_{ell^k}[t]/(t^(m+1)); series are tuples of length m+1."""

    __slots__ = ("field", "m", "zero", "one")

    def __init__(self, field: FieldCtx, m: int):
        if m < 0 or m > MAX_M:
            raise TooLarge(f"jet order m={m} outside [0, {MAX_M}]")
        self.field = field
        self.m = m
        self.zero = (0,) * (m + 1)
        self.one = (1,) + (0,) * m

    @property
    def size(self) -> int:
        return self.field.q ** (self.m + 1)

    def key(self) -> tuple:
        return (self.field.ell, self.field.k, self.m)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncCtx) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"TruncCtx(q={self.field.q}, m={self.m})"

    def make(self, coeffs) -> tuple:
        cs = tuple(c % self.field.q for c in coeffs)
        if len(cs) > self.m + 1:
            cs = cs[: self.m + 1]
        return cs + (0,) * (self.m + 1 - len(cs))

    def t_power(self, j: int) -> tuple:
        if j > self.m:
            return self.zero
        return (0,) * j + (1,) + (0,) * (self.m - j)

    def check(self, a: tuple) -> None:
        if len(a) != self.m + 1:
            raise CtxMismatch(f"series of length {len(a)} in ring with m={self.m}")

    # -- ring ops --
    def add(self, a: tuple, b: tuple) -> tuple:
        f = self.field
        if f.k == 1:
            ell = f.ell
            return tuple((x + y) % ell for x, y in zip(a, b))
        return tuple(f.add(x, y) for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        f = self.field
        if f.k == 1:
            ell = f.ell
            return tuple((x - y) % ell for x, y in zip(a, b))
        return tuple(f.sub(x, y) for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        f = self.field
        if f.k == 1:
            ell = f.ell
            return tuple((-x) % ell for x in a)
        return tuple(f.neg(x) for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        m = self.m
        f = self.field
        out = [0] * (m + 1)
        if f.k == 1:
            ell = f.ell
            for i, ai in enumerate(a):
                if ai:
                    for j in range(m + 1 - i):
                        bj = b[j]
                        if bj:
                            out[i + j] = (out[i + j] + ai * bj) % ell
        else:
            for i, ai in enumerate(a):
                if ai:
                    for j in range(m + 1 - i):
                        bj = b[j]
                        if bj:
                            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return tuple(out)

    def smul(self, c: int, a: tuple) -> tuple:
        f = self.field
        return tuple(f.mul(c, x) for x in a)

    def val(self, a: tuple) -> Optional[int]:
        for i, x in enumerate(a):
            if x:
                return i
        return BOTTOM

    def val_capped(self, a: tuple, cap: Optional[int] = None) -> int:
        v = self.val(a)
        limit = self.m + 1 if cap is None else cap
        return limit if v is None else min(v, limit)

    # -- enumeration codecs (t^0 coefficient outermost) --
    def index(self, a: tuple) -> int:
        q = self.field.q
        idx = 0
        for c in a:
            idx = idx * q + c
        return idx

    def from_index(self, idx: int) -> tuple:
        q = self.field.q
        out = [0] * (self.m + 1)
        for i in range(self.m, -1, -1):
            out[i] = idx % q
            idx //= q
        return tuple(out)

    def elements(self) -> Iterator[tuple]:
        return itertools.product(range(self.field.q), repeat=self.m + 1)


def trunc_make(field: FieldCtx, m: int) -> TruncCtx:
    return TruncCtx(field, m)


class RingTables(NamedTuple):
    """Dense arithmetic of R_m on ring indices (``TruncCtx.index``): the sum
    of elements x and y has index ``add[x * P + y]``, the product
    ``mul[x * P + y]``, the negative of x ``neg[x]``.  Arrays are read-only."""

    P: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray


def _place(ctx: TruncCtx, i: int, d):  # digits d of the t^i coefficient -> their share
    ell, k, m = ctx.field.ell, ctx.field.k, ctx.m
    return sum(dj % ell * ell ** ((m - i) * k + j) for j, dj in enumerate(d))


def _ring_digits(ctx: TruncCtx, a) -> list:  # [i][j]: digit j of t^i, at ell^((m-i)k + j)
    ell, k, m = ctx.field.ell, ctx.field.k, ctx.m
    return [[a // ell ** ((m - i) * k + j) % ell for j in range(k)] for i in range(m + 1)]


def ring_add(ctx: TruncCtx, x, y):
    """Ring index of x + y, carry-free digitwise mod ell."""
    return sum(_place(ctx, i, [a + b for a, b in zip(dx, dy)])
               for i, (dx, dy) in enumerate(zip(_ring_digits(ctx, x), _ring_digits(ctx, y))))


def ring_neg(ctx: TruncCtx, x):
    """Ring index of -x, digitwise mod ell."""
    return sum(_place(ctx, i, [-a for a in dx]) for i, dx in enumerate(_ring_digits(ctx, x)))


# Packed words stay below 2^62, so no partial sum of the bilinear form reaches the int64 sign bit.
_WORD_BITS = 62
# Widest run of slots one unpack table covers: 2^12 int64 entries, 32 KB.
_UNPACK_BITS = 12


class _MulLayout(NamedTuple):
    """R_m's structure constants packed for ``ring_mul``.  ``place[e]`` is
    ell^e.  Each word is (spk_t, steps): spk_t[f, e] is the sum over the
    word's slots r of S[e, f, r] << off_r, and each step (shift, mask,
    table, place_r) turns bits of the word back into a share of the ring
    index: table[(word >> shift) & mask] for a run of slots, or
    ((word >> shift) & mask) % ell * place_r for one slot too wide for a
    table.  The top step of a word has mask None, as nothing sits above it."""

    place: np.ndarray
    words: tuple


def _structure_constants(ctx: TruncCtx) -> np.ndarray:
    """S[e, f, r]: digit r of the product of the ring indices ell^e and ell^f.
    ell^e is t^i g^j at e = (m - i)k + j; t-degrees add up to at most m, and
    g^(j + j') is reduced by the field modulus."""
    ell, k, m = ctx.field.ell, ctx.field.k, ctx.m
    g_powers = [_poly_rem([0] * s + [1], list(ctx.field.modulus), ell) for s in range(2 * k - 1)]
    S = np.zeros((k * (m + 1),) * 3, dtype=np.int64)
    for i, j, i2, j2 in itertools.product(range(m + 1), range(k), range(m + 1), range(k)):
        if i + i2 <= m:
            for u, c in enumerate(g_powers[j + j2]):
                S[(m - i) * k + j, (m - i2) * k + j2, (m - i - i2) * k + u] = c
    return S


def _slot_widths(ell: int, S: np.ndarray) -> list:
    """The bits of slot r: its largest unreduced sum, every digit of x and y at ell - 1."""
    return [max(1, int(v).bit_length()) for v in (ell - 1) ** 2 * S.sum(axis=(0, 1))]


def _runs(slots: list, bits: int) -> list:
    """Consecutive runs of slots (r, width, ...) in order, each run at most
    ``bits`` bits wide unless it is one slot wider than that."""
    runs = []
    for slot in slots:
        if runs and sum(s[1] for s in runs[-1]) + slot[1] <= bits:
            runs[-1].append(slot)
        else:
            runs.append([slot])
    return runs


def _unpack_steps(ell: int, place: np.ndarray, slots: list) -> tuple:
    """The steps of one word, slots [(r, width, offset)] in bit order: runs of
    at most _UNPACK_BITS bits share a table, the outer sum over the run of
    (slot value mod ell) * ell^r; a wider slot is reduced arithmetically."""
    runs = _runs(slots, _UNPACK_BITS)
    steps = []
    for i, run in enumerate(runs):
        shift, bits = run[0][2], sum(w for _, w, _ in run)
        mask = (1 << bits) - 1 if i < len(runs) - 1 else None
        if bits > _UNPACK_BITS:
            steps.append((shift, mask, None, int(place[run[0][0]])))
            continue
        table = np.zeros(1, dtype=np.int64)
        for r, w, _ in reversed(run):
            table = np.add.outer(table, np.arange(1 << w, dtype=np.int64) % ell * place[r]).ravel()
        steps.append((shift, mask, table, 0))
    return tuple(steps)


@functools.lru_cache(maxsize=8)
def _mul_layout(ctx: TruncCtx) -> _MulLayout:
    """The packed layout of ``ctx``, built once per ``ctx.key()``: slots fill
    words of at most _WORD_BITS bits in digit order."""
    if ctx.size > 1 << 63:
        raise TooLarge(f"ring of size {ctx.size}: its indices exceed int64")
    ell = ctx.field.ell
    S = _structure_constants(ctx)
    place = ell ** np.arange(len(S), dtype=np.int64)
    packed = []
    for slots in _runs(list(enumerate(_slot_widths(ell, S))), _WORD_BITS):
        offsets = np.cumsum([0] + [w for _, w in slots[:-1]]).tolist()
        spk = sum(S[:, :, r] << off for (r, _), off in zip(slots, offsets))
        steps = _unpack_steps(ell, place, [(r, w, off) for (r, w), off in zip(slots, offsets)])
        packed.append((np.ascontiguousarray(spk.T), steps))
    return _MulLayout(place, tuple(packed))


def ring_mul(ctx: TruncCtx, x, y):
    """Ring index of x * y, ints (giving an int) or broadcasting int64 arrays.

    Each word of ``_mul_layout(ctx)`` is the bilinear form
    sum_(e,f) dx_e dy_f Spk[e, f], Spk[e, f] being the structure constants
    S[e, f, r] shifted into their slots r and summed; for arrays it is one
    einsum of the digits of x with the digits of y times Spk^T.  The word's
    unpack steps then reduce every slot mod ell and place it at ell^r.
    Rings whose indices pass int64 raise TooLarge."""
    ell, lay = ctx.field.ell, _mul_layout(ctx)
    dx = np.asarray(x, dtype=np.int64)[..., None] // lay.place % ell
    dy = np.asarray(y, dtype=np.int64)[..., None] // lay.place % ell
    out = 0
    for spk_t, steps in lay.words:
        word = np.einsum("...e,...e->...", dx, dy @ spk_t)
        for shift, mask, table, place in steps:
            v = word >> shift if mask is None else word >> shift & mask
            out = out + (v % ell * place if table is None else table.take(v))
    return out if np.ndim(out) else int(out)


def ring_val(ctx: TruncCtx, x):
    """val of ring index x, m + 1 for zero: #{j <= m : x < q^j}, t^0 being the top digit."""
    return sum(x < ctx.field.q ** j for j in range(ctx.m + 1))


def _row_blocks(P: int) -> list:
    """Row slices of the P x P grid of index pairs, about 2^16 pairs each."""
    rows = max(1, (1 << 16) // P)
    return [slice(lo, lo + rows) for lo in range(0, P, rows)]


@functools.lru_cache(maxsize=4)
def ring_tables(ctx: TruncCtx) -> RingTables:
    """The tables of ``ctx``, built once per ``ctx.key()``; valid for any k and m.
    Rows run in blocks of about 2^16 pairs, so no temporary outgrows one table."""
    P = ctx.size
    if P > RING_TABLE_LIMIT:
        raise TooLarge(f"ring of size {P} exceeds the dense-table limit {RING_TABLE_LIMIT}")
    idx = np.arange(P, dtype=np.int64)
    add, mul = np.empty((2, P, P), dtype=np.int64)
    for rows in _row_blocks(P):
        add[rows] = ring_add(ctx, idx[rows, None], idx)
        mul[rows] = ring_mul(ctx, idx[rows, None], idx)
    tabs = RingTables(P, add.ravel(), mul.ravel(), ring_neg(ctx, idx))
    for arr in tabs[1:]:
        arr.flags.writeable = False
    return tabs


def ts_mul(ctx: TruncCtx, a: tuple, b: tuple) -> tuple:
    ctx.check(a)
    ctx.check(b)
    return ctx.mul(a, b)


def ts_val(ctx: TruncCtx, a: tuple) -> Optional[int]:
    return ctx.val(a)


def enumerate_ring(ctx: TruncCtx) -> Iterator[tuple]:
    """All q^(m+1) series exactly once, lexicographic, t^0 coefficient outermost."""
    if ctx.size > MAX_ENUM:
        raise TooLarge(f"ring of size {ctx.size} exceeds the single-shard guard 2^40")
    return ctx.elements()
