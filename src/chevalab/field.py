"""Exact arithmetic in F_{ell^k} and in the truncated ring R_m = F_{ell^k}[t]/(t^(m+1)).

Field elements are encoded as integers in [0, q): the element sum(a_i * x^i)
is encoded as sum(a_i * ell^i).  Truncated series are tuples of m+1 element
codes, index i holding the coefficient of t^i.

Enumeration order is fixed once and for all so shard boundaries are
reproducible: field elements by ascending integer code, series
lexicographically with the t^0 coefficient outermost.

A series is also its ring index (``TruncCtx.index``), a base-ell number
with N = k(m+1) digits: digit e = (m-i)k + j is the g^j coefficient of the
t^i coefficient (g = x, the root of the field modulus), so the t^0
coefficient is the top digit.  ``ring_add``, ``ring_neg``, ``ring_mul``
and ``ring_val`` take ring indices, ints or broadcasting int64 arrays;
``ring_tables`` runs add and mul over all pairs.

Add, neg and mul share one packed layout per ring (``_layout``): the
t^i g^j coefficient of an index sits in bit slot i(2k-1) + j of int64
chunk words, so an element is its polynomial in t and g read at a power of
two.  A sum adds words, and a product is a Kronecker substitution: chunk
products, one machine multiply per pair, whose halves add into the output
chunks.  The slots j >= k of a t-degree hold the unreduced terms g^(j+j')
of a product.  No slot sum carries into the next slot, so unpacking reads
the slots apart: it reduces each t-degree's g-slots by the field modulus
and each digit mod ell, through tables of at most 2^12 entries over runs
of slots, or arithmetically where a run is too wide for a table.
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


def _has_root(poly: list, ell: int) -> bool:
    """Whether the polynomial (low-degree-first) vanishes at some a in Z/ell."""
    for a in range(ell):
        v = 0
        for c in reversed(poly):
            v = (v * a + c) % ell
        if v == 0:
            return True
    return False


@functools.lru_cache(maxsize=64)
def _find_modulus(ell: int, k: int) -> tuple:
    """Lexicographically least monic irreducible of degree k over Z/ell.

    The search order (constant coefficient outermost) is fixed, so the
    modulus table is deterministic run to run.  A candidate with a root in
    Z/ell has a linear factor, so it is skipped before the Rabin test; that
    drops every candidate with constant term 0, the first half of the order.
    """
    if k == 1:
        return (0, 1)
    for lower in itertools.product(range(ell), repeat=k):
        poly = list(lower) + [1]
        if not _has_root(poly, ell) and is_irreducible(poly, ell):
            return tuple(poly)
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


# A product of chunk words stays below 2^62, so no sum reaches the int64 sign bit.
_WORD_BITS = 62
# Bits of the widest run of slots one unpack table covers; a pack table has at most 2^12 entries too.
_TABLE_BITS = 12


def _power_rows(field: FieldCtx) -> np.ndarray:
    """(2k - 1, k): row j holds the F_ell digits of g^j mod the field modulus,
    so row j + j' is the product of the basis elements g^j and g^j'."""
    rows = [_poly_rem([0] * j + [1], list(field.modulus), field.ell) for j in range(2 * field.k - 1)]
    return np.array([r + [0] * (field.k - len(r)) for r in rows], dtype=np.int64)


def _reduce(v, rows: Optional[np.ndarray], ell: int, place: np.ndarray):
    """The ring-index share of units whose slots hold v (G, n, ...): the slot
    values times rows (n, d), whose rows j < d are the identity (None: one
    digit per slot), each digit mod ell and placed at place (G, d)."""
    k = place.shape[1]
    d = v if rows is None else v[:, :k] + np.einsum("gj...,ju->gu...", v[:, k:], rows[k:])
    return np.einsum("gu...,gu->...", d - d // ell * ell, place)  # d % ell, at twice the speed


def _unpack_plan(ell: int, w: int, s: int, slots: np.ndarray, rows, place: np.ndarray) -> tuple:
    """(runs, rest) for units of adjacent slots, slots[u] (G, n).  Runs of
    adjacent units inside one chunk share a table of at most 2^12 entries,
    ``_reduce`` over every value of their bits: (chunk, shift, mask, table).
    The units too wide for a table, or across two chunks, are the rest
    (chunk, shift, mask, rows, place), reduced arithmetically."""
    bits, runs, rest = slots.shape[1] * w, [], []  # bits of one unit; runs: lists of units
    for u, (lo, hi) in enumerate(slots[:, [0, -1]].tolist()):
        if bits > _TABLE_BITS or lo // s != hi // s:
            rest.append(u)
        elif (runs and slots[runs[-1][-1], -1] == lo - 1 and lo % s  # adjacent, in one chunk
              and (len(runs[-1]) + 1) * bits <= _TABLE_BITS):
            runs[-1].append(u)
        else:
            runs.append([u])
    tables = []
    for us in runs:
        n, lo = len(us) * bits, slots[us[0], 0]
        shift = w * np.arange(len(us) * slots.shape[1]).reshape(len(us), -1, 1)
        table = _reduce(np.arange(1 << n) >> shift & (1 << w) - 1, rows, ell, place[us])
        tables.append((lo // s, lo % s * w, (1 << n) - 1, table))
    chunk, at = np.divmod(slots[rest], s)
    return tuple(tables), (chunk, at * w, (1 << w) - 1, rows, place[rest]) if rest else None


class _Layout(NamedTuple):
    """The packed layout of R_m (``_layout``): slot i(2k-1) + j, w bits wide,
    holds the t^i g^j coefficient, and slots fill int64 chunk words of s
    slots.  ``live`` lists the chunks that hold digits of an index.
    ``pack`` is (chunk, mod, table), from the least significant digits up:
    table[x % mod] places a run of index digits in its chunk, and x // mod
    goes on to the next run (mod None: the top run, x itself).  ``sums``
    unpacks slots j < k, one digit each; ``products`` unpacks t-degrees,
    2k - 1 slots each, reduced by the rows g^j mod the modulus."""

    w: int
    s: int
    chunks: int
    live: tuple
    pack: tuple
    sums: tuple
    products: tuple


@functools.lru_cache(maxsize=8)
def _layout(ctx: TruncCtx) -> _Layout:
    """The packed layout of ``ctx``, built once per ``ctx.key()``.  A slot
    of w = bits(max((ell-1)^2 k (m+1), 2(ell-1))) bits holds every sum that
    ``ring_add``, ``ring_neg`` or ``ring_mul`` leaves in it, and
    (2s - 1) w <= _WORD_BITS, so a product of two chunks carries out of no
    slot and stays below 2^62.  A t-degree's 2k - 1 g-slots keep the terms
    g^(j + j') of a product apart until unpacking reduces them."""
    if ctx.size > 1 << 63:
        raise TooLarge(f"ring of size {ctx.size}: its indices exceed int64")
    ell, k, m = ctx.field.ell, ctx.field.k, ctx.m
    g, w = 2 * k - 1, max((ell - 1) ** 2 * k * (m + 1), 2 * (ell - 1)).bit_length()
    s = (_WORD_BITS // w + 1) // 2
    slots = np.arange(m + 1)[:, None] * g + np.arange(g)  # [i, j]: the slot of t^i g^j
    place = ell ** ((m - np.arange(m + 1))[:, None] * k + np.arange(k))  # [i, j]: ell^((m-i)k + j)
    sums = _unpack_plan(ell, w, s, slots[:, :k].reshape(-1, 1), None, place.reshape(-1, 1))
    runs: list = []  # digits from e = 0 up (t^m g^0 first), a run sharing a chunk and a table
    for sl in slots[::-1, :k].ravel().tolist():
        if runs and runs[-1][-1] // s == sl // s and ell ** (len(runs[-1]) + 1) <= 1 << _TABLE_BITS:
            runs[-1].append(sl)
        else:
            runs.append([sl])
    pack = []
    for run in runs:
        digits = np.arange(ell ** len(run))[:, None] // ell ** np.arange(len(run)) % ell
        mod = None if run is runs[-1] else ell ** len(run)
        pack.append((run[0] // s, mod, digits @ (1 << np.array(run) % s * w)))
    live = tuple(sorted({run[0] // s for run in runs}))
    products = sums if k == 1 else _unpack_plan(ell, w, s, slots, _power_rows(ctx.field), place)
    return _Layout(w, s, -(-(m + 1) * g // s), live, tuple(pack), sums, products)


def _pack(lay: _Layout, x) -> list:
    """The chunk words of ring indices x, 0 for a chunk that holds no digit."""
    x = np.asarray(x, dtype=np.int64)
    words: list = [0] * lay.chunks
    for c, mod, table in lay.pack:
        high = x if mod is None else x // mod
        words[c] = words[c] + table.take(x if mod is None else x - high * mod)
        x = high
    return words


def _unpack(ctx: TruncCtx, words: list, plan: tuple):
    """The ring indices of chunk words, by a plan of ``_unpack_plan``."""
    runs, rest = plan
    out = 0
    for c, shift, mask, table in runs:
        out = out + table.take((words[c] >> shift if shift else words[c]) & mask)
    if rest is not None:
        chunk, shift, mask, rows, place = rest
        word = np.stack(np.broadcast_arrays(*words))[chunk]  # (unit, slot, ...)
        out = out + _reduce(word >> shift.reshape(shift.shape + (1,) * (word.ndim - 2)) & mask, rows,
                            ctx.field.ell, place)
    return out if np.ndim(out) else int(out)


def ring_add(ctx: TruncCtx, x, y):
    """Ring index of x + y: the packed words added, each slot at most 2(ell - 1)."""
    lay = _layout(ctx)
    return _unpack(ctx, [a + b for a, b in zip(_pack(lay, x), _pack(lay, y))], lay.sums)


def ring_neg(ctx: TruncCtx, x):
    """Ring index of -x: the packed words times ell - 1."""
    lay = _layout(ctx)
    return _unpack(ctx, [(ctx.field.ell - 1) * a for a in _pack(lay, x)], lay.sums)


def ring_mul(ctx: TruncCtx, x, y):
    """Ring index of x * y, by Kronecker substitution on the packed words.

    ``ring_add``, ``ring_neg`` and ``ring_mul`` take ints (giving an int) or
    broadcasting int64 arrays, and raise TooLarge on rings whose indices
    pass int64.  A product of chunks X_c Y_c' holds 2s - 1 slots: its low s
    slots add into output chunk c + c', the rest into chunk c + c' + 1, and
    slots past t^m are dropped.  One chunk is one multiply per pair."""
    lay = _layout(ctx)
    X, Y = _pack(lay, x), _pack(lay, y)
    C, half = lay.chunks, lay.s * lay.w
    words: list = [0] * C
    for c, c2 in itertools.product(lay.live, repeat=2):
        if c + c2 < C:
            p = X[c] * Y[c2]
            words[c + c2] = words[c + c2] + (p if C == 1 else p & (1 << half) - 1)
            if c + c2 + 1 < C:
                words[c + c2 + 1] = words[c + c2 + 1] + (p >> half)
    return _unpack(ctx, words, lay.products)


def ring_val(ctx: TruncCtx, x):
    """val of ring index x, m + 1 for zero: #{j <= m : x < q^j}, t^0 being the top digit."""
    return sum(x < ctx.field.q ** j for j in range(ctx.m + 1))


def _row_blocks(P: int) -> list:
    """Row slices of the P x P grid of index pairs, about 2^14 pairs each, so an
    int64 temporary of the ring ops on a block stays near 128 KB."""
    rows = max(1, (1 << 14) // P)
    return [slice(lo, lo + rows) for lo in range(0, P, rows)]


@functools.lru_cache(maxsize=4)
def ring_tables(ctx: TruncCtx) -> RingTables:
    """The tables of ``ctx``, built once per ``ctx.key()`` from ``ring_add``,
    ``ring_mul`` and ``ring_neg`` on every pair or element; valid for any k
    and m.  Rows run in blocks of about 2^14 pairs (``_row_blocks``)."""
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

