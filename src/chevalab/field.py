"""Exact arithmetic in F_{ell^k} and in the truncated ring R_m = F_{ell^k}[t]/(t^(m+1)).

Field elements are encoded as integers in [0, q): the element sum(a_i * x^i)
is encoded as sum(a_i * ell^i).  Truncated series are tuples of m+1 element
codes, index i holding the coefficient of t^i.

Enumeration order is fixed once and for all so shard boundaries are
reproducible: field elements by ascending integer code, series
lexicographically with the t^0 coefficient outermost.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import CtxMismatch, NoModulusInTable, NonPrime, TooLarge

# Valuation sentinel for the zero element ("valuation >= m+1").
BOTTOM: Optional[int] = None

MAX_Q = 1 << 16
MAX_M = 31
MAX_ENUM = 1 << 40
MAX_ELL = 251
MAX_K = 16

# Multiplication tables are only materialized for small fields.
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
    """Rabin test for a monic polynomial over Z/ell (low-degree-first)."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    x = [0, 1]
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


def _find_modulus(ell: int, k: int) -> tuple:
    """Lexicographically least monic irreducible of degree k over Z/ell.

    The search order (constant coefficient outermost) is fixed, so the
    modulus table is deterministic run to run.
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
        if is_irreducible(poly, ell):
            mod = tuple(poly)
            _MODULUS_CACHE[key] = mod
            return mod
    raise NoModulusInTable(f"no irreducible modulus found for ell={ell}, k={k}")


class FieldCtx:
    """The finite field F_{ell^k} with integer-coded elements."""

    __slots__ = ("ell", "k", "q", "modulus", "_mul_table", "_inv_table")

    def __init__(self, ell: int, k: int, modulus: tuple):
        self.ell = ell
        self.k = k
        self.q = ell ** k
        self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_LIMIT and k > 1:
            self._build_tables()

    # -- element codecs --
    def digits(self, a: int) -> list:
        ell = self.ell
        return [(a // ell ** i) % ell for i in range(self.k)]

    def encode(self, digits: list) -> int:
        ell = self.ell
        return sum((d % ell) * ell ** i for i, d in enumerate(digits))

    def scalar(self, c: int) -> int:
        """Embed an integer via the prime field."""
        return c % self.ell

    # -- arithmetic --
    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.ell
        ell = self.ell
        return self.encode([(x + y) % ell for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.ell
        ell = self.ell
        return self.encode([(x - y) % ell for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.ell
        return self.encode([(-x) % self.ell for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.ell
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        ell = self.ell
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % ell
        rem = _poly_rem(prod, list(self.modulus), ell)
        rem += [0] * (self.k - len(rem))
        return self.encode(rem[: self.k])

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
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self._mul_raw(a, b)
                table[a * q + b] = v
                table[b * q + a] = v
        self._mul_table = table
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
    if k < 1 or ell ** k > MAX_Q:
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


@functools.lru_cache(maxsize=4)
def ring_tables(ctx: TruncCtx) -> RingTables:
    """The tables of ``ctx``, built once per ``ctx.key()``; valid for any k and m."""
    P = ctx.size
    if P > RING_TABLE_LIMIT:
        raise TooLarge(f"ring of size {P} exceeds the dense-table limit {RING_TABLE_LIMIT}")
    sers = [ctx.from_index(i) for i in range(P)]
    add = np.zeros((P, P), dtype=np.int64)
    mul = np.zeros((P, P), dtype=np.int64)
    neg = np.zeros(P, dtype=np.int64)
    for i, a in enumerate(sers):
        neg[i] = ctx.index(ctx.neg(a))
        for j in range(i, P):
            b = sers[j]
            s = ctx.index(ctx.add(a, b))
            p = ctx.index(ctx.mul(a, b))
            add[i, j] = add[j, i] = s
            mul[i, j] = mul[j, i] = p
    tabs = RingTables(P, add.ravel(), mul.ravel(), neg)
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
