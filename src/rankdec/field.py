"""Exact arithmetic in the tower F_p < F_q < F_{q^m}, plus F_q linear algebra.

Representation.  An element of F_q (q = p^s) is an int in [0, q) whose
base-p digits are its coordinates over the prime field.  An element of
F_{q^m} is an int in [0, q^m) whose base-q digits are its coordinates in
the polynomial basis B = (1, a, ..., a^(m-1)), a being the class of X
modulo ``ext_modulus``.  The two packings agree (both are base-p digit
strings), so addition of packed values is digit-wise mod p at every level,
plain XOR in characteristic two.

Each level is a context: FieldCtx(q, m) is F_{q^m}, and its attribute
``base`` is F_q, itself FieldCtx(p, s) over F_p (plain mod-p arithmetic
when s = 1).  Code that works in F_q calls ``ctx.base`` directly.  Each
context owns its multiplication: log/antilog tables when it has at most
2**18 elements, and polynomial arithmetic modulo its defining polynomial
otherwise, which at q = 2 is a carry-less shift-xor product on plain ints.
The tables are stepped by a linear map (multiplication by the generator);
above the cap the Frobenius x -> x^(q^i) is one linear map per i.

Moduli are chosen deterministically when omitted: the monic irreducible
polynomial whose non-leading coefficients, read high to low as a base-q
(resp. base-p) integer, are smallest.  Two contexts built from the same
(q, m) therefore carry identical arithmetic.

A matrix over F_q is a list of equal-length rows, each a list of packed ints
in [0, q).  ``rref``/``rank``/``kernel_basis``/``solve`` use deterministic
first-nonzero pivoting so every downstream computation, decoders included,
is reproducible bit for bit.

FieldCtx is immutable after construction and safe to share between
threads (its caches, ``trace_dual`` and the Frobenius maps of a context
above the cap, are filled on first use with values that depend on the
context only); every function in this module is pure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InternalInconsistency,
    NotPrimePower,
    ReducibleModulus,
)

__all__ = [
    "FieldCtx",
    "field_create",
    "Subspace",
    "subspace_from_vectors",
    "subspace_elements",
    "subspace_perp",
    "ext",
    "col_support",
    "row_support",
    "rank_weight",
    "rank",
    "rref",
    "kernel_basis",
    "solve",
]

# Log/antilog tables are built only up to this many field elements.
_TABLE_CAP = 1 << 18


# ---------------------------------------------------------------------------
# integer helpers


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, s) with q = p**s, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = _factorize(q)
    if len(fac) != 1:
        return None
    p = fac[0]
    s = 0
    v = q
    while v > 1:
        v //= p
        s += 1
    return p, s


def _unpack_base(v: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % base)
        v //= base
    return out


def _digitwise_add(x: int, y: int, p: int) -> int:
    # packed values are base-p digit strings at every tower level
    if p == 2:
        return x ^ y
    out = 0
    shift = 1
    while x or y:
        out += ((x % p) + (y % p)) % p * shift
        x //= p
        y //= p
        shift *= p
    return out


def _digitwise_neg(x: int, p: int) -> int:
    if p == 2:
        return x
    out = 0
    shift = 1
    while x:
        d = x % p
        if d:
            out += (p - d) * shift
        x //= p
        shift *= p
    return out


def _clmul(x: int, y: int) -> int:
    """Carry-less product of GF(2)[z] polynomials held as ints (bit i is the
    coefficient of z^i): one shift-xor per set bit of y."""
    acc = 0
    while y:
        low = y & -y
        acc ^= x * low
        y ^= low
    return acc


def _read_tables(tables, radix: int, add, x: int) -> int:
    """Value at x of a linear map stored as one table per few digits of x."""
    acc = 0
    for tab in tables:
        acc = add(acc, tab[x % radix])
        x //= radix
    return acc


# ---------------------------------------------------------------------------
# polynomials over an arbitrary level of the tower
#
# Coefficient lists are little-endian with no trailing zeros; the ops
# object supplies scalar arithmetic (duck type: order, p, add, sub, neg,
# mul, inv), so a _PrimeOps or a FieldCtx serves.  The same duck type
# feeds the row reduction _generic_rref, used for F_{q^m} and for F_q with
# q >= 5; F_2, F_3 and F_4 have bit-packed eliminations of their own.


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out.append(F.sub(ai, bi))
    return _ptrim(out)


def _pmul(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _ptrim(out)


def _pdivmod(F, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lead_inv = F.inv(b[-1])
    low = [(i, bi) for i, bi in enumerate(b[:-1]) if bi]
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r.pop()  # the leading term cancels exactly
        if not c:
            continue
        if lead_inv != 1:
            c = F.mul(c, lead_inv)
        off = len(r) - db
        q[off] = c
        for i, bi in low:
            r[off + i] = F.sub(r[off + i], F.mul(c, bi))
    return q, _ptrim(r)


def _pgcd(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(F, a, b)[1]
    return a


def _pmulmod(F, a, b, mod) -> list[int]:
    return _pdivmod(F, _pmul(F, a, b), mod)[1]


def _ppowmod(F, base: Sequence[int], e: int, mod: Sequence[int]) -> list[int]:
    result = [1]
    acc = _pdivmod(F, list(base), mod)[1]
    while e:
        if e & 1:
            result = _pmulmod(F, result, acc, mod)
        acc = _pmulmod(F, acc, acc, mod)
        e >>= 1
    return result


def _pinvmod(F, a: Sequence[int], mod: Sequence[int]) -> list[int]:
    # extended Euclid; gcd(a, mod) must be a unit
    r0, r1 = _ptrim(list(mod)), _ptrim(list(a))
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(F, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _psub(F, t0, _pmul(F, q, t1))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the modulus")
    c = F.inv(r0[0])
    return _ptrim([F.mul(c, v) for v in t0])


def _gf2_invmod(x: int, mod: int) -> int:
    """Inverse of x modulo the irreducible mod, both GF(2)[z] ints as in
    _clmul: extended Euclid keeping g1 * x = u and g2 * x = v modulo mod."""
    u, v, g1, g2 = x, mod, 1, 0
    while u > 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    if u:
        return g1
    raise ZeroDivisionError("element is not invertible modulo the modulus")


def _is_irreducible(F, f: Sequence[int]) -> bool:
    """gcd test: f (monic, over the field described by F) has no factor of
    degree i for any i <= deg(f)/2, hence is irreducible."""
    deg = len(f) - 1
    if deg <= 0 or f[-1] != 1:
        return False
    if deg == 1:
        return True
    x = [0, 1]
    cur = x
    for _ in range(deg // 2):
        cur = _ppowmod(F, cur, F.order, f)
        if len(_pgcd(F, _psub(F, cur, x), f)) != 1:
            return False
    return True


def _smallest_irreducible(F, deg: int) -> tuple[int, ...]:
    for packed in range(F.order**deg):
        f = _unpack_base(packed, F.order, deg) + [1]
        if _is_irreducible(F, f):
            return tuple(f)
    raise InternalInconsistency(
        f"no irreducible polynomial of degree {deg} found"
    )  # pragma: no cover


# ---------------------------------------------------------------------------
# tower levels


class _PrimeOps:
    """Arithmetic of the prime field F_p on ints in [0, p)."""

    __slots__ = ("p", "order")

    def __init__(self, p: int):
        self.p = p
        self.order = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


def _find_generator(ctx) -> int:
    period = ctx.order - 1
    if period == 1:
        return 1
    primes = _factorize(period)
    for cand in range(2, ctx.order):
        if all(ctx.pow(cand, period // r) != 1 for r in primes):
            return cand
    raise InternalInconsistency("multiplicative group has no generator")  # pragma: no cover


def _modulus(F, given, deg: int, name: str, over: str) -> tuple[int, ...]:
    """The default modulus of degree deg over F, or the given one once it
    is checked to be monic and irreducible."""
    if given is None:
        return _smallest_irreducible(F, deg)
    given = tuple(int(c) for c in given)
    if len(given) != deg + 1 or any(not 0 <= c < F.order for c in given):
        raise ReducibleModulus(
            f"{name} modulus must be monic of degree {deg} with coefficients in [0, {F.order})"
        )
    if not _is_irreducible(F, given):
        raise ReducibleModulus(f"{name} modulus is reducible over {over}")
    return given


# ---------------------------------------------------------------------------
# the public context


class FieldCtx:
    """Immutable description of the tower F_q < F_{q^m}.

    Exposes arithmetic on packed ints: ``add``/``sub``/``neg``/``mul``/
    ``inv``/``div``/``pow``/``frob``/``trace``/``smul`` act on F_{q^m};
    ``base`` is the F_q level, with the same ``order``/``p``/``add``/
    ``sub``/``neg``/``mul``/``inv``.  Since F_q sits inside F_{q^m} as
    the constant-coefficient elements, a base-field int is also a valid
    extension-field int and the additive ops agree on it.

    Instances are shareable between threads; construct via field_create,
    which caches per (q, m, moduli).
    """

    __slots__ = (
        "q",
        "p",
        "s",
        "m",
        "order",
        "base_modulus",
        "ext_modulus",
        "basis",
        "base",
        "_exp",
        "_log",
        "_period",
        "_qexp",
        "_qpows",
        "_frob_maps",
        "_mod",
        "_dual",
    )

    def __init__(self, q, m, base_modulus=None, ext_modulus=None):
        pp = _prime_power(q)
        if pp is None:
            raise NotPrimePower(f"{q} is not a prime power")
        p, s = pp
        if m < 1:
            raise ValueError("extension degree m must be at least 1")
        self.q = q
        self.p = p
        self.s = s
        self.m = m
        self.order = q**m

        prime = _PrimeOps(p)
        self.base_modulus = _modulus(prime, base_modulus, s, "base", "the prime field")
        self.base = prime if s == 1 else field_create(p, s, None, self.base_modulus)
        self.ext_modulus = _modulus(self.base, ext_modulus, m, "extension", "F_q")

        self.basis = tuple(q**a for a in range(m))
        self._qpows = tuple(q**a for a in range(m + 1))
        self._mod = self.pack(self.ext_modulus)  # at q = 2, the modulus as a GF(2)[z] int
        self._exp = self._log = self._qexp = self._frob_maps = self._dual = None
        self._period = self.order - 1
        if self.order <= _TABLE_CAP:
            self._build_tables()
            self._qexp = tuple(pow(q, i, self._period) for i in range(m))
        else:
            self._frob_maps = [None] * m  # x -> x^(q^i) as a linear_map, built on first use

    def _mul_slow(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self.q == 2:
            acc, d = _clmul(x, y), self.m
            while acc >> d:  # cancel the terms of degree >= m by multiples of the modulus
                acc ^= _clmul(acc >> d, self._mod)
            return acc
        q, m = self.q, self.m
        return self.pack(_pmulmod(self.base, _unpack_base(x, q, m), _unpack_base(y, q, m), self.ext_modulus))

    def _build_tables(self) -> None:
        gen = _find_generator(self)
        step = self.linear_map([self._mul_slow(b, gen) for b in self.basis])
        exp = [0] * max(self._period, 1)
        log = [-1] * self.order
        acc = 1
        for i in range(self._period):
            exp[i] = acc
            log[acc] = i
            acc = step(acc)
        if acc != 1:  # pragma: no cover
            raise InternalInconsistency("generator order mismatch")
        self._exp = exp
        self._log = log

    # -- extension field ops ------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return _digitwise_add(x, y, self.p)

    def sub(self, x: int, y: int) -> int:
        return _digitwise_add(x, _digitwise_neg(y, self.p), self.p)

    def neg(self, x: int) -> int:
        return _digitwise_neg(x, self.p)

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[x] + self._log[y]) % self._period]
        return self._mul_slow(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[x]) % self._period]
        if self.q == 2:
            return _gf2_invmod(x, self._mod)
        digits = _pinvmod(self.base, _ptrim(_unpack_base(x, self.q, self.m)), self.ext_modulus)
        return self.pack(digits)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[x] * e) % self._period]
        result = 1
        while e:
            if e & 1:
                result = self._mul_slow(result, x)
            x = self._mul_slow(x, x)
            e >>= 1
        return result

    def frob(self, x: int, i: int = 1) -> int:
        """x raised to the q^i power (the i-fold Frobenius)."""
        i %= self.m
        if i == 0 or x == 0:
            return x
        if self._exp is not None:
            return self._exp[(self._log[x] * self._qexp[i]) % self._period]
        maps = self._frob_maps
        if maps[i] is None:  # a race fills it twice with the same map
            maps[i] = self._frob_map(i)
        return maps[i](x)

    def _frob_map(self, i: int):
        # kept out of frob: a comprehension there would turn frob's locals
        # into closure cells, which slows its table path by about a quarter
        return self.linear_map([self.pow(b, self._qpows[i]) for b in self.basis])

    def trace(self, x: int) -> int:
        """Trace down to F_q: the sum of all Frobenius images of x."""
        acc = x
        cur = x
        for _ in range(self.m - 1):
            cur = self.frob(cur, 1)
            acc = self.add(acc, cur)
        if acc >= self.q:
            raise InternalInconsistency("trace landed outside the base field")
        return acc

    def trace_dual(self):
        """(beta, D) for the polynomial basis B, built on first use.

        beta is the trace-dual basis, Tr(beta_r * b_a) = [r == a], so digit
        r of x is Tr(beta_r * x).  D(x) is the packed element whose digit a
        is Tr(x * b_a), that is, x's coordinates in beta.
        """
        if self._dual is None:
            m, basis = self.m, self.basis
            # Tr(b_s * b_a) = Tr(a^(s+a)): a Hankel matrix from 2m - 1 traces,
            # invertible because the trace form is nondegenerate
            powers = basis + tuple(self.mul(b, basis[-1]) for b in basis[1:])
            tr = [self.trace(x) for x in powers]
            hankel = [tr[s : s + m] for s in range(m)]
            aug = [row + [int(r == s) for r in range(m)] for s, row in enumerate(hankel)]
            beta = tuple(self.pack(row[m:]) for row in rref(self, aug))
            self._dual = (beta, self.linear_map([self.pack(row) for row in hankel]))
        return self._dual

    def linear_map(self, images: Sequence[int]):
        """The F_q-linear map x -> sum_s digit_s(x) * images[s] on F_{q^m}.

        It is read off one table per few digits of x, each of at most
        max(q, 256) entries (max(q, 16) at p = 2), whatever q^m is.  The
        images are packed like field elements; at q = 2 they may be bit
        strings of any length.
        """
        q = self.q
        # one more table costs an XOR at p = 2, a digit-wise addition otherwise
        width = max(1, (4 if self.p == 2 else 8) // (q - 1).bit_length())
        radix = q**width
        add = operator.xor if self.p == 2 else functools.partial(_digitwise_add, p=self.p)
        tables = []  # tables[c][v] is the image of v * q^(c * width), v < radix
        for c in range(0, self.m, width):
            tab = [0]
            for img in images[c : c + width]:
                scaled = [self.smul(d, img) for d in range(q)]
                tab = [add(x, y) for y in scaled for x in tab]
            tables.append(tab)
        return functools.partial(_read_tables, tables, radix, add)  # picklable, like the context

    def smul(self, c: int, x: int) -> int:
        """Scalar action of c in F_q on x in F_{q^m} (coefficient-wise)."""
        if c == 0 or x == 0:
            return 0
        if c == 1:
            return x
        F = self.base
        return self.pack(F.mul(c, d) for d in self.digits(x))

    def digits(self, x: int) -> tuple[int, ...]:
        """Coordinates of x in the polynomial basis B (little-endian)."""
        q = self.q
        return tuple((x // self._qpows[a]) % q for a in range(self.m))

    def pack(self, digits: Iterable[int]) -> int:
        out = 0
        for a, d in enumerate(digits):
            if d:
                out += d * self._qpows[a]
        return out

    # -- plumbing -----------------------------------------------------------

    def is_elem(self, x) -> bool:
        return issubclass(type(x), int) and 0 <= x < self.order

    def check_word(self, word: Sequence[int]) -> None:
        for x in word:
            if not self.is_elem(x):
                raise ValueError(f"{x!r} is not an element of F_{self.q}^{self.m}")

    def elem_to_coeffs(self, x: int) -> list[int]:
        """Little-endian base-field coefficient list of length m."""
        return list(self.digits(x))

    def elem_from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.m or any(not 0 <= c < self.q for c in coeffs):
            raise ValueError(f"expected {self.m} coefficients in [0, {self.q})")
        return self.pack(coeffs)

    def word_to_coeffs(self, word: Sequence[int]) -> list[list[int]]:
        return [self.elem_to_coeffs(x) for x in word]

    def word_from_coeffs(self, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
        return tuple(self.elem_from_coeffs(r) for r in rows)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "base_modulus": list(self.base_modulus),
            "ext_modulus": list(self.ext_modulus),
        }

    @staticmethod
    def from_json(obj: dict) -> "FieldCtx":
        return field_create(
            obj["q"], obj["m"], obj.get("base_modulus"), obj.get("ext_modulus")
        )

    def __eq__(self, other):
        return (
            type(other) is FieldCtx
            and self.q == other.q
            and self.m == other.m
            and self.base_modulus == other.base_modulus
            and self.ext_modulus == other.ext_modulus
        )

    def __hash__(self):
        return hash((self.q, self.m, self.base_modulus, self.ext_modulus))

    def __repr__(self):
        return f"FieldCtx(q={self.q}, m={self.m})"


@functools.lru_cache(maxsize=None)
def _field_cached(q, m, base_modulus, ext_modulus):
    return FieldCtx(q, m, base_modulus, ext_modulus)


def field_create(q: int, m: int, base_modulus=None, ext_modulus=None) -> FieldCtx:
    """Build (or fetch from cache) the arithmetic context for F_q < F_{q^m}.

    Omitted moduli are chosen deterministically, so (q, m) alone pins down
    every packed value this context will ever produce.
    """
    bm = tuple(int(c) for c in base_modulus) if base_modulus is not None else None
    em = tuple(int(c) for c in ext_modulus) if ext_modulus is not None else None
    return _field_cached(q, m, bm, em)


# ---------------------------------------------------------------------------
# linear algebra over F_q


def _gf2_rref(packed: list[int], ncols: int) -> list[int]:
    """In-place RREF of bit-packed rows; returns the pivot column list."""
    pivots = []
    r = 0
    nrows = len(packed)
    for c in range(ncols):
        bit = 1 << c
        pr = -1
        for i in range(r, nrows):
            if packed[i] & bit:
                pr = i
                break
        if pr < 0:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        prow = packed[r]
        for i in range(nrows):
            if i != r and packed[i] & bit:
                packed[i] ^= prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _generic_rref(rows: list[list[int]], F) -> list[int]:
    """In-place RREF with first-nonzero pivoting over the level F (ctx.base
    for F_q, the context itself for F_{q^m}); returns the pivot columns."""
    sub, mul, inv = F.sub, F.mul, F.inv
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pinv = inv(rows[r][c])
        if pinv != 1:
            rows[r] = [mul(pinv, v) for v in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [sub(v, mul(f, pj)) for v, pj in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _width(F, rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    """Column count of a nonempty matrix over the level F, checked against
    every row; every entry must be an element of F."""
    if ncols is None:
        ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row of the matrix must have {ncols} entries")
    order = F.order
    entries = list(itertools.chain.from_iterable(rows))
    typed = all(issubclass(t, int) for t in set(map(type, entries)))
    if not (typed and 0 <= min(entries, default=0) and max(entries, default=0) < order):
        raise ValueError(f"matrix entries must be ints in [0, {order})")
    return ncols


# entries as bytes -> their bit 0 and bit 1 as the digits of a binary numeral
_PLANE_LO = bytes.maketrans(b"\0\1\2\3", b"0101")
_PLANE_HI = bytes.maketrans(b"\0\1\2\3", b"0011")


def _pack_planes(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of F_q entries, q <= 4, as their two bit planes (lo, hi); an
    F_2 row is its lo plane, and its hi plane is zero."""
    digits = [b"\0" + bytes(row)[::-1] for row in rows]
    return [[int(d.translate(plane), 2) for d in digits] for plane in (_PLANE_LO, _PLANE_HI)]


def _plane_digits(lo: int, hi: int, ncols: int) -> list[int]:
    """The entries of one bit-plane row."""
    return [(lo >> j & 1) | (hi >> j & 1) << 1 for j in range(ncols)]


def _planes_rref(lo: list[int], hi: list[int], ncols: int, q: int) -> list[int]:
    """In-place RREF over F_3 or F_4 with the pivoting of _generic_rref, on
    rows held as bit planes: bit j of lo[i] and hi[i] are bits 0 and 1 of
    entry (i, j).  Returns the pivot columns.

    F_3: the sum of (x, y) and (u, v) is (y|v ^ s, x|u ^ s) with
    s = (x|v) ^ (y|u), and negation swaps the planes.  F_4: entry
    a0 + 2*a1 is a0 + a1*w with w^2 = w + 1; sums are plane-wise XOR, and
    w maps (a, b) to (b, a^b), w^2 maps it to (a^b, a).
    """
    pivots = []
    r = 0
    nrows = len(lo)
    for c in range(ncols):
        bit = 1 << c
        pr = -1
        for i in range(r, nrows):
            if (lo[i] | hi[i]) & bit:
                pr = i
                break
        if pr < 0:
            continue
        a, b = lo[pr], hi[pr]
        lo[pr], hi[pr] = lo[r], hi[r]
        if b & bit:  # scale the pivot entry to 1
            a, b = (b, a) if q == 3 else (b, a ^ b) if a & bit else (a ^ b, a)
        lo[r], hi[r] = a, b
        ab = a ^ b
        for i in range(nrows):
            x, y = lo[i], hi[i]
            if i == r or not (x | y) & bit:
                continue
            # add (u, v) = -f times the pivot row, f being entry (i, c)
            if q == 3:
                u, v = (a, b) if y & bit else (b, a)
                s = (x | v) ^ (y | u)
                lo[i], hi[i] = (y | v) ^ s, (x | u) ^ s
            else:
                u, v = ((ab, a) if x & bit else (b, ab)) if y & bit else (a, b)
                lo[i], hi[i] = x ^ u, y ^ v
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduce(ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int) -> tuple[list, list[int], Callable]:
    """RREF of validated rows over F_q by the elimination that suits q: on
    bit planes at q <= 4 (_gf2_rref on the lo plane alone at q = 2),
    _generic_rref otherwise.  Returns the reduced rows, still packed, the
    pivot columns and the function that unpacks a reduced row into its
    digit list."""
    q = ctx.q
    if q <= 4:
        lo, hi = _pack_planes(rows)
        pivots = _gf2_rref(lo, ncols) if q == 2 else _planes_rref(lo, hi, ncols, q)
        return list(zip(lo, hi)), pivots, lambda v: _plane_digits(*v, ncols)
    work = [list(r) for r in rows]
    return work, _generic_rref(work, ctx.base), lambda v: v


def _rref_with_pivots(
    ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """RREF of validated rows as digit lists, and its pivot columns."""
    reduced, pivots, unpack = _reduce(ctx, rows, ncols)
    return [unpack(v) for v in reduced], pivots


def _gf2_kernel_packed(packed: list[int], ncols: int) -> list[int]:
    """Kernel basis of bit-packed rows, as bit-packed vectors (canonical)."""
    pivots = _gf2_rref(packed, ncols)
    pivot_set = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        fbit = 1 << f
        for idx, c in enumerate(pivots):
            if packed[idx] & fbit:
                v |= 1 << c
        vecs.append(v)
    if vecs:
        _gf2_rref(vecs, ncols)  # vectors are independent, so no zero rows appear
    return vecs


def _planes_kernel(lo: list[int], hi: list[int], ncols: int, q: int) -> list[tuple[int, int]]:
    """Kernel basis of rows held as bit planes over F_3 or F_4 (reduced in
    place), as (lo, hi) pairs in the canonical order of kernel_basis.

    Only the free columns of the reduced rows are read.  The vector of
    free column f is 1 at f and minus entry (idx, f) at the pivot column of
    row idx; negation swaps the planes at F_3 and is the identity at F_4.
    """
    pivots = _planes_rref(lo, hi, ncols, q)
    neg_lo, neg_hi = (hi, lo) if q == 3 else (lo, hi)
    vlo, vhi = [], []
    for f in sorted(set(range(ncols)).difference(pivots)):
        a, b = 1 << f, 0
        for idx, c in enumerate(pivots):
            if c > f:  # rows from here on are zero at column f
                break
            a |= (neg_lo[idx] >> f & 1) << c
            b |= (neg_hi[idx] >> f & 1) << c
        vlo.append(a)
        vhi.append(b)
    _planes_rref(vlo, vhi, ncols, q)  # independent vectors: no zero rows
    return list(zip(vlo, vhi))


def rref(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Reduced row echelon form (idempotent, shape preserved)."""
    if not rows:
        return []
    return _rref_with_pivots(ctx, rows, _width(ctx.base, rows))[0]


def rank(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> int:
    if not rows:
        return 0
    return len(_reduce(ctx, rows, _width(ctx.base, rows))[1])


def fqm_rank(ctx: FieldCtx, mat: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix with entries in F_{q^m}, over F_{q^m}."""
    if not mat:
        return 0
    _width(ctx, mat)
    return len(_generic_rref([list(r) for r in mat], ctx))


def kernel_basis(ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[list[int]]:
    """Echelonized basis of the right null space {v : rows . v = 0}.

    Deterministic: the same matrix always yields the same basis, in the
    same order.
    """
    if not rows and ncols is None:
        raise ValueError("ncols is required for a matrix with no rows")
    F = ctx.base
    ncols = _width(F, rows, ncols)
    if ctx.q <= 4:
        lo, hi = _pack_planes(rows)
        if ctx.q == 2:
            return [_plane_digits(v, 0, ncols) for v in _gf2_kernel_packed(lo, ncols)]
        return [_plane_digits(a, b, ncols) for a, b in _planes_kernel(lo, hi, ncols, ctx.q)]
    reduced, pivots = _rref_with_pivots(ctx, rows, ncols)
    vecs = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[f] = 1
        for idx, c in enumerate(pivots):
            v[c] = F.neg(reduced[idx][f])
        vecs.append(v)
    return _rref_with_pivots(ctx, vecs, ncols)[0]  # independent vectors: no zero rows


def solve(ctx: FieldCtx, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """One solution of rows . v = rhs (free variables zero), or None."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match the number of rows")
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = _rref_with_pivots(ctx, aug, _width(ctx.base, aug))  # checks rows and rhs at once
    ncols = len(aug[0]) - 1
    if ncols in pivots:
        return None  # inconsistent: pivot in the rhs column
    v = [0] * ncols
    for idx, c in enumerate(pivots):
        v[c] = reduced[idx][ncols]
    return v


# ---------------------------------------------------------------------------
# matrix expansion, supports, subspaces


def ext(ctx: FieldCtx, word: Sequence[int]) -> list[list[int]]:
    """m x n expansion of a word: column j holds the coordinates of word[j]."""
    ctx.check_word(word)
    cols = [ctx.digits(x) for x in word]
    return [[col[r] for col in cols] for r in range(ctx.m)]


def rank_weight(ctx: FieldCtx, word: Sequence[int]) -> int:
    """Rank of the matrix expansion of the word."""
    if not word:
        return 0
    return rank(ctx, ext(ctx, word))


def stacked_rank(ctx: FieldCtx, mat: Sequence[Sequence[int]]) -> int:
    """F_q-rank of the u*m x n expansion obtained by expanding every row."""
    stacked: list[list[int]] = []
    for row in mat:
        stacked.extend(ext(ctx, row))
    return rank(ctx, stacked)


@dataclass(frozen=True)
class Subspace:
    """F_q-subspace given by its canonical echelon basis.

    Canonical means: equal subspaces compare equal as plain data.  Rows
    are coordinate tuples of length ``ambient`` (for subspaces of F_{q^m}
    the coordinates are taken in the polynomial basis, so a row packs
    directly into a field element).
    """

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, ctx: FieldCtx, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient:
            raise ValueError(f"vector must have {self.ambient} entries")
        F = ctx.base
        v = list(vec)
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            c = v[lead]
            if c:
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
        return not any(v)


def subspace_from_vectors(ctx: FieldCtx, ambient: int, vectors: Iterable[Sequence[int]]) -> Subspace:
    rows = [list(v) for v in vectors]
    if not rows:
        return Subspace(ambient, ())
    reduced, pivots = _rref_with_pivots(ctx, rows, _width(ctx.base, rows, ambient))
    return Subspace(ambient, tuple(tuple(reduced[i]) for i in range(len(pivots))))


def subspace_elements(ctx: FieldCtx, space: Subspace) -> Iterator[tuple[int, ...]]:
    """All coordinate vectors of the subspace (q**dim of them)."""
    F = ctx.base
    basis = space.basis
    for coeffs in itertools.product(range(ctx.q), repeat=space.dim):
        v = [0] * space.ambient
        for c, row in zip(coeffs, basis):
            if c:
                v = [F.add(a, F.mul(c, b)) for a, b in zip(v, row)]
        yield tuple(v)


def col_support(ctx: FieldCtx, word: Sequence[int]) -> Subspace:
    """F_q-span of the word entries, as a subspace of F_{q^m}."""
    ctx.check_word(word)
    return subspace_from_vectors(ctx, ctx.m, (ctx.digits(x) for x in word))


def row_support(ctx: FieldCtx, word: Sequence[int]) -> Subspace:
    """Row space of the word's matrix expansion, a subspace of F_q^n."""
    return subspace_from_vectors(ctx, len(word), ext(ctx, word))


def subspace_perp(ctx: FieldCtx, space: Subspace) -> Subspace:
    """Orthogonal complement under the trace form (x, y) -> Tr(x y)."""
    m = ctx.m
    if space.ambient != m:
        raise ValueError("perp is defined for subspaces of the extension field")
    dual = ctx.trace_dual()[1]  # digit a of D(v) is Tr(v * b_a)
    kern = kernel_basis(ctx, [ctx.digits(dual(ctx.pack(row))) for row in space.basis], m)
    return Subspace(m, tuple(tuple(r) for r in kern))
