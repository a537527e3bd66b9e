"""Exact arithmetic in a prime field F_q and its degree-m extension F_{q^m}.

An extension element is stored as a plain int: the base-q digits of the
int, least significant first, are the coefficients of the polynomial-basis
representation.  For q = 2 an element is therefore literally the bit
pattern of its coefficient vector, addition is XOR, and zero is uniformly
the int 0.  Log/antilog tables are built at construction (the order cap
guarantees they fit) and back multiplication, inversion, powering and the
Frobenius map x -> x^q.  For q > 2 a Zech-logarithm table Z, with
alpha^Z[k] = 1 + alpha^k (Huber, IEEE Trans. IT 1990), makes a sum one
lookup as well: a + b = alpha^(log a + Z[log b - log a]).  The digit
conversions `coeffs`/`from_coeffs` serve representation only.

Moduli are little-endian coefficient sequences, e.g. [1, 1, 0, 0, 1] for
x^4 + x + 1, and are re-verified irreducible at construction by trial
division against every lower-degree monic polynomial.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    InvariantViolated,
    NotIrreducible,
    PreconditionError,
    UnsupportedSize,
    json_field,
    json_ints,
    require,
)

#: Largest permitted field size; keeps exhaustive element iteration feasible.
DEFAULT_ORDER_CAP = 2**16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=2**14)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            primes.append(p)
        p += 1 if p == 2 else 2
    return tuple(Counter(primes + [n] * (n > 1)).items())


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q (coefficient tuples, little-endian, no
# trailing-zero normalization required by callers).
# ---------------------------------------------------------------------------

def _poly_trim(p: Sequence[int]) -> tuple[int, ...]:
    d = len(p)
    while d > 0 and p[d - 1] == 0:
        d -= 1
    return tuple(p[:d])


def _poly_mod(a: Sequence[int], b: Sequence[int], q: int) -> tuple[int, ...]:
    """Remainder of a modulo b over F_q.  b must be nonzero."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    db = len(b) - 1
    inv_lead = pow(b[-1], q - 2, q) if q > 2 else 1
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % q
        for i, coef in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * coef) % q
        a = list(_poly_trim(a))
    return tuple(a)


def _monic_polys(q: int, degree: int) -> Iterable[tuple[int, ...]]:
    for low in range(q**degree):
        coeffs = []
        x = low
        for _ in range(degree):
            coeffs.append(x % q)
            x //= q
        yield tuple(coeffs) + (1,)


def poly_is_irreducible(p: Sequence[int], q: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(p)//2."""
    p = _poly_trim(p)
    m = len(p) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for g in _monic_polys(q, d):
            if not _poly_mod(p, g, q):
                return False
    return True


@lru_cache(maxsize=64)
def smallest_irreducible(q: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_q; the
    default modulus of `ctx_new`, so searched once per (q, m)."""
    for g in _monic_polys(q, m):
        if poly_is_irreducible(g, q):
            return g
    raise InvariantViolated("irreducible polynomials exist for every degree")


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

class PrimeField:
    """F_q = Z/qZ for prime q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        if not is_prime(q):
            raise PreconditionError(f"q={q} is not prime")
        self.q = q
        self.order = q
        self.zero = 0
        self.one = 1 % q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise DivisionByZero("0 has no inverse")
        return pow(a, self.q - 2, self.q)

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class FieldCtx:
    """The tower F_q < F_{q^m}: modulus, arithmetic, Frobenius.

    Immutable after construction; all operations are pure functions, so a
    context is safely shareable across concurrent tasks.
    """

    def __init__(self, q: int, m: int, modulus: Sequence[int]):
        if not is_prime(q):
            raise PreconditionError(f"q={q} is not prime (prime-power base fields are out of scope)")
        if m < 1:
            raise PreconditionError(f"extension degree m={m} must be >= 1")
        if q**m > DEFAULT_ORDER_CAP:
            raise UnsupportedSize(f"q^m = {q**m} exceeds the cap {DEFAULT_ORDER_CAP}")
        modulus = tuple(int(c) % q for c in modulus)
        if len(modulus) != m + 1:
            raise PreconditionError(f"modulus must have degree m={m} (got {len(modulus) - 1})")
        if modulus[-1] != 1:
            raise PreconditionError("modulus must be monic")
        if not poly_is_irreducible(modulus, q):
            raise NotIrreducible(f"modulus {list(modulus)} factors over F_{q}")

        self.q = q
        self.m = m
        self.modulus = modulus
        self.order = q**m
        self.base = PrimeField(q)
        self.zero = 0
        self.one = 1

        self._build_tables()
        # q^i mod (order-1) for i in 0..m-1; Frobenius exponents cycle with m.
        self._frob_exp = [pow(q, i, max(self.order - 1, 1)) for i in range(m)]

    # -- representation helpers -------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of length m."""
        out = []
        for _ in range(self.m):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.m and any(c % self.q for c in coeffs[self.m:]):
            raise PreconditionError("coefficient vector longer than m")
        a = 0
        for c in reversed([c % self.q for c in coeffs[: self.m]]):
            a = a * self.q + c
        return a

    @property
    def alpha(self) -> int:
        """Residue class of x modulo the modulus."""
        if self.m >= 2:
            return self.q  # the digit-1-at-position-1 element
        return (-self.modulus[0]) % self.q

    def embed(self, c: int) -> int:
        """Embed a base-field scalar as the constant polynomial."""
        return c % self.q

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        if b == 0:
            return a
        lb = self._log[b] + self._log_neg_one  # log of -b
        if a == 0:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.q == 2 or a == 0:
            return a
        return self._exp[self._log[a] + self._log_neg_one]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 has no inverse")
            return 0
        g = self.order - 1
        return self._exp[(self._log[a] * e) % g] if g else 1

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i); frobenius(a, m) == a for every a."""
        if i < 0:
            raise PreconditionError("Frobenius iterate must be nonnegative")
        if a == 0:
            return 0
        return self.pow(a, self._frob_exp[i % self.m])

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply by a base-field scalar c in [0, q)."""
        if self.q == 2:
            return a if c & 1 else 0
        return self.mul(self.embed(c), a)

    # -- internals ----------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product, used only while building the tables."""
        if self.q == 2:
            mod_int = 0
            for i, c in enumerate(self.modulus):
                mod_int |= c << i
            p = 0
            while b:
                if b & 1:
                    p ^= a
                a <<= 1
                if a >> self.m:
                    a ^= mod_int
                b >>= 1
            return p
        prod = [0] * (2 * self.m)
        ca, cb = self.coeffs(a), self.coeffs(b)
        for i, x in enumerate(ca):
            if not x:
                continue
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % self.q
        return self.from_coeffs(list(_poly_mod(prod, self.modulus, self.q)) + [0] * self.m)

    def _raw_pow(self, a: int, e: int) -> int:
        """Table-free a^e by square-and-multiply, used only while building the tables."""
        acc = 1
        while e:
            if e & 1:
                acc = self._raw_mul(acc, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return acc

    def _build_tables(self) -> None:
        group = self.order - 1
        self._exp = [1] * (2 * max(group, 1))
        self._log = [0] * self.order
        if group == 1:
            return
        # c generates the group iff c^(group/p) != 1 for every prime p | group.
        cofactors = [group // p for p, _ in factor(group)]
        # x is primitive for many moduli; fall back to a search otherwise.
        gen = None
        for cand in [self.q % self.order, *range(2, self.order)]:
            if cand in (0, 1):
                continue
            if all(self._raw_pow(cand, e) != 1 for e in cofactors):
                gen = cand
                break
        require(gen is not None, "multiplicative group of a finite field is cyclic")
        val = 1
        for i in range(group):
            self._exp[i] = val
            self._exp[i + group] = val
            self._log[val] = i
            val = self._raw_mul(val, gen)
        if self.q == 2:
            return
        # Zech logarithms: _zech[k] = log(1 + alpha^k), or -1 where 1 + alpha^k = 0,
        # i.e. at k = group/2 since -1 = alpha^(group/2) for odd q.  Adding 1
        # bumps only the lowest base-q digit.  The table is stored twice over,
        # like _exp, so every difference of two logs in (-group, 2*group)
        # indexes it (a negative one counts from the end).
        q = self.q
        self._log_neg_one = group // 2
        zech = []
        for v in self._exp[:group]:
            w = v - v % q + (v % q + 1) % q
            zech.append(self._log[w] if w else -1)
        self._zech = zech + zech

    # -- misc ---------------------------------------------------------------

    def params(self) -> dict:
        return {"q": self.q, "m": self.m, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldCtx) and other.q == self.q
                and other.m == self.m and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, m={self.m}, modulus={list(self.modulus)})"


def ctx_from_json(data: dict) -> FieldCtx:
    """The context named by the q, m and modulus fields of a JSON object."""
    q, m = json_field(data, "q", int), json_field(data, "m", int)
    modulus = data.get("modulus")
    return ctx_new(q, m, None if modulus is None else json_ints(modulus, "modulus", q))


def ctx_new(q: int, m: int, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Build a verified field context; the modulus defaults to
    `smallest_irreducible(q, m)`."""
    if m < 1:
        raise PreconditionError(f"extension degree m={m} must be >= 1")
    # refused before the primality test and q**m, which a huge q or m would stall
    cap = DEFAULT_ORDER_CAP
    if q > cap or (q >= 2 and m >= cap.bit_length()):
        raise UnsupportedSize(f"q^m = {q}^{m} exceeds the cap {cap}")
    if modulus is None:
        if not is_prime(q):
            raise PreconditionError(f"q={q} is not prime")
        if q**m > cap:
            raise UnsupportedSize(f"q^m = {q**m} exceeds the cap {cap}")
        modulus = smallest_irreducible(q, m)
    return FieldCtx(q, m, modulus)
