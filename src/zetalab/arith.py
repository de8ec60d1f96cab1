"""Exact number foundations: primes and finite fields F_{p^r}.

Finite fields use a polynomial basis over F_p with an explicitly chosen
monic irreducible modulus.  The modulus is always the lexicographically
least irreducible monic polynomial of the right degree (constant
coefficient varying fastest), so field construction is deterministic
across runs and machines and cached point counts stay reproducible.
An element of F_Q, Q = p^k, is the int 0..Q-1 whose base-p digits are
its coefficients, constant digit lowest.  Arithmetic goes through Zech
logarithms (Huber, IEEE Trans. IT 36, 1990): FiniteField.log_tables()
builds exp, log and zech tables over the least primitive element in
O(Q) poly.mulmod steps, and returns them without keeping them, so
constructing a field stays cheap at any degree and a counter that walks
at least Q candidates pays for its tables once.  Polynomials over F_p
themselves live in zetalab.poly; this module keeps primes and fields.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .poly import fp_gcd, mulmod, powmod, sub

__all__ = [
    "PrimePower",
    "FiniteField",
    "LogTables",
    "DegreeCapError",
    "is_prime",
    "primes_up_to",
    "make_extension_field",
]

DEFAULT_DEGREE_CAP = 24


class DegreeCapError(ValueError):
    """Requested extension degree exceeds the configured enumeration cap."""


# Deterministic Miller-Rabin.  This witness set decides primality
# correctly for every n < 3.3 * 10^24, which covers the documented
# contract (p < 2^64) with a wide margin.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending.  limit < 2 gives the empty list."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, limit + 1) if sieve[i]]


@dataclass(frozen=True)
class PrimePower:
    """q = p^r with p prime.  The base cardinality of a finite field."""

    p: int
    r: int = 1
    q: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.r < 1:
            raise ValueError("exponent must be positive")
        object.__setattr__(self, "q", self.p**self.r)

    def __repr__(self):
        return f"PrimePower(p={self.p}, r={self.r})"


def _digits(a, p, k):
    """The k base-p digits of a, lowest first: the coefficient tuple of
    the field element a."""
    return tuple(a // p**i % p for i in range(k))


def _prime_divisors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _fp_is_irreducible(mod, p):
    # Monic f of degree d is irreducible over F_p iff x^(p^d) = x (mod f)
    # and gcd(x^(p^(d/t)) - x, f) = 1 for every prime t dividing d.
    d = len(mod) - 1
    if d == 1:
        return True
    if mod[0] == 0:  # divisible by x
        return False

    x_poly = (0, 1) + (0,) * (d - 2)
    if powmod((0, 1), p**d, mod, p) != x_poly:
        return False
    for t in _prime_divisors(d):
        g = powmod((0, 1), p ** (d // t), mod, p)
        if len(fp_gcd(sub(g, (0, 1), p), mod, p)) > 1:
            return False
    return True


def _lex_least_irreducible(p, d):
    """Least monic irreducible of degree d over F_p, constant digit fastest.

    For d = 1 this returns x (the "modulus x - 0" convention for prime
    fields).  For (p, d) = (3, 2) the scan hits x^2 + 1, matching an
    exhaustive irreducibility scan of the monic quadratics in this order.
    """
    for k in range(p**d):
        mod = _digits(k, p, d) + (1,)
        if _fp_is_irreducible(mod, p):
            return mod
    raise AssertionError(f"no irreducible of degree {d} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field objects
# ---------------------------------------------------------------------------


class LogTables(NamedTuple):
    """Zech-log tables of F_Q over its least primitive element g, m = Q - 1.

    exp[i] = g^i for 0 <= i < m; log[a] is the i with g^i = a, and -1 at
    a = 0; zech[n] = log(1 + g^n), and -1 where 1 + g^n = 0.  Products
    add logs mod m, and g^i + g^j = g^(i + zech[(j - i) % m]).
    """

    exp: list
    log: list
    zech: list


class FiniteField:
    """F_{p^degree} in polynomial basis; elements are the ints 0..order-1
    whose base-p digits are the coefficients, constant digit lowest."""

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if degree < 1:
            raise ValueError("degree must be positive")
        if modulus is None:
            modulus = _lex_least_irreducible(p, degree)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of the field degree")
            if not _fp_is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible")
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = p**degree

    def __repr__(self):
        return f"FiniteField(p={self.p}, degree={self.degree})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.degree, self.modulus) == (other.p, other.degree, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def log_tables(self) -> LogTables:
        """exp, log and zech over the least int that generates F_Q^x.

        Built afresh on every call, O(Q) poly.mulmod steps and three
        lists of about Q ints, so call it only once the caller is
        committed to work of that size.
        """
        p, k, mod = self.p, self.degree, self.modulus
        m = self.order - 1
        one = (1,) + (0,) * (k - 1)
        # the least a of order m: a^(m/l) != 1 for every prime l | m
        cofactors = [m // l for l in _prime_divisors(m)]
        g = next(
            g
            for g in (_digits(a, p, k) for a in range(1, self.order))
            if all(powmod(g, e, mod, p) != one for e in cofactors)
        )
        exp, log = [0] * m, [-1] * self.order
        power = one
        for i in range(m):
            a = 0
            for c in reversed(power):
                a = a * p + c
            exp[i], log[a] = a, i
            power = mulmod(power, g, mod, p)
        # adding 1 changes the constant digit only
        zech = [log[a - a % p + (a + 1) % p] for a in exp]
        return LogTables(exp, log, zech)


def make_extension_field(pp: PrimePower, n: int, cap: int = DEFAULT_DEGREE_CAP) -> FiniteField:
    """The field F_{q^n} for q = p^r, i.e. F_p of degree r*n.

    Construction is deterministic for fixed (p, r*n): the modulus is the
    lex-least irreducible monic polynomial.  Degrees beyond `cap` are
    rejected, since every consumer of these fields enumerates them.
    """
    if n < 1:
        raise ValueError("extension degree must be positive")
    total = pp.r * n
    if total > cap:
        raise DegreeCapError(
            f"extension degree {total} = {pp.r}*{n} exceeds the cap {cap}; "
            f"raise the cap explicitly if enumeration of p^{total} elements is intended"
        )
    return FiniteField(pp.p, total)
