"""Univariate polynomials over Z, F_p and F_(p^k): zetalab's one polynomial layer.

A polynomial is a tuple of ints, low degree first; the zero polynomial
is the empty tuple.  Operations with one algorithm over both rings take
an optional prime modulus p (None means over Z): trim, add, sub, mul,
deriv, evaluate, and divrem, division with remainder, which over Z
answers only when the quotient is integral (always for a monic
divisor).  trim, add, sub, mul and evaluate over Z also accept
Fraction or mpmath values, which is how the rest of zetalab keeps exact
rational coefficients without a second polynomial layer.

Operations whose algorithm differs by ring come once per ring:

- over F_p (p prime): fp_gcd (monic Euclid), fp_squarefree_part (with
  p-th roots when f' = 0), fp_degree_pattern (distinct-degree
  factorization), and mulmod/powmod modulo a monic polynomial;
- over F_Q (Q = p^k), on lists of the Zech logarithms of the
  coefficients, with the field's zech table passed in: fq_sum, fq_rem
  (by a monic divisor), fq_mulmod, fq_gcd (monic Euclid) and
  fq_root_count (the distinct roots in F_Q, deg gcd(g, z^Q - z));
- over Z: sturm_chain (the fraction-free pseudo-remainder sequence),
  gcd (its last entry, primitive), primitive (clear denominators,
  divide by the content, positive leading coefficient), multiplicity
  (the exact power of a factor, with its cofactor) and squarefree
  (Yun's decomposition).

A rational polynomial enters the Z side through primitive(), which
reads only .numerator and .denominator.  By Gauss's lemma a primitive
divisor over Q divides over Z as well, so every gcd, exact division and
multiplicity over Q is the same computation on primitive parts, in
integers.  Only the standard library is imported.
"""

from __future__ import annotations

import math
from itertools import zip_longest

__all__ = [
    "add",
    "deg",
    "deriv",
    "divrem",
    "evaluate",
    "fp_degree_pattern",
    "fp_gcd",
    "fp_squarefree_part",
    "fq_gcd",
    "fq_mulmod",
    "fq_rem",
    "fq_root_count",
    "fq_sum",
    "gcd",
    "mul",
    "mulmod",
    "multiplicity",
    "powmod",
    "primitive",
    "squarefree",
    "sturm_chain",
    "sub",
    "trim",
]


# ---------------------------------------------------------------------------
# Both rings
# ---------------------------------------------------------------------------


def trim(a, p=None):
    """a as a tuple without trailing zeros, reduced mod p when p is given."""
    a = tuple(a) if p is None else tuple([c % p for c in a])
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def deg(a):
    """Degree of a; -1 for the zero polynomial."""
    return len(trim(a)) - 1


def add(a, b, p=None):
    return trim((x + y for x, y in zip_longest(a, b, fillvalue=0)), p)


def sub(a, b, p=None):
    return trim((x - y for x, y in zip_longest(a, b, fillvalue=0)), p)


def mul(a, b, p=None):
    a, b = trim(a, p), trim(b, p)
    if not a or not b:
        return ()
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return trim(res, p)


def deriv(a, p=None):
    return trim([i * c for i, c in enumerate(a)][1:], p)


def evaluate(a, x, p=None):
    """a(x) by Horner's rule; x may be an int, Fraction, complex or mpmath
    number (over Z), or an int taken mod p."""
    acc = 0 * x if a else 0
    for c in reversed(a):
        acc = acc * x + c if p is None else (acc * x + c) % p
    return acc


def divrem(a, b, p=None):
    """(quotient, remainder) of a by a nonzero b, over F_p or over Z.

    Over Z the result is None unless the quotient is integral, so a
    remainder () from a non-None result means b divides a in Z[x].
    """
    b = trim(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if p is not None:
        # by b / lead(b), which is monic; the quotient scales back
        inv = pow(b[-1], -1, p)
        quo, rem = _fp_divrem_monic(a, [c * inv % p for c in b], p)
        return trim([c * inv for c in quo], p), rem
    a, db = list(a), len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    lead = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f, r = divmod(a[i], lead)
            if r:
                return None
            quo[i - db] = f
            for j, bj in enumerate(b):
                a[i - db + j] -= f * bj
    return trim(quo), trim(a[:db])


# ---------------------------------------------------------------------------
# Over F_p
# ---------------------------------------------------------------------------


def mulmod(a, b, mod, p):
    """(a*b) mod (mod) over F_p; mod monic, the result padded to deg mod."""
    n = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                res[i - n + j] = (res[i - n + j] - c * mod[j]) % p
    res = res[:n]
    while len(res) < n:
        res.append(0)
    return tuple(res)


def powmod(base, e, mod, p):
    """base^e mod (mod) over F_p by square and multiply."""
    result = (1,) + (0,) * (len(mod) - 2)
    while e:
        if e & 1:
            result = mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = mulmod(base, base, mod, p)
    return result


def _fp_divrem_monic(a, b, p):
    """(quotient, remainder) of a by b over F_p for b reduced, trimmed and
    monic.  a is read mod p only where a leading coefficient is read, and
    the remainder is reduced once, so the F_p routines below, whose
    operands are already reduced, reduce nothing twice.  The quotient is
    trimmed when a is trimmed mod p."""
    a, db = list(a), len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            quo[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    rem = [c % p for c in a[:db]]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


def _fp_monic(a, p):
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in a])


def fp_gcd(a, b, p):
    """Monic gcd over F_p; () only when both are zero.  Euclid on monic
    divisors: a and b are reduced once, each remainder once."""
    a, b = trim(a, p), trim(b, p)
    while b:
        b = _fp_monic(b, p)
        a, b = b, _fp_divrem_monic(a, b, p)[1]
    return _fp_monic(a, p) if a else a


def fp_squarefree_part(f, p):
    """Monic square-free part of f over F_p (the product of its distinct
    irreducible factors).

    Handles the char-p pitfall f' = 0 (f a polynomial in x^p) by taking
    p-th roots, which over F_p is the coefficient-index division x^p -> x.
    """
    f = trim(f, p)
    if len(f) <= 1:
        return f
    df = deriv(f, p)
    if not df:
        # f = g(x^p) = (p-th power of the root-coefficient polynomial)
        return fp_squarefree_part(f[::p], p)
    g = fp_gcd(f, df, p)
    sf = _fp_divrem_monic(f, g, p)[0]
    # the quotient may still share factors with g when multiplicities are >= p
    extra = fp_squarefree_part(g, p)
    rest = _fp_divrem_monic(extra, fp_gcd(sf, extra, p), p)[0]
    return _fp_monic(mul(sf, rest, p) if len(rest) > 1 else sf, p)


def fp_degree_pattern(f, p):
    """Degrees of the distinct irreducible factors of f over F_p.

    Returns {degree: count} for the squarefree part of f, by
    distinct-degree factorization: gcd(x^(p^k) - x, f) collects exactly
    the irreducible factors of degree dividing k.  x^(p^k) mod f comes
    from the previous one by one more Frobenius step h -> h^p, taken
    mod whatever part of f is left.  Root counts over extensions follow:
    f has sum(k * count[k] for k | n) roots in F_{p^n}.
    """
    f = fp_squarefree_part(f, p)
    pattern: dict[int, int] = {}
    h = (0, 1)
    k = 0
    while len(f) - 1 > 0:
        k += 1
        if 2 * k > len(f) - 1:
            # what is left is a single irreducible factor
            pattern[len(f) - 1] = pattern.get(len(f) - 1, 0) + 1
            break
        h = powmod(h, p, f, p)
        g = fp_gcd(sub(h, (0, 1), p), f, p)
        dg = len(g) - 1
        if dg > 0:
            pattern[k] = dg // k
            f = _fp_divrem_monic(f, g, p)[0]
    return pattern


# ---------------------------------------------------------------------------
# Over F_Q, on Zech logarithms
# ---------------------------------------------------------------------------
#
# A polynomial over F_Q is a list of the logs of its coefficients to a
# primitive element g, low degree first, with -1 for a zero coefficient
# and a nonnegative leading entry; the zero polynomial is [].  The one
# table needed is zech, of length m = Q - 1, with zech[n] = log(1 + g^n)
# and -1 where 1 + g^n = 0 (arith.LogTables): products add logs mod m,
# g^s + g^t = g^(s + zech[(t - s) % m]), and -1 = g^(m/2) for odd Q and
# g^0 for even Q.


def _fq_minus_one(m):
    """log(-1) in F_Q, m = Q - 1: m/2 for odd Q, 0 for even Q."""
    return 0 if m % 2 else m // 2


def fq_sum(s, t, zech):
    """log(g^s + g^t) for s a log or -1 (zero) and t a log, any int."""
    m = len(zech)
    if s < 0:
        return t % m
    z = zech[(t - s) % m]
    return -1 if z < 0 else (s + z) % m


def _fq_monic(a, zech):
    """a divided by its leading coefficient; a != []."""
    m, lead = len(zech), a[-1]
    return [(c - lead) % m if c >= 0 else -1 for c in a]


def fq_rem(a, b, zech):
    """Remainder of a by b over F_Q, for b monic (b[-1] == 0)."""
    m = len(zech)
    a, db = list(a), len(b) - 1
    neg = _fq_minus_one(m)
    low = [(j, c + neg) for j, c in enumerate(b[:db]) if c >= 0]  # the terms of -b
    # here and in fq_mulmod fq_sum is written out: these loops carry
    # nearly all of a fibred point count
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c >= 0:
            for j, bj in low:
                k, t = i - db + j, c + bj
                s = a[k]
                if s < 0:
                    a[k] = t % m
                else:
                    z = zech[(t - s) % m]
                    a[k] = -1 if z < 0 else (s + z) % m
    del a[db:]
    while a and a[-1] < 0:
        a.pop()
    return a


def fq_mulmod(a, b, mod, zech):
    """(a*b) mod (mod) over F_Q, for mod monic."""
    if not a or not b:
        return []
    m = len(zech)
    res = [-1] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x >= 0:
            for j, y in enumerate(b):
                if y >= 0:
                    s = res[i + j]
                    if s < 0:
                        res[i + j] = (x + y) % m
                    else:
                        z = zech[(x + y - s) % m]
                        res[i + j] = -1 if z < 0 else (s + z) % m
    return fq_rem(res, mod, zech)


def fq_gcd(a, b, zech):
    """Monic gcd over F_Q; [] only when both are zero."""
    while b:
        b = _fq_monic(b, zech)
        a, b = b, fq_rem(a, b, zech)
    return _fq_monic(a, zech) if a else a


def fq_root_count(g, zech):
    """The number of distinct roots of g != 0 in F_Q, deg gcd(g, z^Q - z)
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14), with
    z^Q mod g by square and multiply."""
    g = _fq_monic(g, zech)
    if len(g) < 3:  # a constant has no root, a linear g one
        return len(g) - 1
    h = [-1, 0]  # z, for the leading bit of Q
    for bit in bin(len(zech) + 1)[3:]:
        h = fq_mulmod(h, h, g, zech)
        if bit == "1":
            h = fq_rem([-1] + h, g, zech)
    h += [-1] * (2 - len(h))
    h[1] = fq_sum(h[1], _fq_minus_one(len(zech)), zech)  # z^Q - z
    while h and h[-1] < 0:
        h.pop()
    return len(fq_gcd(g, h, zech)) - 1


# ---------------------------------------------------------------------------
# Over Z
# ---------------------------------------------------------------------------


def sturm_chain(a, b):
    """a, b, then negated remainders, each scaled by a positive integer
    (pseudo-division by |lead|, division by the content), which keeps
    every sign a Sturm count reads.  a and b are nonzero integer
    polynomials; the last entry is gcd(a, b) up to a nonzero integer
    factor."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b):
            f = sign * a[-1]
            shift = len(a) - len(b)
            a = [lead * c for c in a]
            for j, c in enumerate(b):
                a[shift + j] -= f * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        g = math.gcd(*a)
        chain.append([-c // g for c in a])
    return chain


def primitive(a):
    """The primitive integer polynomial with the roots of a, whose
    coefficients may be ints or Fractions: denominators cleared, content
    divided out, leading coefficient positive."""
    a = trim(a)
    if not a:
        raise ValueError("zero polynomial")
    den = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return tuple(c // g for c in ints)


def gcd(a, b):
    """Primitive gcd over Z with a positive leading coefficient, so monic
    when it divides a monic polynomial; () only when both are zero."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return primitive(a or b) if a or b else ()
    return primitive(sturm_chain(a, b)[-1])


def multiplicity(a, m):
    """(k, cofactor) with a = m^k * cofactor over Z and m not dividing
    the cofactor.  a is a nonzero integer polynomial and m a primitive
    one of degree >= 1; by Gauss's lemma k is then the power of m that
    divides a over Q as well."""
    a = trim(a)
    if not a or len(trim(m)) < 2:
        raise ValueError("need a nonzero polynomial and a nonconstant factor")
    k = 0
    while True:
        qr = divrem(a, m)
        if qr is None or qr[1]:
            return k, a
        a, k = qr[0], k + 1


def squarefree(a):
    """Yun's square-free decomposition over Z: [(part, k)] with the parts
    primitive, square-free, pairwise coprime and nonconstant, k
    ascending, and a equal to the product of part^k up to a constant."""
    a = trim(a)
    if len(a) < 2:
        return []
    d = gcd(a, deriv(a))
    if len(d) == 1:
        return [(primitive(a), 1)]
    # d is primitive, so these quotients and the ones below are integral
    b = divrem(a, d)[0]
    c = divrem(deriv(a), d)[0]
    out = []
    k = 1
    while len(b) > 1:
        z = sub(c, deriv(b))
        g = gcd(b, z)
        if len(g) > 1:
            out.append((g, k))
        b = divrem(b, g)[0]
        if len(b) == 1:
            break
        c = divrem(z, g)[0]
        k += 1
    return out
