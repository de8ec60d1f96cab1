"""Seeded inputs for the three workloads.

Everything here is plain Python with no zetalab import, so the inputs a
seed produces do not depend on the program under test.  Inputs come in
blocks: every block of a workload holds the same mix of request shapes
(path, prime, degree, model kind) in a seeded order, so runs with
different seeds measure the same mix and differ only in the concrete
curves, fields and evaluation points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Small exact helpers
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division (n != 0)."""
    n = abs(n)
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


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def elliptic_discriminant(a) -> int:
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _determinant(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def poly_discriminant(f) -> int:
    """Discriminant of a monic integer polynomial (coefficients low degree
    first) as (-1)^{n(n-1)/2} Res(f, f'), from the Sylvester matrix."""
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    hi_f, hi_df = list(reversed(f)), list(reversed(df))
    size = 2 * n - 1
    rows = []
    for i in range(n - 1):
        rows.append([0] * i + hi_f + [0] * (size - i - len(hi_f)))
    for i in range(n):
        rows.append([0] * i + hi_df + [0] * (size - i - len(hi_df)))
    res = _determinant(rows)
    return int((-1) ** (n * (n - 1) // 2) * res)


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _monic_mod(f, p):
    f = _trim([c % p for c in f])
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _divmod_mod(a, b, p):
    a = [c % p for c in a]
    b = _monic_mod(b, p)
    quot = [0] * max(len(a) - len(b) + 1, 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        if c:
            quot[shift] = c
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
    return _trim(quot), _trim(a)


def _gcd_mod(a, b, p):
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def radical_mod_p(f, p):
    """Product of the distinct monic irreducible factors of f over F_p.

    f / gcd(f, f') keeps every factor whose multiplicity is prime to p;
    the factors whose multiplicity is divisible by p sit wholly in the
    gcd, so the radical is the lcm of that quotient and the gcd's own
    radical.  When f' vanishes, f is g(x^p) = g(x)^p over F_p.
    """
    f = _monic_mod(f, p)
    if len(f) <= 2:
        return f
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    if not df:
        return radical_mod_p(f[::p], p)
    g = _gcd_mod(f, df, p)
    head = _divmod_mod(f, g, p)[0]
    if len(g) <= 1:
        return _monic_mod(head, p)
    tail = radical_mod_p(g, p)
    common = _gcd_mod(head, tail, p)
    return _monic_mod(_mul_mod(head, _divmod_mod(tail, common, p)[0], p), p)


def roots_mod_p(f, p) -> int:
    """Number of x in F_p with f(x) = 0, by evaluation."""
    count = 0
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc == 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Variety text
# ---------------------------------------------------------------------------


def _poly_text(terms):
    """terms: [(coefficient, monomial)] -> '3*x^2 - y*z + 1'."""
    out = ""
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def elliptic_text(a) -> str:
    return "elliptic a=[" + ",".join(str(x) for x in a) + "]"


def plane_cubic_text(a) -> str:
    """The Weierstrass curve homogenized in P^2:
    y^2 z + a1 xyz + a3 yz^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3."""
    a1, a2, a3, a4, a6 = a
    eq = _poly_text(
        [
            (1, "y^2*z"),
            (a1, "x*y*z"),
            (a3, "y*z^2"),
            (-1, "x^3"),
            (-a2, "x^2*z"),
            (-a4, "x*z^2"),
            (-a6, "z^3"),
        ]
    )
    return f"projective 2; vars x, y, z; eq {eq}"


def zerodim_text(f) -> str:
    terms = [(c, "x" if i == 1 else (f"x^{i}" if i else "")) for i, c in enumerate(f)]
    return "zerodim " + _poly_text(list(reversed(terms)))


# ---------------------------------------------------------------------------
# local-checks
# ---------------------------------------------------------------------------

# One block: (path, p, betti_given).  Paths are the three counting routes
# for a Weierstrass curve: the square table (odd p), pair enumeration
# (p = 2) and the projective plane cubic.  Scan requests (betti omitted)
# count to degree 6, the fewest that make the degree scan's answer unique
# for a curve (total degree 4), and so only run where F_{p^6} is small.
LOCAL_SHAPES = (
    ("elliptic", 13, True),
    ("elliptic", 13, True),
    ("elliptic", 11, True),
    ("elliptic", 7, True),
    ("elliptic", 5, True),
    ("elliptic", 3, True),
    ("elliptic", 2, True),
    ("cubic", 3, True),
    ("cubic", 2, True),
    ("elliptic", 3, False),
    ("elliptic", 2, False),
    ("cubic", 2, False),
)
LOCAL_REPEATS = 6  # a third of the 18 requests in a block
SCAN_DEGREES = 6
BETTI_CURVE = (1, 2, 1)
# the warm-up input; timed requests never use this curve at p = 5
WARMUP_CURVE = (0, 1, 1, -2, 1)


def _good_curve(rng, p, taken):
    while True:
        a = tuple(rng.randint(-9, 9) for _ in range(5))
        if elliptic_discriminant(a) % p != 0 and (a, p) not in taken:
            taken.add((a, p))
            return a


class LocalChecksInputs:
    """Blocks of (variety text, p, degrees, betti or None) requests."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"local-checks/{seed}")
        self.taken = {(WARMUP_CURVE, 5)}
        self.fresh = []

    def warmup(self):
        return self._request("elliptic", 5, True, WARMUP_CURVE)

    def _request(self, path, p, betti_given, a):
        text = elliptic_text(a) if path == "elliptic" else plane_cubic_text(a)
        return {
            "path": path,
            "spec": text,
            "a": a,
            "p": p,
            "degrees": sum(BETTI_CURVE) if betti_given else SCAN_DEGREES,
            "betti": BETTI_CURVE if betti_given else None,
            "repeat": False,
        }

    def block(self):
        order = [
            self._request(path, p, given, _good_curve(self.rng, p, self.taken))
            for path, p, given in LOCAL_SHAPES
        ]
        self.rng.shuffle(order)
        sources = self.fresh + order
        for _ in range(LOCAL_REPEATS):
            src = self.rng.choice(sources)
            # a repeat goes after the request that filled the cache
            lo = next((i + 1 for i, r in enumerate(order) if r is src), 0)
            order.insert(self.rng.randint(lo, len(order)), dict(src, repeat=True))
        self.fresh.extend(r for r in order if not r["repeat"])
        return order


# ---------------------------------------------------------------------------
# global-lfun
# ---------------------------------------------------------------------------

# One block: four number fields of degree 2..5 and two elliptic curves.
GLOBAL_SHAPES = (("field", 2), ("field", 3), ("field", 4), ("field", 5), ("elliptic", None), ("elliptic", None))
PRIME_CUTOFF = 1500
DIRICHLET_N = 500
N_CUTOFF = 10
# Spec Z[i], as shipped in the fixtures; never generated (x^2 + 1 is not
# Eisenstein at any prime), so the warm-up model is not in the timed set
GLOBAL_WARMUP = {
    "name": "Spec Z[i]",
    "family": "zerodim x^2 + 1",
    "bad_primes": [{"p": 2, "replacement": "zerodim x"}],
    "betti": [2],
}


def number_field_model(rng, degree, taken):
    """Z[x]/(f) for an Eisenstein f, with a replacement fiber at every
    prime dividing the discriminant: the reduced scheme of f mod p."""
    while True:
        ell = rng.choice((2, 3, 5))
        f = [ell * rng.randint(-2, 2) for _ in range(degree)] + [1]
        f[0] = ell * rng.choice([u for u in (-2, -1, 1, 2) if u % ell])
        family = zerodim_text(f)
        if family in taken:
            continue
        taken.add(family)
        disc = poly_discriminant(f)
        bad = [
            {"p": p, "replacement": zerodim_text(radical_mod_p(f, p))}
            for p in prime_factors(disc)
        ]
        model = {"name": family, "family": family, "bad_primes": bad, "betti": [degree]}
        return {"kind": "field", "model": model, "poly": f, "bad": [b["p"] for b in bad]}


def elliptic_model(rng, taken):
    """A Weierstrass curve over Z; every prime dividing the discriminant
    is excluded."""
    while True:
        a = tuple(rng.randint(-9, 9) for _ in range(5))
        disc = elliptic_discriminant(a)
        family = elliptic_text(a)
        if disc == 0 or family in taken:
            continue
        taken.add(family)
        bad = prime_factors(disc)
        model = {
            "name": family,
            "family": family,
            "bad_primes": [{"p": p} for p in bad],
            "betti": list(BETTI_CURVE),
        }
        return {"kind": "elliptic", "model": model, "bad": bad}


class GlobalLfunInputs:
    """Blocks of fresh arithmetic models, each new to the process."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"global-lfun/{seed}")
        self.taken = {GLOBAL_WARMUP["family"]}

    def warmup(self):
        return {"kind": "field", "model": GLOBAL_WARMUP, "poly": [1, 0, 1], "bad": [2]}

    def block(self):
        order = [
            number_field_model(self.rng, degree, self.taken)
            if kind == "field"
            else elliptic_model(self.rng, self.taken)
            for kind, degree in GLOBAL_SHAPES
        ]
        self.rng.shuffle(order)
        return order


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

_NO_RANKS = {"k0_hom": 0, "k0_zero": 0, "k1": 0, "k2": 0, "k3": 0}

# The closed-form models; factors is the number of zeta/beta values one
# evaluation of the even L-function takes.
ANALYTIC_MODELS = (
    {
        "model": {
            "name": "Spec Q",
            "family": "zerodim x",
            "betti": [1],
            "closed_form": "RiemannZeta",
            "ranks": dict(_NO_RANKS, k0_hom=1),
        },
        "factors": 1,
    },
    {
        "model": {
            "name": "Spec Z[i]",
            "family": "zerodim x^2 + 1",
            "bad_primes": [{"p": 2, "replacement": "zerodim x"}],
            "betti": [2],
            "closed_form": "DedekindQi",
            "ranks": dict(_NO_RANKS, k0_hom=1, k3=1),
        },
        "factors": 2,
    },
    {
        "model": {
            "name": "P1 over Q",
            "family": "projective 1; vars x, y",
            "betti": [1, 0, 1],
            "closed_form": {"MixedTate": [0, 0]},
            "ranks": dict(_NO_RANKS, k0_hom=2),
        },
        "factors": 2,
    },
    {
        "model": {
            "name": "P2 over Q",
            "family": "projective 2; vars x, y, z",
            "betti": [1, 0, 1, 0, 1],
            "closed_form": {"MixedTate": [0, 0, 0]},
            "ranks": dict(_NO_RANKS, k0_hom=3),
        },
        "factors": 3,
    },
)
ANALYTIC_JS = (1, 0, -1, -2)
ANALYTIC_CUTOFF = 300


class AnalyticInputs:
    """Blocks of one dashboard for every (closed-form model, j) pair, in a
    seeded order, each with a seeded point for the Euler-product check.

    The cost of a dashboard depends on the model and on j (j = 1 stays
    on the alternating series, j <= 0 goes through the reflection), so
    every block holds all pairs and a run's mix does not move with the
    seed.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"analytic/{seed}")

    def warmup(self):
        # j = 2 is not a timed evaluation point
        return dict(ANALYTIC_MODELS[0], j=2, s=3.0)

    def block(self):
        order = [
            dict(entry, j=j, s=round(self.rng.uniform(2.5, 4.0), 4))
            for entry in ANALYTIC_MODELS
            for j in ANALYTIC_JS
        ]
        self.rng.shuffle(order)
        return order


WORKLOAD_INPUTS = {
    "local-checks": LocalChecksInputs,
    "global-lfun": GlobalLfunInputs,
    "analytic": AnalyticInputs,
}
