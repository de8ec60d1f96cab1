"""Exact truncated power series and rational functions over Q, rational
reconstruction, exact linear algebra, functional equations, and root
extraction.

This module decides what type an exact coefficient has: series and
rational functions store each coefficient as an int when it is
integral and as a Fraction otherwise (_int_if_integral), so their
consumers never convert.  A series becomes a rational function by one
route, rational_reconstruct: an extended Euclidean run on integer
polynomials, whose rows are the series' Pade approximants.  Linear
algebra row-reduces fraction-free on integers (Bareiss) and only the
reduced rows come back as Fractions.
Polynomial arithmetic itself (gcds, exact division, square-free parts) is
zetalab.poly's, on primitive integer parts.  Whether every root of an
integer polynomial lies on the circle |z| = Q^{1/2} is decided exactly
(roots_on_circle), by a palindrome test and a Sturm count on
poly.sturm_chain, so floats never decide a Weil verdict or a weight
separation.  Every functional equation R(x) = C x^{-chi} R(1/(Qx)) (the
classical one, and the even and odd ones, which are also reciprocity)
is decided by one exact coefficient identity (functional_witnesses) and
sampled at complex points by one numeric route (functional_samples),
which is reported beside it: a first pass in complex doubles with a
running error bound settles each point it can prove in tolerance and off the
poles, and every other point is classified at SAMPLE_DPS = 30 digits,
so the report is the 30-digit one.  Floating point enters elsewhere
only at root extraction (polynomial_roots, on mpmath.polyroots), which
runs at a configurable decimal precision (default 50 digits) and
serves failure witnesses and approximate roots in reports.  There a root
multiset takes its multiplicities from the exact square-free
decomposition, never from numerical multiplicity guessing.

Polynomials are coefficient tuples, low degree first.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction

import mpmath

from . import poly

__all__ = [
    "PowerSeries",
    "RationalFunction",
    "RootFindingError",
    "functional_samples",
    "functional_witnesses",
    "log_series",
    "log_det_series",
    "polynomial_roots",
    "rational_reconstruct",
    "roots_on_circle",
    "power_sums_inverse_roots",
    "worst_modulus",
]

DEFAULT_PRECISION = 50
DEFAULT_SAMPLE_TOL = 1e-9
SAMPLE_DPS = 30


class RootFindingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Power sums
# ---------------------------------------------------------------------------


def power_sums_inverse_roots(P, m):
    """p_n = sum of n-th powers of the inverse roots of P, n = 1..m.

    P(t) = prod (1 - lam_i t) with P(0) = 1; Newton's identities
    p_n = -n P_n - sum_{i<n} P_i p_{n-i}.  Exact: for an integral P the
    recurrence runs on Python integers and returns integers.
    """
    P = poly.trim(P)
    if not P or P[0] != 1:
        raise ValueError("normalized polynomial with constant term 1 expected")
    P = [_int_if_integral(c) for c in P]
    deg = len(P) - 1
    p = [0] * (m + 1)
    for n in range(1, m + 1):
        acc = -n * P[n] if n <= deg else 0
        for i in range(1, min(n - 1, deg) + 1):
            if P[i]:
                acc -= P[i] * p[n - i]
        p[n] = acc
    return p[1:]


def _int_if_integral(c):
    """c as an int when it is integral, otherwise as a Fraction."""
    if isinstance(c, int):
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# Exact linear algebra over Q (small dense systems)
# ---------------------------------------------------------------------------


def mat_rref(rows):
    """Row-reduce over Q.  Returns (rref rows, pivot column list).

    Fraction-free Gauss-Jordan elimination (Bareiss): each row is scaled
    to integers, and after the k-th pivot every entry is an integer minor
    of the input, so the division by the previous pivot is exact.  The
    reduced echelon form is unique, so dividing each pivot row by its
    pivot at the end gives the same Fractions as elimination over Q.
    """
    if not rows:
        return [], []
    m = [_integer_row(row) for row in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        top = m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    # every pivot now equals the last one; rows past the rank are zero
    return [[Fraction(x, prev) for x in row] for row in m], pivots


def _integer_row(row):
    """The row times the lcm of its denominators (same row space)."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def mat_rank(rows):
    return len(mat_rref(rows)[1])


def mat_nullspace(rows):
    """Right kernel basis over Q, deterministic (one vector per free column)."""
    if not rows:
        return []
    red, pivots = mat_rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def mat_mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def det_identity_minus_t(mat):
    """det(I - t*M) as an exact coefficient tuple, via the trace recurrence.

    Faddeev-LeVerrier: c_0 = 1, A_1 = M, c_k = -trace(M @ (A_{k-1} + c_{k-1} I))/k.
    Then det(I - tM) = sum c_k t^k.
    """
    n = len(mat)
    M = [[Fraction(x) for x in row] for row in mat]
    if any(len(row) != n for row in M):
        raise ValueError("square matrix expected")
    coeffs = [Fraction(1)]
    A = None
    for k in range(1, n + 1):
        if A is None:
            A = [row[:] for row in M]
        else:
            B = [[A[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
            A = mat_mul(M, B)
        c = -sum(A[i][i] for i in range(n)) / k
        coeffs.append(c)
    return poly.trim(coeffs)


# ---------------------------------------------------------------------------
# Power series
# ---------------------------------------------------------------------------


class PowerSeries:
    """Truncated power series over Q with explicit truncation order.

    Each coefficient is an int when integral, a Fraction otherwise.
    Arithmetic never silently extends the truncation: binary operations
    truncate to the smaller order of the two operands.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(_int_if_integral, coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    def __add__(self, other):
        M = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(M + 1)])

    def __sub__(self, other):
        M = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(M + 1)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs])
        M = min(self.order, other.order)
        out = [0] * (M + 1)
        for i, x in enumerate(self.coeffs[: M + 1]):
            if x:
                for j, y in enumerate(other.coeffs[: M + 1 - i]):
                    out[i + j] += x * y
        return PowerSeries(out)

    __rmul__ = __mul__

    @classmethod
    def one(cls, M):
        return cls((1,) + (0,) * M)


def log_series(s: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1."""
    if s.coeffs[0] != 1:
        raise ValueError("log_series needs constant term 1")
    M = s.order
    l = [Fraction(0)] * (M + 1)
    for n in range(1, M + 1):
        acc = n * s.coeffs[n]
        for k in range(1, n):
            if l[k]:
                acc -= k * l[k] * s.coeffs[n - k]
        l[n] = Fraction(acc, n)
    return PowerSeries(l)


def log_det_series(mat, M: int) -> PowerSeries:
    """sum_n trace(mat^n) t^n / n to order M, exactly.

    This is the series log(1/det(I - t*mat)); the equality with
    log_series of the reciprocal of det_identity_minus_t is a test
    invariant, not assumed here.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("square matrix expected")
    if M < 1:
        raise ValueError("order must be >= 1")
    A = [[Fraction(x) for x in row] for row in mat]
    power = A
    out = [Fraction(0)] * (M + 1)
    for k in range(1, M + 1):
        if k > 1:
            power = mat_mul(power, A)
        out[k] = Fraction(sum(power[i][i] for i in range(n)), k)
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """num/den with both constant terms 1 and gcd(num, den) = 1 over Q,
    each coefficient an int when integral, a Fraction otherwise.

    The gcd is taken on the primitive integer parts of both sides (Gauss's
    lemma), so reduction never does polynomial arithmetic in Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=True):
        num, den = poly.trim(num), poly.trim(den)
        if not num or not den or num[0] == 0 or den[0] == 0:
            raise ValueError("numerator and denominator need nonzero constant terms")
        if reduce:
            num, den = poly.primitive(num), poly.primitive(den)
            g = poly.gcd(num, den)
            if len(g) > 1:
                num, den = poly.divrem(num, g)[0], poly.divrem(den, g)[0]
        self.num = _unit_constant(num)
        self.den = _unit_constant(den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction(num={self.num}, den={self.den})"

    def expand(self, M: int) -> PowerSeries:
        """Taylor expansion at 0 to order M, exact."""
        d = self.den
        inv = [0] * (M + 1)
        inv[0] = 1
        for n in range(1, M + 1):
            acc = 0
            for k in range(1, min(n, len(d) - 1) + 1):
                acc += d[k] * inv[n - k]
            inv[n] = -acc
        out = [0] * (M + 1)
        for i, c in enumerate(self.num[: M + 1]):
            if c:
                for j in range(M + 1 - i):
                    out[i + j] += c * inv[j]
        return PowerSeries(out)

    def eval(self, x):
        """Evaluate at x (Fraction for exact, complex/mpmath for numeric)."""
        return poly.evaluate(self.num, x) / poly.evaluate(self.den, x)

    def substitute_scaled(self, c):
        """t -> c*t with c an exact rational scalar."""
        c = Fraction(c)
        num = tuple(co * c**i for i, co in enumerate(self.num))
        den = tuple(co * c**i for i, co in enumerate(self.den))
        return RationalFunction(num, den)

    def __mul__(self, other):
        return RationalFunction(poly.mul(self.num, other.num), poly.mul(self.den, other.den))

    def reciprocal(self):
        return RationalFunction(self.den, self.num, reduce=False)

    @classmethod
    def one(cls):
        return cls((1,), (1,))


def _unit_constant(a):
    """a divided by its constant term, each coefficient an int when
    integral."""
    c0 = a[0]
    if c0 == 1:
        return tuple(map(_int_if_integral, a))
    return tuple(_int_if_integral(Fraction(c, c0)) for c in a)


def rational_reconstruct(s: PowerSeries, degrees=None):
    """The rational function N/D in lowest terms, N(0) = D(0) = 1, that
    matches s to its order m, from one extended Euclidean run on
    (t^(m+1), s).

    Each row (r, v) of the run has r = v s mod t^(m+1) and
    deg r + deg v <= m, and a reduced N/D with deg N + deg D <= m matches
    s exactly when (N, D) is a scalar multiple of a row with v(0) != 0
    (von zur Gathen & Gerhard, Modern Computer Algebra, 3rd ed., 5.9), so
    such a row is in lowest terms and matches every coefficient already.
    Without degrees the answer is the row of least deg r + deg v, ties
    going to the smaller deg r.  With degrees = (dn, dd), m >= dn + dd,
    it is the first row with deg r <= dn, or None when that row has
    deg v > dd or v(0) = 0.  The run is on integers: s is scaled to
    integer coefficients, each remainder is a pseudo-remainder, and each
    row is divided by the content of its two polynomials.
    """
    c = s.coeffs
    if c[0] != 1:
        raise ValueError("series must have constant term 1")
    if degrees is not None and s.order < sum(degrees):
        raise ValueError(f"underdetermined: need the series to order {sum(degrees)}")
    den = math.lcm(*(x.denominator for x in c))
    r0, v0 = (0,) * len(c) + (1,), ()
    r1, v1 = poly.trim(x.numerator * (den // x.denominator) for x in c), (den,)
    best = None
    while r1:
        if degrees is None:
            # rows come in falling deg r, so <= hands a tie to the later row
            if v1[0] and (best is None or len(r1) + len(v1) <= sum(map(len, best))):
                best = (r1, v1)
        elif len(r1) - 1 <= degrees[0]:
            if len(v1) - 1 > degrees[1] or not v1[0]:
                return None
            best = (r1, v1)
            break
        f = r1[-1] ** (len(r0) - len(r1) + 1)
        quo, r = poly.divrem([f * x for x in r0], r1)
        v = poly.sub([f * x for x in v0], poly.mul(quo, v1))
        g = math.gcd(*r, *v)
        r0, v0, r1, v1 = r1, v1, tuple(x // g for x in r), tuple(x // g for x in v)
    return RationalFunction(*best, reduce=False)


# ---------------------------------------------------------------------------
# Exact root-modulus certificate
# ---------------------------------------------------------------------------


def roots_on_circle(P, Q: int) -> bool:
    """Whether every complex root of the integer polynomial has modulus
    Q^{1/2}, decided exactly (no root finding).

    For a factor P with P(0) = 1 pass its reversal: the roots of the
    reversal are the inverse roots of P.  The real roots +-Q^{1/2} are
    divided out first.  What is left must be Q-palindromic of even
    degree 2m, E(x) = x^m h(x + Q/x), and its roots lie on the circle
    exactly when every root of h is real and inside (-2 Q^{1/2},
    2 Q^{1/2}); a Sturm chain counts the distinct real roots of h there,
    with signs at the irrational endpoints decided in Q(Q^{1/2})
    (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
    """
    E = tuple(_int_if_integral(c) for c in poly.trim(P))
    if Q < 1 or not E or not all(isinstance(c, int) for c in E):
        raise ValueError("need a positive Q and a nonzero integer polynomial")
    root = math.isqrt(Q)
    for m in ((-root, 1), (root, 1)) if root * root == Q else ((-Q, 0, 1),):
        E = poly.multiplicity(E, m)[1]
    n = len(E) - 1
    if n == 0:
        return True
    if n % 2:
        return False
    m = n // 2
    if any(E[j] != Q ** (m - j) * E[n - j] for j in range(m)):
        return False
    # x^-m E(x) = E_m + sum_k E_{m+k} (x^k + (Q/x)^k), and
    # s_k = x^k + (Q/x)^k obeys s_k = y s_{k-1} - Q s_{k-2} in y = x + Q/x
    h = (E[m],)
    s_prev, s_cur = (2,), (0, 1)
    for k in range(1, m + 1):
        h = poly.add(h, [E[m + k] * c for c in s_cur])
        s_prev, s_cur = s_cur, poly.add((0,) + s_cur, [-Q * c for c in s_prev])
    chain = poly.sturm_chain(h, poly.deriv(h))
    distinct = len(h) - len(chain[-1])  # deg h - deg gcd(h, h')
    return _sign_changes(chain, -1, Q) - _sign_changes(chain, 1, Q) == distinct


def _sign_changes(chain, side, Q):
    """Sign changes along the chain at y = side * 2 Q^{1/2}."""
    changes, last = 0, 0
    for entry in chain:
        # entry(y) = A + B Q^{1/2}: even powers of y feed A, odd ones B
        A = B = 0
        for i, c in enumerate(entry):
            term = c * side**i * 2**i * Q ** (i // 2)
            if i % 2:
                B += term
            else:
                A += term
        sign = _sign_plus_sqrt(A, B, Q)
        if sign:
            if last and sign != last:
                changes += 1
            last = sign
    return changes


def _sign_plus_sqrt(A, B, Q):
    """The sign of A + B Q^{1/2}, exactly."""
    sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    gap = A * A - B * B * Q
    return sa if gap > 0 else sb if gap < 0 else 0


# ---------------------------------------------------------------------------
# Functional equations
# ---------------------------------------------------------------------------


def functional_witnesses(R: RationalFunction, Q: int, chi: int):
    """(CQ, witnesses) for the functional equation
    R(x) = C x^{-chi} R(1/(Qx)), exactly, with CQ = C Q^chi.

    With R = N/D and a = deg N the equation reads
    N M_{a+chi}(D) = CQ M_a(N) D, where M_n(P) = x^n Q^n P(1/(Qx)) is the
    Q-mirror of P (a Laurent polynomial when n < deg P), and CQ is read
    off the constant terms, D_{a+chi} / N_a.  Every exponent k
    where the two sides differ is a witness {"k", "lhs", "rhs"}.  Applying
    the equation twice gives C^2 Q^chi = 1, so a PASS forces that too.
    """
    N, D = R.num, R.den
    a, b = len(N) - 1, len(D) - 1
    CQ = _int_if_integral(Fraction(D[a + chi] if 0 <= a + chi <= b else 0, N[a]))
    lo = a + chi - b  # lowest exponent of M_{a+chi}(D); 0 when the degrees match
    lhs = [0] * lo + list(poly.mul(N, _mirror(D, a + chi, Q)))
    rhs = [0] * -lo + [CQ * c for c in poly.mul(D, _mirror(N, a, Q))]
    n = max(len(lhs), len(rhs))
    lhs, rhs = lhs + [0] * (n - len(lhs)), rhs + [0] * (n - len(rhs))
    witnesses = [
        {"k": k + min(lo, 0), "lhs": str(x), "rhs": str(y)}
        for k, (x, y) in enumerate(zip(lhs, rhs))
        if x != y
    ]
    return CQ, witnesses


def _mirror(P, n, Q):
    """M_n(P) = x^n Q^n P(1/(Qx)), lowest exponent n - deg P first."""
    m = len(P) - 1
    return [
        P[m - j] * (Q**e if e >= 0 else Fraction(1, Q**-e))
        for j, e in enumerate(range(n - m, n + 1))
    ]


def functional_samples(R: RationalFunction, q: int, Q: int, chi: int, CQ, sample_points, tol):
    """(used, skipped, witnesses): both sides of R(x) = C x^{-chi} R(1/(Qx))
    at x = q^{-s} for each sample point s, as SAMPLE_DPS digits classify
    them.

    CQ = C Q^chi is rational, as functional_witnesses returns it, so
    C = CQ / Q^chi is exact until it becomes a float or an mpf.  A point
    is skipped only at a pole of either side; it is a witness
    {"s", "lhs", "rhs"} when |lhs - rhs| > tol max(1, |lhs|), and used
    otherwise.  A first pass in complex doubles (_first_pass) marks a
    point used when its error bound proves both that and that neither
    denominator is near the pole threshold; every other point goes
    through the SAMPLE_DPS loop, which alone writes skipped points and
    witnesses, so the result is the loop's on every point.  This is the
    numeric second route beside functional_witnesses.
    """
    used, skipped, witnesses = [], [], []
    C = Fraction(CQ) / Fraction(Q) ** chi
    points = [_sample_point(s) for s in sample_points]
    first = _first_pass(R, q, Q, chi, C, tol)
    settled = [first is not None and first(z) for _, z in points]
    if all(settled):
        return [label for label, _ in points], skipped, witnesses
    with mpmath.workdps(SAMPLE_DPS):
        const = mpmath.mpf(C.numerator) / C.denominator
        tiny = mpmath.mpf("1e-20")
        for s, (label, _), ok in zip(sample_points, points, settled):
            if ok:
                used.append(label)
                continue
            s = mpmath.mpc(s)
            x = mpmath.power(q, -s)
            y = 1 / (Q * x)
            dx, dy = poly.evaluate(R.den, x), poly.evaluate(R.den, y)
            if abs(dx) < tiny or abs(dy) < tiny:
                skipped.append(str(s))
                continue
            lhs = poly.evaluate(R.num, x) / dx
            rhs = const * x**-chi * poly.evaluate(R.num, y) / dy
            if abs(lhs - rhs) > tol * max(1, abs(lhs)):
                witnesses.append({"s": str(s), "lhs": str(lhs), "rhs": str(rhs)})
            else:
                used.append(str(s))
    return used, skipped, witnesses


_U = 2.0**-53  # unit roundoff of a double
_ETA = 2.0**-1000  # an absolute error term that pays for underflow


@functools.lru_cache(maxsize=256)
def _sample_point(s):
    """(label, z) of a sample point: str(mpc(s)) as the SAMPLE_DPS loop
    prints it, and that mpc as a complex double."""
    with mpmath.workdps(SAMPLE_DPS):
        s = mpmath.mpc(s)
        return str(s), complex(s)


def _doubles(P):
    """The exact numbers P as doubles, each within a relative _U, or None
    when one overflows or falls below the normal range."""
    try:
        out = tuple(map(float, P))
    except OverflowError:
        return None
    if any(c and abs(f) < sys.float_info.min for c, f in zip(P, out)):
        return None
    return out


def _first_pass(R, q, Q, chi, C, tol):
    """The double pass of functional_samples for one equation: a function
    of a sample point z (a complex double) that is True only when it
    proves the point used, or None when a coefficient, C or Q does not
    fit a double.

    The bounds follow Higham, Accuracy and Stability of Numerical
    Algorithms, 5.1 (_horner), and take exp, log and complex division to
    be accurate to a few units in the last place: x = q^{-z} and
    x^{-chi} = q^{chi z} to 8 u (|z| log q + 1) and 8 u (|chi z| log q + 1)
    relative, which also covers the rounding of the 30-digit point to z.
    A proof leaves twice each bound as room, which covers the 30-digit
    loop's own rounding (2^-50 times smaller) and the rounding of the
    bounds themselves.  Overflow, non-finite values, |x| or |1/(Qx)|
    outside (1e-100, 1e100) and a relative error of x above 1e-6 prove
    nothing.
    """
    N, D, cQ = _doubles(R.num), _doubles(R.den), _doubles((C, Q))
    if N is None or D is None or cQ is None:
        return None
    (c, Q), lnq = cQ, math.log(q)

    def proves_used(z):
        ex = 8 * _U * (abs(z) * lnq + 1)
        try:
            x = cmath.exp(-z * lnq)
            x_chi = cmath.exp(chi * z * lnq)
        except (OverflowError, ValueError):
            return False
        if not (1e-100 < abs(x) < 1e100 and ex < 1e-6):
            return False
        y = 1 / (Q * x)
        if not 1e-100 < abs(y) < 1e100:
            return False
        left = _quotient(N, D, x, abs(x) * ex)
        right = _quotient(N, D, y, abs(y) * (ex + 16 * _U))
        if left is None or right is None:
            return False
        (lhs, el), (r, er) = left, right
        rhs = c * x_chi * r
        er = abs(c * x_chi) * er + abs(rhs) * 8 * _U * (abs(chi * z) * lnq + 2) + _ETA
        bound = abs(lhs - rhs) * (1 + 8 * _U) + 2 * (el + er)
        floor = max(1.0, abs(lhs) * (1 - 8 * _U) - 2 * el)
        return math.isfinite(bound) and bound <= tol * floor * (1 - 8 * _U)

    return proves_used


def _quotient(N, D, x, ex):
    """(N(x)/D(x), bound) in doubles at x, the bound covering every point
    within ex of x, or None unless |D| provably exceeds twice the 1e-20
    pole threshold of the SAMPLE_DPS loop (with room for that loop's own
    error on D)."""
    d, ed = _horner(D, x, ex)
    if not abs(d) > 2 * (ed + 1e-20):
        return None
    n, en = _horner(N, x, ex)
    v = n / d
    return v, (en + abs(v) * ed) / (abs(d) - ed) + 8 * _U * abs(v) + _ETA


def _horner(P, x, ex):
    """(P(x), bound): Horner's rule in complex doubles on the double
    coefficients P, and a bound on its distance from the exact P at any
    point within ex of x.

    With r = |x| + ex and n = len(P), rounding costs at most
    gamma_{4n+2} sum |a_i| r^i (each complex product 2 sqrt(2) u, each
    sum u; Higham 5.1) and the coefficients' own rounding u sum |a_i| r^i;
    moving x by ex costs at most ex sum i |a_i| r^(i-1).  The bound
    doubles both, which covers the gamma denominators and the rounding
    of the sums, and _ETA in each |a_i| covers underflow in the products.
    """
    r = abs(x) + ex
    v = s = ds = 0.0
    for a in reversed(P):
        ds = ds * r + s
        s = s * r + abs(a) + _ETA
        v = v * x + a
    return v, 2 * ((4 * len(P) + 3) * _U * s + ex * ds)


def worst_modulus(P, Q: int, precision: int = DEFAULT_PRECISION):
    """(largest relative deviation of |x| from Q^{1/2}, that x) over the
    roots x of P, numerically: the witness of a failed roots_on_circle.

    The roots come from polynomial_roots at the given precision; the
    first root of largest deviation is the witness, and (0.0, None)
    means no root deviates.
    """
    worst, witness = mpmath.mpf(0), None
    roots = polynomial_roots(P, precision)
    with mpmath.workdps(precision + 10):
        target = mpmath.sqrt(Q)
        for x, _ in roots:
            dev = abs(abs(x) - target) / target
            if dev > worst:
                worst, witness = dev, complex(x)
    return float(worst), witness


# ---------------------------------------------------------------------------
# Root extraction
# ---------------------------------------------------------------------------


def polynomial_roots(P, precision: int = DEFAULT_PRECISION):
    """Roots of a rational-coefficient polynomial, [(approximation, multiplicity)].

    Roots at 0 are split off exactly and multiplicities come from the
    exact square-free decomposition (Yun), so no multiplicity is guessed
    numerically.  Each square-free part goes to mpmath.polyroots at
    precision + 15 digits; its roots come back real ones first, then each
    conjugate pair with its upper root first.  Raises RootFindingError
    when the iteration does not converge.
    """
    P = poly.trim(map(Fraction, P))
    if len(P) < 2:
        raise ValueError("degree must be >= 1")
    zeros = 0
    while P[0] == 0:
        P = P[1:]
        zeros += 1
    out = [(mpmath.mpc(0), zeros)] if zeros else []
    with mpmath.workdps(precision + 15):
        for part, mult in poly.squarefree(poly.primitive(P)):
            coeffs = [mpmath.mpf(c) for c in reversed(part)]
            try:
                roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * precision)
            except mpmath.mp.NoConvergence as exc:
                raise RootFindingError(f"{exc} (precision {precision})") from exc
            roots = sorted(
                map(mpmath.mpc, roots),
                key=lambda x: (abs(x.imag), x.real, -x.imag),
            )
            out.extend((x, mult) for x in roots)
    return out
